"""The compiled-launch tier decision and the one chunked launch loop.

``choose_tier`` is pure, so its whole input space is pinned here as a
table: requested tier x validate mode x JIT eligibility x race verdict
(plus the retired ``"wide"`` tier name, which every input refuses).
The integration tests check that a forced tier is the tier that runs,
that the JIT tier runs control-flow programs, that a program the JIT
fails to compile falls back to sequential under ``"auto"`` with its
reason recorded, that a pinned sequential tier stays unsanitized under
``"first"``, and that every tier chunks by ``max_live_threads`` with
identical timing.
"""

import dataclasses
import itertools

import numpy as np
import pytest

import repro.isa.jit as jit_mod
from repro.sanitize.race import RaceVerdict
from repro.sim.device import TIERS, Device, choose_tier

MODES = ("off", "first", "always")
VERDICTS = ("none", "race_free", "racy", "adopted_race_free")
_VERDICT_OBJECTS = {
    "none": None,
    "race_free": RaceVerdict(race_free=True),
    "racy": RaceVerdict(race_free=False),
    # adopted from a peer by name: the gate sees an ordinary verdict
    "adopted_race_free": RaceVerdict(race_free=True, threads=4),
}

SANITIZED = ("sanitized", "sanitized")
SEQUENTIAL = ("forced_scalar", "sequential")
INELIGIBLE = ("ineligible", "sequential")
BYPASSED = ("bypassed", "vector")
#: expected refusals: (ValueError, message pattern)
NOT_ELIGIBLE = (ValueError, "not JIT-eligible")
UNKNOWN_TIER = (ValueError, "tier must be one of")


def _expected():
    """(tier, mode, eligible) -> verdict -> (outcome, runs) or a
    (ValueError, pattern) refusal."""
    table = {}
    for mode, eligible in itertools.product(MODES, (True, False)):
        table["jit", mode, eligible] = BYPASSED if eligible else NOT_ELIGIBLE
        # the grid-vectorized interpreter tier is retired: its name is
        # refused whatever the gate inputs
        table["wide", mode, eligible] = UNKNOWN_TIER
        table["sequential", mode, eligible] = \
            SANITIZED if mode == "always" else SEQUENTIAL
    table["auto", "always", True] = SANITIZED
    table["auto", "always", False] = SANITIZED
    table["auto", "off", True] = ("trusted", "vector")
    table["auto", "off", False] = INELIGIBLE
    table["auto", "first", False] = INELIGIBLE
    table["auto", "first", True] = {
        # a first launch is race-checked on the JIT tier
        "none": ("sanitized", "checked"),
        "race_free": ("admitted", "vector"),
        "racy": ("refused", "sequential"),
        "adopted_race_free": ("admitted", "vector"),
    }
    return {key: (row if isinstance(row, dict)
                  else dict.fromkeys(VERDICTS, row))
            for key, row in table.items()}


_EXPECTED = _expected()


def test_tiers():
    assert TIERS == ("auto", "sequential", "jit")


@pytest.mark.parametrize("tier,mode,eligible,verdict", list(
    itertools.product((*TIERS, "wide"), MODES, (True, False), VERDICTS)))
def test_choose_tier_table(tier, mode, eligible, verdict):
    expect = _EXPECTED[tier, mode, eligible][verdict]
    reason = None if eligible else "unsupported send kind"
    args = (tier, mode, reason, _VERDICT_OBJECTS[verdict])
    if expect[0] is ValueError:
        with pytest.raises(ValueError, match=expect[1]):
            choose_tier(*args)
    else:
        assert choose_tier(*args) == expect


# -- through Device.run_compiled ----------------------------------------------

_VEC = 16
_SAXPY_SIG = [("xbuf", False), ("ybuf", False)]


def _saxpy_body(cmx, xbuf, ybuf, tid):
    off = tid * (_VEC * 4)
    x = cmx.vector(np.float32, _VEC)
    cmx.read(xbuf, off, x)
    y = cmx.vector(np.float32, _VEC)
    cmx.read(ybuf, off, y)
    out = cmx.vector(np.float32, _VEC)
    out.assign(x * np.float32(2.0) + y)
    cmx.write(ybuf, off, out)


def _clamp_body(cmx, src, dst, tid):
    off = tid * (_VEC * 4)
    v = cmx.vector(np.int32, _VEC)
    cmx.read(src, off, v)
    out = cmx.vector(np.int32, _VEC, 0)
    with cmx.simd_if(v > 0):
        out.assign(v)
    cmx.write(dst, off, out)


def _saxpy(dev, tier, validate, n_threads=12, max_live_threads=1024):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(n_threads * _VEC).astype(np.float32)
    y = rng.standard_normal(n_threads * _VEC).astype(np.float32)
    xbuf, ybuf = dev.buffer(x.copy()), dev.buffer(y.copy())
    kern = dev.compile(_saxpy_body, "tsaxpy", _SAXPY_SIG, ["tid"])
    run = dev.run_compiled(kern, (n_threads,), [xbuf, ybuf],
                           scalars=lambda t: {"tid": t[0]}, tier=tier,
                           max_live_threads=max_live_threads,
                           validate=validate)
    assert np.allclose(ybuf.to_numpy().view(np.float32), 2.0 * x + y,
                       atol=1e-6)
    return run


def _timing_equal(a, b):
    return all(getattr(a, f.name) == getattr(b, f.name)
               for f in dataclasses.fields(a))


@pytest.mark.parametrize("tier", ["sequential", "jit"])
def test_forced_tier_is_the_tier_that_runs(tier):
    dev = Device()
    run = _saxpy(dev, tier, validate="first")
    assert run.path == tier
    assert dev.profile.tier_launches == {tier: 1}
    assert dev.sanitizer_results == []


def test_sequential_tier_under_first_runs_unsanitized():
    dev = Device()
    for _ in range(2):
        assert _saxpy(dev, "sequential", validate="first").path == \
            "sequential"
    assert dev.profile.gate_outcomes == {"forced_scalar": 2}
    assert dev.sanitizer_results == []


def test_jit_tier_runs_simd_if_program():
    dev = Device()
    data = np.arange(-32, 32, dtype=np.int32)
    kern = dev.compile(_clamp_body, "tclamp",
                       [("src", False), ("dst", False)], ["tid"])

    def launch(tier):
        src = dev.buffer(data.copy())
        dst = dev.buffer(np.zeros_like(data))
        run = dev.run_compiled(kern, (4,), [src, dst],
                               scalars=lambda t: {"tid": t[0]},
                               tier=tier, validate="off")
        assert np.array_equal(dst.to_numpy().view(np.int32),
                              np.maximum(data, 0))
        return run

    assert launch("jit").path == "jit"
    # the JIT lowers control flow, so "auto" takes it too
    assert launch("auto").path == "jit"
    assert dev.profile.jit_compiles == 1


def test_jit_refused_program_runs_sequential_with_reason(monkeypatch):
    from repro import obs as obs_mod
    from repro.obs.tracing import ChromeTraceSink

    def refuse(program, pb, env, cf):
        raise jit_mod.JitError("operand corner case")

    monkeypatch.setattr(jit_mod, "_codegen", refuse)
    sink = ChromeTraceSink()
    dev = Device()
    with obs_mod.observed(sink=sink, span_metrics=False):
        run = _saxpy(dev, "auto", validate="off")
    assert run.path == "sequential"
    gates = [e["args"] for e in sink.events if e["name"] == "sanitize_gate"]
    assert gates == [{"kernel": "tsaxpy", "mode": "off",
                      "outcome": "ineligible",
                      "reason": "jit: operand corner case"}]
    assert dev.profile.gate_outcomes == {"ineligible": 1}
    with pytest.raises(ValueError, match="not JIT-eligible"):
        _saxpy(dev, "jit", validate="off")


@pytest.mark.parametrize("tier", ["sequential", "jit"])
def test_every_tier_chunks_by_max_live_threads(tier):
    dev = Device()
    run = _saxpy(dev, tier, validate="off", max_live_threads=5)
    assert dev.profile.chunks_dispatched == 3      # 12 threads: 5 + 5 + 2
    assert dev.profile.peak_live_traces == 5
    assert dev.profile.threads_run == 12
    whole = _saxpy(Device(), "sequential", validate="off")
    assert _timing_equal(run.timing, whole.timing)


# -- the validate="first" gate on the JIT tier ---------------------------------

def test_barrier_program_keeps_the_sequential_gate():
    # epochs only the sequential tier tracks: no JIT-tier check
    assert choose_tier("auto", "first", None, None, vector_gate=False) == \
        SANITIZED


def test_first_launch_of_a_barrier_program_runs_sanitized_sequential():
    from repro.isa.instructions import Instruction, Opcode

    dev = Device()
    kern = dev.compile(_saxpy_body, "tsaxpy", _SAXPY_SIG, ["tid"])
    kern.program.append(Instruction(Opcode.BARRIER, 1, None, []))
    kern.release_derived()
    rng = np.random.default_rng(5)
    x = rng.standard_normal(4 * _VEC).astype(np.float32)
    bufs = [dev.buffer(x.copy()), dev.buffer(x.copy())]
    runs = [dev.run_compiled(kern, (4,), bufs,
                             scalars=lambda t: {"tid": t[0]},
                             validate="first").path for _ in range(2)]
    assert runs == ["sequential", "jit"]
    (result,) = dev.sanitizer_results
    assert result.verdict.race_free and result.verdict.epochs > 1


def test_control_flow_eligibility_is_analyzed_once_per_kernel(monkeypatch):
    import repro.isa.cfg as cfg_mod

    calls = []
    real = cfg_mod.analyze_cf

    def counting(program):
        calls.append(len(program))
        return real(program)

    monkeypatch.setattr(cfg_mod, "analyze_cf", counting)
    monkeypatch.setattr(jit_mod, "analyze_cf", counting)
    dev = Device()
    kern = dev.compile(_clamp_body, "tclamp",
                       [("src", False), ("dst", False)], ["tid"])
    data = np.arange(-32, 32, dtype=np.int32)
    for _ in range(5):
        dev.run_compiled(kern, (4,), [dev.buffer(data.copy()),
                                      dev.buffer(np.zeros_like(data))],
                         scalars=lambda t: {"tid": t[0]}, validate="first")
    assert calls == [len(kern.program)]
    assert dev.profile.tier_launches == {"jit": 5}


def test_compiled_launch_resets_line_tracking_on_bound_surfaces_only(
        monkeypatch):
    from repro.memory.surfaces import Surface

    resets = []
    real = Surface.reset_line_tracking

    def counting(surf):
        resets.append(surf)
        real(surf)

    aged = Device()
    for _ in range(50):  # surfaces of earlier, finished requests
        aged.buffer(np.zeros(64, dtype=np.uint8))
    monkeypatch.setattr(Surface, "reset_line_tracking", counting)
    run = _saxpy(aged, "auto", validate="off")
    assert len(resets) == 2        # xbuf and ybuf, not the 50 others
    monkeypatch.undo()
    fresh = _saxpy(Device(), "auto", validate="off")
    assert _timing_equal(run.timing, fresh.timing)
