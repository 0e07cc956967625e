"""The autotuner subsystem: spaces, search, registry, tuned serving.

Covers the ISSUE 10 checklist: deterministic space enumeration and
constraint filtering, deterministic search with a budget cap, the
bit-exact correctness gate rejecting a deliberately-wrong variant,
registry persistence and reload, kernel-cache pre-seeding that survives
``Device.reset``, per-machine winners differing across generations, and
a mixed-generation ServeCluster dispatching each device its own tuned
variant (asserted through both ``report()`` and the request traces).
"""

import numpy as np
import pytest

from repro.serve import RequestStatus, ServeCluster
from repro.sim.device import Device
from repro.sim.machine import GEN9_SKL, GEN11_ICL, GEN12_TGL, SIMD32_APL
from repro.tune import (
    Knob, TunableWorkload, TunedEntry, TunedRegistry, TuneSpace,
    canonical_point, get_tunable, param_digest, point_label, tune,
    tunable_families,
)
from repro.workloads import transpose as tp_mod


class TestTuneSpace:
    def test_points_are_deterministic_and_valid(self):
        space = get_tunable("transpose").space_for({"n": 256})
        first = list(space.points())
        second = list(space.points())
        assert first == second
        assert first, "space must have valid points"
        assert all(space.is_valid(p) for p in first)
        # Constraint filtering shrinks the declared grid.
        assert len(first) < space.size()

    def test_constraint_filters_invalid_points(self):
        space = get_tunable("transpose").space_for({"n": 256})
        # The register-block path only unrolls up to a 16-edge tile.
        assert not space.is_valid({"tile": 32, "use_slm": 0, "simd": 16})
        # ocl.enqueue requires lsize % simd == 0, i.e. simd <= tile.
        assert not space.is_valid({"tile": 16, "use_slm": 1, "simd": 32})
        # The SLM path at full width is the APL winner — must be legal.
        assert space.is_valid({"tile": 32, "use_slm": 1, "simd": 32})
        # Off-grid values are invalid regardless of constraint.
        assert not space.is_valid({"tile": 7, "use_slm": 0, "simd": 16})

    def test_default_point_is_the_hand_tuned_baseline(self):
        space = get_tunable("transpose").space_for({"n": 256})
        default = space.default_point()
        assert default == {"tile": tp_mod.TILE, "use_slm": 0, "simd": 16}
        assert default in list(space.points())

    def test_neighbors_are_valid_one_knob_steps(self):
        space = get_tunable("transpose").space_for({"n": 256})
        default = space.default_point()
        for cand in space.neighbors(default):
            assert space.is_valid(cand)
            diff = [k for k in cand if cand[k] != default[k]]
            assert len(diff) == 1

    def test_digest_and_label_are_order_independent(self):
        assert param_digest({"a": 1, "b": 2}) == param_digest({"b": 2, "a": 1})
        assert param_digest({"a": 1}) != param_digest({"a": 2})
        assert point_label({"bn": 16, "bm": 8}) == "bm=8,bn=16"
        assert canonical_point({"y": 1, "x": 0}) == (("x", 0), ("y", 1))

    def test_bad_spaces_are_rejected(self):
        with pytest.raises(ValueError):
            Knob("empty", ())
        with pytest.raises(ValueError):
            TuneSpace(knobs=[Knob("a", (1,)), Knob("a", (2,))])

    def test_all_registered_families_have_admissible_defaults(self):
        assert set(tunable_families()) == \
            {"gemm", "linear_filter", "systolic", "transpose"}
        for family in tunable_families():
            wl = get_tunable(family)
            space = wl.space_for(dict(wl.default_problem))
            assert space.is_valid(space.default_point())


# -- search ------------------------------------------------------------------
#
# Search tests run the transpose family: its variants interpret eagerly
# (no compile cost), so a full 9-point grid scores in well under a
# second per machine.


def _toy_workload() -> TunableWorkload:
    """A tiny family with one knob that can be correct, wrong, or crash."""
    problem = {"n": 16}

    def space_fn(p):
        return TuneSpace(knobs=[Knob("mode", (0, 1, 2))],
                         default={"mode": 0})

    def inputs_fn(p, seed):
        rng = np.random.default_rng(seed)
        return {"a": rng.standard_normal(
            (p["n"], p["n"])).astype(np.float32)}

    def reference_fn(p, inputs):
        return inputs["a"].T.copy()

    def variant_fn(p, point):
        def run(device, inputs):
            if point["mode"] == 2:
                raise ValueError("deliberately broken variant")
            out = tp_mod.run_cm(device, inputs["a"], tile=4)
            if point["mode"] == 1:
                out = out + 1.0  # silently wrong output
            return out

        from repro.tune.workloads import Variant
        return Variant(family="toy", label=point_label(point),
                       point=dict(point), kind="eager",
                       kernel_name="toy", run=run)

    return TunableWorkload(
        family="toy", description="test-only family",
        default_problem=problem, space_fn=space_fn, inputs_fn=inputs_fn,
        reference_fn=reference_fn, variant_fn=variant_fn)


class TestSearch:
    def test_grid_search_is_deterministic(self):
        a = tune("transpose", GEN9_SKL, problem={"n": 64}, strategy="grid")
        b = tune("transpose", GEN9_SKL, problem={"n": 64}, strategy="grid")
        assert a.best_point == b.best_point
        assert a.best_sim_us == b.best_sim_us
        assert [e.label for e in a.evaluations] == \
            [e.label for e in b.evaluations]
        assert [e.sim_us for e in a.evaluations] == \
            [e.sim_us for e in b.evaluations]

    def test_winner_never_loses_to_the_baseline(self):
        res = tune("transpose", GEN9_SKL, problem={"n": 64})
        assert res.baseline_sim_us is not None
        assert res.best_sim_us <= res.baseline_sim_us
        assert res.speedup >= 1.0

    def test_budget_caps_evaluations_but_keeps_the_baseline(self):
        res = tune("transpose", GEN9_SKL, problem={"n": 64}, budget=3)
        assert res.n_evaluated <= 3
        # The hand-tuned default is always scored first.
        assert res.evaluations[0].point == \
            get_tunable("transpose").space_for({"n": 64}).default_point()

    def test_hill_climb_finds_an_admissible_winner(self):
        res = tune("transpose", GEN9_SKL, problem={"n": 64},
                   strategy="hill")
        assert res.strategy == "hill"
        assert res.best_sim_us > 0
        assert res.speedup >= 1.0
        # The climb explores less than the grid does.
        grid = tune("transpose", GEN9_SKL, problem={"n": 64})
        assert res.n_evaluated <= grid.n_evaluated

    def test_machines_disagree_about_the_transpose_winner(self):
        """Gen9's 168 threads want small register tiles; APL's 768-thread
        SIMD32 fabric tunes into the SLM path at full dispatch width."""
        gen9 = tune("transpose", GEN9_SKL, problem={"n": 64})
        apl = tune("transpose", SIMD32_APL, problem={"n": 64})
        assert gen9.best_point != apl.best_point
        assert gen9.best_point["use_slm"] == 0
        assert apl.best_point == {"tile": 32, "use_slm": 1, "simd": 32}

    def test_correctness_gate_rejects_wrong_output(self):
        res = tune(_toy_workload(), GEN9_SKL)
        by_label = {e.label: e for e in res.evaluations}
        assert by_label["mode=0"].status == "ok"
        assert by_label["mode=1"].status == "wrong_result"
        assert by_label["mode=2"].status == "run_error"
        assert res.best_point == {"mode": 0}
        assert res.n_admissible == 1

    def test_no_admissible_point_raises(self):
        wl = _toy_workload()
        broken = TunableWorkload(
            family="toy", description=wl.description,
            default_problem=wl.default_problem,
            space_fn=lambda p: TuneSpace(knobs=[Knob("mode", (1, 2))],
                                         default={"mode": 1}),
            inputs_fn=wl.inputs_fn, reference_fn=wl.reference_fn,
            variant_fn=wl.variant_fn)
        with pytest.raises(RuntimeError, match="no admissible point"):
            tune(broken, GEN9_SKL)

    def test_bad_arguments_are_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            tune("transpose", GEN9_SKL, strategy="annealing")
        with pytest.raises(ValueError, match="budget"):
            tune("transpose", GEN9_SKL, budget=0)
        with pytest.raises(KeyError):
            get_tunable("nonesuch")


# -- registry ----------------------------------------------------------------


def _entry(family, problem, machine_name, point, label=None, sim_us=1.0):
    return TunedEntry(
        family=family, problem=dict(problem),
        param_digest=param_digest(problem), machine_name=machine_name,
        point=dict(point), label=label or point_label(point),
        sim_us=sim_us, baseline_sim_us=2.0)


class TestTunedRegistry:
    def test_record_lookup_save_load_roundtrip(self, tmp_path):
        res = tune("transpose", GEN9_SKL, problem={"n": 64})
        reg = TunedRegistry()
        entry = reg.record(res)
        assert len(reg) == 1
        hit = reg.lookup("transpose", {"n": 64}, GEN9_SKL.name)
        assert hit is entry
        assert hit.speedup == res.speedup
        # Problem identity is by digest: a different shape misses.
        assert reg.lookup("transpose", {"n": 128}, GEN9_SKL.name) is None
        assert reg.lookup("transpose", {"n": 64}, GEN12_TGL.name) is None

        path = tmp_path / "tuned.json"
        reg.save(path)
        loaded = TunedRegistry.load(path)
        assert len(loaded) == 1
        back = loaded.lookup("transpose", {"n": 64}, GEN9_SKL.name)
        assert back.point == entry.point
        assert back.sim_us == entry.sim_us
        assert loaded.best_point("transpose", {"n": 64}, GEN9_SKL.name) \
            == res.best_point

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "entries": []}')
        with pytest.raises(ValueError, match="version"):
            TunedRegistry.load(path)

    def test_preseed_compiles_and_survives_device_reset(self):
        problem = {"m": 32, "n": 32, "k": 16}
        point = {"bm": 8, "bn": 16, "ktile": 16}
        reg = TunedRegistry()
        reg.add(_entry("gemm", problem, GEN9_SKL.name, point))
        device = Device(GEN9_SKL)
        assert reg.preseed(device) == 1
        misses_after_seed = device.kernel_cache.stats.misses
        assert misses_after_seed >= 1

        wl = get_tunable("gemm")
        inputs = wl.make_inputs(problem)
        out = wl.variant(problem, point).run(device, inputs)
        assert np.array_equal(out, wl.reference(problem, inputs))
        assert device.kernel_cache.stats.hits >= 1
        assert device.kernel_cache.stats.misses == misses_after_seed

        # reset() keeps the kernel cache (zeroing its stats): the tuned
        # program is still hot, so the rerun hits without a recompile.
        device.reset()
        wl.variant(problem, point).run(device, inputs)
        assert device.kernel_cache.stats.misses == 0
        assert device.kernel_cache.stats.hits >= 1

    def test_preseed_skips_non_compiled_variants_and_other_machines(self):
        reg = TunedRegistry()
        reg.add(_entry("transpose", {"n": 64}, GEN9_SKL.name,
                       {"tile": 8, "use_slm": 0, "simd": 16}))
        reg.add(_entry("gemm", {"m": 32, "n": 32, "k": 16},
                       GEN12_TGL.name, {"bm": 8, "bn": 16, "ktile": 16}))
        device = Device(GEN9_SKL)
        # The Gen9 entry is eager (nothing to compile); the compiled
        # entry belongs to another machine.
        assert reg.preseed(device) == 0

    def test_registry_survives_pickling_without_its_lock(self):
        import pickle
        reg = TunedRegistry()
        reg.add(_entry("transpose", {"n": 64}, GEN9_SKL.name,
                       {"tile": 8, "use_slm": 0, "simd": 16}))
        clone = pickle.loads(pickle.dumps(reg))
        assert len(clone) == 1
        assert clone.lookup("transpose", {"n": 64}, GEN9_SKL.name).point \
            == {"tile": 8, "use_slm": 0, "simd": 16}


# -- serving -----------------------------------------------------------------


def _find_span(node, name):
    if node.get("name") == name:
        return node
    for child in node.get("children", ()):
        hit = _find_span(child, name)
        if hit is not None:
            return hit
    return None


class TestTunedServing:
    def test_mixed_generation_cluster_serves_per_machine_variants(self):
        """Two devices of different generations behind one queue: each
        request is served with the variant tuned for the machine it
        landed on, visible in the request stamp, the report, and the
        trace."""
        problem = {"n": 256}
        reg = TunedRegistry()
        reg.add(_entry("transpose", problem, GEN9_SKL.name,
                       {"tile": 8, "use_slm": 0, "simd": 16}))
        reg.add(_entry("transpose", problem, SIMD32_APL.name,
                       {"tile": 32, "use_slm": 1, "simd": 32}))
        with ServeCluster(num_devices=2, machine=[GEN9_SKL, SIMD32_APL],
                          batching=False, tuned=reg) as cluster:
            reqs = [cluster.submit("tuned.transpose",
                                   {"n": 256, "check": True})
                    for _ in range(6)]
            assert cluster.drain(timeout=120.0)

        by_machine = {}
        for req in reqs:
            assert req.status is RequestStatus.DONE
            assert req.tier == "tuned"
            assert req.variant is not None
            machine = cluster.devices[req.device_index].machine.name
            by_machine.setdefault(machine, set()).add(req.variant)
        assert by_machine[GEN9_SKL.name] == {"simd=16,tile=8,use_slm=0"}
        assert by_machine[SIMD32_APL.name] == {"simd=32,tile=32,use_slm=1"}

        report = cluster.report()
        assert report["tuned"]["enabled"]
        assert report["tuned"]["entries"] == 2
        assert set(report["tuned"]["variants_served"]) == {
            "transpose:simd=16,tile=8,use_slm=0",
            "transpose:simd=32,tile=32,use_slm=1",
        }
        assert set(report["machines"]) == {GEN9_SKL.name, SIMD32_APL.name}
        # Each device's own variant tally names only its machine's winner.
        for dev in report["per_device"]:
            assert len(dev["variants"]) <= 1

        # The tuned dispatch is traced, with the resolved variant.
        traced = next(r for r in reqs if r.trace is not None)
        tree = traced.trace.to_dict()
        span = None
        for root in tree["spans"]:
            span = span or _find_span(root, "tuned_variant")
        assert span is not None
        assert span["attrs"]["tuned"] is True
        assert span["attrs"]["variant"] == traced.variant

    def test_untuned_machine_falls_back_to_the_default_variant(self):
        reg = TunedRegistry()  # empty: nothing tuned for this machine
        with ServeCluster(num_devices=1, machine=GEN11_ICL,
                          batching=False, tuned=reg) as cluster:
            req = cluster.submit("tuned.transpose", {"n": 64, "check": True})
            assert req.wait(60.0)
            assert req.status is RequestStatus.DONE
            assert req.variant == "simd=16,tile=16,use_slm=0"
        tree = req.trace.to_dict()
        span = None
        for root in tree["spans"]:
            span = span or _find_span(root, "tuned_variant")
        assert span is not None and span["attrs"]["tuned"] is False

    def test_tuned_requests_with_same_problem_batch_together(self):
        from repro.serve import Request
        reg = TunedRegistry()
        with ServeCluster(num_devices=1, batching=True, max_batch=8,
                          tuned=reg) as cluster:
            reqs = [Request(workload="tuned.transpose", params={"n": 64})
                    for _ in range(3)]
            items = [cluster._resolve(r) for r in reqs]
            assert all(i is not None and i.kind == "tuned" for i in items)
            keys = {i.batch_key for i in items}
            assert len(keys) == 1 and None not in keys
            batches = cluster.batcher.form(items)
            assert len(batches) == 1 and batches[0].size == 3


class TestSimd32Machine:
    def test_apl_is_natively_32_wide_for_f32(self):
        assert SIMD32_APL.native_simd(4) == 32
        assert GEN11_ICL.native_simd(4) == 16
        assert SIMD32_APL.max_operand_bytes == 128

    def test_apl_has_more_threads_and_wider_alus_than_gen11(self):
        from repro.isa.dtypes import F
        assert SIMD32_APL.num_threads > GEN11_ICL.num_threads
        assert SIMD32_APL.alu_lanes_per_cycle(F) > \
            GEN11_ICL.alu_lanes_per_cycle(F)
