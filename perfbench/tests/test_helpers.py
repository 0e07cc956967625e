"""Tests for the benchmark's own helpers.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench import layers, loads, run  # noqa: E402
from perfbench.stats import (  # noqa: E402
    attribute, check_metric_name, percentile, samples_beyond, spread,
)


# -- percentiles ---------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 90) == 7.0


def test_percentile_ignores_input_order():
    assert percentile([5, 1, 4, 2, 3], 50) == 3


def test_samples_beyond_counts_strictly_greater():
    values = list(range(1, 101))
    assert samples_beyond(values, 90) == 10
    assert samples_beyond(values, 50) == 50
    # ties at the cut are not "beyond" it
    assert samples_beyond([1, 2, 2, 2, 2], 50) == 0


@pytest.mark.parametrize("bad", [0, -1, 101])
def test_percentile_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        percentile([1, 2, 3], bad)


def test_percentile_rejects_empty_sample():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_spread_matches_statistics_quantiles():
    s = spread([10.0, 11.0, 12.0, 13.0, 14.0])
    assert s["median"] == 12.0
    assert s["q1"] == 10.5 and s["q3"] == 13.5
    assert s["iqr_over_median"] == pytest.approx(3.0 / 12.0)
    assert s["max_over_min"] == pytest.approx(1.4)


# -- attribution ---------------------------------------------------------------


def test_attribution_sums_to_mean_latency():
    layers_s = {"a": 0.010, "b": 0.004, "c": 0.0}
    shares = attribute(0.020, layers_s, ops=4)
    assert sum(shares.values()) == pytest.approx(0.020 * 1e3 / 4)
    assert shares["unattributed"] == pytest.approx(1.5)
    assert all(v >= 0 for v in shares.values())


def test_attribution_rejects_negative_terms():
    with pytest.raises(ValueError):
        attribute(0.010, {"a": -0.001}, ops=1)
    with pytest.raises(ValueError):  # layers exceed the latency
        attribute(0.010, {"a": 0.008, "b": 0.004}, ops=1)


def _req(submit, dispatch, done, **kw):
    fields = dict(t_submit_wall=submit, t_dispatch_wall=dispatch,
                  t_done_wall=done, wait_wall_s=dispatch - submit,
                  latency_wall_s=done - submit, cache_hits=1,
                  cache_misses=0, batch_size=1, shard_index=None)
    fields.update(kw)
    return SimpleNamespace(**fields)


def test_cluster_attribution_covers_the_request_timeline():
    # client 0.0 -> submit 0.001 -> dispatch 0.004 -> done 0.010 -> 0.011
    req = _req(0.001, 0.004, 0.010)
    op = loads.Op(entry=None, t0=0.0, t1=0.011, ok=True, request=req)
    phase = layers.Tally()
    phase.add("workloads.make", 0.001)
    phase.add("memory.bind", 0.0005)
    phase.add("isa.dispatch", 0.004)
    phase.add("isa.dispatch.jit", 0.004)
    phase.add("workloads.check", 0.0005)
    got = layers.attribution_layers("cluster", [op], phase)
    assert got["serve.queue_wait"] == pytest.approx(0.002)
    assert got["serve.self"] == pytest.approx(0.001)
    shares = attribute(op.latency_s, got, 1)
    assert sum(shares.values()) == pytest.approx(11.0)
    assert shares["unattributed"] == pytest.approx(2.0)
    assert all(v >= 0 for v in shares.values())


def test_shard_trees_are_attributed_from_the_graft():
    from repro.obs import RequestTrace

    trace = RequestTrace("t-1")
    shard_side = {
        "trace_id": "t-s0", "spans": [
            {"name": "queue_wait", "t0_us": 100.0, "dur_us": 300.0},
            {"name": "serve:request", "t0_us": 500.0, "dur_us": 2000.0,
             "children": [
                 {"name": "sanitize_gate", "t0_us": 510.0, "dur_us": 0.0,
                  "attrs": {"outcome": "admitted"}},
                 {"name": "dispatch", "t0_us": 520.0, "dur_us": 1500.0,
                  "attrs": {"path": "jit"}},
                 {"name": "fold", "t0_us": 2030.0, "dur_us": 10.0}]}]}
    trace.graft(shard_side, name="shard", shard=0)
    req = _req(0.0, 0.0004, 0.003, trace=trace, shard_index=0)
    op = loads.Op(entry=None, t0=0.0, t1=0.003, ok=True, request=req)
    phase = layers.tally_shard_trees([req])
    assert phase.s("shard.in_shard") == pytest.approx(0.0024)
    assert phase.n("isa.dispatch.jit") == 1
    got = layers.attribution_layers("sharded", [op], phase)
    assert got["shard.control"] == pytest.approx(0.0006)
    assert got["serve.queue_wait"] == pytest.approx(0.0004)
    assert got["isa.dispatch"] == pytest.approx(0.0015)
    assert got["serve.self"] == pytest.approx(0.00049)
    shares = attribute(op.latency_s, got, 1)
    assert sum(shares.values()) == pytest.approx(3.0)
    assert all(v >= 0 for v in shares.values())


def test_sanitized_dispatch_counts_as_sanitize_gate():
    from repro.obs import SpanNode

    root = SpanNode("serve:request", 0.0)
    gate = SpanNode("sanitize_gate", 1.0, {"outcome": "sanitized"})
    disp = SpanNode("dispatch", 2.0, {"path": "compiled"})
    disp.dur_us = 5000.0
    root.children = [gate, disp]
    tally = layers.Tally()
    layers._tally_launch_spans(root, tally)
    assert tally.s("sanitize.gate") == pytest.approx(0.005)
    assert tally.n("isa.dispatch") == 0


# -- names and the benchmark definition ----------------------------------------


def test_every_metric_name_is_valid():
    names = [n for n, _ in run.END_TO_END] + [n for n, _ in layers.PER_LAYER]
    names += list(loads.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert check_metric_name(name) == name


@pytest.mark.parametrize("bad", ["", "_x", "a b", "a/b", "x" * 65, "μs"])
def test_bad_metric_names_are_rejected(bad):
    with pytest.raises(ValueError):
        check_metric_name(bad)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(loads.WORKLOADS)
    units = dict(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(n, units[n]) for n in run.BOUNDED]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)


def test_op_stream_keeps_the_mix_for_every_seed():
    entries = loads.STRAIGHT
    block = sum(e.weight for e in entries)
    for seed in (1, 2, 3):
        stream = loads.op_stream(entries, seed, 0)
        drawn = [next(stream)[0] for _ in range(3 * block)]
        for e in entries:
            assert drawn.count(e) == 3 * e.weight


def test_op_stream_repeats_for_a_seed():
    def first(seed, stream, n=50):
        it = loads.op_stream(loads.COLD, seed, stream)
        return [next(it) for _ in range(n)]

    assert first(7, 0) == first(7, 0)
    assert first(7, 0) != first(8, 0)
    assert first(7, 0) != first(7, 1)


def test_rss_probe_reads_once_at_the_nth_op():
    probe = loads.RssProbe(3)
    for _ in range(2):
        probe.op_done()
    assert probe.mb is None
    probe.op_done()
    first = probe.mb
    assert first > 0
    probe.op_done()
    assert probe.mb == first


def test_straight_menu_is_loadgens_shard_mix():
    from fractions import Fraction
    from repro.serve.loadgen import _MIXES

    total = sum(e.weight for e in loads.STRAIGHT)
    got = {}
    for e in loads.STRAIGHT:
        got[e.key] = got.get(e.key, 0) + Fraction(e.weight, total)
    assert got == {key: Fraction(str(w)) for key, _, w in _MIXES["shard"]}
    variants = [dict(e.params) for e in loads.STRAIGHT]
    assert variants == [v for _, vs, _ in _MIXES["shard"] for v in vs]


# -- rounds --------------------------------------------------------------------


def test_traced_rounds_balance_a_linear_drift():
    traced = [i for i in range(run.ROUNDS) if run._traced_round(i)]
    plain = [i for i in range(run.ROUNDS) if not run._traced_round(i)]
    assert len(traced) == len(plain)
    assert sum(traced) / len(traced) == pytest.approx(
        sum(plain) / len(plain), abs=0.5)


def test_throughput_counts_only_the_rounds_own_time():
    def op(t0, t1, ok=True):
        return loads.Op(entry=None, t0=t0, t1=t1, ok=ok)

    rounds = [[op(0.0, 1.0), op(0.5, 2.0)],           # 2 s
              [op(100.0, 101.0), op(100.0, 101.0, ok=False)]]  # 1 s
    assert run._throughput(rounds) == pytest.approx(3 / 3.0)


def test_rounds_are_kept_by_steal_alone():
    n = run.ROUNDS
    assert run._least_stolen([0.0] * n) == list(range(n))
    steals = [0.0] * n + [0.01] * run.EXTRA_ROUNDS
    steals[2] = 0.2  # a disturbed round is replaced by the first extra one
    kept = run._least_stolen(steals)
    assert 2 not in kept and n in kept and len(kept) == n
