"""Compiler middle end: constant folding, region collapsing, DCE, baling."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.compiler.frontend import trace_kernel
from repro.compiler.passes import (
    analyze_bales, constant_fold, dead_code_eliminate, region_collapse,
)
from repro.compiler.passes.region_collapse import (
    IndexPattern, region_from_indices,
)


def build(body, surfaces=(("buf", False),), scalars=()):
    return trace_kernel(body, "k", surfaces, scalars)


class TestConstantFold:
    def test_arith_on_constants_folds(self):
        def body(cmx, buf):
            a = cmx.vector(np.int32, 8, np.arange(8))
            b = a + 10
            c = b * 2
            cmx.write_scattered(buf, 0, np.arange(8), c)

        fn = build(body)
        folded = constant_fold(fn)
        assert folded >= 2
        ops = [i.op for i in fn.instrs]
        assert "add" not in ops and "mul" not in ops

    def test_rdregion_of_constant_folds(self):
        def body(cmx, buf):
            a = cmx.vector(np.int32, 8, np.arange(8))
            sel = a.select(4, 2, 1)
            out = cmx.vector(np.int32, 4)
            out.assign(sel)
            cmx.write_scattered(buf, 0, np.arange(4), out)

        fn = build(body)
        constant_fold(fn)
        dead_code_eliminate(fn)
        consts = [fn.constants[i.result.id] for i in fn.instrs
                  if i.op == "constant" and i.result.id in fn.constants]
        assert any(c.tolist() == [1, 3, 5, 7] for c in consts)

    def test_wrregion_of_constants_folds(self):
        def body(cmx, buf):
            a = cmx.vector(np.int32, 8, np.zeros(8))
            a.select(4, 2, 0).assign([9, 9, 9, 9])
            cmx.write_scattered(buf, 0, np.arange(8), a)

        fn = build(body)
        constant_fold(fn)
        consts = [c.tolist() for c in fn.constants.values()]
        assert [9, 0, 9, 0, 9, 0, 9, 0] in consts


class TestRegionCollapse:
    def test_region_from_indices_contiguous(self):
        r = region_from_indices(np.arange(16))
        assert (r.width, r.hstride) == (16, 1)

    def test_region_from_indices_strided(self):
        r = region_from_indices(np.arange(0, 32, 2))
        assert r.hstride == 2

    def test_region_from_indices_two_runs(self):
        idx = np.concatenate([np.arange(8), np.arange(16, 24)])
        r = region_from_indices(idx)
        assert (r.vstride, r.width, r.hstride) == (16, 8, 1)

    def test_region_from_indices_impossible(self):
        assert region_from_indices(np.asarray([0, 1, 3, 7])) is None

    def test_fig4_chunk_region_from_parameters(self):
        # rows of 24 elements 32 apart: chunk [16, 32) spans two rows
        pat = IndexPattern(0, 32, 24, 1)
        r = pat.chunk_region(16, 16)
        assert (r.vstride, r.width, r.hstride) == (16, 8, 1)
        assert pat.at(16) == 16 and pat.step(16, 16) is None
        assert pat.step(0, 16) == 1

    @given(st.integers(0, 40), st.integers(-6, 70),
           st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 24, 40]),
           st.integers(-3, 9), st.booleans(), st.integers(0, 40),
           st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 32]))
    @settings(max_examples=400, deadline=None)
    def test_pattern_arithmetic_matches_index_arrays(
            self, off, vstride, width, hstride, continued, lo, e):
        """Legalization's arithmetic answers equal region_from_indices
        and np.diff on the materialized chunk."""
        if continued:
            vstride = width * hstride  # rows continue each other
        pat = IndexPattern(off, vstride, width, hstride)
        sub = pat.indices(lo + e)[lo:]
        assert pat.at(lo) == sub[0]
        want = region_from_indices(sub - sub[0])
        got = pat.chunk_region(lo, e)
        assert (want is None) == (got is None)
        if want is not None:
            assert (got.vstride, got.width, got.hstride) == \
                (want.vstride, want.width, want.hstride)
        if e > 1:
            d = np.diff(sub)
            assert pat.step(lo, e) == \
                (int(d[0]) if (d == d[0]).all() else None)

    def test_nested_rdregion_composes(self):
        def body(cmx, buf):
            src = cmx.vector(np.int32, 16)
            cmx.read_scattered(buf, 0, np.arange(16), src)
            outer = cmx.vector(np.int32, 8)
            outer.assign(src.select(8, 2, 0))
            inner = cmx.vector(np.int32, 4)
            inner.assign(outer.select(4, 2, 0))
            cmx.write_scattered(buf, 0, np.arange(4), inner)

        fn = build(body)
        region_collapse(fn)
        rds = [i for i in fn.instrs if i.op == "rdregion"]
        strides = {i.region.hstride for i in rds}
        assert 4 in strides  # composed stride 2*2

    def test_full_overwrite_becomes_mov(self):
        def body(cmx, buf):
            a = cmx.vector(np.int32, 8)
            cmx.read_scattered(buf, 0, np.arange(8), a)
            b = cmx.vector(np.int32, 8, np.zeros(8))
            b.select(8, 1, 0).assign(a)
            cmx.write_scattered(buf, 0, np.arange(8), b)

        fn = build(body)
        n = region_collapse(fn)
        assert n >= 1
        assert any(i.op == "mov" for i in fn.instrs)


class TestDeadCode:
    def test_unused_values_removed(self):
        def body(cmx, buf):
            a = cmx.vector(np.int32, 8, np.arange(8))
            _dead = a + 5
            live = a * 2
            cmx.write_scattered(buf, 0, np.arange(8), live)

        fn = build(body)
        removed = dead_code_eliminate(fn)
        assert removed >= 1
        assert "add" not in [i.op for i in fn.instrs]

    def test_shadowed_wrregion_elided(self):
        def body(cmx, buf):
            a = cmx.vector(np.int32, 8)
            cmx.read_scattered(buf, 0, np.arange(8), a)
            b = cmx.vector(np.int32, 8, np.zeros(8))
            b.select(4, 1, 0).assign(a.select(4, 1, 0))   # shadowed
            b.select(8, 1, 0).assign(a)                   # full overwrite
            cmx.write_scattered(buf, 8, np.arange(8), b)

        fn = build(body)
        n_wr_before = sum(i.op == "wrregion" for i in fn.instrs)
        dead_code_eliminate(fn)
        n_wr_after = sum(i.op == "wrregion" for i in fn.instrs)
        assert n_wr_after < n_wr_before

    def test_side_effects_kept(self):
        def body(cmx, buf):
            a = cmx.vector(np.int32, 8, np.arange(8))
            cmx.write_scattered(buf, 0, np.arange(8), a)

        fn = build(body)
        dead_code_eliminate(fn)
        assert any(i.op == "scatter" for i in fn.instrs)


class TestBaling:
    def test_rdregion_baled_into_consumer(self):
        def body(cmx, buf):
            src = cmx.vector(np.uint8, 32)
            cmx.read_scattered(buf, 0, np.arange(32), src)
            out = cmx.vector(np.float32, 16)
            out.assign(src.select(16, 2, 0))
            cmx.write_scattered(buf, 0, np.arange(16), out)

        fn = build(body)
        bales = analyze_bales(fn)
        assert any(r == "src_region" for r in bales.absorbed.values())

    def test_conversion_mov_baled_as_dst(self):
        def body(cmx, buf):
            a = cmx.vector(np.float32, 16)
            cmx.read_scattered(buf, 0, np.arange(16), a)
            out = cmx.vector(np.uint8, 16)
            out.assign(a * 2.0)  # mul result converted on assignment
            cmx.write_scattered(buf, 0, np.arange(16), out)

        fn = build(body)
        bales = analyze_bales(fn)
        assert any(r == "dst_conv" for r in bales.absorbed.values())

    def test_wrregion_baled_as_dst_region(self):
        def body(cmx, buf):
            a = cmx.vector(np.float32, 16)
            cmx.read_scattered(buf, 0, np.arange(16), a)
            out = cmx.vector(np.float32, 32, np.zeros(32))
            out.select(16, 2, 0).assign(a + 1.0)
            cmx.write_scattered(buf, 0, np.arange(32), out)

        fn = build(body)
        bales = analyze_bales(fn)
        assert any(r == "dst_region" for r in bales.absorbed.values())
