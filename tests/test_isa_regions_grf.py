"""Region addressing arithmetic and the GRF model."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.isa.dtypes import D, F, UB, UW
from repro.isa.grf import GRFFile, RegOperand
from repro.isa.regions import (
    Region, RegionDesc, region_element_offsets, region_for_strided,
)


class TestRegion:
    @given(st.integers(0, 20), st.sampled_from([1, 2, 3, 4, 8, 16]),
           st.integers(0, 4), st.sampled_from([1, 2, 3, 4, 8, 16, 32]),
           st.integers(0, 9), st.integers(0, 9),
           st.sampled_from([D, F, UB, UW]))
    def test_parameter_queries_match_offsets(self, v, w, h, n, reg, sub,
                                             dt):
        """is_contiguous / is_scalar / span / regs_read, decided from
        the region parameters, agree with the materialized offsets."""
        r = Region(v, w, h)
        offs = region_element_offsets(r, n)
        assert r.is_contiguous(n) == (offs.tolist() == list(range(n)))
        assert r.is_scalar(n) == bool((offs == 0).all())
        assert r.span(n) == offs.max()
        op = RegOperand(reg, sub, dt, r)
        idx = (op.byte_offset + offs * dt.size)[:, None] + np.arange(dt.size)
        assert op.regs_read(n) == tuple(np.unique(idx // 32).tolist())

    def test_contiguous(self):
        r = Region.contiguous(8)
        assert region_element_offsets(r, 16).tolist() == list(range(16))
        assert r.is_contiguous(16)

    def test_scalar_broadcast(self):
        r = Region.scalar()
        assert region_element_offsets(r, 8).tolist() == [0] * 8

    def test_strided(self):
        r = Region(16, 8, 2)
        offs = region_element_offsets(r, 16)
        assert offs.tolist() == [0, 2, 4, 6, 8, 10, 12, 14,
                                 16, 18, 20, 22, 24, 26, 28, 30]

    def test_row_spanning_fig4(self):
        # The <16;8,1> region from Fig. 4: two runs of 8 elements 16 apart.
        r = Region(16, 8, 1)
        offs = region_element_offsets(r, 16)
        assert offs.tolist() == list(range(8)) + list(range(16, 24))

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            Region(0, 0, 1)

    def test_str(self):
        assert str(Region(16, 8, 2)) == "<16;8,2>"

    def test_region_for_strided(self):
        r = region_for_strided(16, 2)
        offs = region_element_offsets(r, 16)
        assert offs.tolist() == list(range(0, 32, 2))

    def test_region_desc_byte_offsets(self):
        desc = RegionDesc(4, Region(0, 4, 2), 4)
        assert desc.byte_offsets(4).tolist() == [4, 12, 20, 28]


class TestGRF:
    def test_write_read_bytes(self):
        grf = GRFFile()
        grf.write_bytes(64, np.arange(32, dtype=np.uint8))
        assert grf.read_bytes(64, 32).tolist() == list(range(32))

    def test_bounds_checked(self):
        grf = GRFFile()
        with pytest.raises(IndexError):
            grf.write_bytes(4095, np.zeros(2, dtype=np.uint8))
        with pytest.raises(IndexError):
            grf.read_bytes(4090, 100)

    def test_typed_region_read(self):
        grf = GRFFile()
        grf.write_bytes(32, np.arange(8, dtype=np.float32))
        op = RegOperand(1, 0, F, region=Region(0, 4, 2))
        assert grf.read_region(op, 4).tolist() == [0.0, 2.0, 4.0, 6.0]

    def test_subreg_in_element_units(self):
        grf = GRFFile()
        grf.write_bytes(0, np.arange(16, dtype=np.uint16))
        op = RegOperand(0, 3, UW, region=Region(4, 4, 1))
        assert grf.read_region(op, 4).tolist() == [3, 4, 5, 6]

    def test_strided_destination_write(self):
        grf = GRFFile()
        op = RegOperand(0, 0, D, dst_stride=2)
        grf.write_region(op, np.asarray([1, 2, 3, 4], dtype=np.int32))
        row = grf.dump_reg(0, D)
        assert row[:8].tolist() == [1, 0, 2, 0, 3, 0, 4, 0]

    def test_masked_write(self):
        grf = GRFFile()
        op = RegOperand(0, 0, D)
        grf.write_region(op, np.asarray([1, 2, 3, 4], dtype=np.int32),
                         mask=np.asarray([True, False, True, False]))
        assert grf.dump_reg(0, D)[:4].tolist() == [1, 0, 3, 0]

    def test_cross_register_region(self):
        grf = GRFFile()
        grf.write_bytes(0, np.arange(64, dtype=np.uint8))
        op = RegOperand(0, 0, UB, region=Region(32, 8, 1))
        out = grf.read_region(op, 16)
        assert out.tolist() == list(range(8)) + list(range(32, 40))

    def test_byte_float_aliasing(self):
        grf = GRFFile()
        grf.write_bytes(0, np.asarray([1.0], dtype=np.float32))
        raw = grf.read_region(RegOperand(0, 0, UB, Region(4, 4, 1)), 4)
        assert raw.view(np.float32)[0] == 1.0

    @given(st.integers(1, 16), st.integers(1, 4))
    def test_region_roundtrip(self, width, hstride):
        grf = GRFFile()
        n = width
        data = np.arange(n, dtype=np.int32)
        grf.write_region(RegOperand(0, 0, D, dst_stride=hstride), data)
        r = Region(width * hstride, width, hstride)
        back = grf.read_region(RegOperand(0, 0, D, region=r), n)
        assert back.tolist() == data.tolist()
