"""Differential tests: every vectorized ``*_many`` surface method against
a per-thread loop of its scalar counterpart.

The JIT tier issues one ``*_many`` call for all the threads of a chunk;
the sequential tier issues the scalar call once per thread, in thread
order.  Both must leave identical bytes, identical OOB accounting and
identical ``(total, new)`` line counts: a line shared by several threads
is compulsory traffic for the lowest thread id only, and of overlapping
writes the later thread wins.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.dtypes import D, F, UB, UD, UQ, UW
from repro.memory.surfaces import BufferSurface, Image2DSurface

SETTINGS = settings(max_examples=120, deadline=None)


def _pair(make):
    """Two identical surfaces: one for the vector call, one for the loop."""
    return make(), make()


def _oob(surf) -> tuple:
    """OOB accounting: clipped lanes, lanes in events, event kinds."""
    return (surf.oob_clipped_lanes,
            sum(lanes for _, lanes, _ in surf.oob_events),
            sorted({kind.removesuffix("_many")
                    for kind, _, _ in surf.oob_events}))


def _touched(surf) -> np.ndarray:
    return surf._touched < 0


@st.composite
def images(draw):
    """An image with an unaligned pitch and random contents."""
    height = draw(st.integers(1, 9))
    pitch = draw(st.integers(1, 150))
    seed = draw(st.integers(0, 2 ** 16))
    data = np.random.default_rng(seed).integers(
        0, 256, (height, pitch), dtype=np.uint8)
    return lambda: Image2DSurface(data.copy())


@st.composite
def blocks(draw, tiled=None):
    """``(make, xs, ys, width, height)``: T blocks that may cross any
    edge and overlap, or (``tiled``) sit on in-bounds tiles, possibly
    repeated, in drawn or ascending order."""
    make = draw(images())
    probe = make()
    w = draw(st.integers(1, min(20, probe.pitch)))
    h = draw(st.integers(1, min(5, probe.height)))
    t = draw(st.integers(1, 7))
    if tiled is None:
        tiled = draw(st.booleans())
    if tiled:
        nx, ny = probe.pitch // w, probe.height // h
        tiles = draw(st.lists(st.integers(0, nx * ny - 1), min_size=1,
                              max_size=t))
        if draw(st.booleans()):
            tiles.sort()
        xs = [(k % nx) * w for k in tiles]
        ys = [(k // nx) * h for k in tiles]
    else:
        xs = draw(st.lists(st.integers(-w - 2, probe.pitch + 2),
                           min_size=t, max_size=t))
        ys = draw(st.lists(st.integers(-h - 2, probe.height + 2),
                           min_size=t, max_size=t))
    return make, np.array(xs, np.int64), np.array(ys, np.int64), w, h


@st.composite
def ranges(draw):
    """``(make, offsets, nbytes)``: in-bounds ranges that may overlap,
    repeat, or come in any order, on a buffer of unaligned size."""
    size = draw(st.integers(1, 400))
    nbytes = draw(st.integers(1, min(size, 80)))
    offs = draw(st.lists(st.integers(0, size - nbytes), min_size=1,
                         max_size=8))
    if draw(st.booleans()):
        offs = sorted(set(offs))  # ascending: may take the window path
    seed = draw(st.integers(0, 2 ** 16))
    data = np.random.default_rng(seed).integers(0, 256, size,
                                                dtype=np.uint8)
    return (lambda: BufferSurface(data.copy()), np.array(offs, np.int64),
            nbytes)


@st.composite
def lanes(draw, elem=None):
    """``(make, offsets (T, n), mask (T, n) or None, elem)``: aligned
    lane offsets with repeats inside and across threads."""
    if elem is None:
        elem = draw(st.sampled_from([UB, UW, UD, D, F, UQ]))
    words = draw(st.integers(1, 120))
    t = draw(st.integers(1, 6))
    n = draw(st.sampled_from([1, 2, 4, 8, 16]))
    pool = draw(st.lists(st.integers(0, words - 1), min_size=1,
                         max_size=6))
    idx = draw(st.lists(st.sampled_from(pool), min_size=t * n,
                        max_size=t * n))
    offs = np.array(idx, np.int64).reshape(t, n) * elem.size
    mask = None
    if draw(st.booleans()):
        mask = np.array(draw(st.lists(st.booleans(), min_size=t * n,
                                      max_size=t * n))).reshape(t, n)
    seed = draw(st.integers(0, 2 ** 16))
    data = np.random.default_rng(seed).integers(
        0, 256, words * elem.size, dtype=np.uint8)
    return lambda: BufferSurface(data.copy()), offs, mask, elem


def _pretouch(a, b, lines) -> None:
    """Touch the same lines on both surfaces before the compared call."""
    for line in lines:
        if line * 64 < a.size_bytes:
            a.mark_lines_range(line * 64, 1)
            b.mark_lines_range(line * 64, 1)


# -- block I/O ------------------------------------------------------------


@SETTINGS
@given(blocks())
def test_read_block_many_matches_per_thread_reads(case):
    make, xs, ys, w, h = case
    vec, loop = _pair(make)
    got = vec.read_block_many(xs, ys, w, h)
    want = np.stack([loop.read_block(int(x), int(y), w, h)
                     for x, y in zip(xs, ys)])
    assert got.shape == (len(xs), h, w)
    assert np.array_equal(got, want)
    assert _oob(vec) == _oob(loop)


@SETTINGS
@given(blocks(), st.integers(0, 2 ** 16))
def test_write_block_many_matches_per_thread_writes(case, seed):
    make, xs, ys, w, h = case
    vec, loop = _pair(make)
    data = np.random.default_rng(seed).integers(
        0, 256, (len(xs), h, w), dtype=np.uint8)
    vec.write_block_many(xs, ys, w, h, data)
    for t, (x, y) in enumerate(zip(xs, ys)):
        loop.write_block(int(x), int(y), w, h, data[t])
    assert np.array_equal(vec.bytes, loop.bytes)
    assert _oob(vec) == _oob(loop)


def test_overlapping_block_writes_later_thread_wins():
    img = Image2DSurface(np.zeros((4, 8), dtype=np.uint8))
    data = np.stack([np.full((2, 4), 1, np.uint8),
                     np.full((2, 4), 2, np.uint8)])
    img.write_block_many(np.array([0, 2]), np.array([0, 1]), 4, 2, data)
    host = img.to_numpy()
    assert host[0, :4].tolist() == [1, 1, 1, 1]
    assert host[1, :6].tolist() == [1, 1, 2, 2, 2, 2]
    assert host[2, 2:6].tolist() == [2, 2, 2, 2]


# -- linear I/O -----------------------------------------------------------


@SETTINGS
@given(ranges())
def test_read_linear_many_matches_per_thread_reads(case):
    make, offs, nbytes = case
    vec, loop = _pair(make)
    got = vec.read_linear_many(offs, nbytes)
    want = np.stack([loop.read_linear(int(o), nbytes) for o in offs])
    assert np.array_equal(got, want)


@SETTINGS
@given(ranges(), st.integers(0, 2 ** 16))
def test_write_linear_many_matches_per_thread_writes(case, seed):
    make, offs, nbytes = case
    vec, loop = _pair(make)
    data = np.random.default_rng(seed).integers(
        0, 256, (len(offs), nbytes), dtype=np.uint8)
    vec.write_linear_many(offs, data)
    for t, o in enumerate(offs):
        loop.write_linear(int(o), data[t])
    assert np.array_equal(vec.bytes, loop.bytes)


def test_linear_many_rejects_out_of_bounds_ranges():
    buf = BufferSurface.allocate(100)
    with pytest.raises(IndexError):
        buf.read_linear_many(np.array([0, 90]), 16)
    with pytest.raises(IndexError):
        buf.write_linear_many(np.array([-1]), np.zeros((1, 4), np.uint8))


# -- gather / scatter -----------------------------------------------------


@SETTINGS
@given(lanes())
def test_flat_gather_matches_per_thread_gathers(case):
    make, offs, mask, elem = case
    vec, loop = _pair(make)
    flat_mask = None if mask is None else mask.reshape(-1)
    got = vec.gather(offs.reshape(-1), elem, mask=flat_mask)
    want = np.concatenate([
        loop.gather(offs[t], elem, mask=None if mask is None else mask[t])
        for t in range(offs.shape[0])])
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


@SETTINGS
@given(lanes(), st.integers(0, 2 ** 16))
def test_flat_scatter_matches_per_thread_scatters(case, seed):
    make, offs, mask, elem = case
    vec, loop = _pair(make)
    values = np.random.default_rng(seed).integers(
        0, 256, offs.size * elem.size, dtype=np.uint8).view(elem.np_dtype)
    vec.scatter(offs.reshape(-1), values,
                mask=None if mask is None else mask.reshape(-1))
    rows = values.reshape(offs.shape)
    for t in range(offs.shape[0]):
        loop.scatter(offs[t], rows[t],
                     mask=None if mask is None else mask[t])
    assert np.array_equal(vec.bytes, loop.bytes)


# -- line marking ---------------------------------------------------------


@SETTINGS
@given(ranges(), st.lists(st.integers(0, 7), max_size=3))
def test_mark_lines_range_many_matches_per_thread_marks(case, pre):
    make, offs, nbytes = case
    vec, loop = _pair(make)
    _pretouch(vec, loop, pre)
    totals, new = vec.mark_lines_range_many(offs, nbytes)
    want = [loop.mark_lines_range(int(o), nbytes) for o in offs]
    assert list(zip(totals.tolist(), new.tolist())) == want
    assert np.array_equal(_touched(vec), _touched(loop))


@SETTINGS
@given(lanes(), st.sampled_from([1, 2, 4, 8, 100]),
       st.integers(0, 63), st.lists(st.integers(0, 7), max_size=3))
def test_mark_lines_offsets_many_matches_per_thread_marks(
        case, access, skew, pre):
    _, offs, mask, _ = case
    offs = offs + skew  # unaligned: lanes may straddle two lines
    size = int(offs.max()) + access + int(skew % 7)
    vec, loop = _pair(lambda: BufferSurface.allocate(size))
    _pretouch(vec, loop, pre)
    totals, new = vec.mark_lines_offsets_many(offs, access, mask=mask)
    want = [loop.mark_lines_offsets(
        offs[t], access, mask=None if mask is None else mask[t])
        for t in range(offs.shape[0])]
    assert list(zip(totals.tolist(), new.tolist())) == want
    assert np.array_equal(_touched(vec), _touched(loop))


@SETTINGS
@given(blocks(), st.lists(st.integers(0, 7), max_size=3),
       st.booleans())
def test_mark_lines_block2d_many_matches_per_thread_marks(case, pre, own):
    make, xs, ys, w, h = case
    vec, loop = _pair(make)
    _pretouch(vec, loop, pre)
    pitch = vec.pitch if own else vec.pitch + 13  # any pitch is legal
    totals, new = vec.mark_lines_block2d_many(xs, ys, w, h, pitch)
    want = [loop.mark_lines_block2d(int(x), int(y), w, h, pitch)
            for x, y in zip(xs, ys)]
    assert list(zip(totals.tolist(), new.tolist())) == want
    assert np.array_equal(_touched(vec), _touched(loop))


def test_shared_line_is_new_for_the_lowest_thread_only():
    buf = BufferSurface.allocate(256)
    offs = np.array([[64, 0], [0, 4], [128, 68]])
    totals, new = buf.mark_lines_offsets_many(offs, 4)
    assert totals.tolist() == [2, 1, 2]
    assert new.tolist() == [2, 0, 1]
