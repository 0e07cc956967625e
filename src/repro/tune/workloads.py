"""Tunable workload families: the kernels the autotuner searches over.

Each family is a :class:`TunableWorkload`: a *problem* (concrete shapes),
a :class:`~repro.tune.space.TuneSpace` over that problem, a deterministic
input generator, a **bit-exact** reference oracle, and a
``variant(problem, point)`` factory that returns a runnable
:class:`Variant` for one knob assignment.

Bit-exactness is the load-bearing property: every variant of a family
performs its floating-point reductions in the same order regardless of
tiling (K ascends monotonically across bands; the filter accumulates
center-then-neighbors in a fixed order), so the oracle is a single
``np.array_equal`` — the correctness gate in :mod:`repro.tune.search`
needs no tolerance and a wrong variant cannot hide inside one.

Families:

- ``gemm`` — single-precision C += A@B through the compile pipeline,
  register-blocked with a staged K band (``bm``/``bn``/``ktile``).
- ``linear_filter`` — single-channel 3x3 box filter on uint8, tiled
  (``tile_w``/``tile_h``).
- ``transpose`` — the SLM-vs-registers choice itself is the knob
  (``use_slm``), plus tile edge and SIMT dispatch width.
- ``systolic`` — the deeper-K weights-stationary GEMM of
  :mod:`repro.workloads.systolic` at its native double-depth K.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.sim.device import Device
from repro.tune.space import Knob, TuneSpace, point_label
from repro.workloads import gemm as gemm_mod
from repro.workloads import linear_filter as lf_mod
from repro.workloads import systolic as sys_mod
from repro.workloads import transpose as tp_mod

Problem = Dict[str, Any]
Point = Dict[str, Any]
Inputs = Dict[str, np.ndarray]


@dataclass
class Variant:
    """One runnable configuration of a family: a concrete kernel."""

    family: str
    label: str
    point: Point
    #: "compiled" variants go through the trace-compile pipeline and can
    #: pre-seed a KernelCache; "eager"/"ocl" variants interpret directly.
    kind: str
    kernel_name: str
    #: Execute one launch on ``device``, returning the output array.
    run: Callable[[Device, Inputs], np.ndarray]
    #: Compile (without running) on ``device`` — populates its kernel
    #: cache.  None for non-compiled variants.
    compile_on: Optional[Callable[[Device], Any]] = None


@dataclass
class TunableWorkload:
    """A kernel family the autotuner can search."""

    family: str
    description: str
    default_problem: Problem
    space_fn: Callable[[Problem], TuneSpace]
    inputs_fn: Callable[[Problem, int], Inputs]
    reference_fn: Callable[[Problem, Inputs], np.ndarray]
    variant_fn: Callable[[Problem, Point], Variant]

    def space_for(self, problem: Problem) -> TuneSpace:
        return self.space_fn(problem)

    def make_inputs(self, problem: Problem, seed: int = 0) -> Inputs:
        return self.inputs_fn(problem, seed)

    def reference(self, problem: Problem, inputs: Inputs) -> np.ndarray:
        """Bit-exact expected output for these inputs."""
        return self.reference_fn(problem, inputs)

    def variant(self, problem: Problem, point: Point) -> Variant:
        return self.variant_fn(problem, point)


# -- gemm / systolic -----------------------------------------------------------
#
# Both families share the staged weights-stationary body of
# repro.workloads.systolic (memoized per (k, bm, bn, ktile), so repeated
# variant construction keeps a stable kernel-cache identity); they differ
# in problem depth.  Accumulation is k-ascending for every tiling, so one
# ordered-f32 oracle covers the whole space bit-exactly.


def _gemm_space(problem: Problem) -> TuneSpace:
    m, n, k = problem["m"], problem["n"], problem["k"]

    def ok(p: Point) -> bool:
        return m % p["bm"] == 0 and n % p["bn"] == 0 and k % p["ktile"] == 0

    return TuneSpace(
        knobs=[Knob("bm", (4, 8, 16)),
               Knob("bn", (8, 16, 32)),
               Knob("ktile", (4, 8, 16, 32))],
        constraint=ok,
        default={"bm": sys_mod.SYS_JIT_BM, "bn": sys_mod.SYS_JIT_BN,
                 "ktile": sys_mod.SYS_KTILE},
    )


def _gemm_inputs(problem: Problem, seed: int) -> Inputs:
    a, b, c = gemm_mod.make_inputs(problem["m"], problem["n"], problem["k"],
                                   seed=29 + seed)
    return {"a": a, "b": b, "c": c}


def _gemm_reference(problem: Problem, inputs: Inputs) -> np.ndarray:
    """C + A@B with k-ascending f32 accumulation — the exact order every
    (bm, bn, ktile) variant uses, so this matches bit for bit."""
    a, b, c = inputs["a"], inputs["b"], inputs["c"]
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.float32)
    for kk in range(a.shape[1]):
        acc += a[:, kk:kk + 1] * b[kk:kk + 1, :]
    return acc + c


def _gemm_variant(problem: Problem, point: Point) -> Variant:
    bm, bn, ktile = point["bm"], point["bn"], point["ktile"]
    k = problem["k"]
    name = f"cm_systolic_jit_b{bm}x{bn}k{ktile}"

    def run(device: Device, inputs: Inputs) -> np.ndarray:
        return sys_mod.run_cm_compiled(device, inputs["a"], inputs["b"],
                                       inputs["c"].copy(),
                                       bm=bm, bn=bn, ktile=ktile)

    def compile_on(device: Device):
        return device.compile(sys_mod._jit_systolic_body(k, bm, bn, ktile),
                              name, sys_mod._JIT_SIG, ["tx", "ty"])

    return Variant("gemm", point_label(point), dict(point), "compiled",
                   name, run, compile_on)


def _systolic_variant(problem: Problem, point: Point) -> Variant:
    v = _gemm_variant(problem, point)
    v.family = "systolic"
    return v


# -- linear_filter -------------------------------------------------------------
#
# Single-channel 3x3 box filter on uint8 through the compile pipeline.
# Each thread reads a (tile_h+2) x (tile_w+2) halo tile, accumulates the
# nine taps in f32 (center first, then neighbors row-major — a fixed
# order shared with the oracle), scales and converts back to uint8, and
# writes the tile_h x tile_w interior.  The image border is untouched.

#: Tap order: center first (matching the paper's RGB kernel), then the
#: eight neighbors row-major.  Fixed across all tilings => bit-exact.
_LF_TAPS = ((1, 1), (0, 0), (0, 1), (0, 2), (1, 0),
            (1, 2), (2, 0), (2, 1), (2, 2))

_LF_SIG = [("src", True), ("dst", True)]


@functools.cache
def _lf_body(tile_w: int, tile_h: int) -> Callable:
    def linear_tuned(cmx, src, dst, tx, ty):
        x0 = tx * tile_w   # interior-relative; absolute pixel is +1
        y0 = ty * tile_h
        tin = cmx.matrix(np.uint8, tile_h + 2, tile_w + 2)
        cmx.read(src, x0, y0, tin)
        acc = cmx.matrix(np.float32, tile_h, tile_w,
                         np.zeros(tile_h * tile_w, np.float32))
        for dy, dx in _LF_TAPS:
            # Explicit convert stop: uint8 tap -> f32 tmp, then f32 add.
            tap = cmx.matrix(np.float32, tile_h, tile_w)
            tap.assign(tin.select(tile_h, 1, tile_w, 1, dy, dx))
            acc += tap
        scaled = cmx.matrix(np.float32, tile_h, tile_w)
        scaled.assign(acc * lf_mod.SCALE)
        out = cmx.matrix(np.uint8, tile_h, tile_w)
        out.assign(scaled)
        cmx.write(dst, x0 + 1, y0 + 1, out)

    return linear_tuned


def _lf_space(problem: Problem) -> TuneSpace:
    in_w, in_h = problem["width"] - 2, problem["height"] - 2

    def ok(p: Point) -> bool:
        return in_w % p["tile_w"] == 0 and in_h % p["tile_h"] == 0

    return TuneSpace(
        knobs=[Knob("tile_w", (8, 16, 32, 64)),
               Knob("tile_h", (2, 4, 6, 8))],
        constraint=ok,
        default={"tile_w": 8, "tile_h": 6},
    )


def _lf_inputs(problem: Problem, seed: int) -> Inputs:
    rng = np.random.default_rng(17 + seed)
    img = rng.integers(0, 256, (problem["height"], problem["width"]),
                       dtype=np.uint8)
    return {"img": img}


def _lf_reference(problem: Problem, inputs: Inputs) -> np.ndarray:
    img = inputs["img"]
    out = img.copy()
    acc = np.zeros((img.shape[0] - 2, img.shape[1] - 2), dtype=np.float32)
    for dy, dx in _LF_TAPS:
        acc += img[dy:dy + acc.shape[0], dx:dx + acc.shape[1]]
    out[1:-1, 1:-1] = (acc * lf_mod.SCALE).astype(np.uint8)
    return out


def _lf_variant(problem: Problem, point: Point) -> Variant:
    tile_w, tile_h = point["tile_w"], point["tile_h"]
    in_w, in_h = problem["width"] - 2, problem["height"] - 2
    name = f"cm_linear_tuned_t{tile_w}x{tile_h}"

    def run(device: Device, inputs: Inputs) -> np.ndarray:
        img = inputs["img"]
        src = device.image2d(img.copy(), bytes_per_pixel=1)
        dst = device.image2d(img.copy(), bytes_per_pixel=1)
        kern = device.compile(_lf_body(tile_w, tile_h), name, _LF_SIG,
                              ["tx", "ty"])
        device.run_compiled(
            kern, grid=(in_w // tile_w, in_h // tile_h),
            surfaces=[src, dst],
            scalars=lambda tid: {"tx": tid[0], "ty": tid[1]},
            name=name)
        return dst.to_numpy().copy()

    def compile_on(device: Device):
        return device.compile(_lf_body(tile_w, tile_h), name, _LF_SIG,
                              ["tx", "ty"])

    return Variant("linear_filter", point_label(point), dict(point),
                   "compiled", name, run, compile_on)


# -- transpose -----------------------------------------------------------------
#
# The knob of interest is the paper's central contrast itself: SLM-tiled
# SIMT (use_slm=1) vs. register shuffles (use_slm=0).  The register path
# needs two tile^2 f32 matrices of GRF, so tile=32 (8 KB) is declared
# invalid there rather than left for the compiler to reject; the SIMT
# path needs its x-dimension local size divisible by the dispatch width
# (simd <= tile).  The simd knob is pinned to 16 on the register path so
# the two paths don't alias duplicate points.


def _tp_space(problem: Problem) -> TuneSpace:
    n = problem["n"]

    def ok(p: Point) -> bool:
        if n % p["tile"]:
            return False
        if p["use_slm"]:
            return p["simd"] <= p["tile"]
        # Register path: ~2 tile^2 f32 matrices must fit the 4 KB GRF.
        return p["tile"] <= 16 and p["simd"] == 16

    return TuneSpace(
        knobs=[Knob("tile", (4, 8, 16, 32)),
               Knob("use_slm", (0, 1)),
               Knob("simd", (8, 16, 32))],
        constraint=ok,
        default={"tile": tp_mod.TILE, "use_slm": 0, "simd": 16},
    )


def _tp_inputs(problem: Problem, seed: int) -> Inputs:
    return {"a": tp_mod.make_matrix(problem["n"], seed=23 + seed)}


def _tp_reference(problem: Problem, inputs: Inputs) -> np.ndarray:
    return tp_mod.reference(inputs["a"])


def _tp_variant(problem: Problem, point: Point) -> Variant:
    tile, use_slm, simd = point["tile"], point["use_slm"], point["simd"]

    if use_slm:
        def run(device: Device, inputs: Inputs) -> np.ndarray:
            return tp_mod.run_ocl(device, inputs["a"], simd=simd, tile=tile)
        kind, name = "ocl", f"ocl_transpose_t{tile}"
    else:
        def run(device: Device, inputs: Inputs) -> np.ndarray:
            return tp_mod.run_cm(device, inputs["a"], tile=tile)
        kind, name = "eager", f"cm_transpose_t{tile}"

    return Variant("transpose", point_label(point), dict(point), kind,
                   name, run, None)


# -- registry ------------------------------------------------------------------

TUNABLES: Dict[str, TunableWorkload] = {}


def _register(wl: TunableWorkload) -> TunableWorkload:
    TUNABLES[wl.family] = wl
    return wl


_register(TunableWorkload(
    "gemm", "SGEMM C += A@B, register-blocked with staged K bands",
    {"m": 128, "n": 128, "k": 32},
    _gemm_space, _gemm_inputs, _gemm_reference, _gemm_variant))

_register(TunableWorkload(
    "linear_filter", "single-channel 3x3 box filter on uint8",
    {"width": 258, "height": 98},
    _lf_space, _lf_inputs, _lf_reference, _lf_variant))

_register(TunableWorkload(
    "transpose", "out-of-place f32 transpose: SLM tiling vs registers",
    {"n": 256},
    _tp_space, _tp_inputs, _tp_reference, _tp_variant))

_register(TunableWorkload(
    "systolic", "deeper-K weights-stationary GEMM (DPAS substitution)",
    {"m": 128, "n": 128, "k": 64},
    _gemm_space, _gemm_inputs, _gemm_reference, _systolic_variant))


def get_tunable(family: str) -> TunableWorkload:
    wl = TUNABLES.get(family)
    if wl is None:
        raise KeyError(f"unknown tunable family {family!r}; "
                       f"choose from {sorted(TUNABLES)}")
    return wl


def tunable_families() -> List[str]:
    return sorted(TUNABLES)
