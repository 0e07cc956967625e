"""Byte-identity gate for the compiler's emitted Gen assembly.

Legalization (``compiler/visa.py``), register allocation and the
finalizer may be rewritten for speed, but the program they emit must
not change: simulated µs, the paper-vs-measured rows and every
benchmark's timing follow from these bytes.  Each entry below compiles
one kernel and compares the SHA-256 of ``CompiledKernel.asm()`` with a
digest recorded from the reference compiler.

Covered kernels:

- every compiled serve workload at the ``kernel_cold`` menu sizes and
  the ``serve_straight`` (loadgen ``shard`` mix) sizes;
- each autotuner family's default point, and the six variant points of
  the ``kernel_cold`` menu (``transpose`` has no compiled variant);
- Figure 4's linear filter (``benchmarks/bench_fig4_codegen.py``);
- the compiled bitonic and k-means kernels of
  ``bench_divergent.py --smoke`` (n=512 bitonic, k=8 k-means).

After an intended change to the emitted program, regenerate the table
with ``PYTHONPATH=src python tests/test_asm_digests.py`` and say why in
the change's notes.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from repro.compiler import compile_kernel
from repro.serve import get_workload
from repro.sim.device import Device
from repro.tune.workloads import get_tunable
from repro.workloads import bitonic, kmeans

_ROOT = Path(__file__).resolve().parent.parent

#: (workload, params) of the compiled serve kernels: the kernel_cold
#: menu sizes, then the serve_straight sizes.
_SERVE = [
    ("saxpy", {"n": 1024}),
    ("scale", {"n": 1024}),
    ("blur", {"blocks_x": 2, "blocks_y": 4}),
    ("sgemm", {"m": 16, "n": 16, "k": 8}),
    ("bitonic_cf", {"n": 64}),
    ("kmeans_cf", {"n": 64, "k": 8}),
    ("sgemm", {"m": 64, "n": 64, "k": 16}),
    ("sgemm", {"m": 32, "n": 64, "k": 16}),
    ("saxpy", {"n": 4096}),
    ("saxpy", {"n": 8192}),
    ("scale", {"n": 4096}),
    ("blur", {"blocks_x": 8, "blocks_y": 8}),
]

_GEMM = {"m": 32, "n": 32, "k": 16}
_FILTER = {"width": 66, "height": 26}

#: (family, problem, point) of compiled tune variants; ``None`` problem
#: and point select the family's default problem and default point.
_TUNE = [
    ("gemm", None, None),
    ("linear_filter", None, None),
    ("systolic", None, None),
    ("gemm", _GEMM, {"bm": 8, "bn": 8, "ktile": 16}),
    ("gemm", _GEMM, {"bm": 4, "bn": 16, "ktile": 16}),
    ("linear_filter", _FILTER, {"tile_w": 8, "tile_h": 6}),
    ("linear_filter", _FILTER, {"tile_w": 16, "tile_h": 4}),
    ("linear_filter", _FILTER, {"tile_w": 32, "tile_h": 2}),
    ("systolic", {"m": 16, "n": 16, "k": 32},
     {"bm": 8, "bn": 8, "ktile": 16}),
]

#: bench_divergent.py --smoke sorts 2**9 keys.
_BITONIC_LOG2N = 9


def _label(prefix, params):
    return prefix + "(" + ",".join(f"{k}={v}" for k, v in
                                   sorted(params.items())) + ")"


def _serve_kernel(key, params):
    launch = get_workload(key).make(dict(params, seed=0))
    return compile_kernel(launch.body, launch.name, launch.sig,
                          launch.scalar_params)


def _tune_kernel(family, problem, point):
    fam = get_tunable(family)
    problem = problem or fam.default_problem
    point = point or fam.space_for(problem).default_point()
    return fam.variant(problem, point).compile_on(Device())


def _fig4_kernel():
    path = _ROOT / "benchmarks" / "bench_fig4_codegen.py"
    spec = importlib.util.spec_from_file_location("_bench_fig4", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return compile_kernel(mod._linear_body, "linear",
                          [("inbuf", True), ("outbuf", True)],
                          ["hpos", "vpos"])


def _bitonic_kernels():
    """The local kernel and every global-step kernel of one sort."""
    out = {"bitonic.local": lambda: compile_kernel(
        bitonic._cf_local_body, "cf_bitonic_local", bitonic._CF_SIG,
        ["t", "lgs0", "lgs1"])}
    for lgsize in range(6, _BITONIC_LOG2N + 1):
        for lg in range(lgsize - 1, bitonic.CF_LOCAL_MAX_LG, -1):
            name = f"cf_bitonic_g{lgsize}_{lg}"
            out[f"bitonic.{name}"] = (
                lambda lg=lg, lgsize=lgsize, name=name: compile_kernel(
                    bitonic._cf_global_body(lg, lgsize), name,
                    bitonic._CF_SIG, ["t"]))
    return out


def _kmeans_kernel(k=8):
    return compile_kernel(
        kmeans._cf_assign_body(k, kmeans._kpad(k)), f"cf_kmeans_assign_k{k}",
        [("xs", False), ("ys", False), ("cent", False), ("labels", False)],
        ["t"])


def _kernel_factories():
    out = {}
    for key, params in _SERVE:
        out[_label(f"serve.{key}", params)] = (
            lambda key=key, params=params: _serve_kernel(key, params))
    for family, problem, point in _TUNE:
        label = f"tune.{family}" + (
            ".default" if point is None else
            _label("", dict(problem, **point)))
        out[label] = (lambda f=family, pr=problem, pt=point:
                      _tune_kernel(f, pr, pt))
    out["fig4.linear"] = _fig4_kernel
    out.update(_bitonic_kernels())
    out["kmeans.assign_k8"] = _kmeans_kernel
    return out


KERNELS = _kernel_factories()


def asm_digest(kernel) -> str:
    return hashlib.sha256(kernel.asm().encode()).hexdigest()


#: label -> SHA-256 of CompiledKernel.asm(), recorded from the
#: reference compiler.
DIGESTS = {
    "bitonic.cf_bitonic_g6_5":
        "749315bf0de912b738f405e6d348868e06ff6f8bf94d10580f9f847439984c60",
    "bitonic.cf_bitonic_g7_5":
        "6be605a1c1d6cff618d33aa3c8218b3d6e2377ecf453233044ac28444d6fe253",
    "bitonic.cf_bitonic_g7_6":
        "8a040ecf862204052d8552c7701bb550db5f710537e7682e0b7b7a5572d5de79",
    "bitonic.cf_bitonic_g8_5":
        "6f17680e8741624204d55cfd022753dce994ddaf038acd3d67654c2ae08c13e2",
    "bitonic.cf_bitonic_g8_6":
        "953ef79f6fd7919a7dd44c21c2030e34ea1b1e311be789290a9324a017c04fc3",
    "bitonic.cf_bitonic_g8_7":
        "c0f7c11ae6e8aedc0a8d2d5b7cca14493a2cd0e4a46928328d84d286f0f3451b",
    "bitonic.cf_bitonic_g9_5":
        "3b8b29237ca49b69d643681dea926c68f354442d9896a62581159897391be255",
    "bitonic.cf_bitonic_g9_6":
        "a641eba13a65dfdb9f1cb5e3daf1104ea835c74ec06068cc391875aa7115a23d",
    "bitonic.cf_bitonic_g9_7":
        "ccab1256175fb712d6747c73aabdc5553ac5ccc65bdbfce383ac5b2314a6772a",
    "bitonic.cf_bitonic_g9_8":
        "6567f913dfe5e20dbed71f597093235ad41d20106d5d55886e32ae1be50c8699",
    "bitonic.local":
        "e6c8654f0eff274195f364f374d2eaf33afdb7960316f86fd1bc806a15c96567",
    "fig4.linear":
        "4e0bc9c61cebb221e61f8b504173a0399da9d1417c81d515cf115283122bb4de",
    "kmeans.assign_k8":
        "3eb3d861867350f7678bbf8fedee6da4cdea3f55428ac0a43c52e6eee5fa987a",
    "serve.bitonic_cf(n=64)":
        "e6c8654f0eff274195f364f374d2eaf33afdb7960316f86fd1bc806a15c96567",
    "serve.blur(blocks_x=2,blocks_y=4)":
        "285f6e7f77e1c81254b34669da196147805601599ca332d093f515d37f435a7b",
    "serve.blur(blocks_x=8,blocks_y=8)":
        "285f6e7f77e1c81254b34669da196147805601599ca332d093f515d37f435a7b",
    "serve.kmeans_cf(k=8,n=64)":
        "3eb3d861867350f7678bbf8fedee6da4cdea3f55428ac0a43c52e6eee5fa987a",
    "serve.saxpy(n=1024)":
        "089daf3f732071a7ca7f389ae4b3ca33a3758c8e9eb20c82ca6ba1d2628d2e8d",
    "serve.saxpy(n=4096)":
        "089daf3f732071a7ca7f389ae4b3ca33a3758c8e9eb20c82ca6ba1d2628d2e8d",
    "serve.saxpy(n=8192)":
        "089daf3f732071a7ca7f389ae4b3ca33a3758c8e9eb20c82ca6ba1d2628d2e8d",
    "serve.scale(n=1024)":
        "8585a20e424f0ebd17785de95ee957e763cf1561bf21d4874affc17149754cf8",
    "serve.scale(n=4096)":
        "8585a20e424f0ebd17785de95ee957e763cf1561bf21d4874affc17149754cf8",
    "serve.sgemm(k=16,m=32,n=64)":
        "08e03505c8a52cbdee09cff7a7449f7fbfae026b9e68427fb18fe5accf50225e",
    "serve.sgemm(k=16,m=64,n=64)":
        "08e03505c8a52cbdee09cff7a7449f7fbfae026b9e68427fb18fe5accf50225e",
    "serve.sgemm(k=8,m=16,n=16)":
        "6ad26f9fbaf6935075e5af8f46f43373516854ceb90e84158ea580f583797da0",
    "tune.gemm(bm=4,bn=16,k=16,ktile=16,m=32,n=32)":
        "d571dc3ff03cdc7b5e3f844f99a09ed0014cfdadf680c1cc00f5d62124d29ac9",
    "tune.gemm(bm=8,bn=8,k=16,ktile=16,m=32,n=32)":
        "c07e89e8151b01ce93a56ab00c3029fb363349c27b543a038f3cd1c95fd378d2",
    "tune.gemm.default":
        "4016a29d3dd357e1ddc7486540bbdf535f3f3701ae959ede7e68d43d0750130b",
    "tune.linear_filter(height=26,tile_h=2,tile_w=32,width=66)":
        "803fbcc7ef3e5693d9994ebd4acaa13d07a8d7faf480ea468eb20e4df03f3170",
    "tune.linear_filter(height=26,tile_h=4,tile_w=16,width=66)":
        "d5575a13fc204abda14f1e12038e302abafd450cc8f9d0e324dbdc8ed4896901",
    "tune.linear_filter(height=26,tile_h=6,tile_w=8,width=66)":
        "9806503a650c7804c9f200287622d359b5317f3cd620bc8f99d89f8a8f98e1a9",
    "tune.linear_filter.default":
        "9806503a650c7804c9f200287622d359b5317f3cd620bc8f99d89f8a8f98e1a9",
    "tune.systolic(bm=8,bn=8,k=32,ktile=16,m=16,n=16)":
        "4016a29d3dd357e1ddc7486540bbdf535f3f3701ae959ede7e68d43d0750130b",
    "tune.systolic.default":
        "9164ae3012664558308545f2452682413a76527a0a36274b35157d57ea990a2c",
}


def test_table_covers_every_kernel():
    assert sorted(DIGESTS) == sorted(KERNELS)


@pytest.mark.parametrize("label", sorted(KERNELS))
def test_asm_is_byte_identical(label):
    assert asm_digest(KERNELS[label]()) == DIGESTS[label]


if __name__ == "__main__":
    for name in sorted(KERNELS):
        print(f'    "{name}":\n        "{asm_digest(KERNELS[name]())}",')
