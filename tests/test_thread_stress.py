"""Concurrent devices: every serve workload from several threads at once.

Serving runs one device per worker thread, and those threads share
module-level state: the memoized kernel-body factories (whose identity
keys every device's kernel cache), the frontend tracer, the sim thread
context, and the sanitizer and observability globals.  Each thread here
owns its own :class:`Device` and compiles and launches every compiled
and tuned serve workload twice under ``validate="first"`` — a first
launch race-checked on the JIT tier, then the JIT tier the verdict
admits.  The eager ``fig5.*`` workloads (whose specs are built on first
use) run the same way.  Results, tiers and every simulated-timing field
must equal a single-threaded run.  A sanitizer session is local to
the thread that opened it.
"""

import dataclasses
import sys
import threading

import numpy as np

from repro.serve.workloads import get_workload, workload_keys
from repro.sim.device import Device
from repro.tune.workloads import get_tunable

N_THREADS = 4

#: small problems whose default tuning points are valid
_TUNED_PARAMS = {
    "gemm": {"m": 16, "n": 16, "k": 16},
    "systolic": {"m": 16, "n": 16, "k": 32},
    "linear_filter": {"width": 34, "height": 14},
    "transpose": {"n": 32},
}


def _compiled(key, device):
    launch = get_workload(key).make({"seed": 3})
    results = []
    for _ in range(2):
        surfaces, scalars = launch.bind(device)
        kern = device.compile(launch.body, launch.name, launch.sig,
                              launch.scalar_params)
        device.run_compiled(kern, launch.grid, surfaces, scalars=scalars,
                            name=launch.name, validate="first")
        results.append(launch.finish(surfaces))
    return results


def _tuned(key, device):
    task = get_workload(key).make(dict(_TUNED_PARAMS[key.split(".")[1]],
                                       seed=3))
    family = get_tunable(task.family)
    variant = family.variant(task.problem,
                             family.space_for(task.problem).default_point())
    outs = [variant.run(device, task.inputs) for _ in range(2)]
    expect = family.reference(task.problem, task.inputs)
    assert all(np.array_equal(out, expect) for out in outs), key
    return [out.tobytes() for out in outs]


def _workloads():
    """The package's compiled and tuned serve workloads (other test
    modules register extra entries into the same registry)."""
    keys = []
    for key in workload_keys():
        wl = get_workload(key)
        if wl.make.__module__ != "repro.serve.workloads":
            continue
        if wl.kind in ("compiled", "tuned"):
            keys.append((key, _compiled if wl.kind == "compiled"
                         else _tuned))
    return keys


def _launch_records(runs):
    return [(r.name, r.path,
             tuple(getattr(r.timing, f.name)
                   for f in dataclasses.fields(r.timing)))
            for r in runs]


def _run_all():
    """Every workload on one fresh device: (results, launch records)."""
    device = Device()
    results = {key: fn(key, device) for key, fn in _workloads()}
    return results, _launch_records(device.runs)


def _fig5(key):
    """The CM side of an eager Figure 5 workload on a fresh device."""
    device = Device()
    run = get_workload(key).make({"side": "cm"})(device)
    return (np.asarray(run.output).tobytes(), run.total_time_us,
            _launch_records(device.runs))


def _in_threads(n_threads, job):
    """``[job(0), ..., job(n_threads - 1)]``, run concurrently."""
    start = threading.Barrier(n_threads)
    got = [None] * n_threads
    errors = []

    def worker(i):
        try:
            start.wait()
            got[i] = job(i)
        except Exception as exc:  # noqa: BLE001 - surface in main
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # switch threads often: expose races
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    return got


def test_workloads_cover_compiled_and_tuned_kinds():
    kinds = {get_workload(key).kind for key, _ in _workloads()}
    assert kinds == {"compiled", "tuned"}


def test_concurrent_devices_match_a_single_threaded_run():
    expect = _run_all()
    # first launches are race-checked on the JIT tier too
    assert {path for _, path, _ in expect[1]} >= {"jit"}
    for got in _in_threads(N_THREADS, lambda i: _run_all()):
        assert got == expect


def test_concurrent_eager_fig5_workloads_match_a_single_threaded_run():
    from repro.serve import workloads

    keys = [key for key in workload_keys() if key.startswith("fig5.")]
    assert len(keys) == 8
    expect = {key: _fig5(key) for key in keys}
    # Forget the lazily built Figure 5 specs, so every thread races to
    # build them; eager runs are long, so each key runs in one thread.
    workloads._fig5_specs.cache_clear()
    got = {}
    for part in _in_threads(N_THREADS, lambda i: {
            key: _fig5(key) for key in keys[i::N_THREADS]}):
        got.update(part)
    assert got == expect


def test_session_is_local_to_its_thread():
    """A ``sanitize.session()`` opened in thread A neither sanitizes
    thread B's launches nor loses its own in-flight verdict to them."""
    import repro.sanitize as sanitize
    from repro import cm

    a_mid, b_done = threading.Event(), threading.Event()
    seen = {}

    def job(i):
        dev = Device()
        if i == 0:  # thread A: a session around a 4-thread eager kernel
            buf = dev.buffer(np.zeros(4 * 16, dtype=np.float32))

            @cm.cm_kernel
            def kern():
                tid = cm.thread_x()
                if tid == 0:  # hold the kernel open while B launches
                    a_mid.set()
                    assert b_done.wait(60)
                cm.write(buf, tid * 64, cm.vector(cm.float32, 16, 1.0))

            with sanitize.session() as sess:
                dev.run_cm(kern, grid=(4,), name="a_kernel")
            return sess.report.results
        assert a_mid.wait(60)  # thread B, while A's kernel is running
        try:
            seen["session"] = sanitize.current_session()
            dev.run_cm(lambda: None, grid=(2,), name="b_eager")
            launch = get_workload("saxpy").make({"seed": 3})
            surfaces, scalars = launch.bind(dev)
            kern = dev.compile(launch.body, launch.name, launch.sig,
                               launch.scalar_params)
            dev.run_compiled(kern, launch.grid, surfaces, scalars=scalars,
                             name=launch.name)
        finally:
            b_done.set()

    results, _ = _in_threads(2, job)
    assert seen["session"] is None
    (result,) = results
    assert result.kernel == "a_kernel"
    assert result.verdict.race_free and result.verdict.threads == 4
