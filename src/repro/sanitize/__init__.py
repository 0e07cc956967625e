"""repro.sanitize — kernel sanitizer subsystem.

Three checkers over the simulated GPU stack:

- :class:`~repro.sanitize.race.RaceDetector` — cross-thread data races
  on surfaces/SLM with barrier-based happens-before; its
  :class:`~repro.sanitize.race.RaceVerdict` gates
  ``Device.run_compiled(tier="auto")``'s choice of the JIT tier.  It
  judges access records from either feed: per-thread surface hooks
  during sequential dispatch, or whole-chunk batches from the JIT
  tier's vectorized SENDs — so under ``validate="first"`` a kernel's
  first launch is race-checked on the JIT tier itself (rolled back and
  re-run sanitized-sequential if it races).
- OOB/clip sanitizer (:mod:`repro.sanitize.oob`) — counts
  silently-clamped out-of-bounds lanes per surface; strict mode raises
  :class:`~repro.memory.surfaces.OOBError`.
- :class:`~repro.sanitize.uninit.UninitTracker` — uninitialized-GRF
  reads via a shadow validity bitmap, honouring execution masks.  It
  follows one thread's register file, so it runs on sanitized-sequential
  launches only: ``validate="always"`` and every launch inside a
  :func:`session`.

``python -m repro.sanitize`` runs any registered workload under all
checkers and emits a :class:`~repro.sanitize.report.SanitizerReport`
(JSON-able; the CI sanitizer job uploads it as an artifact).

The dispatch-gating default comes from :func:`default_validate`
(overridable with the ``REPRO_SANITIZE`` environment variable:
``first`` | ``always`` | ``off``).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Dict, Optional

from repro.sanitize.hooks import ExecSanitizer
from repro.sanitize.oob import (  # noqa: F401  (re-exported API)
    OOBError, collect as collect_oob, set_strict, strict, strict_enabled,
)
from repro.sanitize.race import Conflict, RaceDetector, RaceVerdict
from repro.sanitize.report import KernelSanitizeResult, SanitizerReport
from repro.sanitize.uninit import UninitRead, UninitTracker

__all__ = [
    "Conflict", "ExecSanitizer", "KernelSanitizeResult", "OOBError",
    "RaceDetector", "RaceVerdict", "SanitizerReport", "UninitRead",
    "UninitTracker", "collect_oob", "current_session", "default_validate",
    "session", "set_strict", "strict", "strict_enabled",
]

#: valid Device/ServeCluster validate modes
VALIDATE_MODES = ("first", "always", "off")


def default_validate() -> str:
    """The dispatch-gating mode used when none is passed explicitly."""
    mode = os.environ.get("REPRO_SANITIZE", "first").lower()
    return mode if mode in VALIDATE_MODES else "first"


class SanitizerSession:
    """Per-thread sanitizing scope for eager (CM / OpenCL) launches.

    While a session is current, ``Device.run_cm`` and the OpenCL
    runtime attach a fresh :class:`RaceDetector` per kernel enqueue,
    feed barrier edges from the work-group scheduler, and fold each
    kernel's verdict plus per-surface OOB clip deltas into
    :attr:`report`.  Compiled launches race-checked by
    ``Device.run_compiled`` (every one, unless ``validate`` is passed
    explicitly) also append their results here.  Only the thread that
    opened the session sees it (:func:`current_session`).
    """

    def __init__(self, strict_oob: bool = False) -> None:
        self.report = SanitizerReport()
        self.strict_oob = strict_oob
        self.race: Optional[RaceDetector] = None
        self._kernel: Optional[str] = None
        self._oob_base: Dict[int, tuple] = {}

    # -- per-kernel scope (driven by the dispatch paths) -------------------

    def begin_kernel(self, name: str, surfaces) -> RaceDetector:
        if self.race is not None:  # unfinished kernel: fold it first
            self.finish_kernel()
        self.race = RaceDetector()
        self._kernel = name
        self._oob_base = {}
        for surf in surfaces:
            self.attach_surface(surf)
        return self.race

    def attach_surface(self, surf) -> None:
        if self.race is None or surf is None:
            return
        self.race.attach_surface(surf)
        self._oob_base.setdefault(
            id(surf), (surf, int(getattr(surf, "oob_clipped_lanes", 0))))

    def finish_kernel(self) -> Optional[KernelSanitizeResult]:
        if self.race is None:
            return None
        verdict = self.race.finish()
        oob: Dict[str, int] = {}
        for surf, base in self._oob_base.values():
            delta = int(getattr(surf, "oob_clipped_lanes", 0)) - base
            if delta:
                label = getattr(surf, "obs_label", "surface")
                oob[label] = oob.get(label, 0) + delta
        result = self.report.add(KernelSanitizeResult(
            kernel=self._kernel or "kernel", verdict=verdict,
            oob_lanes=oob))
        self.race = None
        self._kernel = None
        self._oob_base = {}
        return result


#: the calling thread's current session: a session sanitizes only the
#: launches made by the thread that opened it.
_CURRENT = threading.local()


def current_session() -> Optional[SanitizerSession]:
    return getattr(_CURRENT, "session", None)


@contextmanager
def session(strict_oob: bool = False):
    """Install a :class:`SanitizerSession` for the enclosed block.

    The session is current in the calling thread only; launches other
    threads make meanwhile are neither sanitized by it nor folded into
    its report.
    """
    prev, prev_strict = current_session(), strict_enabled()
    sess = SanitizerSession(strict_oob=strict_oob)
    _CURRENT.session = sess
    if strict_oob:
        set_strict(True)
    try:
        yield sess
    finally:
        sess.finish_kernel()
        _CURRENT.session = prev
        set_strict(prev_strict)
