"""Pure helpers: percentiles, spreads, layer attribution, names, host block.

Nothing here imports the program under test, so the helpers are unit
tested on their own (``perfbench/tests``).
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import re
import statistics
import subprocess
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple

#: What a metric or workload name may contain (the result schema's rule).
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Float slack for "no attributed term is negative": per-op times are
#: differences of ``perf_counter`` sums, exact up to rounding.
ATTRIBUTION_EPS_S = 1e-9


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise."""
    if not NAME_RE.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}: must match "
                         f"{NAME_RE.pattern}")
    return name


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``%
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(values: Sequence[float], p: float) -> int:
    """How many samples lie strictly above the nearest-rank ``p``-th
    percentile; a percentile is only worth reporting when this is >= 10."""
    cut = percentile(values, p)
    return sum(1 for v in values if v > cut)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, interquartile range as a share of the median,
    and max/min ratio of repeated measurements of one metric."""
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, med, q3 = statistics.quantiles(values, n=4)
    lo, hi = min(values), max(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "iqr_over_median": (q3 - q1) / med if med else math.inf,
        "max_over_min": hi / lo if lo else math.inf,
    }


def attribute(latency_total_s: float, layers_s: Mapping[str, float],
              ops: int) -> Dict[str, float]:
    """Split a total latency into per-op layer shares plus a remainder.

    ``layers_s`` maps layer names to wall seconds summed over ``ops``
    operations.  Returns ``{layer: ms per op}`` with an added
    ``unattributed`` entry so that the values sum to the mean latency.
    Raises if any layer, or the remainder, is negative: attributed
    intervals must be disjoint parts of the measured latency.
    """
    if ops < 1:
        raise ValueError("attribution needs at least one op")
    out: Dict[str, float] = {}
    for name, total in layers_s.items():
        if total < -ATTRIBUTION_EPS_S * ops:
            raise ValueError(f"layer {name} has negative time {total}")
        out[name] = max(0.0, total) * 1e3 / ops
    rest = latency_total_s - sum(max(0.0, t) for t in layers_s.values())
    if rest < -ATTRIBUTION_EPS_S * ops:
        raise ValueError(f"layers exceed the measured latency by "
                         f"{-rest * 1e3:.6f} ms")
    out["unattributed"] = max(0.0, rest) * 1e3 / ops
    return out


def cpu_ticks() -> Optional[Tuple[int, int]]:
    """(stolen, demanded) CPU ticks of the whole machine so far, from
    ``/proc/stat``: stolen is the time the hypervisor gave this virtual
    machine's runnable CPUs to someone else; demanded is that plus the
    time they ran.  None where the kernel does not say."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    if len(fields) < 8:
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return steal, user + nice + system + irq + softirq + steal


def steal_share(before, after) -> Optional[float]:
    """Share of the demanded CPU time that was stolen between two
    :func:`cpu_ticks` readings; None if either is missing or no time
    was demanded."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def source_digest(src: Path) -> str:
    """sha256 over the program's Python sources: identifies the code even
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def host_block(root: Path, workload_seed: int, cpus: int) -> Dict[str, object]:
    """Where and on what a result was measured."""
    import numpy as np

    return {
        "cpus": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(root),
        "source_digest": source_digest(root / "src"),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "workload_seed": workload_seed,
    }
