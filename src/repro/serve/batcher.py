"""Dynamic batching: coalesce compatible queued requests.

The paper's Figure 5 launch-overhead story, applied across *requests*:
every enqueue pays the driver's fixed launch overhead, but back-to-back
launches of the same program pipeline behind execution and pay only the
dispatch gap (``MachineConfig.pipelined_launch_us``).  The batcher
groups queued compiled requests by :attr:`KernelLaunch.batch_key` —
same program, same signature, same grid shape — so a batch of N costs

    ``launch_overhead_us + (N - 1) * pipelined_launch_us + sum(kernel)``

instead of ``N * launch_overhead_us + sum(kernel)``, and the worker can
drive all N launches through one pooled
:class:`~repro.sim.batch.TracingExecutor` (shared operand plans).

Batching never reorders across a key: members keep their FIFO order,
and batches are emitted in order of their *earliest* member, so a
disabled batcher (``max_batch=1``) degenerates to plain FIFO.

Batches form twice, and neither time waits.  The dispatcher coalesces
whatever one drain of the submission queue holds (:meth:`form`); a
device worker, when it picks the next batch off its inbox, folds in
every batch queued behind it with the same key (:meth:`merge_queued`).
An idle device therefore starts a lone request at once, while a busy
one gathers everything that queued up behind its running batch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Tuple

from repro.serve.request import Request

_batch_ids = itertools.count()


@dataclass
class WorkItem:
    """A request resolved against the workload registry."""

    request: Request
    kind: str                  # "compiled" | "eager" | "tuned"
    launch: Any = None         # KernelLaunch when compiled
    runner: Any = None         # device -> WorkloadRun when eager
    task: Any = None           # TunedTask when tuned

    @property
    def batch_key(self) -> Optional[tuple]:
        if self.kind == "compiled":
            return self.launch.batch_key
        if self.kind == "tuned":
            # Same family + same problem coalesce; the device resolves
            # them all to its machine's one tuned variant, so the batch
            # still repeats a single program.
            return self.task.batch_key
        return None


@dataclass
class Batch:
    """One dispatch unit: requests that share a device visit."""

    items: List[WorkItem]
    id: int = field(default_factory=lambda: next(_batch_ids))
    #: dispatcher's simulated-service estimate (for least-loaded routing).
    estimate_us: float = 0.0

    @property
    def size(self) -> int:
        return len(self.items)

    @property
    def affinity_key(self) -> Optional[tuple]:
        first = self.items[0]
        if first.kind == "compiled":
            return first.launch.affinity_key
        if first.kind == "tuned":
            return first.task.affinity_key
        return None

    @property
    def kernel_name(self) -> str:
        first = self.items[0]
        if first.kind == "compiled":
            return first.launch.name
        return first.request.workload


class DynamicBatcher:
    """Groups resolved work items into batches."""

    def __init__(self, max_batch: int = 8, enabled: bool = True) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch if enabled else 1
        self.enabled = enabled and max_batch > 1

    def form(self, items: List[WorkItem]) -> List[Batch]:
        """Coalesce one dispatcher drain into ordered batches."""
        if not self.enabled:
            return [Batch(items=[it]) for it in items]
        batches: List[Tuple[int, Batch]] = []  # (first position, batch)
        open_by_key: dict = {}
        for pos, item in enumerate(items):
            key = item.batch_key
            if key is None:  # eager work is never coalesced
                batches.append((pos, Batch(items=[item])))
                continue
            entry = open_by_key.get(key)
            if entry is not None and entry.size < self.max_batch:
                entry.items.append(item)
                continue
            entry = Batch(items=[item])
            open_by_key[key] = entry
            batches.append((pos, entry))
        batches.sort(key=lambda e: e[0])
        return [b for _, b in batches]

    def merge_queued(self, head: Batch,
                     queued: Iterable[Any]) -> Tuple[Batch, List[Batch]]:
        """Fold the batches ``queued`` behind ``head`` that share its
        key into one batch of at most ``max_batch`` requests.

        Returns the merged batch and the batches it absorbed, in queue
        order.  The merged batch keeps ``head``'s id, and its estimate
        is the sum of the parts.  A same-key batch that would overflow
        the cap ends the merge, so each key keeps its FIFO order.
        Entries that are not batches are skipped.  Eager work, and
        every batch of a disabled batcher, stays as it is.
        """
        key = head.items[0].batch_key
        if key is None or not self.enabled:
            return head, []
        size = head.size
        joined: List[Batch] = []
        for other in queued:
            if not isinstance(other, Batch) or \
                    other.items[0].batch_key != key:
                continue
            if size + other.size > self.max_batch:
                break
            joined.append(other)
            size += other.size
        if not joined:
            return head, []
        parts = [head] + joined
        return Batch(items=[it for b in parts for it in b.items], id=head.id,
                     estimate_us=sum(b.estimate_us for b in parts)), joined
