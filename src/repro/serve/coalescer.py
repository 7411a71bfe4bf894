"""Request coalescer: micro-batching concurrent queries into kernel calls.

Concurrent in-flight requests join per-shape buckets (all range queries
together; kNN queries per ``k`` — see
:meth:`~repro.serve.requests.RangeQueryRequest.batch_key`).  A bucket is
released as one batch when it reaches ``max_batch`` or when its *linger
window* — ``linger`` seconds after the bucket's oldest request arrived —
expires, bounding the latency a request can pay for the chance to share a
kernel call.

The coalescer is a pure data structure: it never sleeps, spawns no tasks,
and reads time only from the values passed in (the service stamps them
from its injectable :class:`~repro.obs.clock.Clock`), so its batching is
a deterministic function of the (arrival time, request) sequence — the
property ``tests/serve/test_coalescer.py`` pins under a
:class:`~repro.obs.clock.ManualClock`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from .requests import BatchKey, QueryRequest, Signature


@dataclass(slots=True)
class PendingQuery:
    """One admitted request waiting for its batch.

    Carries who asked, when, the future its response resolves, and the
    request signature, computed once at submit and reused as the cache
    key at resolve.
    """

    request: QueryRequest
    future: "asyncio.Future"
    enqueued_at: float
    seq: int
    signature: Signature = ()


@dataclass(slots=True)
class Batch:
    """One released bucket, dispatched as a single kernel call."""

    key: BatchKey
    items: list[PendingQuery] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)


def _key_order(key: BatchKey) -> tuple[str, float]:
    """Deterministic release order for simultaneously-due buckets."""
    return str(key[0]), float(key[1]) if len(key) > 1 else -1.0  # type: ignore[arg-type]


class Coalescer:
    """Per-shape pending buckets with size and linger-window release."""

    def __init__(self, max_batch: int, linger: float) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if linger < 0:
            raise ValueError("linger must be non-negative")
        self.max_batch = max_batch
        self.linger = linger
        self._buckets: dict[BatchKey, list[PendingQuery]] = {}
        self._deadlines: dict[BatchKey, float] = {}
        self._seq = 0
        self._pending = 0

    @property
    def pending(self) -> int:
        """How many admitted requests are waiting for a batch."""
        return self._pending

    def add(
        self,
        request: QueryRequest,
        future: "asyncio.Future",
        now: float,
        signature: Signature = (),
    ) -> bool:
        """Enqueue one request; True when its bucket just reached max_batch."""
        key = request.batch_key()
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = []
            self._deadlines[key] = now + self.linger
        bucket.append(PendingQuery(request, future, now, self._seq, signature))
        self._seq += 1
        self._pending += 1
        return len(bucket) >= self.max_batch

    def next_deadline(self) -> float | None:
        """Earliest linger expiry across buckets (None when empty)."""
        if not self._deadlines:
            return None
        return min(self._deadlines.values())

    def take_due(self, now: float, force: bool = False) -> list[Batch]:
        """Release every full or linger-expired bucket (all of them if
        ``force``), in deterministic key order."""
        due = [
            key
            for key, bucket in self._buckets.items()
            if force or len(bucket) >= self.max_batch or now >= self._deadlines[key]
        ]
        batches = []
        for key in sorted(due, key=_key_order):
            items = self._buckets.pop(key)
            del self._deadlines[key]
            self._pending -= len(items)
            # A bucket that outgrew max_batch while the dispatcher was busy
            # releases as consecutive hard-capped chunks, oldest first.
            for start in range(0, len(items), self.max_batch):
                batches.append(Batch(key, items[start : start + self.max_batch]))
        return batches

    def evict_for(self, priority: int) -> PendingQuery | None:
        """Remove and return the shed victim for a ``drop_oldest`` admit.

        The victim is the lowest-priority pending request no more important
        than the newcomer, oldest first within a class.  None when every
        pending request outranks ``priority`` (the newcomer sheds instead).
        """
        victim_key: BatchKey | None = None
        victim_idx = -1
        victim: PendingQuery | None = None
        for key, bucket in self._buckets.items():
            for idx, item in enumerate(bucket):
                if item.request.priority > priority:
                    continue
                if victim is None or (item.request.priority, item.seq) < (
                    victim.request.priority,
                    victim.seq,
                ):
                    victim, victim_key, victim_idx = item, key, idx
        if victim is None:
            return None
        assert victim_key is not None
        bucket = self._buckets[victim_key]
        bucket.pop(victim_idx)
        self._pending -= 1
        if not bucket:
            del self._buckets[victim_key]
            del self._deadlines[victim_key]
        return victim
