"""Serving-side instrumentation: latencies, batch sizes, counters.

The paper's throughput argument is about *batch shape* -- the index
stays hot and small request batches are coalesced into large
classification batches.  These stats make that shape observable at
runtime: ``GET /stats`` reports request/read counters, request
latency quantiles (p50/p99) over a sliding window, and a
power-of-two histogram of dispatched batch sizes, so an operator can
see directly whether micro-batching is actually coalescing traffic.

Everything here is touched only from the server's event-loop thread,
so no locking is needed.
"""

from __future__ import annotations

from repro.errors import ConfigError

__all__ = ["LatencyWindow", "BatchSizeHistogram", "ServerStats"]


class LatencyWindow:
    """Sliding window of the most recent latencies, with quantiles.

    A bounded ring (default: the last 4096 requests) rather than an
    unbounded list, so a long-lived server's stats memory is O(1).
    Quantiles are computed on demand by sorting the ring -- at this
    size that is microseconds, and ``/stats`` is not a hot path.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ConfigError("capacity must be >= 1")
        self.capacity = capacity
        self._ring: list[float] = []
        self._next = 0
        self.count = 0
        self.total_seconds = 0.0

    def record(self, seconds: float) -> None:
        """Add one request latency (seconds) to the window."""
        self.count += 1
        self.total_seconds += seconds
        if len(self._ring) < self.capacity:
            self._ring.append(seconds)
        else:
            self._ring[self._next] = seconds
            self._next = (self._next + 1) % self.capacity

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100) over the window; NaN if empty.

        Nearest-rank definition: the smallest recorded value such
        that at least ``p`` percent of the window is <= it.
        """
        if not self._ring:
            return float("nan")
        ordered = sorted(self._ring)
        rank = max(0, min(len(ordered) - 1, round(p / 100.0 * len(ordered)) - 1))
        return ordered[rank]

    def snapshot(self) -> dict:
        """JSON-ready summary (count, mean, p50, p99 in milliseconds)."""
        mean = self.total_seconds / self.count if self.count else float("nan")
        return {
            "count": self.count,
            "window": len(self._ring),
            "mean_ms": round(mean * 1000.0, 3) if self.count else None,
            "p50_ms": round(self.percentile(50) * 1000.0, 3)
            if self._ring
            else None,
            "p99_ms": round(self.percentile(99) * 1000.0, 3)
            if self._ring
            else None,
        }


class BatchSizeHistogram:
    """Power-of-two histogram of dispatched classification batch sizes.

    Bucket ``k`` counts batches with ``2**k <= size < 2**(k+1)``
    (bucket 0 is size 1).  The shape answers the serving question
    directly: a healthy micro-batching server under load shows mass
    in the large buckets; mass stuck at 1 means coalescing is not
    happening (delay too short, traffic too sparse, or batches too
    small).
    """

    def __init__(self) -> None:
        self._buckets: dict[int, int] = {}
        self.n_batches = 0
        self.total_reads = 0
        self.max_size = 0

    def record(self, size: int) -> None:
        """Count one dispatched batch of ``size`` reads."""
        if size < 1:
            return
        self.n_batches += 1
        self.total_reads += size
        self.max_size = max(self.max_size, size)
        self._buckets[size.bit_length() - 1] = (
            self._buckets.get(size.bit_length() - 1, 0) + 1
        )

    def snapshot(self) -> dict:
        """JSON-ready histogram keyed by bucket lower bound (``2**k``)."""
        mean = self.total_reads / self.n_batches if self.n_batches else None
        return {
            "n_batches": self.n_batches,
            "total_reads": self.total_reads,
            "mean_batch_reads": round(mean, 2) if mean is not None else None,
            "max_batch_reads": self.max_size,
            "buckets": {
                str(2**k): self._buckets[k] for k in sorted(self._buckets)
            },
        }


class ServerStats:
    """All counters the server exposes on ``GET /stats``.

    ``requests_served`` counts classify requests answered with
    results, ``reads_served`` the reads inside them;
    ``requests_rejected`` counts admission-control 503s and
    ``requests_failed`` every request whose *reads* errored: bodies
    rejected by the sequence parsers (typed ``MetaCacheError`` 400s),
    classify-stage failures (worker crashes, record-count
    mismatches), and requests arriving at a crashed dispatcher.
    Protocol-level 4xx answers (bad JSON shape, unknown ``?format=``,
    wrong method/path) are not counted here.  ``latency`` measures
    submit-to-response inside the batcher (queueing + classification,
    the number micro-batching trades off); ``batches`` records the
    dispatch shape.
    """

    def __init__(self) -> None:
        self.requests_served = 0
        self.reads_served = 0
        self.requests_rejected = 0
        self.requests_failed = 0
        self.latency = LatencyWindow()
        self.batches = BatchSizeHistogram()

    def snapshot(self) -> dict:
        """JSON-ready stats block (merged into the ``/stats`` payload)."""
        return {
            "requests_served": self.requests_served,
            "reads_served": self.reads_served,
            "requests_rejected": self.requests_rejected,
            "requests_failed": self.requests_failed,
            "latency": self.latency.snapshot(),
            "batches": self.batches.snapshot(),
        }
