"""Multi-GPU query choreography: sketch forwarding + top-hit merging.

Figure 2's query flow: read batches land on the *first* device, which
generates the sketches; sketches are forwarded device-to-device along
the ring while every device queries its local partition; each device
merges its local top hits with its predecessor's, so the *last*
device holds the global top list, which returns to the host.

The data movement is simulated (streams + link model provide the
timing for the cost accounting); the candidate *contents* are real --
merging is :meth:`repro.core.candidates.Candidates.merged_with`.

The simulation wraps the production pipeline, never the reverse:
:func:`ring_query` runs the core sketch kernel and
:func:`repro.core.query.partition_candidates`, then merges along the
ring instead of sequentially.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.candidates import Candidates
from repro.core.config import MetaCacheParams
from repro.core.database import Database
from repro.core.query import QueryResult, partition_candidates
from repro.gpu.stream import Event, Stream
from repro.gpu.topology import MultiGpuNode
from repro.hashing.minhash import SKETCH_PAD
from repro.hashing.sketch import sketch_reads_packed
from repro.pipeline.packed import PackedReads
from repro.util.timer import StageTimer

__all__ = ["RingQueryTrace", "ring_merge_candidates", "ring_query"]


@dataclass
class RingQueryTrace:
    """Simulated timing of one ring traversal (for the cost benches)."""

    forward_times: list[float]
    merge_order: list[int]
    total_transfer_seconds: float


def ring_merge_candidates(
    node: MultiGpuNode,
    per_device_candidates: list[Candidates],
    sketch_bytes: int = 0,
    tophit_bytes_per_read: int = 64,
) -> tuple[Candidates, RingQueryTrace]:
    """Merge per-device candidate lists along the device ring.

    Parameters
    ----------
    node:
        the multi-GPU node (provides ring order and link bandwidths).
    per_device_candidates:
        local top hits from each device's partition, index-aligned
        with ``node.devices``.
    sketch_bytes:
        bytes of sketches forwarded hop-to-hop (timing only).
    tophit_bytes_per_read:
        bytes per read of the running top list (timing only).

    Returns the globally merged candidates (exactly what a single
    database covering all partitions would produce, because targets
    are never split across devices) plus the timing trace.
    """
    order = node.ring_order()
    if len(per_device_candidates) != node.n_gpus:
        raise ValueError("need one candidate set per device")
    streams = [Stream(name=f"dev{i}/query") for i in order]
    forward_times: list[float] = []
    total_transfer = 0.0

    merged = per_device_candidates[order[0]]
    n_reads = merged.n_reads
    prev_event = Event("dev0-local-done")
    streams[0].enqueue("local_query", 0.0)
    streams[0].record_event(prev_event)
    for hop, dev in enumerate(order[1:], start=1):
        # sketches hop forward; the next device waits for them before
        # its local query completes, then merges the running top list
        t_sketch = node.transfer_time(order[hop - 1], dev, sketch_bytes)
        t_tops = node.transfer_time(
            order[hop - 1], dev, tophit_bytes_per_read * n_reads
        )
        total_transfer += t_sketch + t_tops
        streams[hop].wait_event(prev_event)
        end = streams[hop].enqueue("recv_and_merge", t_sketch + t_tops)
        forward_times.append(end)
        prev_event = Event(f"dev{dev}-merge-done")
        streams[hop].record_event(prev_event)
        merged = merged.merged_with(per_device_candidates[dev])
    trace = RingQueryTrace(
        forward_times=forward_times,
        merge_order=order,
        total_transfer_seconds=total_transfer,
    )
    return merged, trace


def ring_query(
    node: MultiGpuNode,
    db: Database,
    reads: PackedReads,
    params: MetaCacheParams | None = None,
) -> tuple[QueryResult, RingQueryTrace]:
    """Query ``reads`` with one database partition per simulated device.

    The multi-GPU shape of :func:`repro.core.query.query_database`:
    sketches are generated once (on the first device), every device
    produces its partition's local top hits, and the lists merge along
    the ring.  The :class:`QueryResult` is identical to the sequential
    merge's; the :class:`RingQueryTrace` carries the simulated
    transfer timing.  ``node`` must have exactly one device per
    partition.
    """
    if node.n_gpus != db.n_partitions:
        raise ValueError(
            f"node has {node.n_gpus} device(s) for {db.n_partitions} partition(s)"
        )
    params = params or db.params
    timer = StageTimer()
    with timer.stage("sketch"):
        sketches, window_read_ids = sketch_reads_packed(
            reads.buffer, reads.offsets, params.sketch, reads.read_ids
        )
    per_device, total_locations = partition_candidates(
        db,
        sketches,
        window_read_ids,
        reads.n_reads,
        params.sliding_window_sizes(reads.read_lengths),
        params.classification.max_candidates,
        timer,
    )
    sketch_bytes = int(np.count_nonzero(sketches != SKETCH_PAD)) * sketches.itemsize
    with timer.stage("merge"):
        merged, trace = ring_merge_candidates(
            node, per_device, sketch_bytes=sketch_bytes
        )
    result = QueryResult(
        candidates=merged,
        n_reads=reads.n_reads,
        read_lengths=reads.read_lengths,
        stages=timer,
        total_locations=total_locations,
    )
    return result, trace
