"""Simulated-time model of the double-buffered device pipeline.

Section 5.2: "To enable multiple host threads to provide work while
limiting memory occupancy on the devices, we use a pipeline approach,
allocating memory for all steps needed for processing a single batch
of sequences on each GPU.  CUDA events are used to orchestrate the
pipeline, signaling when a stream has to wait or can continue work
using the same memory resources as its predecessor."

This module reproduces the schedule on the simulated clock: per
device, copy (H2D) and compute run on two streams over a ring of
batch buffers; a batch's compute waits for its copy, and a copy into
buffer ``b`` waits for the *previous occupant* of ``b`` to finish
computing.  The resulting makespan shows the copy/compute overlap the
cost model's ``max(...)`` terms assume -- and the tests verify the
overlap algebra exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from paper.gpu.stream import Event, Stream

__all__ = ["BatchPipelineSim", "PipelineResult"]


@dataclass
class PipelineResult:
    """Outcome of one simulated pipeline run."""

    makespan: float
    copy_busy: float
    compute_busy: float
    n_batches: int

    @property
    def overlap_efficiency(self) -> float:
        """1.0 = perfect overlap (makespan == max busy time)."""
        serial = self.copy_busy + self.compute_busy
        if serial == 0.0:
            return 1.0
        lower_bound = max(self.copy_busy, self.compute_busy)
        if self.makespan <= 0.0:
            return 1.0
        return lower_bound / self.makespan


class BatchPipelineSim:
    """Double-buffered copy/compute pipeline on one device."""

    def __init__(self, n_buffers: int = 2) -> None:
        if n_buffers < 1:
            raise ValueError("need at least one batch buffer")
        self.n_buffers = n_buffers

    def run(
        self,
        batch_copy_times: list[float],
        batch_compute_times: list[float],
    ) -> PipelineResult:
        """Simulate the schedule for per-batch copy/compute durations."""
        if len(batch_copy_times) != len(batch_compute_times):
            raise ValueError("need one compute time per copy time")
        copy_stream = Stream("h2d")
        compute_stream = Stream("kernel")
        # per-buffer event marking when its last occupant finished compute
        buffer_free: list[Event | None] = [None] * self.n_buffers
        copy_done: list[Event] = []
        for i, (t_copy, t_compute) in enumerate(
            zip(batch_copy_times, batch_compute_times)
        ):
            buf = i % self.n_buffers
            # the copy reuses buffer `buf`: wait until it is free
            if buffer_free[buf] is not None:
                copy_stream.wait_event(buffer_free[buf])
            copy_stream.enqueue(f"copy[{i}]", t_copy)
            ev_copy = copy_stream.record_event(Event(f"copy{i}"))
            copy_done.append(ev_copy)
            # compute waits for its batch's copy
            compute_stream.wait_event(ev_copy)
            compute_stream.enqueue(f"kernel[{i}]", t_compute)
            buffer_free[buf] = compute_stream.record_event(Event(f"free{i}"))
        return PipelineResult(
            makespan=max(copy_stream.cursor, compute_stream.cursor),
            copy_busy=copy_stream.busy_time,
            compute_busy=compute_stream.busy_time,
            n_batches=len(batch_copy_times),
        )
