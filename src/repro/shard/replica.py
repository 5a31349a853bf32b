"""Replica policy for one shard: dispatch, health, respawn.

A :class:`ReplicaSet` is the policy over R slots of the router's
:class:`~repro.parallel.pool.WorkerPool` that serve one shard; the
pool owns their processes, generations and queues (fresh per
generation, so a SIGKILLed replica can never wedge a sibling).

Dispatch is least-loaded: a batch goes to the live slot with the
fewest in-flight batches (ties to the lowest replica id, so routing
is deterministic under test).  Death handling is split between the
router and this class: the router *detects* (exit codes) and
re-dispatches in-flight work; the set *accounts* --
:meth:`ReplicaSet.note_death` records the death and schedules the
respawn with bounded exponential backoff, :meth:`ReplicaSet.maintain`
performs respawns that have come due, and a successful attach
handshake (:meth:`ReplicaSet.on_ready`) resets the slot's backoff.
A shard with zero live replicas left attempts one immediate
emergency respawn at dispatch time; only when even that is exhausted
does dispatch raise :class:`~repro.errors.ShardFailedError`.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from repro.errors import ShardFailedError
from repro.parallel.pool import WorkerPool, WorkerSlot
from repro.shard.messages import ShardTask

__all__ = ["ReplicaSlot", "ReplicaSet"]


class ReplicaSlot:
    """One replica position: a pool slot plus its respawn accounting.

    ``noted_generation`` tracks which generation's death has already
    been accounted, so exit-code polling is idempotent.
    """

    def __init__(self, pool: WorkerPool, worker: WorkerSlot, replica_id: int) -> None:
        self._pool = pool
        self.worker = worker
        self.replica_id = replica_id
        self.noted_generation = 0
        self.respawn_attempts = 0
        self.next_respawn_at = 0.0

    def spawn(self) -> None:
        """Start a new process generation (on brand-new queues)."""
        self._pool.respawn(self.worker.index)

    @property
    def process(self) -> Any:
        """The current generation's process object."""
        return self.worker.process

    @property
    def generation(self) -> int:
        """How many processes this slot has started so far."""
        return self.worker.generation

    @property
    def alive(self) -> bool:
        """True while the current process generation is running."""
        return self.worker.alive

    @property
    def death_unnoted(self) -> bool:
        """True when the current generation died and is not yet accounted."""
        return not self.alive and self.noted_generation < self.generation


class ReplicaSet:
    """The R replicas of one shard, with failover book-keeping.

    Parameters
    ----------
    shard_id / partition_ids:
        the shard's coordinates in the plan.
    pool / workers:
        the router's worker pool and this shard's R slots of it.
    respawn_backoff / respawn_backoff_cap:
        first-respawn delay in seconds, doubling per consecutive
        death up to the cap; a successful ready handshake resets the
        schedule.
    max_respawns:
        consecutive respawns allowed per slot before it is abandoned
        (a crash-looping replica must not flap forever).
    """

    def __init__(
        self,
        shard_id: int,
        partition_ids: Sequence[int],
        pool: WorkerPool,
        workers: Sequence[WorkerSlot],
        *,
        respawn_backoff: float = 0.5,
        respawn_backoff_cap: float = 5.0,
        max_respawns: int = 3,
    ) -> None:
        self.shard_id = shard_id
        self.partition_ids = tuple(partition_ids)
        self.respawn_backoff = respawn_backoff
        self.respawn_backoff_cap = respawn_backoff_cap
        self.max_respawns = max_respawns
        self._pool = pool
        self.slots = [
            ReplicaSlot(pool, worker, rid) for rid, worker in enumerate(workers)
        ]
        self.deaths = 0
        self.respawns = 0
        self.failovers = 0
        self.last_error: str | None = None

    # ------------------------------------------------------------- dispatch

    def dispatch(self, task: ShardTask) -> ReplicaSlot:
        """Queue one batch on the least-loaded live replica.

        With no live replica left, one emergency respawn is attempted
        immediately (backoff is for crash loops, not for the last
        line of defense); if no slot has respawn budget left, raises
        :class:`~repro.errors.ShardFailedError`.
        """
        live = [s for s in self.slots if s.alive]
        if not live:
            slot = self._emergency_respawn()
            if slot is None:
                detail = f" (last error: {self.last_error})" if self.last_error else ""
                raise ShardFailedError(
                    f"shard {self.shard_id}: every replica is dead and the "
                    f"respawn budget ({self.max_respawns} per replica) is "
                    f"exhausted{detail}"
                )
            live = [slot]
        slot = min(live, key=lambda s: s.worker.inflight)
        self._pool.put(slot.worker.index, task.batch_id, (task,))
        return slot

    def _emergency_respawn(self) -> ReplicaSlot | None:
        """Respawn the least-flapping dead slot now, ignoring backoff."""
        eligible = [
            s
            for s in self.slots
            if not s.alive and s.respawn_attempts <= self.max_respawns
        ]
        if not eligible:
            return None
        slot = min(eligible, key=lambda s: (s.respawn_attempts, s.replica_id))
        self.note_death(slot, time.monotonic())  # account first if unnoted
        slot.spawn()
        self.respawns += 1
        return slot

    # ------------------------------------------------------------ accounting

    def note_death(self, slot: ReplicaSlot, now: float) -> bool:
        """Account one process death; returns False if already noted.

        Schedules the respawn ``backoff * 2**(deaths-1)`` seconds from
        ``now``, capped (the slot's queued work is lost or stale; the
        router re-dispatches what it still waits for).
        """
        if not slot.death_unnoted:
            return False
        slot.noted_generation = slot.generation
        slot.respawn_attempts += 1
        delay = min(
            self.respawn_backoff_cap,
            self.respawn_backoff * (2.0 ** (slot.respawn_attempts - 1)),
        )
        slot.next_respawn_at = now + delay
        self.deaths += 1
        return True

    def maintain(self, now: float) -> int:
        """Respawn dead slots whose backoff has elapsed; returns count."""
        spawned = 0
        for slot in self.slots:
            self.note_death(slot, now)
            if (
                not slot.alive
                and slot.noted_generation == slot.generation
                and slot.respawn_attempts <= self.max_respawns
                and now >= slot.next_respawn_at
            ):
                slot.spawn()
                self.respawns += 1
                spawned += 1
        return spawned

    def on_ready(self, slot: ReplicaSlot) -> None:
        """A replica finished its attach handshake: reset its backoff."""
        slot.respawn_attempts = 0
        slot.next_respawn_at = 0.0

    # ---------------------------------------------------------------- health

    @property
    def live(self) -> int:
        """Replicas currently running (attached or still attaching)."""
        return sum(1 for s in self.slots if s.alive)

    @property
    def degraded(self) -> bool:
        """True while fewer replicas are live than were configured."""
        return self.live < len(self.slots)

    def health(self) -> dict:
        """One shard's health snapshot for ``/healthz`` and ``/stats``."""
        return {
            "shard": self.shard_id,
            "partitions": list(self.partition_ids),
            "replicas": len(self.slots),
            "live": self.live,
            "ready": sum(1 for s in self.slots if s.alive and s.worker.ready),
            "degraded": self.degraded,
            "deaths": self.deaths,
            "respawns": self.respawns,
            "failovers": self.failovers,
        }
