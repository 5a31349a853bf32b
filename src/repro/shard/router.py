"""The shard router: one logical classification service over N x R processes.

:class:`ShardRouter` owns one :class:`~repro.parallel.pool.WorkerPool`
of N x R slots and one :class:`~repro.shard.replica.ReplicaSet` of
policy per shard of a :class:`~repro.shard.plan.ShardPlan`.  A query
fans one :class:`~repro.shard.messages.ShardTask` out to the
least-loaded live replica of every shard, collects the N per-shard
candidate runs (the pool's wait is event-driven over result pipes and
process sentinels), and merges them (ascending shard id) with
:func:`~repro.core.merge.merge_partition_runs` -- candidate targets
are unique across partitions, so the merged top-``m`` is byte-identical
to a single-process query over the whole database regardless of shard
count or arrival order.

Failure handling during the wait loop:

- a replica *process death* (any exit code) is detected by exit code;
  if the dead replica held this batch's dispatch for a shard that has
  not answered yet, the task is re-dispatched to a sibling replica
  (*failover*) and the death is accounted for respawn with bounded
  exponential backoff.  The request never fails for a single-replica
  crash; the shard merely reports *degraded* until the respawn
  handshake completes.
- a replica answering with an *exception* (``"error"`` message) for
  the current batch re-raises as
  :class:`~repro.errors.PipelineError` with the replica traceback and
  is **not** failed over: the pipeline is deterministic, so a sibling
  would fail identically.  The router itself stays serviceable --
  answers are batch-id-tagged, so any late duplicates are discarded.
- only when a shard's last replica is dead *and* its respawn budget
  is exhausted does the query raise
  :class:`~repro.errors.ShardFailedError`.

Processes, per-generation queues, the start handshake and teardown
(idempotent ``close()`` shared with a GC finalizer, sentinel ->
terminate -> kill) are the pool's; see :mod:`repro.parallel.pool`.
"""

from __future__ import annotations

import os
import threading
import time

from repro.core.config import ClassificationParams
from repro.core.database import FileBackedDatabaseHandle
from repro.core.merge import merge_partition_runs
from repro.core.query import QueryResult
from repro.errors import ReloadError
from repro.parallel.pool import WorkerPool
from repro.pipeline.packed import PackedReads
from repro.shard.messages import ShardResult, ShardTask
from repro.shard.plan import ShardPlan
from repro.shard.replica import ReplicaSet, ReplicaSlot
from repro.shard.worker import attach_shard

__all__ = ["ShardRouter"]

#: cap on one wait for answers; also the granularity of due respawns
_WAIT_SECONDS = 0.1


class ShardRouter:
    """Fan-out / merge front-end over N shards x R replicas.

    Parameters
    ----------
    plan:
        partition-to-shard assignment over a saved format-v2
        directory (see :meth:`ShardPlan.from_directory`).
    replicas:
        replica processes per shard (>= 1).
    respawn_backoff / respawn_backoff_cap / max_respawns:
        crash-loop damping, per replica slot (see
        :class:`~repro.shard.replica.ReplicaSet`).

    Raises
    ------
    WorkerCrashError
        when a replica dies or fails to attach during startup.
    """

    def __init__(
        self,
        plan: ShardPlan,
        *,
        replicas: int = 1,
        respawn_backoff: float = 0.5,
        respawn_backoff_cap: float = 5.0,
        max_respawns: int = 3,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.plan = plan
        self.replicas = replicas
        self._lock = threading.Lock()
        self._batch_counter = 0
        self.batches = 0
        handle = FileBackedDatabaseHandle(plan.directory)
        self._pool = WorkerPool(
            attach_shard,
            [
                (handle, a.partition_ids)
                for a in plan.assignments
                for _ in range(replicas)
            ],
            [
                f"metacache-shard-{a.shard_id}-replica-{rid}"
                for a in plan.assignments
                for rid in range(replicas)
            ],
        )
        self._sets = [
            ReplicaSet(
                a.shard_id,
                a.partition_ids,
                self._pool,
                self._pool.slots[i * replicas : (i + 1) * replicas],
                respawn_backoff=respawn_backoff,
                respawn_backoff_cap=respawn_backoff_cap,
                max_respawns=max_respawns,
            )
            for i, a in enumerate(plan.assignments)
        ]
        # pool slot index -> (its shard's policy, its replica slot)
        self._by_index: list[tuple[ReplicaSet, ReplicaSlot]] = [
            (rset, slot) for rset in self._sets for slot in rset.slots
        ]

    # ------------------------------------------------------------ main loop

    def query(
        self, packed: PackedReads, *, params: ClassificationParams
    ) -> QueryResult:
        """Classify one packed batch across all shards; merged result.

        Byte-identical to ``query_database`` over the whole database
        with the same ``params``.  Thread-safe via an internal lock --
        batches are serviced one at a time (each batch already
        parallelizes across every shard), which is the access pattern
        of the server's micro-batcher.

        Raises
        ------
        PipelineError
            the batch raised inside a replica (original traceback in
            the message); not retried, the failure is deterministic.
        ShardFailedError
            a shard has no live replica left and its respawn budget
            is exhausted.
        """
        with self._lock:
            if self.closed:
                raise RuntimeError("ShardRouter is closed")
            self._batch_counter += 1
            bid = self._batch_counter
            task = ShardTask(batch_id=bid, packed=packed, params=params)
            pending = {rset.shard_id: rset.dispatch(task) for rset in self._sets}
            outputs: dict[int, ShardResult] = {}
            while len(outputs) < len(self._sets):
                self._sweep(task, pending, outputs)
                msgs = self._pool.take_messages()
                for msg in msgs:
                    self._handle_message(msg, bid, outputs)
                if not msgs:
                    self._pool.wait(_WAIT_SECONDS)
            self.batches += 1
            return self._merge(outputs, packed)

    def _sweep(
        self,
        task: ShardTask,
        pending: dict[int, ReplicaSlot],
        outputs: dict[int, ShardResult],
    ) -> None:
        """Detect dead replicas; fail the batch over; run due respawns."""
        now = time.monotonic()
        for rset in self._sets:
            sid = rset.shard_id
            # fail over before maintain(): a due respawn would make the
            # dead slot look alive again, with the batch lost
            if sid not in outputs and not pending[sid].alive:
                rset.failovers += 1
                pending[sid] = rset.dispatch(task)
            rset.maintain(now)

    def _handle_message(
        self, msg: tuple, bid: int, outputs: dict[int, ShardResult]
    ) -> None:
        """Route one pool message; answers to other batches are dropped."""
        kind = msg[0]
        rset, slot = self._by_index[msg[1]]
        if kind == "ready":
            rset.on_ready(slot)
        elif kind == "init_error":
            rset.last_error = msg[2]
        elif kind == "ok":
            if msg[2] == bid and rset.shard_id not in outputs:
                outputs[rset.shard_id] = msg[3]
        elif kind == "error" and msg[2] == bid:
            raise self._pool.task_error(msg)

    def _merge(
        self, outputs: dict[int, ShardResult], packed: PackedReads
    ) -> QueryResult:
        """Cross-shard merge: same result as one whole-database query."""
        ordered = [outputs[sid] for sid in sorted(outputs)]
        merged = merge_partition_runs(
            [r.candidates() for r in ordered],
            m=ordered[0].target.shape[1],
        )
        result = QueryResult(
            candidates=merged,
            n_reads=ordered[0].n_reads,
            read_lengths=ordered[0].read_lengths,
            total_locations=sum(r.total_locations for r in ordered),
        )
        for r in ordered:
            for name, secs in r.stage_seconds.items():
                result.stages.add(name, secs)
        return result

    # ---------------------------------------------------------- maintenance

    def maintain(self) -> None:
        """Advance health bookkeeping outside the query path.

        Notes deaths, performs due respawns, and drains idle
        handshake messages.  Non-blocking: if a query holds the lock,
        its own sweep is already doing this work.
        """
        if not self._lock.acquire(blocking=False):
            return
        try:
            if self.closed:
                return
            now = time.monotonic()
            for rset in self._sets:
                rset.maintain(now)
            for msg in self._pool.take_messages():
                # bid 0 never issued: only ready/init_error are acted on
                self._handle_message(msg, 0, {})
        finally:
            self._lock.release()

    # ---------------------------------------------------------------- health

    @property
    def degraded(self) -> bool:
        """True while any shard has fewer live replicas than configured."""
        return any(rset.degraded for rset in self._sets)

    def health(self) -> list[dict]:
        """Per-shard health snapshots (see ``ReplicaSet.health``)."""
        return [rset.health() for rset in self._sets]

    def stats(self) -> dict:
        """Aggregate router statistics for the server's ``/stats``."""
        return {
            "shards": len(self._sets),
            "replicas": self.replicas,
            "batches": self.batches,
            "failovers": sum(r.failovers for r in self._sets),
            "respawns": sum(r.respawns for r in self._sets),
            "deaths": sum(r.deaths for r in self._sets),
            "degraded": self.degraded,
            "per_shard": self.health(),
        }

    def reload(self, directory: "str | os.PathLike") -> None:
        """Refuse hot-swap reloads, with the typed error (documented).

        The chosen sharded-reload semantics: a router's
        :class:`~repro.shard.plan.ShardPlan` assigns *partition ids*
        of the saved directory it was computed over, and every
        replica process is pinned to its shard's partitions of that
        directory -- a new directory may have a different partition
        count or balance, so rolling replicas onto it
        generation-by-generation could not keep the plan coherent
        mid-roll.  Sharded services therefore restart on the new
        directory (a load balancer over two instances gives the same
        zero-downtime effect one level up); every reload surface --
        this method, :meth:`repro.api.MetaCache.reload`, and ``POST
        /admin/reload`` (HTTP 409) -- raises
        :class:`~repro.errors.ReloadError` for sharded handles.
        """
        raise ReloadError(
            f"sharded router cannot hot-swap to {directory!s}: the shard "
            "plan is pinned to the saved directory it was computed over; "
            "restart the service on the new directory instead"
        )

    # --------------------------------------------------------------- teardown

    @property
    def closed(self) -> bool:
        """True once the router's processes have been torn down."""
        return self._pool.closed

    def close(self) -> None:
        """Shut every replica down (idempotent, never raises)."""
        self._pool.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
