"""Sharded, replicated serving: one logical index over N x R processes.

MetaCache-GPU's headline scaling result distributes one logical index
across multiple GPUs as partitions queried in parallel and merged
(Section 4.3; simulated by the ``gpu.multi_gpu`` ring).  This package
is the CPU/production analogue: a saved format-v2 database directory
is *planned* into N shards -- disjoint subsets of its partitions
(:class:`ShardPlan`) -- and each shard is served by R replica worker
processes that memory-map the directory through
:class:`~repro.core.database.FileBackedDatabaseHandle` and query only
their assigned partitions.

The :class:`ShardRouter` fans every packed read batch out to one
replica per shard (least-loaded dispatch), collects the per-shard
candidate runs, and merges them with the tie-break-stable
:func:`~repro.core.merge.merge_partition_runs` -- so classification
output is byte-identical to a single-process run over the whole
database, for any shard and replica count.  A replica that crashes
(or times out) mid-batch has its in-flight work retried on a sibling
replica and is respawned with bounded exponential backoff; the shard
is reported *degraded* through :meth:`ShardRouter.health` (surfaced
by the classification server's ``/healthz`` and ``/stats``) rather
than failing the request.  Only when a shard's last replica dies and
the respawn budget is exhausted does a batch fail, with the typed
:class:`~repro.errors.ShardFailedError`.

Wire the router in through ``MetaCache.open(path, shards=N,
replicas=R)`` or ``metacache-repro serve --shards N --replicas R``;
the plan/merge layers are also usable standalone.
"""

from repro.shard.plan import ShardAssignment, ShardPlan
from repro.shard.replica import ReplicaSet, ReplicaSlot
from repro.shard.router import ShardRouter

__all__ = [
    "ShardAssignment",
    "ShardPlan",
    "ReplicaSet",
    "ReplicaSlot",
    "ShardRouter",
]
