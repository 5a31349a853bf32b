"""Wire-format payloads between the shard router and its replicas.

Everything crossing the process boundary is a plain picklable
dataclass of contiguous arrays and scalars (the ``spawn`` start
method re-imports a fresh interpreter, so payloads must carry no
process-local state -- repro-lint RL004 checks this package).

The process protocol itself is :mod:`repro.parallel.pool`'s: the
router puts each :class:`ShardTask` on one replica slot per shard,
tagged with its ``batch_id``, and the slot answers with a
:class:`ShardResult` under the same tag.  The tag is what lets the
router discard stale answers: after a death failover the dead
replica's completed answer may already sit in its queue, and after a
batch error the other shards' answers arrive during the next batch;
neither may be mistaken for a current answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.candidates import Candidates
from repro.core.config import ClassificationParams
from repro.pipeline.packed import PackedReads

__all__ = ["ShardTask", "ShardResult"]


@dataclass(frozen=True)
class ShardTask:
    """One read batch dispatched to (one replica of) every shard.

    ``packed`` pickles as 2-3 contiguous arrays (buffer, offsets,
    read ids) -- the natural wire format for query batches.  The
    decision-rule ``params`` travel per task, exactly like the
    parallel engine's chunk protocol, so per-call overrides reach the
    replicas; sketching parameters always come from the database the
    replica has mapped.
    """

    batch_id: int
    packed: PackedReads
    params: ClassificationParams


@dataclass(frozen=True)
class ShardResult:
    """One shard's candidate run for one batch (already locally merged).

    The five candidate arrays are the fields of
    :class:`~repro.core.candidates.Candidates`, shipped flat so the
    payload is plain arrays; :meth:`candidates` re-wraps them on the
    router side for the cross-shard merge.  ``read_lengths`` is
    returned by every shard identically (it derives from the packed
    batch, not the index) -- the router uses the first arrival.
    """

    target: np.ndarray
    window_first: np.ndarray
    window_last: np.ndarray
    score: np.ndarray
    valid: np.ndarray
    read_lengths: np.ndarray
    n_reads: int
    total_locations: int
    stage_seconds: dict[str, float]
    total_seconds: float

    def candidates(self) -> Candidates:
        """Re-wrap the flat arrays as a mergeable candidate set."""
        return Candidates(
            target=self.target,
            window_first=self.window_first,
            window_last=self.window_last,
            score=self.score,
            valid=self.valid,
        )
