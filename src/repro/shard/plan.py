"""Partition-to-shard planning over a saved database directory.

A shard plan splits an existing database directory's partitions into
N disjoint, jointly exhaustive shards *without touching the index*:
``database.meta`` / ``manifest.json`` already record every
partition's size (``n_locations``), so planning is pure metadata work
-- no rebuild, no rewrite.  Both files are read through
:mod:`repro.core.io`'s readers, so a directory the loader refuses (a
legacy layout) is refused here, before any replica starts.  Each
shard's replica processes then memory-map the whole directory (a
cheap O(metadata) cold open) but query only their assigned partition
ids, so the unqueried partitions' index pages are never faulted in.

Assignment is greedy by weight: partitions are placed heaviest-first
onto the currently lightest shard, the classic LPT balance heuristic.
The plan is deterministic (ties break on lowest id) and
order-independent of how the result is later merged, because
candidate targets are unique across partitions.
"""

from __future__ import annotations

import heapq
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.core.io import check_format_version, read_manifest, read_metadata
from repro.errors import DatabaseFormatError

__all__ = ["ShardAssignment", "ShardPlan"]


@dataclass(frozen=True)
class ShardAssignment:
    """One shard's slice of the database: which partitions, how heavy."""

    shard_id: int
    partition_ids: tuple[int, ...]
    weight: int

    @property
    def n_partitions(self) -> int:
        """Number of database partitions this shard serves."""
        return len(self.partition_ids)


@dataclass(frozen=True)
class ShardPlan:
    """A complete partition-to-shard assignment for one database.

    ``assignments`` is ordered by shard id; every partition of the
    directory appears in exactly one shard (validated on
    construction).  Build one with :meth:`from_directory`.
    """

    directory: str
    n_partitions: int
    assignments: tuple[ShardAssignment, ...]

    def __post_init__(self) -> None:
        """Validate disjoint, exhaustive coverage of the partitions."""
        seen: list[int] = []
        for a in self.assignments:
            seen.extend(a.partition_ids)
        if sorted(seen) != list(range(self.n_partitions)):
            raise ValueError(
                f"shard plan does not cover partitions 0..{self.n_partitions - 1} "
                f"exactly once: {seen}"
            )

    @property
    def n_shards(self) -> int:
        """Number of shards in the plan."""
        return len(self.assignments)

    @classmethod
    def from_directory(
        cls, directory: "str | os.PathLike[str]", n_shards: int
    ) -> "ShardPlan":
        """Plan ``n_shards`` shards over a saved database directory.

        Reads ``database.meta`` and ``manifest.json`` only; the index
        arrays themselves are never opened.  Raises
        :class:`~repro.errors.DatabaseFormatError` when the directory
        is missing, in a legacy layout (upgrade with ``metacache-repro
        convert``), or its metadata is corrupt, and ``ValueError``
        when ``n_shards`` is not in ``1..n_partitions`` (a shard with
        no partitions could never contribute candidates).
        """
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        path = Path(directory)
        meta_path = path / "database.meta"
        try:
            meta = json.loads(meta_path.read_text())
        except FileNotFoundError as exc:
            raise DatabaseFormatError(f"no database at {path} ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise DatabaseFormatError(f"{meta_path}: corrupt metadata ({exc})") from exc
        check_format_version(meta, meta_path)
        _, _, n_partitions = read_metadata(meta, meta_path)
        if n_shards > n_partitions:
            raise ValueError(
                f"cannot plan {n_shards} shard(s) over {n_partitions} "
                "partition(s): every shard needs at least one partition"
            )
        entries = read_manifest(path, n_partitions)
        weights = {
            int(e["partition_id"]): int(e["n_locations"]) for e in entries
        }
        if sorted(weights) != list(range(n_partitions)):
            raise DatabaseFormatError(
                f"{path / 'manifest.json'}: partition ids are not dense"
            )
        return cls(
            directory=str(path),
            n_partitions=n_partitions,
            assignments=_assign(weights, n_shards),
        )

    def describe(self) -> str:
        """One line per shard, for banners and logs."""
        lines = []
        for a in self.assignments:
            pids = ",".join(str(p) for p in a.partition_ids)
            lines.append(
                f"shard {a.shard_id}: partition(s) [{pids}] "
                f"({a.weight:,} locations)"
            )
        return "\n".join(lines)


def _assign(
    weights: dict[int, int], n_shards: int
) -> tuple[ShardAssignment, ...]:
    """Greedy LPT: heaviest partition first onto the lightest shard."""
    # (weight, shard_id) heap: ties deterministically pick the lowest id
    heap: list[tuple[int, int]] = [(0, s) for s in range(n_shards)]
    heapq.heapify(heap)
    members: dict[int, list[int]] = {s: [] for s in range(n_shards)}
    loads: dict[int, int] = {s: 0 for s in range(n_shards)}
    for pid in sorted(weights, key=lambda p: (-weights[p], p)):
        load, shard = heapq.heappop(heap)
        members[shard].append(pid)
        loads[shard] = load + weights[pid]
        heapq.heappush(heap, (loads[shard], shard))
    return tuple(
        ShardAssignment(
            shard_id=s,
            partition_ids=tuple(sorted(members[s])),
            weight=loads[s],
        )
        for s in range(n_shards)
    )
