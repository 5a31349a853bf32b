"""Bucket-list hash table: key -> linked list of growing buckets.

WarpCore's bucket-list baseline (Section 5.1): every key occupies one
key slot that points to a chain of value buckets; when a bucket fills,
a new one of geometrically larger capacity is appended.  Flexible, but
pays pointer/metadata overhead per bucket and loses memory to the
slack in partially filled tail buckets -- the second comparison point
for the paper's multi-bucket design.

Value storage is modeled exactly (bucket capacities follow the growth
schedule; accounting includes slack and next-pointers) while the
chain walk itself is resolved host-side per unique key -- this table
is a baseline for memory/ablation benches, not the hot path.
"""

from __future__ import annotations

import numpy as np

from repro.util.segmented import segment_boundaries
from repro.warpcore.base import (
    EMPTY_KEY,
    TableStats,
    batch_spans,
    sanitize_keys,
    sort_by_key,
)
from repro.warpcore.probing import ProbingScheme

__all__ = ["BucketListHashTable"]

_U64 = np.uint64
_EMPTY64 = np.uint64(EMPTY_KEY)


class _Chain:
    """One key's bucket chain: list of (capacity, used, array)."""

    __slots__ = ("buckets",)

    def __init__(self) -> None:
        self.buckets: list[tuple[int, int, np.ndarray]] = []

    def append(self, values: np.ndarray, first_capacity: int, growth: float,
               cap: int | None, stored_total: int) -> tuple[int, int]:
        """Append values; returns (stored, dropped) honoring the cap."""
        stored = 0
        dropped = 0
        vals = values
        if cap is not None:
            room = max(0, cap - stored_total)
            if vals.size > room:
                dropped = vals.size - room
                vals = vals[:room]
        i = 0
        while i < vals.size:
            if not self.buckets or self.buckets[-1][1] == self.buckets[-1][0]:
                new_cap = (
                    first_capacity
                    if not self.buckets
                    else max(self.buckets[-1][0] + 1, int(self.buckets[-1][0] * growth))
                )
                self.buckets.append((new_cap, 0, np.zeros(new_cap, dtype=_U64)))
            capc, used, arr = self.buckets[-1]
            take = min(capc - used, vals.size - i)
            arr[used : used + take] = vals[i : i + take]
            self.buckets[-1] = (capc, used + take, arr)
            stored += take
            i += take
        return stored, dropped

    def gather(self) -> np.ndarray:
        if not self.buckets:
            return np.zeros(0, dtype=_U64)
        return np.concatenate([arr[:used] for _, used, arr in self.buckets])

    @property
    def stored(self) -> int:
        return sum(used for _, used, _ in self.buckets)

    @property
    def allocated(self) -> int:
        return sum(capc for capc, _, _ in self.buckets)


class BucketListHashTable:
    """Key slots via open addressing; values in per-key bucket chains."""

    #: bytes charged per bucket for the next-pointer + length header,
    #: matching a device-side singly linked bucket record
    BUCKET_HEADER_BYTES = 16

    def __init__(
        self,
        capacity_keys: int,
        first_bucket_capacity: int = 4,
        growth_factor: float = 2.0,
        group_size: int = 4,
        max_load_factor: float = 0.8,
        max_locations_per_key: int | None = None,
        max_probe_rounds: int | None = None,
    ) -> None:
        if first_bucket_capacity < 1:
            raise ValueError("first_bucket_capacity must be >= 1")
        if growth_factor < 1.0:
            raise ValueError("growth_factor must be >= 1")
        self.first_bucket_capacity = int(first_bucket_capacity)
        self.growth_factor = float(growth_factor)
        self.max_locations_per_key = max_locations_per_key
        min_slots = max(group_size, int(np.ceil(capacity_keys / max_load_factor)))
        self.probing = ProbingScheme.for_capacity(
            min_slots, group_size=group_size, max_probe_rounds=max_probe_rounds
        )
        n = self.probing.n_slots
        self._keys = np.full(n, EMPTY_KEY, dtype=np.uint32)
        self._chains: dict[int, _Chain] = {}  # slot -> chain
        self._stored = 0
        self._dropped = 0

    @property
    def n_slots(self) -> int:
        return self.probing.n_slots

    @property
    def stored_values(self) -> int:
        return self._stored

    @property
    def dropped_values(self) -> int:
        return self._dropped

    def _locate(self, key: np.uint64, for_insert: bool) -> int | None:
        """Walk the probe sequence for a single (sanitized) key."""
        g1, g2 = self.probing.probe_bases(np.array([key], dtype=_U64))
        for r in range(self.probing.max_probe_rounds):
            slot = int(self.probing.slots_at(g1, g2, r)[0])
            tk = int(self._keys[slot])
            if tk == int(key):
                return slot
            if tk == int(EMPTY_KEY):
                if for_insert:
                    self._keys[slot] = np.uint32(key)
                    return slot
                return None
        return None

    def insert(self, keys: np.ndarray, values: np.ndarray) -> int:
        """Batch insert, grouped by key to amortize the chain walk."""
        pkeys = sanitize_keys(keys)
        pvals = np.asarray(values, dtype=_U64)
        if pkeys.shape != pvals.shape:
            raise ValueError("keys and values must have the same shape")
        spans = batch_spans(pkeys.size)
        if len(spans) != 1:  # nothing, or more than one grouping sort can index
            return sum(self.insert(pkeys[span], pvals[span]) for span in spans)
        skeys, order = sort_by_key(pkeys)
        pkeys, pvals = skeys.astype(_U64), pvals[order]
        boundaries = segment_boundaries(pkeys)
        stored_before = self._stored
        for b, e in zip(boundaries, np.append(boundaries[1:], pkeys.size)):
            key = pkeys[b]
            slot = self._locate(key, for_insert=True)
            if slot is None:
                self._dropped += int(e - b)
                continue
            chain = self._chains.setdefault(slot, _Chain())
            stored, dropped = chain.append(
                pvals[b:e],
                self.first_bucket_capacity,
                self.growth_factor,
                self.max_locations_per_key,
                chain.stored,
            )
            self._stored += stored
            self._dropped += dropped
        return self._stored - stored_before

    def retrieve(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batch lookup: ``(values, offsets)`` like the other tables."""
        qkeys = sanitize_keys(keys)
        chunks: list[np.ndarray] = []
        lengths = np.zeros(qkeys.size, dtype=np.int64)
        for i, key in enumerate(qkeys):
            slot = self._locate(key, for_insert=False)
            if slot is None or slot not in self._chains:
                continue
            vals = self._chains[slot].gather()
            lengths[i] = vals.size
            chunks.append(vals)
        offsets = np.zeros(qkeys.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        values = (
            np.concatenate(chunks) if chunks else np.zeros(0, dtype=_U64)
        )
        return values, offsets

    def stats(self) -> TableStats:
        allocated = sum(c.allocated for c in self._chains.values())
        n_buckets = sum(len(c.buckets) for c in self._chains.values())
        return TableStats(
            capacity_slots=self.n_slots,
            occupied_slots=int((self._keys != EMPTY_KEY).sum()),
            stored_values=self._stored,
            dropped_values=self._dropped,
            # key slot also stores the 8-byte head pointer to its chain
            bytes_keys=self._keys.nbytes + 8 * self.n_slots,
            bytes_values=allocated * 8,
            bytes_metadata=n_buckets * self.BUCKET_HEADER_BYTES,
        )
