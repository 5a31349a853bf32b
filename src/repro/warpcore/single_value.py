"""Single-value hash table: key -> exactly one value.

WarpCore's basic map.  MetaCache-GPU uses it for the *condensed*
query layout loaded from disk (Section 5.1), mapping each feature to
its (offset, length) pointer into the concatenated location buckets.
The condensed index of this package does not: a binary search over
sorted feature columns needs fewer bytes and no probe walk in NumPy (see
:class:`repro.core.database.SortedPointers`).  The table stays as the
WarpCore baseline the micro-benchmarks and tests exercise.
"""

from __future__ import annotations

import numpy as np

from repro.util.segmented import segment_boundaries
from repro.warpcore.base import (
    EMPTY_KEY,
    TableStats,
    batch_spans,
    claim_empty_slots,
    probe_walk,
    sort_by_key,
)
from repro.warpcore.probing import ProbingScheme

__all__ = ["SingleValueHashTable"]

_U64 = np.uint64
_EMPTY64 = np.uint64(EMPTY_KEY)


class SingleValueHashTable:
    """Open-addressing key -> value map with batch operations.

    Re-inserting an existing key overwrites its value (the semantic is
    defined for completeness and tested).
    """

    def __init__(
        self,
        capacity_keys: int,
        group_size: int = 4,
        max_load_factor: float = 0.8,
        max_probe_rounds: int | None = None,
    ) -> None:
        if not 0.05 < max_load_factor <= 1.0:
            raise ValueError("max_load_factor must be in (0.05, 1]")
        min_slots = max(group_size, int(np.ceil(capacity_keys / max_load_factor)))
        self.probing = ProbingScheme.for_capacity(
            min_slots, group_size=group_size, max_probe_rounds=max_probe_rounds
        )
        n = self.probing.n_slots
        self._adopt(np.full(n, EMPTY_KEY, dtype=np.uint32), np.zeros(n, dtype=_U64))
        self._size = 0
        self._dropped = 0

    @classmethod
    def from_arrays(
        cls,
        keys: np.ndarray,
        values: np.ndarray,
        probing: ProbingScheme,
        size: int,
        dropped: int = 0,
    ) -> "SingleValueHashTable":
        """Wrap existing slot arrays without copying them.

        Lets a table probe memory it does not own (read-only arrays
        included).  ``keys``/``values`` must be the full slot arrays of
        a table built with the given ``probing`` scheme; ``size`` is its
        occupied-slot count.

        Raises ``ValueError`` when the array shapes do not match the
        probing scheme's slot count.
        """
        keys = np.asanyarray(keys)  # keep np.memmap views as memmaps
        values = np.asanyarray(values)
        if keys.shape != (probing.n_slots,) or values.shape != (probing.n_slots,):
            raise ValueError(
                f"slot arrays must have shape ({probing.n_slots},), "
                f"got {keys.shape} / {values.shape}"
            )
        if keys.dtype != np.uint32 or values.dtype != _U64:
            raise ValueError("slot arrays must be uint32 keys / uint64 values")
        table = cls.__new__(cls)
        table.probing = probing
        table._adopt(keys, values)
        table._size = int(size)
        table._dropped = int(dropped)
        return table

    def _adopt(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Own the slot arrays and take the views lookups read through.

        ``_keys`` / ``_values`` stay whatever was handed in (possibly
        ``np.memmap`` objects); lookups gather through base-class views
        of them, taken once, because every index into an ``np.memmap``
        pays a Python-level ``__getitem__`` and ``__array_finalize__``.
        """
        self._keys, self._values = keys, values
        self._probe_keys = keys.view(np.ndarray)
        self._probe_values = values.view(np.ndarray)

    @property
    def n_slots(self) -> int:
        return self.probing.n_slots

    def __len__(self) -> int:
        return self._size

    @property
    def load_factor(self) -> float:
        return self._size / self.n_slots

    def stats(self) -> TableStats:
        return TableStats(
            capacity_slots=self.n_slots,
            occupied_slots=self._size,
            stored_values=self._size,
            dropped_values=self._dropped,
            bytes_keys=self._keys.nbytes,
            bytes_values=self._values.nbytes,
            bytes_metadata=0,
        )

    def insert(self, keys: np.ndarray, values: np.ndarray) -> int:
        """Batch upsert; returns the number of pairs placed.

        Duplicate keys within one batch resolve to the *last* value in
        submission order (matching sequential insertion semantics);
        every pair of a placed key counts as placed.

        The key ``0xFFFFFFFF`` is **reserved** as the empty-slot
        sentinel and rejected with ``ValueError``: silently remapping
        it (what the multi-value build tables do) would alias it onto
        ``0xFFFFFFFE`` and, in a single-*value* table, overwrite that
        key's value -- a feature's pointer would vanish without a
        trace.  Callers feeding sketch features never hit this: the
        build tables reserve the sentinel at insert time, so their
        keys arriving here are already clamped.  :meth:`retrieve`
        keeps the symmetric clamp so queries for the raw sentinel
        still find the clamped feature.
        """
        pkeys = np.asarray(keys, dtype=_U64) & np.uint64(0xFFFFFFFF)
        if pkeys.size and bool((pkeys == _EMPTY64).any()):
            raise ValueError(
                "key 0xFFFFFFFF is reserved as the empty-slot sentinel and "
                "cannot be inserted into a SingleValueHashTable"
            )
        pvals = np.asarray(values, dtype=_U64)
        if pkeys.shape != pvals.shape:
            raise ValueError("keys and values must have the same shape")
        spans = batch_spans(pkeys.size)
        if len(spans) > 1:  # more pairs than one grouping sort can index
            return sum(self.insert(pkeys[span], pvals[span]) for span in spans)
        # One walker per distinct key.  Strictly increasing keys (what
        # condensed content submits) are distinct as they stand;
        # otherwise fold duplicates: a key walks once, in the submission
        # position of its first pair, carrying its last value and its
        # pair count.  Walkers are carried as index arrays from then on.
        pairs = np.ones(pkeys.size, dtype=np.int64)
        if not bool((pkeys[1:] > pkeys[:-1]).all()):
            skeys, order = sort_by_key(pkeys)
            starts = segment_boundaries(skeys)
            ends = np.append(starts[1:], pkeys.size) - 1
            by_first = np.argsort(order[starts])
            pairs = (ends - starts + 1)[by_first]
            pvals = pvals[order[ends][by_first]]
            pkeys = pkeys[order[starts][by_first]]
        key32 = pkeys.astype(np.uint32)
        g1, g2 = self.probing.probe_bases(pkeys)
        placed = 0
        max_rounds = self.probing.max_probe_rounds
        bids = np.empty(self.n_slots, dtype=np.int64)
        rnd = 0
        while key32.size:
            slots = self.probing.slots_at(g1, g2, rnd)
            self._size += claim_empty_slots(self._keys, bids, slots, key32).size
            match = self._keys.take(slots) == key32
            home = np.flatnonzero(match)
            if home.size:
                self._values[slots.take(home)] = pvals.take(home)
                placed += int(pairs.take(home).sum())
            rnd += 1
            if rnd >= max_rounds:
                self._dropped += int(pairs.sum() - pairs.take(home).sum())
                break
            if home.size:  # a round that placed nobody moves nothing
                keep = np.flatnonzero(~match)
                key32, g1, g2 = key32.take(keep), g1.take(keep), g2.take(keep)
                pvals, pairs = pvals.take(keep), pairs.take(keep)
        return placed

    def retrieve(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batch lookup: ``(values, found_mask)``; missing keys yield 0."""
        q, slots = probe_walk(self._probe_keys, self.probing, keys, first_only=True)
        n = np.size(keys)
        out = np.zeros(n, dtype=_U64)
        found = np.zeros(n, dtype=bool)
        out[q] = self._probe_values.take(slots)
        found[q] = True
        return out, found
