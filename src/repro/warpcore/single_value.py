"""Single-value hash table: key -> exactly one value.

WarpCore's basic map.  MetaCache-GPU uses it for the *condensed*
query layout loaded from disk (Section 5.1): all location buckets are
concatenated into one big array and this table maps each feature to
its (offset, length) pointer, packed into the uint64 value.
"""

from __future__ import annotations

import numpy as np

from repro.warpcore.base import EMPTY_KEY, TableStats, sanitize_keys
from repro.warpcore.probing import ProbingScheme

__all__ = ["SingleValueHashTable"]

_U64 = np.uint64
_EMPTY64 = np.uint64(EMPTY_KEY)


class SingleValueHashTable:
    """Open-addressing key -> value map with batch operations.

    Re-inserting an existing key overwrites its value (the condensed
    loader never does; the semantic is defined for completeness and
    tested).
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
        self._keys = np.full(n, EMPTY_KEY, dtype=np.uint32)
        self._values = np.zeros(n, dtype=_U64)
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

        Used to map a table over externally owned memory — the
        format-v2 loader hands in (read-only, memory-mapped) views of
        the saved slot arrays, so every process probing the same files
        probes the same physical memory (zero-copy).  ``keys``/``values`` must be the
        full slot arrays of a table built with the given ``probing``
        scheme; ``size`` is its occupied-slot count.

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
        table._keys = keys
        table._values = values
        table._size = int(size)
        table._dropped = int(dropped)
        return table

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
        submission order (matching sequential insertion semantics).

        The key ``0xFFFFFFFF`` is **reserved** as the empty-slot
        sentinel and rejected with ``ValueError``: silently remapping
        it (what the multi-value build tables do) would alias it onto
        ``0xFFFFFFFE`` and, in a single-*value* table, overwrite that
        key's value -- a feature's pointer would vanish without a
        trace.  Callers feeding sketch features never hit this: the
        build tables reserve the sentinel at insert time, so condensed
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
        placed = 0
        rounds = np.zeros(pkeys.size, dtype=np.int64)
        max_rounds = self.probing.max_probe_rounds
        while pkeys.size:
            slots = self.probing.slots_for_round(pkeys, rounds)
            table_keys = self._keys[slots].astype(_U64)
            empty = table_keys == _EMPTY64
            if empty.any():
                cand = np.flatnonzero(empty)
                _, first_idx = np.unique(slots[cand], return_index=True)
                winners = cand[first_idx]
                self._keys[slots[winners]] = pkeys[winners].astype(np.uint32)
                self._size += winners.size
                table_keys = self._keys[slots].astype(_U64)
            match = table_keys == pkeys
            if match.any():
                midx = np.flatnonzero(match)
                # last writer wins within the batch: reversed unique
                mslots = slots[midx]
                order = np.argsort(mslots, kind="stable")
                ms = mslots[order]
                mi = midx[order]
                # last element of each slot run
                is_last = np.ones(ms.size, dtype=bool)
                is_last[:-1] = ms[1:] != ms[:-1]
                self._values[ms[is_last]] = pvals[mi[is_last]]
                placed += int(match.sum())
            rounds += 1
            alive = ~match
            exhausted = alive & (rounds >= max_rounds)
            if exhausted.any():
                self._dropped += int(exhausted.sum())
                alive &= ~exhausted
            pkeys = pkeys[alive]
            pvals = pvals[alive]
            rounds = rounds[alive]
        return placed

    def retrieve(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batch lookup: ``(values, found_mask)``; missing keys yield 0."""
        qkeys = sanitize_keys(keys)
        n = qkeys.size
        out = np.zeros(n, dtype=_U64)
        found = np.zeros(n, dtype=bool)
        active = np.arange(n, dtype=np.int64)
        akeys = qkeys.copy()
        rounds = np.zeros(n, dtype=np.int64)
        max_rounds = self.probing.max_probe_rounds
        while active.size:
            slots = self.probing.slots_for_round(akeys, rounds)
            table_keys = self._keys[slots].astype(_U64)
            match = table_keys == akeys
            if match.any():
                out[active[match]] = self._values[slots[match]]
                found[active[match]] = True
            cont = ~match & (table_keys != _EMPTY64)
            rounds += 1
            cont &= rounds < max_rounds
            active = active[cont]
            akeys = akeys[cont]
            rounds = rounds[cont]
        return out, found
