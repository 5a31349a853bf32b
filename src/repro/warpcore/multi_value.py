"""Multi-value hash table: one key-value pair per slot.

WarpCore's multi-value baseline (Section 5.1): every slot stores one
(key, value) pair, so a key with ``n`` values occupies ``n`` slots and
the key is physically duplicated ``n`` times.  Simple and fast, but
memory-hungry on skewed k-mer distributions -- the comparison that
motivates the paper's multi-bucket layout.

Implemented as a thin reinterpretation of the multi-bucket machinery
with ``bucket_size=1`` *without* the count byte (a 1-wide bucket is
full exactly when its key is set), keeping the memory accounting
faithful to the original layout.
"""

from __future__ import annotations

import numpy as np

from repro.warpcore.base import (
    EMPTY_KEY,
    TableStats,
    batch_spans,
    claim_empty_slots,
    owned_slots,
    sanitize_keys,
    sort_by_key,
)
from repro.warpcore.probing import ProbingScheme

__all__ = ["MultiValueHashTable"]

_U64 = np.uint64


class MultiValueHashTable:
    """Open-addressing multimap, one value per slot."""

    def __init__(
        self,
        capacity_values: int,
        group_size: int = 4,
        max_load_factor: float = 0.8,
        max_locations_per_key: int | None = None,
        max_probe_rounds: int | None = None,
    ) -> None:
        if not 0.05 < max_load_factor <= 1.0:
            raise ValueError("max_load_factor must be in (0.05, 1]")
        self.max_locations_per_key = max_locations_per_key
        min_slots = max(group_size, int(np.ceil(capacity_values / max_load_factor)))
        self.probing = ProbingScheme.for_capacity(
            min_slots, group_size=group_size, max_probe_rounds=max_probe_rounds
        )
        n = self.probing.n_slots
        self._keys = np.full(n, EMPTY_KEY, dtype=np.uint32)
        self._values = np.zeros(n, dtype=_U64)
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

    @property
    def load_factor(self) -> float:
        return self._stored / self.n_slots

    def stats(self) -> TableStats:
        return TableStats(
            capacity_slots=self.n_slots,
            occupied_slots=self._stored,
            stored_values=self._stored,
            dropped_values=self._dropped,
            bytes_keys=self._keys.nbytes,
            bytes_values=self._values.nbytes,
            bytes_metadata=0,
        )

    def insert(self, keys: np.ndarray, values: np.ndarray) -> int:
        """Batch insert; every pair claims its own slot."""
        pkeys = sanitize_keys(keys)
        pvals = np.asarray(values, dtype=_U64)
        if pkeys.shape != pvals.shape:
            raise ValueError("keys and values must have the same shape")
        spans = batch_spans(pkeys.size)
        if len(spans) != 1:  # nothing, or more than one grouping sort can index
            return sum(self.insert(pkeys[span], pvals[span]) for span in spans)
        # The walkers here are *pairs*: every pair needs a slot of its
        # own, so same-key pairs race for one slot like any others.
        skeys, order = sort_by_key(pkeys)
        pvals = pvals[order]
        key32 = np.ascontiguousarray(skeys)
        g1, g2 = self.probing.probe_bases(key32)
        seen = np.zeros(key32.size, dtype=np.int64)
        stored_before = self._stored
        cap = self.max_locations_per_key
        max_rounds = self.probing.max_probe_rounds
        bids = np.empty(self.n_slots, dtype=np.int64)
        rnd = 0
        while key32.size:
            if cap is not None:
                over = seen >= cap
                if over.any():
                    self._dropped += int(over.sum())
                    keep = ~over
                    key32, pvals = key32[keep], pvals[keep]
                    g1, g2, seen = g1[keep], g2[keep], seen[keep]
                    if key32.size == 0:
                        break
            slots = self.probing.slots_at(g1, g2, rnd)
            winners = claim_empty_slots(self._keys, bids, slots, key32)
            self._values[slots[winners]] = pvals[winners]
            self._stored += winners.size
            alive = np.ones(key32.size, dtype=bool)
            alive[winners] = False
            # every pair passing a slot owned by its key counts it
            # toward the per-key cap (same-key pairs serialize: they
            # share the probe sequence, so one claims per round)
            seen[alive & (self._keys[slots] == key32)] += 1
            rnd += 1
            if rnd >= max_rounds:
                self._dropped += int(alive.sum())
                break
            key32, pvals = key32[alive], pvals[alive]
            g1, g2, seen = g1[alive], g2[alive], seen[alive]
        return self._stored - stored_before

    def retrieve(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batch lookup of all values per key: ``(values, offsets)``."""
        n = np.size(keys)
        q, s = owned_slots(self._keys, self.probing, keys)
        per_query = np.bincount(q, minlength=n).astype(np.int64)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(per_query, out=offsets[1:])
        return self._values[s], offsets
