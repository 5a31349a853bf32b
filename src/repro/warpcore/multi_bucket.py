"""The Multi-Bucket hash table -- the paper's core data structure.

Layout (Fig. 3): every slot holds one key, a value count, and a small
*fixed* number ``B`` of value cells.  A key may occupy several slots
along its probe sequence, so it can be associated with an arbitrary
number of values, yet -- unlike the Bucket List table -- there are no
pointers to chase and -- unlike the Multi-Value table -- the key is
stored once per ``B`` values instead of once per value.

Insertion is the batch form of Section 5.3's warp aggregation.  On the
device one cooperative group handles one key and all of its values;
here one machine-word sort (``base.sort_by_key``) groups the batch by
key and run-length encoding turns it into one *walker* per distinct
key -- ``(key, cursor into the sorted values, values remaining, values
of the key passed)`` -- whose two probe hashes are computed once.  All
walkers advance in lock-step (carried as index arrays), so the probe
round is a scalar.  In a round a walker whose slot is
empty bids for it (:func:`repro.warpcore.base.claim_empty_slots`: a
scatter-min of submission indices read back, the stand-in for the
device's ``atomicCAS`` on the key cell -- lowest index wins); a walker
that owns its slot then appends as many values as fit, which is plain
arithmetic per slot: ``n_fit = min(remaining, B - count, cap - seen -
count)``, the values past the cap are dropped, the rest move on.  The
``seen`` tally implements the per-key location cap (254 by default in
MetaCache -- the mechanism whose per-partition application explains
the GPU accuracy gain in Table 6).  No step sorts, ranks or dedupes
(key, value) pairs inside the round loop, and the final slot arrays
are the ones a pair-at-a-time walk leaves (the oracle under
``tests/reference/``), whatever the batch boundaries.

Termination invariant: a key claims slots strictly in probe order and
only passes *non-empty* slots, and slots are never deleted, so at
query time the first empty slot in a key's probe sequence proves no
further slots of that key exist (and ``condensed_content`` can read the
table in one scan, walking only keys that own more than one slot).
"""

from __future__ import annotations

import numpy as np

from repro.util.segmented import (
    gather_segments,
    offsets_from_segment_ids,
    run_length_encode,
    segment_ramp,
)
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

__all__ = ["MultiBucketHashTable"]

_U64 = np.uint64


class MultiBucketHashTable:
    """Open-addressing multi-value map with fixed-size in-slot buckets.

    Parameters
    ----------
    capacity_values:
        sizing hint: the table allocates enough slots that this many
        values fit at the target load factor.
    expected_unique_keys:
        sizing hint: every distinct key needs at least one slot, so a
        mostly-unique key stream needs key-count headroom regardless
        of ``bucket_size``.  Defaults to ``capacity_values`` (safe
        worst case); pass the measured/estimated distinct-feature
        count for tight sizing, as the database builder does.
    bucket_size:
        values per slot (``B``); the paper's layout knob.
    group_size:
        cooperative-group width of the probing scheme.
    max_load_factor:
        fraction of slots the table may fill before inserts start
        failing; sizing uses it as headroom.
    max_locations_per_key:
        cap on values stored per key (None = unlimited).  MetaCache
        defaults to 254 per database partition.
    """

    def __init__(
        self,
        capacity_values: int,
        bucket_size: int = 4,
        group_size: int = 4,
        max_load_factor: float = 0.8,
        max_locations_per_key: int | None = None,
        max_probe_rounds: int | None = None,
        expected_unique_keys: int | None = None,
    ) -> None:
        if bucket_size < 1 or bucket_size > 255:
            raise ValueError("bucket_size must be in [1, 255]")
        if not 0.05 < max_load_factor <= 1.0:
            raise ValueError("max_load_factor must be in (0.05, 1]")
        self.bucket_size = int(bucket_size)
        self.max_load_factor = float(max_load_factor)
        self.max_locations_per_key = max_locations_per_key
        if expected_unique_keys is None:
            expected_unique_keys = capacity_values
        min_slots = max(
            group_size,
            int(np.ceil(capacity_values / bucket_size / max_load_factor)),
            int(np.ceil(expected_unique_keys / max_load_factor)),
        )
        self.probing = ProbingScheme.for_capacity(
            min_slots, group_size=group_size, max_probe_rounds=max_probe_rounds
        )
        n = self.probing.n_slots
        self._keys = np.full(n, EMPTY_KEY, dtype=np.uint32)
        self._counts = np.zeros(n, dtype=np.uint8)
        self._values = np.zeros((n, bucket_size), dtype=_U64)
        self._stored = 0
        self._dropped = 0

    # -- properties ----------------------------------------------------------

    @property
    def n_slots(self) -> int:
        return self.probing.n_slots

    @property
    def occupied_slots(self) -> int:
        return int((self._keys != EMPTY_KEY).sum())

    @property
    def load_factor(self) -> float:
        return self.occupied_slots / self.n_slots

    @property
    def stored_values(self) -> int:
        return self._stored

    @property
    def dropped_values(self) -> int:
        """Values discarded by the per-key cap or probe-limit overflow."""
        return self._dropped

    def stats(self) -> TableStats:
        return TableStats(
            capacity_slots=self.n_slots,
            occupied_slots=self.occupied_slots,
            stored_values=self._stored,
            dropped_values=self._dropped,
            bytes_keys=self._keys.nbytes,
            bytes_values=self._values.nbytes,
            bytes_metadata=self._counts.nbytes,
        )

    # -- insertion -----------------------------------------------------------

    def insert(self, keys: np.ndarray, values: np.ndarray) -> int:
        """Batch-insert (key, value) pairs; returns number stored.

        Pairs whose key exceeds its location cap, or that cannot be
        placed within the probe limit, are dropped (counted in
        :attr:`dropped_values`) -- matching the GPU code, which cannot
        grow the statically allocated table (Section 5.1).
        """
        pkeys = sanitize_keys(keys)
        pvals = np.asarray(values, dtype=_U64)
        if pkeys.shape != pvals.shape:
            raise ValueError("keys and values must have the same shape")
        spans = batch_spans(pkeys.size)
        if len(spans) != 1:  # nothing, or more than one grouping sort can index
            return sum(self.insert(pkeys[span], pvals[span]) for span in spans)
        # Keep original submission order within each key: the grouping
        # sort is stable, so duplicates keep their value order.
        skeys, order = sort_by_key(pkeys)
        pvals = pvals.take(order)
        # One walker per distinct key, ascending: its values are
        # pvals[cursor : cursor + remaining].
        key32, remaining = run_length_encode(skeys)
        cursor = np.cumsum(remaining) - remaining
        g1, g2 = self.probing.probe_bases(key32)
        seen = np.zeros(key32.size, dtype=np.int64)  # values of this key passed
        stored_before = self._stored
        cap = self.max_locations_per_key
        B = self.bucket_size
        max_rounds = self.probing.max_probe_rounds
        bids = np.empty(self.n_slots, dtype=np.int64)
        cells = self._values.reshape(-1)  # cell (slot, j) is cells[slot * B + j]
        rnd = 0

        while key32.size:
            # Keys that already store >= cap values can never place
            # another; drop them before they claim zombie slots.
            if cap is not None and bool((seen >= cap).any()):
                keep = np.flatnonzero(seen < cap)
                self._dropped += int(remaining.sum() - remaining.take(keep).sum())
                key32, g1, g2 = key32.take(keep), g1.take(keep), g2.take(keep)
                cursor, seen = cursor.take(keep), seen.take(keep)
                remaining = remaining.take(keep)
                if key32.size == 0:
                    break

            slots = self.probing.slots_at(g1, g2, rnd)
            claim_empty_slots(self._keys, bids, slots, key32)
            # walkers are key-unique, so a slot holds at most one
            own = np.flatnonzero(self._keys.take(slots) == key32)
            if own.size:
                oslots = slots.take(own)
                count = self._counts.take(oslots).astype(np.int64)
                left = remaining.take(own)
                if cap is not None:
                    # values at key positions >= cap are dropped
                    kept = np.minimum(left, (cap - seen.take(own) - count).clip(0))
                    self._dropped += int((left - kept).sum())
                else:
                    kept = left
                n_fit = np.minimum(kept, B - count)
                src, dst = cursor.take(own), oslots * B + count
                # bounded by B, not by the batch: one index scatter per value column
                col = np.flatnonzero(n_fit > 0)
                for j in range(int(n_fit.max())):
                    col = col.compress(n_fit.take(col) > j)
                    cells[dst.take(col) + j] = pvals.take(src.take(col) + j)
                self._counts[oslots] += n_fit.astype(np.uint8)
                self._stored += int(n_fit.sum())
                cursor[own] = src + n_fit
                remaining[own] = kept - n_fit
                # whoever still has values left found the slot full:
                # record the B values of our key we pass
                seen[own] += B

            rnd += 1
            if rnd >= max_rounds:
                self._dropped += int(remaining.sum())
                break
            keep = np.flatnonzero(remaining > 0)
            if keep.size < key32.size:  # a round that retired nobody moves nothing
                key32, g1, g2 = key32.take(keep), g1.take(keep), g2.take(keep)
                cursor, seen = cursor.take(keep), seen.take(keep)
                remaining = remaining.take(keep)
        return self._stored - stored_before

    # -- retrieval -----------------------------------------------------------

    def _owned(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(slots, value count of each slot, offsets of each query's values)``."""
        q, slots = owned_slots(self._keys, self.probing, keys)
        counts = self._counts[slots].astype(np.int64)
        # q ascends, so the offsets are the running count at each
        # query's first slot
        return slots, counts, offsets_from_segment_ids(q, np.size(keys), counts)

    def retrieve(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batch lookup: all values for each query key.

        Returns ``(values, offsets)`` where query ``i``'s values are
        ``values[offsets[i]:offsets[i+1]]``, ordered by probe round
        (i.e., insertion-slot order).
        """
        slots, counts, offsets = self._owned(keys)
        out = np.empty(int(offsets[-1]), dtype=_U64)
        if out.size:
            # gather slot value cells row-wise, masked by count
            cell = np.arange(self.bucket_size, dtype=np.int64)
            take = cell[None, :] < counts[:, None]
            out[:] = self._values[slots][take]
        return out, offsets

    def retrieve_counts(self, keys: np.ndarray) -> np.ndarray:
        """Number of stored values per query key (no value gather)."""
        return np.diff(self._owned(keys)[2])

    # -- condensed content (save / condense / grow) ---------------------------

    def condensed_content(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(features, lengths, locations)`` in one scan of the slot arrays.

        Sorted distinct keys (uint64), values per key (int64), every key's
        values in probe-round order (uint64) -- ``retrieve`` of all keys,
        but only keys owning several slots walk a probe sequence.
        """
        occupied = np.flatnonzero(self._keys != EMPTY_KEY)
        skeys, order = sort_by_key(self._keys.take(occupied))
        slots = occupied.take(order)
        key32, n_owned = run_length_encode(skeys)
        features = key32.astype(_U64)
        starts = np.cumsum(n_owned) - n_owned
        multi = np.flatnonzero(n_owned > 1)
        if multi.size:
            spans = n_owned.take(multi)
            at = np.repeat(starts.take(multi), spans) + segment_ramp(spans)
            # (query, round) order over ascending keys is the order of `at`
            slots[at] = owned_slots(self._keys, self.probing, features.take(multi))[1]
        counts = self._counts.take(slots).astype(np.int64)
        lengths = np.diff(np.cumsum(counts).take(starts + n_owned - 1), prepend=0)
        # slot s holds the cells s * B .. s * B + count - 1
        locations = gather_segments(
            self._values.reshape(-1), slots * self.bucket_size, counts
        )
        return features, lengths, locations

    # -- introspection helpers (tests / benches) -------------------------------

    def occupied_keys(self) -> np.ndarray:
        """Sorted distinct keys present in the table (uint64)."""
        return self.condensed_content()[0]

    def key_slot_histogram(self) -> dict[int, int]:
        """#slots-per-key distribution: how often keys spill over."""
        occupied = self._keys[self._keys != EMPTY_KEY]
        hist = np.bincount(np.unique(occupied, return_counts=True)[1])
        present = np.flatnonzero(hist)
        return dict(zip(present.tolist(), hist[present].tolist()))
