"""The pair-granular hash-table loops, kept verbatim as the oracle.

Before table construction moved to key granularity every pending
*(key, value) pair* walked the probe sequence on its own, every round
re-hashed all pending keys (``slots_for_round``) and elected slot
winners with ``np.unique(return_index=True)``.  These subclasses are
that code, moved out of ``src/`` unchanged except that the per-round
hashing is the free function below: ``tests/test_warpcore_equivalence.py``
asserts that the production tables leave byte-identical slot arrays
and drop counts for any input stream.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.hashes import fmix64
from repro.util.segmented import segmented_cumcount
from repro.warpcore import (
    EMPTY_KEY,
    BucketListHashTable,
    MultiBucketHashTable,
    MultiValueHashTable,
    ProbingScheme,
    SingleValueHashTable,
)
from repro.warpcore.base import sanitize_keys

__all__ = [
    "slots_for_round",
    "PairwiseMultiBucketHashTable",
    "PairwiseMultiValueHashTable",
    "PairwiseSingleValueHashTable",
    "PairwiseBucketListHashTable",
]

_U64 = np.uint64
_EMPTY64 = np.uint64(EMPTY_KEY)


def slots_for_round(
    probing: ProbingScheme, keys: np.ndarray, rounds: np.ndarray
) -> np.ndarray:
    """Slot index of probe round ``rounds[i]`` for ``keys[i]``, hashing anew."""
    keys = np.asarray(keys, dtype=_U64)
    rounds = np.asarray(rounds, dtype=np.int64)
    g = rounds // probing.group_size
    i = rounds % probing.group_size
    n = _U64(probing.n_groups)
    g1 = fmix64(keys) % n
    if probing.n_groups > 1:
        # step in [1, n_groups): coprime with a prime modulus
        g2 = fmix64(keys ^ _U64(0xA5A5A5A5A5A5A5A5)) % (n - _U64(1)) + _U64(1)
    else:
        g2 = _U64(0)
    group = (g1 + g.astype(_U64) * g2) % n
    return (group.astype(np.int64) * probing.group_size) + i


class PairwiseMultiBucketHashTable(MultiBucketHashTable):
    """Multi-bucket table with one probe walk per (key, value) pair."""

    def insert(self, keys: np.ndarray, values: np.ndarray) -> int:
        pkeys = sanitize_keys(keys)
        pvals = np.asarray(values, dtype=_U64)
        if pkeys.shape != pvals.shape:
            raise ValueError("keys and values must have the same shape")
        if pkeys.size == 0:
            return 0
        # Keep original submission order within each key: stable sort
        # groups duplicates while preserving value order.
        order = np.argsort(pkeys, kind="stable")
        pkeys = pkeys[order]
        pvals = pvals[order]
        rounds = np.zeros(pkeys.size, dtype=np.int64)
        seen = np.zeros(pkeys.size, dtype=np.int64)  # values of this key passed
        stored_before = self._stored
        cap = self.max_locations_per_key
        B = self.bucket_size
        max_rounds = self.probing.max_probe_rounds

        while pkeys.size:
            # Pairs whose key already stores >= cap values can never be
            # placed; drop them before they claim zombie slots.
            if cap is not None:
                over = seen >= cap
                if over.any():
                    self._dropped += int(over.sum())
                    keep = ~over
                    pkeys, pvals = pkeys[keep], pvals[keep]
                    rounds, seen = rounds[keep], seen[keep]
                    if pkeys.size == 0:
                        break

            slots = slots_for_round(self.probing, pkeys, rounds)
            table_keys = self._keys[slots].astype(_U64)

            # -- claim: one winner key per empty slot (warp leader election)
            empty = table_keys == _EMPTY64
            if empty.any():
                cand = np.flatnonzero(empty)
                _, first_idx = np.unique(slots[cand], return_index=True)
                winners = cand[first_idx]
                self._keys[slots[winners]] = pkeys[winners].astype(np.uint32)
                table_keys = self._keys[slots].astype(_U64)

            match = table_keys == pkeys
            done = np.zeros(pkeys.size, dtype=bool)
            if match.any():
                midx = np.flatnonzero(match)
                # group by slot; rank within slot decides who fits
                grp = np.argsort(slots[midx], kind="stable")
                midx = midx[grp]
                mslots = slots[midx]
                rank = segmented_cumcount(mslots)
                cur = self._counts[mslots].astype(np.int64)
                fits = rank < (B - cur)
                dropped = np.zeros(midx.size, dtype=bool)
                if cap is not None:
                    # exact future position of this value within its key:
                    # values in passed slots + in this slot + queued ahead
                    over_cap = (seen[midx] + cur + rank) >= cap
                    dropped = over_cap
                    fits &= ~over_cap
                    if dropped.any():
                        self._dropped += int(dropped.sum())
                        done[midx[dropped]] = True
                if fits.any():
                    aslots = mslots[fits]
                    apos = cur[fits] + rank[fits]
                    self._values[aslots, apos] = pvals[midx[fits]]
                    uniq, cnts = np.unique(aslots, return_counts=True)
                    self._counts[uniq] += cnts.astype(np.uint8)
                    self._stored += int(fits.sum())
                    done[midx[fits]] = True
                # matched but neither stored nor dropped: the slot is
                # (now) full -- record the B values of our key we pass
                rejected = ~fits & ~dropped
                if rejected.any():
                    seen[midx[rejected]] += B

            rounds += 1
            alive = ~done
            exhausted = alive & (rounds >= max_rounds)
            if exhausted.any():
                self._dropped += int(exhausted.sum())
                alive &= ~exhausted
            pkeys, pvals = pkeys[alive], pvals[alive]
            rounds, seen = rounds[alive], seen[alive]
        return self._stored - stored_before

    def retrieve(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        qkeys = sanitize_keys(keys)
        n = qkeys.size
        hit_q: list[np.ndarray] = []
        hit_slots: list[np.ndarray] = []
        if n:
            active = np.arange(n, dtype=np.int64)
            akeys = qkeys.copy()
            rounds = np.zeros(n, dtype=np.int64)
            max_rounds = self.probing.max_probe_rounds
            while active.size:
                slots = slots_for_round(self.probing, akeys, rounds)
                table_keys = self._keys[slots].astype(_U64)
                match = table_keys == akeys
                if match.any():
                    hit_q.append(active[match])
                    hit_slots.append(slots[match])
                # continue while not empty (key may own later slots)
                cont = table_keys != _EMPTY64
                rounds += 1
                cont &= rounds < max_rounds
                active = active[cont]
                akeys = akeys[cont]
                rounds = rounds[cont]
        if hit_q:
            q = np.concatenate(hit_q)
            s = np.concatenate(hit_slots)
        else:
            q = np.zeros(0, dtype=np.int64)
            s = np.zeros(0, dtype=np.int64)
        # stable sort by query restores (query, round) order
        order = np.argsort(q, kind="stable")
        q = q[order]
        s = s[order]
        counts = self._counts[s].astype(np.int64)
        per_query = np.zeros(n, dtype=np.int64)
        np.add.at(per_query, q, counts)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(per_query, out=offsets[1:])
        total = int(offsets[-1])
        out = np.empty(total, dtype=_U64)
        if total:
            B = self.bucket_size
            cell = np.arange(B, dtype=np.int64)
            take = cell[None, :] < counts[:, None]
            out[:] = self._values[s][take]
        return out, offsets

    def occupied_keys(self) -> np.ndarray:
        occ = self._keys[self._keys != EMPTY_KEY]
        return np.unique(occ).astype(_U64)


class PairwiseMultiValueHashTable(MultiValueHashTable):
    """Multi-value table electing slot winners with ``np.unique``."""

    def insert(self, keys: np.ndarray, values: np.ndarray) -> int:
        pkeys = sanitize_keys(keys)
        pvals = np.asarray(values, dtype=_U64)
        if pkeys.shape != pvals.shape:
            raise ValueError("keys and values must have the same shape")
        if pkeys.size == 0:
            return 0
        order = np.argsort(pkeys, kind="stable")
        pkeys, pvals = pkeys[order], pvals[order]
        rounds = np.zeros(pkeys.size, dtype=np.int64)
        seen = np.zeros(pkeys.size, dtype=np.int64)
        stored_before = self._stored
        cap = self.max_locations_per_key
        max_rounds = self.probing.max_probe_rounds
        while pkeys.size:
            if cap is not None:
                over = seen >= cap
                if over.any():
                    self._dropped += int(over.sum())
                    keep = ~over
                    pkeys, pvals = pkeys[keep], pvals[keep]
                    rounds, seen = rounds[keep], seen[keep]
                    if pkeys.size == 0:
                        break
            slots = slots_for_round(self.probing, pkeys, rounds)
            table_keys = self._keys[slots].astype(_U64)
            empty = table_keys == _EMPTY64
            done = np.zeros(pkeys.size, dtype=bool)
            if empty.any():
                cand = np.flatnonzero(empty)
                _, first_idx = np.unique(slots[cand], return_index=True)
                winners = cand[first_idx]
                self._keys[slots[winners]] = pkeys[winners].astype(np.uint32)
                self._values[slots[winners]] = pvals[winners]
                self._stored += winners.size
                done[winners] = True
            # every pair passing a slot owned by its key counts it
            # toward the per-key cap (same-key pairs serialize: they
            # share the probe sequence, so one claims per round)
            match_pass = (~done) & (self._keys[slots].astype(_U64) == pkeys)
            if match_pass.any():
                seen[match_pass] += 1
            rounds += 1
            alive = ~done
            exhausted = alive & (rounds >= max_rounds)
            if exhausted.any():
                self._dropped += int(exhausted.sum())
                alive &= ~exhausted
            pkeys, pvals = pkeys[alive], pvals[alive]
            rounds, seen = rounds[alive], seen[alive]
        return self._stored - stored_before


class PairwiseSingleValueHashTable(SingleValueHashTable):
    """Single-value table walking every duplicate pair on its own."""

    def insert(self, keys: np.ndarray, values: np.ndarray) -> int:
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
            slots = slots_for_round(self.probing, pkeys, rounds)
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


class PairwiseBucketListHashTable(BucketListHashTable):
    """Bucket-list table hashing the key again at every probe round."""

    def _locate(self, key: np.uint64, for_insert: bool) -> int | None:
        for r in range(self.probing.max_probe_rounds):
            slot = int(
                slots_for_round(
                    self.probing, np.array([key], dtype=_U64), np.array([r])
                )[0]
            )
            tk = int(self._keys[slot])
            if tk == int(key):
                return slot
            if tk == int(EMPTY_KEY):
                if for_insert:
                    self._keys[slot] = np.uint32(key)
                    return slot
                return None
        return None
