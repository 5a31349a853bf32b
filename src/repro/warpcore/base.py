"""Shared hash-table machinery: sentinels, stats, key sanitization.

Keys are 32-bit features (stored in uint32 arrays -- half the memory
of 64-bit keys, one of the layout choices that lets the multi-bucket
table fit RefSeq202 on 4 GPUs).  The all-ones value is reserved as the
empty sentinel; real features that collide with it are remapped to the
adjacent value, a deterministic 1-in-2^32 bias that both insert and
query apply identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.warpcore.probing import ProbingScheme

__all__ = [
    "EMPTY_KEY",
    "TableStats",
    "batch_spans",
    "claim_empty_slots",
    "owned_slots",
    "probe_walk",
    "sanitize_keys",
    "sort_by_key",
]

EMPTY_KEY = np.uint32(0xFFFFFFFF)


def sanitize_keys(keys: np.ndarray) -> np.ndarray:
    """Clamp keys colliding with the EMPTY sentinel (vectorized).

    Applied symmetrically on insert and retrieve so lookups stay
    consistent.  (:class:`repro.warpcore.single_value.SingleValueHashTable`
    is the exception: its *insert* rejects the raw sentinel outright,
    because clamping there would silently overwrite the clamp target's
    value; its retrieve still clamps for lookup symmetry with the
    multi-value build tables.)
    """
    k = np.asarray(keys, dtype=np.uint64) & np.uint64(0xFFFFFFFF)
    return np.where(k == np.uint64(EMPTY_KEY), k - np.uint64(1), k)


#: pairs one grouping sort can index (32-bit submission index half)
MAX_BATCH_PAIRS = 1 << 32


def batch_spans(n: int) -> list[slice]:
    """Consecutive spans of at most :data:`MAX_BATCH_PAIRS` covering ``n``."""
    return [slice(i, i + MAX_BATCH_PAIRS) for i in range(0, n, MAX_BATCH_PAIRS)]


def sort_by_key(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable grouping sort of keys below 2^32: ``(sorted keys, order)``.

    One plain ``np.sort`` of ``key << 32 | submission index`` (a
    stable ``argsort`` is a merge sort); the index in the low half keeps
    equal keys in submission order.  Words and the ``<u4`` view that
    splits them are explicitly little-endian on any host.
    """
    if keys.size > MAX_BATCH_PAIRS:
        raise ValueError("batch too large for a 32-bit submission index")
    packed = np.asarray(keys, dtype="<u8") << np.uint64(32)
    packed |= np.arange(keys.size, dtype="<u8")
    packed.sort()
    halves = packed.view("<u4")  # (index, key) words of each element
    return halves[1::2], halves[0::2].astype(np.int64)


def claim_empty_slots(
    table_keys: np.ndarray, bids: np.ndarray, slots: np.ndarray, keys32: np.ndarray
) -> np.ndarray:
    """One claim round: walkers probing an EMPTY slot race for it.

    Walker ``i`` probes ``slots[i]`` for ``keys32[i]``.  Where that slot
    is empty the walker bids its submission index with a scatter-min
    and reads the slot's bid back: the lowest index reads its own bid,
    wins, and writes its key -- the batch form of the device's
    ``atomicCAS(slot, EMPTY, key)``, with "first thread to arrive"
    fixed as "lowest submission index" so the build is deterministic.
    ``bids`` is the caller's scratch, one int64 per table slot with
    arbitrary contents.  Returns the winners' indices, ascending.

    The election stays a reduction NumPy defines (``np.minimum.at``):
    its indexing docs do not guarantee which write lands when a fancy
    assignment repeats an index, so "last write wins" must never be the
    CAS stand-in (``bids[cslots] = ...`` repeats equal values only).
    """
    cand = np.flatnonzero(table_keys.take(slots) == EMPTY_KEY)
    if cand.size == 0:
        return cand
    cslots = slots.take(cand)
    bids[cslots] = cand[-1]
    np.minimum.at(bids, cslots, cand)
    won = np.flatnonzero(bids.take(cslots) == cand)
    winners = cand.take(won)
    table_keys[cslots.take(won)] = keys32.take(winners)
    return winners


# cells (live walks x probe rounds) one lookup step may gather
_TILE_CELLS = 4096


def probe_walk(
    table_keys: np.ndarray,
    probing: "ProbingScheme",
    keys: np.ndarray,
    *,
    first_only: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """The lookup walk of every table: ``(query index, slot)`` of each hit.

    The cooperative probing of the device (a group inspects a *group*
    of slots per step), batch form: each step gathers a
    ``(live walks, w)`` tile of the next ``w`` probe rounds and ends
    every walk at its first *stop* column -- an empty slot, or with
    ``first_only`` (single-value lookups) a match as well; matches up
    to that column are the walk's hits, so a key lying beyond an empty
    slot of its own walk stays unfound and no round at or past
    ``max_probe_rounds`` is ever inspected.  ``w`` follows from the
    live count alone: a batch wider than the tile budget walks in
    lock-step (``w == 1``), and as walks retire the stragglers get
    wider tiles and finish in a few steps instead of one per slot.
    Hits come grouped by step, ordered by (query, round) within one.

    A walk carries its current group's first slot and its outer step,
    both scaled by the group size (``g1 * G``, ``g2 * G``): a round
    inside the group is that base plus ``round mod G``, and the base
    moves on only where a step crosses into the next group -- one add
    and one conditional subtract of the slot count in lock-step -- so
    a lock-step round takes no modulo (a wide tile, only ever a few
    thousand cells, takes one).  It also has one cell per walk, which
    is then its first and only stop, so it needs none of the per-row
    bookkeeping of a wide tile.
    """
    qkeys = sanitize_keys(keys)
    key32 = qkeys.astype(np.uint32)
    g1, g2 = probing.probe_bases(qkeys)
    G, n_slots = probing.group_size, probing.n_slots
    base, step = g1 * G, g2 * G
    active = np.arange(qkeys.size, dtype=np.int64)
    limit = max(probing.max_probe_rounds, 1)  # round 0 is always probed
    hit_q: list[np.ndarray] = []
    hit_slots: list[np.ndarray] = []
    rnd = 0
    while active.size and rnd < limit:
        w = min(max(_TILE_CELLS // active.size, 1), limit - rnd)
        if w == 1:
            slots = base + rnd % G
            found = table_keys.take(slots)
            match = found == key32
            ended = found == EMPTY_KEY
            if first_only:
                ended |= match
            hits = np.flatnonzero(match)  # every match is its walk's first stop
            hit_row = hits
        else:
            cols = np.arange(rnd, rnd + w)
            lag = cols // G - rnd // G  # groups past the base
            slots = (base[:, None] + lag * step[:, None]) % n_slots + cols % G
            found = table_keys.take(slots)
            match = found == key32[:, None]
            stop = found == EMPTY_KEY
            if first_only:
                stop |= match
            # a match is walked up to and including its row's first stop
            ended = stop.any(axis=1)
            end = np.where(ended, stop.argmax(axis=1), w)
            hits = np.flatnonzero(match)
            hit_row = hits // w
            walked = hits % w <= end.take(hit_row)
            hits, hit_row = hits.compress(walked), hit_row.compress(walked)
        if hits.size:
            hit_q.append(active.take(hit_row))
            hit_slots.append(slots.ravel().take(hits))
        crossings = (rnd + w) // G - rnd // G
        rnd += w
        keep = np.flatnonzero(~ended)
        active, key32 = active.take(keep), key32.take(keep)
        base, step = base.take(keep), step.take(keep)
        if crossings == 1:
            base += step
            base -= n_slots * (base >= n_slots)
        elif crossings:
            base += crossings * step
            base %= n_slots
    if not hit_q:
        none = np.zeros(0, dtype=np.int64)
        return none, none
    return np.concatenate(hit_q), np.concatenate(hit_slots)


def owned_slots(
    table_keys: np.ndarray, probing: "ProbingScheme", keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every slot each query key owns: ``(query index, slot)`` arrays.

    The lookup of the multi-value layouts, ordered by (query, probe
    round).  A key fills its slots strictly in probe order and only
    ever passes non-empty slots, so a walk ends at the first empty
    slot (or at the probe limit).
    """
    q, slots = probe_walk(table_keys, probing, keys, first_only=False)
    # grouping by query restores (query, round) order across steps
    sorted_q, order = sort_by_key(q)
    return sorted_q.astype(np.int64), slots.take(order)


@dataclass(frozen=True)
class TableStats:
    """Occupancy and memory accounting for a hash table.

    ``bytes_total`` counts the actual array storage of the table
    (keys + values + per-slot metadata), the quantity behind the
    paper's "10-11% less memory" comparison in Section 6.
    """

    capacity_slots: int
    occupied_slots: int
    stored_values: int
    dropped_values: int
    bytes_keys: int
    bytes_values: int
    bytes_metadata: int

    @property
    def load_factor(self) -> float:
        if self.capacity_slots == 0:
            return 0.0
        return self.occupied_slots / self.capacity_slots

    @property
    def bytes_total(self) -> int:
        return self.bytes_keys + self.bytes_values + self.bytes_metadata

    @property
    def bytes_per_stored_value(self) -> float:
        if self.stored_values == 0:
            return float("nan")
        return self.bytes_total / self.stored_values
