"""The lock-step lookup walks, kept verbatim as the oracle.

Before lookups moved to tile-wide probing every query key advanced one
probe slot per NumPy round: round ``r`` gathered slot ``r`` of every
live walk, retired the keys that matched or met an empty slot, and
went round again.  ``retrieve`` is the body of
``SingleValueHashTable.retrieve`` (the table passed in explicitly) and
``owned_slots`` is ``repro.warpcore.base.owned_slots``, both moved out
of ``src/`` unchanged: ``tests/test_probe_equivalence.py`` asserts
that the production walks return the same values / found masks and the
same ``(query, slot)`` arrays, element for element.
"""

from __future__ import annotations

import numpy as np

from repro.warpcore import EMPTY_KEY, ProbingScheme, SingleValueHashTable
from repro.warpcore.base import sanitize_keys

__all__ = ["retrieve", "owned_slots"]

_U64 = np.uint64


def retrieve(
    self: SingleValueHashTable, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batch lookup: ``(values, found_mask)``; missing keys yield 0."""
    qkeys = sanitize_keys(keys)
    n = qkeys.size
    out = np.zeros(n, dtype=_U64)
    found = np.zeros(n, dtype=bool)
    active = np.arange(n, dtype=np.int64)
    key32 = qkeys.astype(np.uint32)
    g1, g2 = self.probing.probe_bases(qkeys)
    max_rounds = self.probing.max_probe_rounds
    rnd = 0
    while active.size:
        slots = self.probing.slots_at(g1, g2, rnd)
        table_keys = self._keys[slots]
        match = table_keys == key32
        if match.any():
            out[active[match]] = self._values[slots[match]]
            found[active[match]] = True
        rnd += 1
        if rnd >= max_rounds:
            break
        cont = ~match & (table_keys != EMPTY_KEY)
        active, key32, g1, g2 = active[cont], key32[cont], g1[cont], g2[cont]
    return out, found


def owned_slots(
    table_keys: np.ndarray, probing: ProbingScheme, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every slot each query key owns: ``(query index, slot)`` arrays.

    The lookup walk of the multi-value layouts, ordered by (query,
    probe round).  A key fills its slots strictly in probe order and
    only ever passes non-empty slots, so a walk ends at the first empty
    slot (or at the probe limit).
    """
    qkeys = sanitize_keys(keys)
    key32 = qkeys.astype(np.uint32)
    g1, g2 = probing.probe_bases(qkeys)
    active = np.arange(qkeys.size, dtype=np.int64)
    hit_q: list[np.ndarray] = []
    hit_slots: list[np.ndarray] = []
    rnd = 0
    while active.size:
        slots = probing.slots_at(g1, g2, rnd)
        found = table_keys[slots]
        match = found == key32
        if match.any():
            hit_q.append(active[match])
            hit_slots.append(slots[match])
        rnd += 1
        if rnd >= probing.max_probe_rounds:
            break
        cont = found != EMPTY_KEY
        active, key32, g1, g2 = active[cont], key32[cont], g1[cont], g2[cont]
    if not hit_q:
        none = np.zeros(0, dtype=np.int64)
        return none, none
    q = np.concatenate(hit_q)
    # stable sort by query restores (query, round) order
    order = np.argsort(q, kind="stable")
    return q[order], np.concatenate(hit_slots)[order]
