"""Equivalence harness: tile-wide lookup walks vs the lock-step oracle.

Lookups gather a ``(live walks x w)`` tile of probe rounds per step
(``repro.warpcore.base.probe_walk``) with ``w`` derived from the live
count.  The contract: for *any* slot array -- built properly or not --
and any query vector, ``SingleValueHashTable.retrieve`` returns the
same values / found mask and ``owned_slots`` the same ``(query, slot)``
arrays as the retained one-slot-per-round walks in
``tests/reference/warpcore_lockstep_probe.py``, element for element.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import warpcore_lockstep_probe as lockstep
from repro.warpcore import EMPTY_KEY, ProbingScheme, SingleValueHashTable
from repro.warpcore.base import _TILE_CELLS, owned_slots

SENTINEL = 0xFFFFFFFF
PRIMES = [2, 3, 7, 13, 31, 61]


def _table(slot_keys: np.ndarray, probing: ProbingScheme) -> SingleValueHashTable:
    """A table over the given slot keys; every slot's value is its index + 1."""
    values = np.arange(1, slot_keys.size + 1, dtype=np.uint64)
    size = int((slot_keys != EMPTY_KEY).sum())
    return SingleValueHashTable.from_arrays(slot_keys, values, probing, size)


def _assert_same_lookups(table: SingleValueHashTable, queries: np.ndarray) -> None:
    values, found = table.retrieve(queries)
    ref_values, ref_found = lockstep.retrieve(table, queries)
    assert values.dtype == ref_values.dtype and found.dtype == ref_found.dtype
    assert np.array_equal(values, ref_values)
    assert np.array_equal(found, ref_found)
    q, slots = owned_slots(table._keys, table.probing, queries)
    ref_q, ref_slots = lockstep.owned_slots(table._keys, table.probing, queries)
    assert q.dtype == ref_q.dtype and slots.dtype == ref_slots.dtype
    assert np.array_equal(q, ref_q)
    assert np.array_equal(slots, ref_slots)


def _built(
    n_keys: int, load: float, group_size: int, seed: int, max_probe_rounds=None
) -> tuple[SingleValueHashTable, np.ndarray]:
    """A properly inserted table at ``load`` and the keys it holds."""
    rng = np.random.default_rng(seed)
    keys = rng.choice(2**32 - 2, size=n_keys, replace=False).astype(np.uint64)
    table = SingleValueHashTable(
        n_keys,
        group_size=group_size,
        max_load_factor=load,
        max_probe_rounds=max_probe_rounds,
    )
    table.insert(keys, keys + np.uint64(1))
    return table, keys


def _queries(held: np.ndarray, n: int, hit_share: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n_hits = int(n * hit_share)
    hits = rng.choice(held, size=n_hits)
    misses = rng.integers(0, 2**32, size=n - n_hits).astype(np.uint64)
    return rng.permutation(np.concatenate([hits, misses]))


class TestArbitrarySlotArrays:
    """Any slot content: the walks are functions of the array, not of
    how it was filled, so misplaced keys must be missed alike."""

    @settings(max_examples=150, deadline=None)
    @given(
        group_size=st.sampled_from([1, 2, 4, 8]),
        n_groups=st.sampled_from([1] + PRIMES),
        load=st.floats(0.05, 0.97),
        universe=st.sampled_from([4, 40, 2**32 - 1]),
        # odd limits: not a multiple of any group size but 1, and far
        # shorter than the longest walk of a loaded table
        max_probe_rounds=st.sampled_from([None, 1, 3, 5, 7, 11]),
        n_queries=st.sampled_from([0, 1, 16, 128]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_lockstep(
        self, group_size, n_groups, load, universe, max_probe_rounds, n_queries, seed
    ):
        n_slots = n_groups * group_size
        probing = ProbingScheme(
            n_groups=n_groups,
            group_size=group_size,
            max_probe_rounds=n_slots if max_probe_rounds is None else max_probe_rounds,
        )
        rng = np.random.default_rng(seed)
        slot_keys = rng.integers(0, universe, size=n_slots).astype(np.uint32)
        slot_keys[rng.random(n_slots) >= load] = EMPTY_KEY
        queries = rng.integers(0, universe + 1, size=n_queries).astype(np.uint64)
        if n_queries > 2:
            queries[0] = SENTINEL  # clamps onto SENTINEL - 1
            queries[1] = queries[2]  # a duplicate
        _assert_same_lookups(_table(slot_keys, probing), queries)


class TestBuiltTables:
    @pytest.mark.parametrize("load", [0.06, 0.5, 0.8, 0.97])
    @pytest.mark.parametrize("group_size", [1, 2, 4, 8])
    def test_loads_and_group_sizes(self, load, group_size):
        table, held = _built(3000, load, group_size, seed=group_size)
        for n in (1, 16, 128, 5000):
            _assert_same_lookups(table, _queries(held, n, 0.5, seed=n))

    @pytest.mark.parametrize("n", [1, 16, 128, 5000, 70000])
    def test_query_sizes_on_both_sides_of_the_tile_budget(self, n):
        assert 128 < _TILE_CELLS < 5000
        table, held = _built(20000, 0.9, 4, seed=1)
        _assert_same_lookups(table, _queries(held, n, 0.5, seed=n))

    @pytest.mark.parametrize("hit_share", [0.0, 1.0])
    def test_all_miss_and_all_hit(self, hit_share):
        table, held = _built(2000, 0.9, 4, seed=2)
        queries = _queries(held, 600, hit_share, seed=3)
        _assert_same_lookups(table, queries)
        assert table.retrieve(queries)[1].all() == bool(hit_share)

    def test_duplicates_and_empty(self):
        table, held = _built(500, 0.9, 4, seed=4)
        _assert_same_lookups(table, np.repeat(held[:7], 40))
        _assert_same_lookups(table, np.zeros(0, dtype=np.uint64))
        values, found = table.retrieve(np.zeros(0, dtype=np.uint64))
        assert values.shape == found.shape == (0,)

    @pytest.mark.parametrize("group_size", [2, 4, 8])
    def test_probe_limit_inside_a_group_and_short_of_the_walks(self, group_size):
        # insert drops what the limit cannot place; lookups must cut
        # off at the same round, mid-group
        limit = group_size + 1
        table, held = _built(4000, 0.97, group_size, seed=5, max_probe_rounds=limit)
        assert table.stats().dropped_values > 0
        for n in (16, 128, 5000):
            _assert_same_lookups(table, _queries(held, n, 0.8, seed=n))

    def test_read_only_memmap_table(self, tmp_path):
        table, held = _built(3000, 0.8, 4, seed=6)
        np.save(tmp_path / "keys.npy", table._keys)
        np.save(tmp_path / "values.npy", table._values)
        keys = np.load(tmp_path / "keys.npy", mmap_mode="r")
        values = np.load(tmp_path / "values.npy", mmap_mode="r")
        mapped = SingleValueHashTable.from_arrays(
            keys, values, table.probing, len(table)
        )
        assert isinstance(mapped._keys, np.memmap)
        assert type(mapped._probe_keys) is np.ndarray
        for n in (1, 128, 5000):
            queries = _queries(held, n, 0.5, seed=n)
            _assert_same_lookups(mapped, queries)
            got, ref = mapped.retrieve(queries), table.retrieve(queries)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


class TestKeyBeyondAnEmptySlot:
    """A key stored after an empty slot of its own walk is unreachable."""

    @pytest.mark.parametrize("n_queries", [1, 200, 6000])
    def test_stays_not_found(self, n_queries):
        probing = ProbingScheme(n_groups=13, group_size=4, max_probe_rounds=52)
        key = np.array([1234567], dtype=np.uint64)
        walk = probing.slots_at(*probing.probe_bases(key), np.arange(6))
        slot_keys = np.full(probing.n_slots, EMPTY_KEY, dtype=np.uint32)
        slot_keys[walk[:2]] = 99  # two occupied slots, then walk[2] stays empty
        slot_keys[walk[3]] = key[0]  # inside one tile with the empty slot
        table = _table(slot_keys, probing)
        queries = np.repeat(key, n_queries)
        values, found = table.retrieve(queries)
        assert not found.any() and not values.any()
        q, slots = owned_slots(slot_keys, probing, queries)
        assert q.size == slots.size == 0
        _assert_same_lookups(table, queries)
        # the same key in front of the empty slot is found
        slot_keys[walk[1]] = key[0]
        values, found = _table(slot_keys, probing).retrieve(queries)
        assert found.all() and (values == walk[1] + 1).all()
