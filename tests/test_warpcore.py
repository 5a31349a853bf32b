"""Tests for the WarpCore-style hash tables.

The central invariant, shared by all multimap variants: after
inserting a multiset of (key, value) pairs, retrieving a key returns
exactly the multiset of its values (up to per-key caps / capacity
overflow, which are tracked in ``dropped_values``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.warpcore import (
    EMPTY_KEY,
    BucketListHashTable,
    MultiBucketHashTable,
    MultiValueHashTable,
    ProbingScheme,
    SingleValueHashTable,
)


def make_pairs(seed: int, n: int, key_space: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, key_space, size=n).astype(np.uint64)
    values = rng.integers(0, 2**63, size=n, dtype=np.uint64)
    return keys, values


def check_multimap_fidelity(table, keys, values):
    """Retrieve must return exactly the inserted multiset per key."""
    uniq = np.unique(keys)
    got_values, offsets = table.retrieve(uniq)
    for i, k in enumerate(uniq):
        expected = sorted(values[keys == k].tolist())
        got = sorted(got_values[offsets[i] : offsets[i + 1]].tolist())
        assert got == expected, f"key {k}: {len(got)} vs {len(expected)} values"


class TestProbingScheme:
    def test_prime_group_sizing(self):
        from repro.warpcore.probing import next_prime

        p = ProbingScheme.for_capacity(100, group_size=4)
        assert p.n_slots >= 100
        assert p.n_groups == next_prime(25)
        # tight sizing: never more than ~2 groups of slack
        assert p.n_slots <= 100 + 4 * 8

    def test_next_prime(self):
        from repro.warpcore.probing import next_prime

        assert next_prime(1) == 2
        assert next_prime(24) == 29
        assert next_prime(29) == 29
        assert next_prime(100) == 101

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ProbingScheme(n_groups=0, group_size=4, max_probe_rounds=8)
        with pytest.raises(ValueError):
            ProbingScheme(n_groups=4, group_size=0, max_probe_rounds=8)

    def test_slots_in_range(self):
        p = ProbingScheme.for_capacity(256, group_size=4)
        keys = np.arange(1000, dtype=np.uint64)
        bases = p.probe_bases(keys)
        for r in range(10):
            slots = p.slots_at(*bases, r)
            assert (slots >= 0).all() and (slots < p.n_slots).all()

    def test_inner_probe_is_group_linear(self):
        """Consecutive rounds within a group hit consecutive slots."""
        p = ProbingScheme.for_capacity(256, group_size=4)
        key = np.array([1234], dtype=np.uint64)
        bases = p.probe_bases(key)
        slots = [int(p.slots_at(*bases, r)[0]) for r in range(4)]
        base = slots[0] - slots[0] % 4
        assert slots == [base, base + 1, base + 2, base + 3]

    def test_outer_probe_visits_all_groups(self):
        """Prime modulus double hashing covers every group (full period)."""
        p = ProbingScheme(n_groups=17, group_size=2, max_probe_rounds=1000)
        for key_val in (77, 1234, 999983):
            key = np.array([key_val], dtype=np.uint64)
            bases = p.probe_bases(key)
            groups = set()
            for j in range(17):
                slot = int(p.slots_at(*bases, j * 2)[0])
                groups.add(slot // 2)
            assert groups == set(range(17))

    def test_different_keys_different_walks(self):
        p = ProbingScheme.for_capacity(1024, group_size=4)
        k = np.array([1, 2], dtype=np.uint64)
        s0 = p.slots_at(*p.probe_bases(k), 0)
        assert s0[0] != s0[1]  # overwhelmingly likely with these keys


class TestMultiBucket:
    def test_simple_insert_retrieve(self):
        t = MultiBucketHashTable(capacity_values=64, bucket_size=4)
        keys = np.array([5, 5, 9], dtype=np.uint64)
        vals = np.array([100, 200, 300], dtype=np.uint64)
        assert t.insert(keys, vals) == 3
        check_multimap_fidelity(t, keys, vals)

    def test_key_spills_across_slots(self):
        """More than bucket_size values for one key occupy several slots."""
        t = MultiBucketHashTable(capacity_values=128, bucket_size=2)
        keys = np.full(7, 42, dtype=np.uint64)
        vals = np.arange(7, dtype=np.uint64)
        assert t.insert(keys, vals) == 7
        hist = t.key_slot_histogram()
        assert hist == {4: 1}  # ceil(7/2) = 4 slots, one key
        got, off = t.retrieve(np.array([42], dtype=np.uint64))
        assert sorted(got.tolist()) == list(range(7))
        assert off[1] == 7

    def test_missing_key_empty(self):
        t = MultiBucketHashTable(capacity_values=32)
        t.insert(np.array([1], dtype=np.uint64), np.array([7], dtype=np.uint64))
        got, off = t.retrieve(np.array([999], dtype=np.uint64))
        assert off[1] == 0 and got.size == 0

    def test_incremental_batches(self):
        """Values accumulate across insert calls."""
        t = MultiBucketHashTable(capacity_values=256, bucket_size=4)
        all_keys, all_vals = [], []
        for seed in range(5):
            k, v = make_pairs(seed, 40, key_space=10)
            t.insert(k, v)
            all_keys.append(k)
            all_vals.append(v)
        check_multimap_fidelity(t, np.concatenate(all_keys), np.concatenate(all_vals))

    def test_max_locations_cap(self):
        t = MultiBucketHashTable(
            capacity_values=512, bucket_size=4, max_locations_per_key=10
        )
        keys = np.full(50, 7, dtype=np.uint64)
        vals = np.arange(50, dtype=np.uint64)
        stored = t.insert(keys, vals)
        assert stored == 10
        assert t.dropped_values == 40
        got, off = t.retrieve(np.array([7], dtype=np.uint64))
        assert off[1] == 10
        # first 10 submitted values are the ones kept (insertion order)
        assert sorted(got.tolist()) == list(range(10))

    def test_cap_across_batches(self):
        t = MultiBucketHashTable(
            capacity_values=512, bucket_size=4, max_locations_per_key=6
        )
        for start in (0, 4, 8):
            t.insert(
                np.full(4, 3, dtype=np.uint64),
                np.arange(start, start + 4, dtype=np.uint64),
            )
        got, _ = t.retrieve(np.array([3], dtype=np.uint64))
        assert sorted(got.tolist()) == list(range(6))
        assert t.dropped_values == 6

    def test_sentinel_key_usable(self):
        """A feature equal to the EMPTY sentinel still round-trips."""
        t = MultiBucketHashTable(capacity_values=32)
        k = np.array([int(EMPTY_KEY)], dtype=np.uint64)
        t.insert(k, np.array([55], dtype=np.uint64))
        got, off = t.retrieve(k)
        assert off[1] == 1 and got[0] == 55

    def test_empty_insert(self):
        t = MultiBucketHashTable(capacity_values=32)
        assert t.insert(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint64)) == 0

    def test_shape_mismatch(self):
        t = MultiBucketHashTable(capacity_values=32)
        with pytest.raises(ValueError):
            t.insert(np.zeros(2, dtype=np.uint64), np.zeros(3, dtype=np.uint64))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MultiBucketHashTable(capacity_values=10, bucket_size=0)
        with pytest.raises(ValueError):
            MultiBucketHashTable(capacity_values=10, bucket_size=256)
        with pytest.raises(ValueError):
            MultiBucketHashTable(capacity_values=10, max_load_factor=0.0)

    def test_overflow_drops_not_raises(self):
        """A too-small table drops pairs rather than corrupting state."""
        t = MultiBucketHashTable(
            capacity_values=8, bucket_size=1, max_load_factor=1.0, max_probe_rounds=4
        )
        k, v = make_pairs(1, 200, key_space=100)
        stored = t.insert(k, v)
        assert stored + t.dropped_values == 200
        assert t.stored_values <= t.n_slots

    def test_stats(self):
        t = MultiBucketHashTable(capacity_values=64, bucket_size=4)
        k, v = make_pairs(2, 30, key_space=8)
        t.insert(k, v)
        s = t.stats()
        assert s.stored_values == 30
        assert s.bytes_keys == t.n_slots * 4
        assert s.bytes_values == t.n_slots * 4 * 8
        assert s.bytes_metadata == t.n_slots
        assert 0 < s.load_factor <= 1

    @given(
        st.integers(0, 10_000),
        st.integers(1, 300),
        st.integers(1, 40),
        st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_multimap_fidelity_property(self, seed, n, key_space, bucket_size):
        keys, vals = make_pairs(seed, n, key_space)
        t = MultiBucketHashTable(
            capacity_values=max(64, 2 * n), bucket_size=bucket_size
        )
        stored = t.insert(keys, vals)
        assert stored == n, f"dropped {t.dropped_values} of {n}"
        check_multimap_fidelity(t, keys, vals)

    @given(st.integers(0, 1000), st.integers(1, 20))
    @settings(max_examples=25, deadline=None)
    def test_cap_property(self, seed, cap):
        keys, vals = make_pairs(seed, 120, key_space=6)
        t = MultiBucketHashTable(
            capacity_values=512, bucket_size=4, max_locations_per_key=cap
        )
        t.insert(keys, vals)
        counts = t.retrieve_counts(np.unique(keys))
        assert (counts <= cap).all()
        # total stored + dropped == submitted
        assert t.stored_values + t.dropped_values == 120


class TestMultiValue:
    def test_basic(self):
        t = MultiValueHashTable(capacity_values=64)
        keys = np.array([5, 5, 9], dtype=np.uint64)
        vals = np.array([100, 200, 300], dtype=np.uint64)
        assert t.insert(keys, vals) == 3
        check_multimap_fidelity(t, keys, vals)

    def test_cap(self):
        t = MultiValueHashTable(capacity_values=256, max_locations_per_key=5)
        keys = np.full(20, 1, dtype=np.uint64)
        vals = np.arange(20, dtype=np.uint64)
        assert t.insert(keys, vals) == 5
        assert t.dropped_values == 15

    @given(st.integers(0, 10_000), st.integers(1, 200), st.integers(1, 30))
    @settings(max_examples=30, deadline=None)
    def test_fidelity_property(self, seed, n, key_space):
        keys, vals = make_pairs(seed, n, key_space)
        t = MultiValueHashTable(capacity_values=max(64, 2 * n))
        assert t.insert(keys, vals) == n
        check_multimap_fidelity(t, keys, vals)

    def test_memory_exceeds_multibucket_for_hot_keys(self):
        """The paper's claim: multi-bucket stores hot keys denser."""
        keys = np.repeat(np.arange(20, dtype=np.uint64), 50)  # 20 keys x 50 vals
        vals = np.arange(keys.size, dtype=np.uint64)
        mb = MultiBucketHashTable(
            capacity_values=keys.size, bucket_size=8, expected_unique_keys=20
        )
        mv = MultiValueHashTable(capacity_values=keys.size)
        mb.insert(keys, vals)
        mv.insert(keys, vals)
        assert mb.stored_values == mv.stored_values == keys.size
        assert mb.stats().bytes_per_stored_value < mv.stats().bytes_per_stored_value


class TestBucketList:
    def test_basic(self):
        t = BucketListHashTable(capacity_keys=64)
        keys = np.array([5, 5, 9], dtype=np.uint64)
        vals = np.array([100, 200, 300], dtype=np.uint64)
        assert t.insert(keys, vals) == 3
        check_multimap_fidelity(t, keys, vals)

    def test_geometric_growth(self):
        t = BucketListHashTable(capacity_keys=16, first_bucket_capacity=2, growth_factor=2.0)
        keys = np.full(30, 3, dtype=np.uint64)
        t.insert(keys, np.arange(30, dtype=np.uint64))
        chain = next(iter(t._chains.values()))
        caps = [c for c, _, _ in chain.buckets]
        assert caps[0] == 2
        assert all(b >= a for a, b in zip(caps, caps[1:]))  # non-decreasing
        assert caps[1] == 4 and caps[2] == 8

    def test_cap(self):
        t = BucketListHashTable(capacity_keys=16, max_locations_per_key=7)
        keys = np.full(30, 3, dtype=np.uint64)
        assert t.insert(keys, np.arange(30, dtype=np.uint64)) == 7
        assert t.dropped_values == 23

    @given(st.integers(0, 5000), st.integers(1, 150), st.integers(1, 25))
    @settings(max_examples=20, deadline=None)
    def test_fidelity_property(self, seed, n, key_space):
        keys, vals = make_pairs(seed, n, key_space)
        t = BucketListHashTable(capacity_keys=max(64, 2 * key_space))
        assert t.insert(keys, vals) == n
        check_multimap_fidelity(t, keys, vals)

    def test_stats_include_slack(self):
        t = BucketListHashTable(capacity_keys=16, first_bucket_capacity=8)
        t.insert(np.array([1], dtype=np.uint64), np.array([9], dtype=np.uint64))
        s = t.stats()
        assert s.bytes_values == 8 * 8  # full first bucket allocated
        assert s.stored_values == 1


class TestSingleValue:
    def test_insert_retrieve(self):
        t = SingleValueHashTable(capacity_keys=64)
        keys = np.array([10, 20, 30], dtype=np.uint64)
        vals = np.array([1, 2, 3], dtype=np.uint64)
        assert t.insert(keys, vals) == 3
        got, found = t.retrieve(np.array([20, 10, 99], dtype=np.uint64))
        assert found.tolist() == [True, True, False]
        assert got[0] == 2 and got[1] == 1 and got[2] == 0

    def test_overwrite(self):
        t = SingleValueHashTable(capacity_keys=64)
        k = np.array([5], dtype=np.uint64)
        t.insert(k, np.array([1], dtype=np.uint64))
        t.insert(k, np.array([2], dtype=np.uint64))
        got, found = t.retrieve(k)
        assert found[0] and got[0] == 2
        assert len(t) == 1

    def test_duplicate_in_batch_last_wins(self):
        t = SingleValueHashTable(capacity_keys=64)
        keys = np.array([7, 7, 7], dtype=np.uint64)
        vals = np.array([1, 2, 3], dtype=np.uint64)
        t.insert(keys, vals)
        got, _ = t.retrieve(np.array([7], dtype=np.uint64))
        assert got[0] == 3

    @given(st.integers(0, 5000), st.integers(1, 300))
    @settings(max_examples=30, deadline=None)
    def test_map_fidelity(self, seed, n):
        rng = np.random.default_rng(seed)
        keys = rng.permutation(10 * n)[:n].astype(np.uint64)  # distinct
        vals = rng.integers(0, 2**63, size=n, dtype=np.uint64)
        t = SingleValueHashTable(capacity_keys=max(64, 2 * n))
        assert t.insert(keys, vals) == n
        got, found = t.retrieve(keys)
        assert found.all()
        assert np.array_equal(got, vals)


class TestCrossTableEquivalence:
    """All three multimaps agree on retrieve() content."""

    @given(st.integers(0, 3000))
    @settings(max_examples=15, deadline=None)
    def test_same_multiset(self, seed):
        keys, vals = make_pairs(seed, 150, key_space=12)
        tables = [
            MultiBucketHashTable(capacity_values=512, bucket_size=4),
            MultiValueHashTable(capacity_values=512),
            BucketListHashTable(capacity_keys=64),
        ]
        for t in tables:
            assert t.insert(keys, vals) == 150
        uniq = np.unique(keys)
        results = []
        for t in tables:
            got, off = t.retrieve(uniq)
            results.append(
                [sorted(got[off[i] : off[i + 1]].tolist()) for i in range(uniq.size)]
            )
        assert results[0] == results[1] == results[2]
