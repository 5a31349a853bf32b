"""Equivalence harness: key-granular table construction vs the oracle.

Table construction walks one probe sequence per *distinct key*, claims
slots with a scatter-min CAS stand-in and computes the probe hashes
once.  The contract is strong: for any stream of insert batches the
slot arrays and the stored / dropped counts are *byte-identical* to the
retained pair-at-a-time loops (``tests/reference/warpcore_pairwise.py``),
so every saved index file stays bit-for-bit.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.index_v1 import save_database_v1
from reference.warpcore_pairwise import (
    PairwiseBucketListHashTable,
    PairwiseMultiBucketHashTable,
    PairwiseMultiValueHashTable,
    PairwiseSingleValueHashTable,
    slots_for_round,
)
from repro.core import builder as builder_mod
from repro.core.builder import _GrowingTable
from repro.core.config import MetaCacheParams
from repro.core.database import Database
from repro.core.io import load_database, save_database
from repro.genomics import GenomeSimulator
from repro.taxonomy import build_taxonomy_for_genomes
from repro.warpcore import base as base_mod
from repro.warpcore import (
    BucketListHashTable,
    MultiBucketHashTable,
    MultiValueHashTable,
    ProbingScheme,
    SingleValueHashTable,
)

SENTINEL = 0xFFFFFFFF

# few distinct keys (heavy duplicates), the sentinel and its clamp target
build_keys = st.one_of(
    st.integers(0, 11), st.sampled_from([SENTINEL, SENTINEL - 1, 1 << 31])
)
batches = st.lists(st.lists(build_keys, max_size=60), min_size=1, max_size=4)
# None = the table's own generous default; small = exhaustion drops
probe_rounds = st.sampled_from([None, 1, 2, 3, 5, 9])
caps = st.sampled_from([None, 1, 3, 5, 254])


def _run_stream(table, stream):
    """Insert every batch; values number the pairs of the whole stream."""
    returned, next_value = [], 0
    for batch in stream:
        keys = np.array(batch, dtype=np.uint64)
        values = np.arange(next_value, next_value + keys.size, dtype=np.uint64)
        next_value += keys.size
        returned.append(table.insert(keys, values))
    return returned


def _assert_same_slots(new, ref, arrays):
    for name in arrays:
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), f"{name} diverged"
    assert new.stats() == ref.stats()


class TestProbeBases:
    @settings(max_examples=60, deadline=None)
    @given(
        n_groups=st.integers(1, 40),
        group_size=st.integers(1, 8),
        keys=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=30),
        data=st.data(),
    )
    def test_slots_at_equals_slots_for_round(self, n_groups, group_size, keys, data):
        p = ProbingScheme(n_groups=n_groups, group_size=group_size, max_probe_rounds=64)
        k = np.array(keys, dtype=np.uint64)
        rounds = np.array(
            data.draw(st.lists(st.integers(0, 300), min_size=k.size, max_size=k.size))
        )
        bases = p.probe_bases(k)
        got = p.slots_at(*bases, rounds)
        assert got.dtype == np.int64
        assert got.tolist() == slots_for_round(p, k, rounds).tolist()
        r = int(rounds[0])  # the lock-step form: one scalar round
        assert (
            p.slots_at(*bases, r).tolist()
            == slots_for_round(p, k, np.full(k.size, r)).tolist()
        )


class TestMultiBucketEquivalence:
    ARRAYS = ("_keys", "_counts", "_values")

    @settings(max_examples=200, deadline=None)
    @given(
        stream=batches,
        bucket_size=st.sampled_from([1, 2, 4, 8]),
        cap=caps,
        max_probe_rounds=probe_rounds,
        capacity=st.sampled_from([8, 40, 400]),
    )
    def test_streams(self, stream, bucket_size, cap, max_probe_rounds, capacity):
        kwargs = dict(
            capacity_values=capacity,
            bucket_size=bucket_size,
            max_locations_per_key=cap,
            max_probe_rounds=max_probe_rounds,
        )
        new = MultiBucketHashTable(**kwargs)
        ref = PairwiseMultiBucketHashTable(**kwargs)
        assert _run_stream(new, stream) == _run_stream(ref, stream)
        _assert_same_slots(new, ref, self.ARRAYS)
        # the save / grow path reads the same content in the same order
        assert new.occupied_keys().tolist() == ref.occupied_keys().tolist()
        queries = np.array(
            sorted({k for b in stream for k in b} | {5, 777, SENTINEL}), dtype=np.uint64
        )
        values, offsets = new.retrieve(queries)
        ref_values, ref_offsets = ref.retrieve(queries)
        assert values.tolist() == ref_values.tolist()
        assert offsets.tolist() == ref_offsets.tolist()
        assert new.retrieve_counts(queries).tolist() == np.diff(ref_offsets).tolist()

    @pytest.mark.parametrize(
        "sizes, stored, dropped",
        [((254,), 254, 0), ((255,), 254, 1), ((254, 1), 254, 1), ((100, 200), 254, 46)],
    )
    @pytest.mark.parametrize("bucket_size", [1, 4, 8])
    def test_cap_boundary(self, sizes, stored, dropped, bucket_size):
        """One key at exactly the cap, one over, and one over across batches."""
        kwargs = dict(
            capacity_values=1024, bucket_size=bucket_size, max_locations_per_key=254
        )
        new = MultiBucketHashTable(**kwargs)
        ref = PairwiseMultiBucketHashTable(**kwargs)
        stream = [[42] * n + [7] for n in sizes]  # a bystander key rides along
        assert _run_stream(new, stream) == _run_stream(ref, stream)
        _assert_same_slots(new, ref, self.ARRAYS)
        assert new.stored_values == stored + len(sizes)
        assert new.dropped_values == dropped
        got, _ = new.retrieve(np.array([42], dtype=np.uint64))
        # first come, first kept: the survivors are the first 254 submitted
        assert got.tolist() == _values_of_key_42(sizes)[:254]

    def test_growing_table_growth_step(self, monkeypatch):
        """A rebuild-by-reinsertion growth leaves the oracle's bytes."""
        params = MetaCacheParams.small()
        rng = np.random.default_rng(3)
        stream = [
            (
                rng.integers(0, 300, size=n).astype(np.uint64),
                rng.integers(0, 2**40, size=n, dtype=np.uint64),
            )
            for n in (200, 900, 50, 4000)
        ]

        def run():
            growing = _GrowingTable(params, initial_capacity=256)
            for feats, locs in stream:
                growing.insert(feats, locs)
            return growing

        new = run()
        monkeypatch.setattr(
            builder_mod, "MultiBucketHashTable", PairwiseMultiBucketHashTable
        )
        ref = run()
        assert isinstance(ref.table, PairwiseMultiBucketHashTable)
        assert new.capacity_values == ref.capacity_values > 256  # it did grow
        _assert_same_slots(new.table, ref.table, self.ARRAYS)


def _values_of_key_42(sizes):
    """Stream values (pair numbers) submitted under key 42, in order."""
    out, next_value = [], 0
    for n in sizes:
        out.extend(range(next_value, next_value + n))
        next_value += n + 1  # the bystander pair
    return out


class TestMultiValueEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(
        stream=batches,
        cap=caps,
        max_probe_rounds=probe_rounds,
        capacity=st.sampled_from([8, 40, 400]),
    )
    def test_streams(self, stream, cap, max_probe_rounds, capacity):
        kwargs = dict(
            capacity_values=capacity,
            max_locations_per_key=cap,
            max_probe_rounds=max_probe_rounds,
        )
        new = MultiValueHashTable(**kwargs)
        ref = PairwiseMultiValueHashTable(**kwargs)
        assert _run_stream(new, stream) == _run_stream(ref, stream)
        _assert_same_slots(new, ref, ("_keys", "_values"))


class TestBucketListEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        stream=batches,
        cap=caps,
        max_probe_rounds=probe_rounds,
        capacity=st.sampled_from([4, 40]),
    )
    def test_streams(self, stream, cap, max_probe_rounds, capacity):
        kwargs = dict(
            capacity_keys=capacity,
            max_locations_per_key=cap,
            max_probe_rounds=max_probe_rounds,
        )
        new = BucketListHashTable(**kwargs)
        ref = PairwiseBucketListHashTable(**kwargs)
        assert _run_stream(new, stream) == _run_stream(ref, stream)
        _assert_same_slots(new, ref, ("_keys",))
        queries = np.array(sorted({k for b in stream for k in b}), dtype=np.uint64)
        values, offsets = new.retrieve(queries)
        ref_values, ref_offsets = ref.retrieve(queries)
        assert values.tolist() == ref_values.tolist()
        assert offsets.tolist() == ref_offsets.tolist()


class TestSingleValueEquivalence:
    ARRAYS = ("_keys", "_values")

    @settings(max_examples=200, deadline=None)
    @given(
        stream=st.lists(
            st.lists(st.one_of(st.integers(0, 40), st.just(SENTINEL - 1)), max_size=60),
            min_size=1,
            max_size=3,
        ),
        ascending=st.booleans(),
        max_probe_rounds=probe_rounds,
        capacity=st.sampled_from([4, 16, 64]),
    )
    def test_streams(self, stream, ascending, max_probe_rounds, capacity):
        if ascending:  # the condensed loader's shape: strictly increasing keys
            stream = [sorted(set(b)) for b in stream]
        kwargs = dict(capacity_keys=capacity, max_probe_rounds=max_probe_rounds)
        new = SingleValueHashTable(**kwargs)
        ref = PairwiseSingleValueHashTable(**kwargs)
        assert _run_stream(new, stream) == _run_stream(ref, stream)  # `placed`
        _assert_same_slots(new, ref, self.ARRAYS)
        assert len(new) == len(ref)

    def test_duplicate_key_last_wins_and_every_pair_is_placed(self):
        new = SingleValueHashTable(capacity_keys=16)
        ref = PairwiseSingleValueHashTable(capacity_keys=16)
        keys = np.array([9, 3, 9, 9, 3, 5], dtype=np.uint64)
        values = np.array([10, 20, 30, 40, 50, 60], dtype=np.uint64)
        assert new.insert(keys, values) == ref.insert(keys, values) == 6
        _assert_same_slots(new, ref, self.ARRAYS)
        got, found = new.retrieve(np.array([9, 3, 5], dtype=np.uint64))
        assert found.all() and got.tolist() == [40, 50, 60]
        assert len(new) == 3

    def test_sentinel_still_rejected(self):
        for cls in (SingleValueHashTable, PairwiseSingleValueHashTable):
            with pytest.raises(ValueError):
                cls(capacity_keys=8).insert(
                    np.array([1, SENTINEL], dtype=np.uint64),
                    np.array([1, 2], dtype=np.uint64),
                )


class TestSavedIndexIdentity:
    """The claim end to end: saved directories do not change by a byte."""

    @staticmethod
    def _save_both(root, taxonomy, refs):
        db = Database.build(refs, taxonomy, params=MetaCacheParams.small(), n_partitions=2)
        save_database_v1(db, root / "v1")
        save_database(db, root / "v2", format=2)
        # the v1 load path indexes the saved columns
        save_database(load_database(root / "v1"), root / "v2-from-v1", format=2)
        digests = {}
        for sub in ("v2", "v2-from-v1"):
            for f in sorted((root / sub).iterdir()):
                digests[f"{sub}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
        # NPZ members carry the zip timestamp: hash the arrays, not the file
        for f in sorted((root / "v1").glob("database.cache*")):
            with np.load(f) as npz:
                for name in sorted(npz.files):
                    a = npz[name]
                    digests[f"v1/{f.name}/{name}"] = hashlib.sha256(
                        str((a.dtype, a.shape)).encode() + a.tobytes()
                    ).hexdigest()
        return digests

    def test_v1_and_v2_directories_are_sha_identical(self, tmp_path, monkeypatch):
        genomes = GenomeSimulator(seed=23).simulate_collection(2, 3, 4000)
        taxonomy, taxa = build_taxonomy_for_genomes(genomes)
        refs = [
            (g.accession, g.scaffolds[0], taxa.target_taxon[i])
            for i, g in enumerate(genomes)
        ]
        (tmp_path / "new").mkdir()
        (tmp_path / "ref").mkdir()
        new = self._save_both(tmp_path / "new", taxonomy, refs)
        # (no single-value table is on the save or load path any more)
        monkeypatch.setattr(
            builder_mod, "MultiBucketHashTable", PairwiseMultiBucketHashTable
        )
        ref = self._save_both(tmp_path / "ref", taxonomy, refs)
        assert len(new) > 8
        assert new == ref


def _large_batch(n, n_keys, seed):
    """Heavy duplicates: a few hot keys far past any cap, a long tail."""
    rng = np.random.default_rng(seed)
    keys = np.minimum(rng.zipf(1.4, size=n), n_keys).astype(np.uint64)
    keys[::1013] = SENTINEL - 1
    return keys, rng.integers(0, 2**48, size=n, dtype=np.uint64)


class TestLargeBatches:
    """>= 20k pairs per batch: the SIMD sort path and many compressed rounds."""

    @pytest.mark.parametrize("cap", [254, 6])
    def test_multi_bucket(self, cap):
        keys, values = _large_batch(24_000, 9_000, seed=1)
        kwargs = dict(capacity_values=24_000, bucket_size=4, max_locations_per_key=cap)
        new = MultiBucketHashTable(**kwargs)
        ref = PairwiseMultiBucketHashTable(**kwargs)
        for table in (new, ref):  # a second batch meets occupied and full slots
            table.insert(keys, values)
            table.insert(keys[:5_000], values[:5_000])
        assert new.dropped_values > 0  # the cap was hit
        _assert_same_slots(new, ref, TestMultiBucketEquivalence.ARRAYS)

    def test_multi_value(self):
        keys, values = _large_batch(20_000, 12_000, seed=2)
        kwargs = dict(capacity_values=20_000, max_locations_per_key=6)
        new = MultiValueHashTable(**kwargs)
        ref = PairwiseMultiValueHashTable(**kwargs)
        assert new.insert(keys, values) == ref.insert(keys, values)
        assert new.dropped_values > 0
        _assert_same_slots(new, ref, ("_keys", "_values"))

    def test_bucket_list(self):
        keys, values = _large_batch(20_000, 2_000, seed=3)
        kwargs = dict(capacity_keys=2_100, max_locations_per_key=6)
        new = BucketListHashTable(**kwargs)
        ref = PairwiseBucketListHashTable(**kwargs)
        assert new.insert(keys, values) == ref.insert(keys, values)
        assert new.dropped_values > 0
        _assert_same_slots(new, ref, ("_keys",))
        queries = np.unique(keys)
        for got, want in zip(new.retrieve(queries), ref.retrieve(queries)):
            assert got.tolist() == want.tolist()

    def test_single_value(self):
        """Duplicate folding at scale, at the pointer tables' load factor."""
        keys, values = _large_batch(20_000, 15_000, seed=4)
        new = SingleValueHashTable(capacity_keys=6_000)
        ref = PairwiseSingleValueHashTable(capacity_keys=6_000)
        assert new.insert(keys, values) == ref.insert(keys, values)
        _assert_same_slots(new, ref, TestSingleValueEquivalence.ARRAYS)
        assert len(new) == len(ref)
        # the condensed loader's shape: strictly increasing keys
        uniq = np.unique(keys)
        new = SingleValueHashTable(capacity_keys=uniq.size)
        ref = PairwiseSingleValueHashTable(capacity_keys=uniq.size)
        assert new.insert(uniq, uniq + np.uint64(7)) == ref.insert(uniq, uniq + np.uint64(7))
        _assert_same_slots(new, ref, TestSingleValueEquivalence.ARRAYS)


class TestBatchBound:
    """A batch beyond the 32-bit submission index is taken in spans.

    The packed grouping key has 32 bits for the submission index, so
    ``insert`` hands ``sort_by_key`` consecutive spans of at most
    ``base.MAX_BATCH_PAIRS`` pairs.  With the bound patched down to a
    few hundred, the slots are exactly those the oracle leaves when it
    is fed the same spans as a stream of batches, and stored / dropped
    counts and the condensed content equal the oracle's for the whole
    batch at once.  (Slot *positions* of one big batch and of its spans
    differ by design: walkers advance in lock-step within a batch, so
    which of two keys reaches a contested slot first depends on what
    was inserted together -- the contract across batch boundaries is
    per-key value order, which is all a saved index observes.)
    """

    BOUND = 300

    @pytest.mark.parametrize("cap", [None, 254, 6, 3])
    def test_multi_bucket_spans(self, monkeypatch, cap):
        keys, values = _large_batch(2_000, 500, seed=5)
        kwargs = dict(capacity_values=2_000, bucket_size=4, max_locations_per_key=cap)
        whole = PairwiseMultiBucketHashTable(**kwargs)
        stored = whole.insert(keys, values)
        streamed = PairwiseMultiBucketHashTable(**kwargs)
        for start in range(0, keys.size, self.BOUND):
            stop = start + self.BOUND
            streamed.insert(keys[start:stop], values[start:stop])
        new = MultiBucketHashTable(**kwargs)
        with monkeypatch.context() as patched:
            patched.setattr(base_mod, "MAX_BATCH_PAIRS", self.BOUND)
            assert new.insert(keys, values) == stored
        _assert_same_slots(new, streamed, TestMultiBucketEquivalence.ARRAYS)
        assert new.stats() == whole.stats()
        queries = np.unique(keys)
        for got, want in zip(new.retrieve(queries), whole.retrieve(queries)):
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize(
        "new_cls, ref_cls, kwargs, arrays",
        [
            (MultiValueHashTable, PairwiseMultiValueHashTable,
             dict(capacity_values=2_000, max_locations_per_key=6), ("_keys", "_values")),
            (BucketListHashTable, PairwiseBucketListHashTable,
             dict(capacity_keys=600, max_locations_per_key=6), ("_keys",)),
            (SingleValueHashTable, PairwiseSingleValueHashTable,
             dict(capacity_keys=600), ("_keys", "_values")),
        ],
    )
    def test_other_tables_spans(self, monkeypatch, new_cls, ref_cls, kwargs, arrays):
        keys, values = _large_batch(2_000, 500, seed=6)
        streamed = ref_cls(**kwargs)
        returned = sum(
            streamed.insert(keys[start : start + self.BOUND], values[start : start + self.BOUND])
            for start in range(0, keys.size, self.BOUND)
        )
        monkeypatch.setattr(base_mod, "MAX_BATCH_PAIRS", self.BOUND)
        new = new_cls(**kwargs)
        assert new.insert(keys, values) == returned
        _assert_same_slots(new, streamed, arrays)

    def test_sort_helper_refuses_what_it_cannot_index(self, monkeypatch):
        monkeypatch.setattr(base_mod, "MAX_BATCH_PAIRS", 4)
        with pytest.raises(ValueError, match="submission index"):
            base_mod.sort_by_key(np.arange(5, dtype=np.uint64))
        keys, order = base_mod.sort_by_key(np.array([7, 3, 7, 3], dtype=np.uint64))
        assert keys.tolist() == [3, 3, 7, 7] and order.tolist() == [1, 3, 0, 2]
