"""Equivalence harness: condensed content by scan vs one probe walk per key.

``MultiBucketHashTable.condensed_content`` reads (features, lengths,
locations) off the slot arrays in one pass and walks only the keys that
own more than one slot.  The contract: for any table the inserts can
leave -- any batch stream, cap, bucket size, group size, probe limit,
growth history -- the three arrays equal, element for element, what the
retained code in ``tests/reference/condense_by_probe.py`` returns by
walking every key (through the pair-granular oracle's own
``occupied_keys`` / ``retrieve``, over the very same slot arrays), and
the pointer table built from them has the same slot arrays.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.condense_by_probe import (
    condensed_content_by_probe,
    condensed_index_by_probe,
)
from reference.warpcore_pairwise import PairwiseMultiBucketHashTable
from repro.core.builder import DatabaseBuilder, _GrowingTable
from repro.core.config import MetaCacheParams
from repro.core.database import CondensedIndex, Database, DatabasePartition
from repro.core.io import _condensed_content, save_database
from repro.genomics import GenomeSimulator
from repro.taxonomy import build_taxonomy_for_genomes
from repro.warpcore import MultiBucketHashTable

SENTINEL = 0xFFFFFFFF

# few distinct keys (every key spills over several slots), the sentinel
# and its clamp target, one key with the top bit set
keys_st = st.one_of(
    st.integers(0, 11), st.sampled_from([SENTINEL, SENTINEL - 1, 1 << 31])
)
streams = st.lists(st.lists(keys_st, max_size=80), min_size=1, max_size=4)


def _oracle_view(table: MultiBucketHashTable) -> PairwiseMultiBucketHashTable:
    """The pair-granular oracle over exactly ``table``'s slot arrays."""
    view = PairwiseMultiBucketHashTable.__new__(PairwiseMultiBucketHashTable)
    view.__dict__.update(table.__dict__)
    return view


def _assert_same_arrays(got, want, names):
    for name, a, b in zip(names, got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), f"{name} diverged"


def _assert_scan_equals_probe(table: MultiBucketHashTable) -> None:
    oracle = _oracle_view(table)
    _assert_same_arrays(
        table.condensed_content(),
        condensed_content_by_probe(oracle),
        ("features", "lengths", "locations"),
    )
    new, ref = CondensedIndex.from_table(table), condensed_index_by_probe(oracle)
    _assert_same_arrays(
        (new.locations, new.targets, new.pointers._keys, new.pointers._values),
        (ref.locations, ref.targets, ref.pointers._keys, ref.pointers._values),
        ("locations", "targets", "ptr_keys", "ptr_values"),
    )
    assert new.window_bits == ref.window_bits
    assert new.pointers.stats() == ref.pointers.stats()
    # the partition-level entry point both disk formats serialize from
    _assert_same_arrays(
        _condensed_content(DatabasePartition(0, table)),
        condensed_content_by_probe(oracle),
        ("features", "lengths", "locations"),
    )


def _fill(table, stream):
    next_value = 0
    for batch in stream:
        keys = np.asarray(batch, dtype=np.uint64)
        values = np.arange(next_value, next_value + keys.size, dtype=np.uint64)
        next_value += keys.size
        table.insert(keys, values)
    return table


class TestScanEqualsProbeWalk:
    @settings(max_examples=200, deadline=None)
    @given(
        stream=streams,
        bucket_size=st.sampled_from([1, 2, 4]),
        group_size=st.sampled_from([1, 2, 4, 8]),
        cap=st.sampled_from([None, 1, 3, 254]),
        max_probe_rounds=st.sampled_from([None, 2, 3, 5, 9]),
        capacity=st.sampled_from([8, 40, 400]),
    )
    def test_streams(
        self, stream, bucket_size, group_size, cap, max_probe_rounds, capacity
    ):
        table = _fill(
            MultiBucketHashTable(
                capacity_values=capacity,
                bucket_size=bucket_size,
                group_size=group_size,
                max_locations_per_key=cap,
                max_probe_rounds=max_probe_rounds,
            ),
            stream,
        )
        _assert_scan_equals_probe(table)

    @pytest.mark.parametrize("cap", [None, 254, 6])
    def test_seeded_50k_pairs(self, cap):
        """A Zipf-like stream: most keys once, a few past the cap."""
        rng = np.random.default_rng(20)
        n = 50_000
        keys = np.minimum(rng.zipf(1.3, size=n), 40_000).astype(np.uint64)
        keys[::997] = SENTINEL  # clamps onto SENTINEL - 1
        keys[1::997] = SENTINEL - 1
        # locations: up to 2^12 targets x 2^20 windows, a full 32-bit word
        values = (rng.integers(0, 2**12, size=n, dtype=np.uint64) << np.uint64(32)) | (
            rng.integers(0, 2**20, size=n, dtype=np.uint64)
        )
        table = MultiBucketHashTable(
            capacity_values=n, bucket_size=4, max_locations_per_key=cap
        )
        for start in range(0, n, 17_000):
            table.insert(keys[start : start + 17_000], values[start : start + 17_000])
        hist = table.key_slot_histogram()
        assert hist[1] > 1_000 and max(hist) >= 2  # singles and spill-overs
        # the commonest key overruns the cap -- or, uncapped, the probe limit
        assert table.dropped_values > 0
        _assert_scan_equals_probe(table)

    def test_keys_spanning_several_groups(self):
        """group_size 1/2 with bucket_size 1: every extra value is a new group."""
        for group_size in (1, 2):
            table = MultiBucketHashTable(
                capacity_values=600, bucket_size=1, group_size=group_size
            )
            keys = np.repeat(np.arange(30, dtype=np.uint64), 9)
            table.insert(keys, np.arange(keys.size, dtype=np.uint64))
            assert table.key_slot_histogram() == {9: 30}
            _assert_scan_equals_probe(table)
            got = table.condensed_content()
            assert got[1].tolist() == [9] * 30
            assert got[2].tolist() == list(range(270))  # submission order per key

    def test_sentinel_clamps_onto_its_neighbour(self):
        table = MultiBucketHashTable(capacity_values=64, bucket_size=2)
        keys = np.array([SENTINEL, 5, SENTINEL - 1, SENTINEL, SENTINEL], dtype=np.uint64)
        table.insert(keys, np.array([10, 11, 12, 13, 14], dtype=np.uint64))
        features, lengths, locations = table.condensed_content()
        assert features.tolist() == [5, SENTINEL - 1]
        assert lengths.tolist() == [1, 4]
        assert locations.tolist() == [11, 10, 12, 13, 14]
        _assert_scan_equals_probe(table)

    def test_empty_table(self):
        table = MultiBucketHashTable(capacity_values=32)
        features, lengths, locations = table.condensed_content()
        assert features.dtype == np.uint64 and features.size == 0
        assert lengths.dtype == np.int64 and lengths.size == 0
        assert locations.dtype == np.uint64 and locations.size == 0
        _assert_scan_equals_probe(table)
        assert len(CondensedIndex.from_table(table).pointers) == 0

    def test_probe_limit_drops(self):
        """A table whose inserts ran out of probe rounds still condenses the same."""
        table = MultiBucketHashTable(
            capacity_values=40, bucket_size=1, group_size=2, max_probe_rounds=3
        )
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 25, size=120).astype(np.uint64)
        table.insert(keys, np.arange(120, dtype=np.uint64))
        assert table.dropped_values > 0
        _assert_scan_equals_probe(table)

    def test_after_growing_table_growth(self):
        params = MetaCacheParams.small()
        rng = np.random.default_rng(3)
        growing = _GrowingTable(params, initial_capacity=256)
        for n in (200, 900, 50, 4000):
            growing.insert(
                rng.integers(0, 300, size=n).astype(np.uint64),
                # locations: 2^8 targets x 2^24 windows, a full 32-bit word
                (rng.integers(0, 2**8, size=n, dtype=np.uint64) << np.uint64(32))
                | rng.integers(0, 2**24, size=n, dtype=np.uint64),
            )
        assert growing.capacity_values > 256  # it did grow
        _assert_scan_equals_probe(growing.table)


class TestExtendEqualsOneShot:
    @staticmethod
    def _v2_digests(db, directory):
        save_database(db, directory, format=2)
        return {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(directory.iterdir())
        }

    def test_from_database_extend_save(self, tmp_path):
        genomes = GenomeSimulator(seed=29).simulate_collection(2, 3, 4000)
        taxonomy, taxa = build_taxonomy_for_genomes(genomes)
        refs = [
            (g.accession, g.scaffolds[0], taxa.target_taxon[i])
            for i, g in enumerate(genomes)
        ]
        params = MetaCacheParams.small()
        one = Database.build(refs, taxonomy, params=params, n_partitions=2)
        for part in one.partitions:  # what the one-shot build will serialize
            _assert_scan_equals_probe(part.table)
        first = Database.build(refs[:3], taxonomy, params=params, n_partitions=2)
        with DatabaseBuilder.from_database(first) as builder:
            for ref in refs[3:]:
                builder.add_reference(*ref)
            extended = builder.finalize(condense=False)
        for part in extended.partitions:
            _assert_scan_equals_probe(part.table)
        want = self._v2_digests(one, tmp_path / "one")
        assert len(want) > 8
        assert self._v2_digests(extended, tmp_path / "extended") == want
