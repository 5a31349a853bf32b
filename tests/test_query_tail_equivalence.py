"""Equivalence harness: the single-key query tail vs the lexsort oracle.

Steps 6-8 of the query pipeline run on one ``uint64`` key
``(read | target | window)``: the segmented sort is one ``np.sort`` and
top-candidate generation finds spans, per-run maxima and the per-read
top-``m`` on that key.  The contract is strong: for any batch the
sorted locations and all five ``Candidates`` arrays are
*byte-identical* to the retained lexsort implementation
(``tests/reference/query_tail.py``), so every TSV and server response
stays bit-for-bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import pair_granular_query as pair_granular
from reference import query_tail as oracle
from repro.core import query as query_mod
from repro.core.candidates import generate_top_candidates
from repro.core.classify import classify_reads
from repro.core.config import MetaCacheParams
from repro.core.database import Database
from repro.core.query import query_database
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.sort import LocationKeyLayout, segmented_sort_lexsort
from repro.taxonomy.builder import build_taxonomy_for_genomes
from repro.util.bitops import pack_pairs

TOP = 2**32 - 1
CAP = 254  # max_locations_per_feature: the most copies one location can have

# (targets, windows) id pools.  "packed" fills a 4-bit window field to
# its top; "wide" needs all 64 payload bits, so every read is its own
# bit-budget group; "tall" has a full-width window field under narrow
# targets.
_POOLS = {
    "packed": (range(0, 6), range(0, 16)),
    "wide": ([0, 1, 2**31, 2**31 + 1, TOP - 1, TOP], [0, 1, 2, 2**31, TOP - 2, TOP - 1, TOP]),
    "tall": (range(0, 4), [0, 1, 2**31, TOP - 3, TOP - 2, TOP - 1, TOP]),
}


@st.composite
def batches(draw):
    """``(locations, read_offsets)`` in retrieval (unsorted) order.

    Reads may be empty anywhere, the whole batch may be empty, and a
    location repeats up to the 254 cap.
    """
    targets, windows = _POOLS[draw(st.sampled_from(sorted(_POOLS)))]
    entry = st.tuples(
        st.sampled_from(targets),
        st.sampled_from(windows),
        st.sampled_from([1, 1, 1, 2, 3, CAP]),
    )
    reads = draw(st.lists(st.lists(entry, max_size=12), max_size=7))
    flat, lengths = [], []
    for entries in reads:
        loc = np.repeat(
            pack_pairs(
                np.array([t for t, _, _ in entries], dtype=np.uint64),
                np.array([w for _, w, _ in entries], dtype=np.uint64),
            ),
            [c for _, _, c in entries],
        )
        flat.append(draw(st.permutations(loc.tolist())) if loc.size < 40 else loc[::-1])
        lengths.append(loc.size)
    locations = np.array([v for loc in flat for v in loc], dtype=np.uint64)
    offsets = np.zeros(len(reads) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return locations, offsets


@st.composite
def window_sizes(draw, n_reads):
    """One sliding-window size for all reads, or one per read."""
    sizes = st.sampled_from([1, 2, 3, 5, 17, 2**31, 2**33])
    if draw(st.booleans()):
        return draw(sizes)
    return np.array(
        draw(st.lists(sizes, min_size=n_reads, max_size=n_reads)), dtype=np.int64
    )


def assert_candidates_identical(got, expected):
    """Field for field: same dtype, shape and bytes."""
    for f in dataclasses.fields(expected):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape, f.name
        assert np.array_equal(a, b), f.name


def assert_tail_identical(locations, offsets, sws, m):
    """Both stages against the oracle; returns the production candidates."""
    expected_sorted = oracle.segmented_sort_lexsort(locations, offsets)
    got_sorted = segmented_sort_lexsort(locations, offsets)
    assert got_sorted.dtype == expected_sorted.dtype
    assert np.array_equal(got_sorted, expected_sorted)
    got = generate_top_candidates(got_sorted, offsets, sws, m)
    assert_candidates_identical(
        got, oracle.generate_top_candidates(expected_sorted, offsets, sws, m)
    )
    return got


class TestAgainstOracle:
    @given(batch=batches(), data=st.data(), m=st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_sort_and_candidates_byte_identical(self, batch, data, m):
        locations, offsets = batch
        sws = data.draw(window_sizes(offsets.size - 1))
        assert_tail_identical(locations, offsets, sws, m)

    def test_sort_does_not_touch_its_input(self):
        locations = pack_pairs(np.array([3, 1, 2]), np.array([0, 9, 4]))
        before = locations.copy()
        segmented_sort_lexsort(locations, np.array([0, 2, 3]))
        assert np.array_equal(locations, before)

    def test_zero_locations(self):
        empty = np.zeros(0, dtype=np.uint64)
        for offsets in (np.array([0]), np.array([0, 0, 0])):
            got = assert_tail_identical(empty, offsets, 3, 4)
            assert got.valid.shape == (offsets.size - 1, 4) and not got.valid.any()

    @pytest.mark.parametrize("hole", ["leading", "middle", "trailing"])
    def test_empty_reads_keep_their_rows(self, hole):
        full = pack_pairs(np.array([2, 2, 5]), np.array([7, 8, 1]))
        lengths = {"leading": [0, 0, 3, 3], "middle": [3, 0, 0, 3], "trailing": [3, 3, 0, 0]}
        offsets = np.concatenate([[0], np.cumsum(lengths[hole])])
        got = assert_tail_identical(np.tile(full, 2), offsets, np.array([2, 1, 3, 2]), 3)
        assert got.valid[:, 0].tolist() == [n > 0 for n in lengths[hole]]


class TestBitBudgetGroups:
    def test_wide_ids_force_one_read_per_group(self):
        locations = pack_pairs(
            np.array([TOP, 2**31, TOP, 0, TOP]), np.array([TOP, 5, 2**31, TOP, TOP - 1])
        )
        offsets = np.array([0, 2, 2, 5])
        layout = LocationKeyLayout.of(locations)
        assert (layout.target_bits, layout.window_bits) == (32, 32)
        assert layout.groups(3) == [(0, 1), (1, 2), (2, 3)]
        assert_tail_identical(locations, offsets, np.array([2, 3, 2**31]), 2)

    def test_narrow_read_field_splits_into_pairs(self):
        # 31 target bits + 32 window bits leave one read bit; the second
        # read of the first pair owns the last key of the word
        locations = pack_pairs(
            np.array([2**30, 2**31 - 1, 2**31 - 1, 2**30, 2**30, 7, 7]),
            np.array([TOP, TOP - 1, TOP, 3, 4, TOP, TOP - 1]),
        )
        layout = LocationKeyLayout.of(locations)
        assert (layout.target_bits, layout.window_bits) == (31, 32)
        assert layout.groups(5) == [(0, 2), (2, 4), (4, 5)]
        got = assert_tail_identical(locations, np.array([0, 1, 3, 5, 5, 7]), 3, 2)
        assert got.score[:, 0].tolist() == [1, 2, 2, 0, 2]

    def test_common_case_is_one_group(self):
        locations = pack_pairs(np.array([127, 3]), np.array([255, 0]))
        layout = LocationKeyLayout.of(locations)
        assert (layout.target_bits, layout.window_bits) == (7, 8)
        assert layout.groups(4096) == [(0, 4096)]
        # the candidate keys reserve room for two location counts
        assert layout.groups(4096, reserve_bits=2 * 21) == [(0, 4096)]
        assert layout.groups(0) == []


class TestWindowFieldTop:
    """``window + sws`` past the top of the window field."""

    def test_no_carry_into_the_next_target(self):
        # window field is 4 bits (max id 15): 15 + 3 must not reach
        # target 3's windows 0 and 1
        locations = pack_pairs(np.array([2, 2, 3, 3]), np.array([14, 15, 0, 1]))
        got = assert_tail_identical(locations, np.array([0, 4]), 3, 4)
        assert got.score[0, :2].tolist() == [2, 2]
        assert got.window_last[0, :2].tolist() == [15, 1]

    @pytest.mark.parametrize("n_reads", [1, 2, 3])
    def test_no_uint64_wrap_at_the_top_of_the_word(self, n_reads):
        # the very last key of the word: key + (sws - 1) would wrap to 1
        one = pack_pairs(np.array([0, TOP, TOP, TOP]), np.array([0, TOP - 2, TOP - 1, TOP]))
        offsets = np.arange(n_reads + 1) * one.size
        got = assert_tail_identical(np.tile(one, n_reads), offsets, 3, 2)
        assert got.score[:, 0].tolist() == [3] * n_reads
        assert got.window_last[:, 0].tolist() == [TOP] * n_reads

    def test_span_ends_inside_its_read(self):
        # same (target, window) neighbourhood in adjacent reads
        one = pack_pairs(np.array([1, 1]), np.array([6, 7]))
        got = assert_tail_identical(np.tile(one, 3), np.array([0, 2, 4, 6]), 2**33, 1)
        assert got.score[:, 0].tolist() == [2, 2, 2]


class TestSelection:
    def test_tie_at_the_mth_slot_prefers_ascending_target(self):
        # five targets with score 2 and m = 3: targets 0, 1, 2 stay
        targets = np.repeat(np.arange(5), 2)[::-1].copy()
        locations = pack_pairs(targets, np.full(10, 4))
        got = assert_tail_identical(locations, np.array([0, 10]), 2, 3)
        assert got.target[0].tolist() == [0, 1, 2]
        assert got.score[0].tolist() == [2, 2, 2]

    def test_equal_scores_in_one_run_keep_the_first_window(self):
        locations = pack_pairs(np.full(4, 9), np.array([0, 0, 50, 50]))
        got = assert_tail_identical(locations, np.array([0, 4]), 2, 1)
        assert (got.window_first[0, 0], got.window_last[0, 0]) == (0, 0)

    def test_m_larger_than_the_run_count(self):
        locations = pack_pairs(np.array([4, 1]), np.array([2, 3]))
        got = assert_tail_identical(locations, np.array([0, 2]), 1, 8)
        assert got.valid[0].tolist() == [True, True] + [False] * 6
        assert got.target[0, :2].tolist() == [1, 4]

    def test_duplicates_at_the_cap(self):
        locations = pack_pairs(
            np.repeat(np.array([3, 3, 8]), [CAP, CAP, CAP]),
            np.repeat(np.array([1, 2, 1]), [CAP, CAP, CAP]),
        )
        got = assert_tail_identical(locations, np.array([0, 3 * CAP]), 2, 2)
        assert got.score[0].tolist() == [2 * CAP, CAP]

    def test_rejects_sliding_window_below_one(self):
        locations = pack_pairs(np.array([1]), np.array([1]))
        with pytest.raises(ValueError, match="sliding-window"):
            generate_top_candidates(locations, np.array([0, 1]), 0, 1)


class TestQueryDatabaseEndToEnd:
    """A multi-partition ``query_database`` run with the oracle swapped in."""

    @pytest.fixture(scope="class")
    def world(self):
        params = MetaCacheParams.small()
        genomes = GenomeSimulator(seed=33).simulate_collection(3, 3, 4000)
        taxonomy, taxa = build_taxonomy_for_genomes(genomes)
        refs = [
            (g.name, g.scaffolds[0], taxa.target_taxon[i])
            for i, g in enumerate(genomes)
        ]
        db = Database.build(refs, taxonomy, params=params, n_partitions=3)
        return genomes, db

    @pytest.mark.parametrize("paired", [False, True])
    def test_candidates_and_classification_identical(self, world, monkeypatch, paired):
        genomes, db = world
        assert db.n_partitions == 3
        reads = ReadSimulator(genomes, seed=5).simulate(HISEQ, 120).sequences
        mates = ReadSimulator(genomes, seed=6).simulate(HISEQ, 120).sequences
        # reads with no hit at all, at both ends and in the middle
        blank = np.zeros(0, dtype=np.uint8)
        reads = [blank] + reads[:60] + [blank] + reads[60:] + [blank]
        mates = ([blank] + mates[:60] + [blank] + mates[60:] + [blank]) if paired else None
        got = query_database(db, reads, mates=mates)
        with monkeypatch.context() as patch:
            # the pair-granular lookup, on the lexsort tail of ``oracle``
            patch.setattr(query_mod, "partition_candidates", pair_granular.partition_candidates)
            expected = query_database(db, reads, mates=mates)
        assert got.total_locations == expected.total_locations > 0
        assert_candidates_identical(got.candidates, expected.candidates)
        assert np.array_equal(
            classify_reads(db, got.candidates).taxon,
            classify_reads(db, expected.candidates).taxon,
        )
