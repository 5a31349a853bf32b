"""Equivalence harness: the two-column partition vs the one-column oracle.

A condensed partition stores every feature that owns exactly one
location in a singles column with that word inline, and every other
feature in a multi column of running sums into one dense word array
(``repro.core.database.SortedPointers``).  A lookup searches the
singles, then the multis for the singles' misses only, and returns each
feature's ``(start, length)`` into one word array in no particular
order; the query pipeline builds its keys straight from those words.

The oracle is the one-column layout it replaced
(``tests/reference/sorted_pointers.py``).  For any content -- 1-3
partitions, per-feature caps 1, 3 and 254, all-singles, all-multi and
empty partitions, the features 0 and ``0xFFFFFFFE`` and the needle
``0xFFFFFFFF`` -- three things must be identical to it:

- each needle's found flag;
- each needle's multiset of location words;
- every ``Candidates`` array of ``partition_candidates``, for any
  ``partition_ids`` subset (the oracle database answers through the
  build-layout branch, which squeezes the oracle's uint64 locations:
  the query tail the keys-from-words path replaced).
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.sorted_pointers import OneColumnIndex
from repro.core.config import MetaCacheParams
from repro.core.database import CondensedIndex, Database, DatabasePartition
from repro.core.query import partition_candidates
from repro.hashing.minhash import SKETCH_PAD
from repro.taxonomy.ranks import Rank
from repro.taxonomy.tree import Taxonomy
from repro.util.timer import StageTimer

SENTINEL = 0xFFFFFFFF
LAST = 0xFFFFFFFE
S = 3  # sketch size of the batches
EDGE_FEATURES = [0, 1, 2, 1 << 31, LAST]
CAPS = [1, 3, 254]
SHAPES = ["mixed", "singles", "multis", "empty"]
TAXONOMY = Taxonomy([(1, 1, Rank.ROOT, "root")])


@st.composite
def partition_contents(draw, cap: int, pid: int):
    """``(features, lengths, uint64 locations)`` of one partition."""
    shape = draw(st.sampled_from(SHAPES))
    if shape == "empty":
        return np.zeros(0, np.uint64), np.zeros(0, np.int64), np.zeros(0, np.uint64)
    features = sorted(draw(st.lists(
        st.one_of(st.sampled_from(EDGE_FEATURES), st.integers(0, LAST)),
        min_size=1, max_size=24, unique=True,
    )))
    longest = min(cap, 40)
    if shape == "singles" or cap == 1:
        length_st = st.just(1)
    elif shape == "multis":
        length_st = st.one_of(st.integers(2, longest), st.just(cap))
    else:
        length_st = st.one_of(st.integers(1, longest), st.just(cap))
    lengths = draw(st.lists(length_st, min_size=len(features), max_size=len(features)))
    n = sum(lengths)
    # targets unique to the partition; window ids small and large
    targets = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    windows = draw(st.lists(
        st.one_of(st.integers(0, 9), st.integers(0, (1 << 20) - 1)),
        min_size=n, max_size=n,
    ))
    locations = [(3 * t + pid) << 32 | w for t, w in zip(targets, windows)]
    return (
        np.array(features, dtype=np.uint64),
        np.array(lengths, dtype=np.int64),
        np.array(locations, dtype=np.uint64),
    )


@st.composite
def worlds(draw):
    """``(cap, contents per partition, needles)``."""
    cap = draw(st.sampled_from(CAPS))
    n_partitions = draw(st.integers(1, 3))
    contents = [draw(partition_contents(cap, p)) for p in range(n_partitions)]
    stored = sorted({int(f) for c in contents for f in c[0]})
    pool = stored + [0, 3, LAST, SENTINEL, 12345]
    needles = draw(st.lists(st.sampled_from(pool), max_size=40))
    return cap, contents, np.array(needles, dtype=np.uint64)


def _database(cap: int, indexes, *, oracle: bool) -> Database:
    params = MetaCacheParams.small(max_locations_per_feature=cap)
    # an oracle index answers through the build-layout branch: uint64
    # locations squeezed into keys, today's tail before keys-from-words
    parts = [
        DatabasePartition(p, index, None) if oracle else DatabasePartition(p, None, index)
        for p, index in enumerate(indexes)
    ]
    return Database(params, TAXONOMY, parts, targets=[])


def _word_lists(index: CondensedIndex, needles: np.ndarray) -> list[list[int]]:
    words, starts, lengths = index.pointers.lookup(needles)
    return [sorted(words[s : s + n].tolist()) for s, n in zip(starts, lengths)]


def _oracle_word_lists(oracle: OneColumnIndex, needles: np.ndarray) -> list[list[int]]:
    starts, ends = oracle.pointers.spans(needles)
    return [sorted(oracle.locations[s:e].tolist()) for s, e in zip(starts, ends)]


def _batch(draw, needles: np.ndarray):
    """A sketched batch over ``needles``: rows padded to ``S``."""
    n_reads = draw(st.integers(1, 6))
    rows, reads = [], []
    for read in range(n_reads):
        for _ in range(draw(st.integers(0, 3))):
            row = draw(st.lists(st.sampled_from(needles.tolist() or [7]), max_size=S))
            rows.append(row + [int(SKETCH_PAD)] * (S - len(row)))
            reads.append(read)
    sketches = np.array(rows, dtype=np.uint64).reshape(-1, S)
    return sketches, np.array(reads, dtype=np.int64), n_reads


class TestSingletonEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(world=worlds(), data=st.data())
    def test_lookup_and_candidates_equal_the_oracle(self, world, data):
        cap, contents, needles = world
        indexes = [CondensedIndex.from_content(*c) for c in contents]
        oracles = [OneColumnIndex.from_content(*c) for c in contents]
        for index, oracle, (features, lengths, _) in zip(indexes, oracles, contents):
            p = index.pointers
            assert p.single_features.size == int(np.count_nonzero(lengths == 1))
            assert len(p) == features.size and p.n_locations == int(lengths.sum())
            assert np.array_equal(index.content()[2], oracle.locations)
            assert np.array_equal(
                p.retrieve(needles)[1], oracle.pointers.retrieve(needles)[1]
            )
            assert _word_lists(index, needles) == _oracle_word_lists(oracle, needles)
            got, got_offsets = index.retrieve(needles)
            want, want_offsets = oracle.retrieve(needles)
            assert np.array_equal(got_offsets, want_offsets)
            assert got.tobytes() == want.tobytes()

        sketches, reads, n_reads = _batch(data.draw, needles)
        sws = np.array(
            data.draw(st.lists(st.sampled_from([1, 2, 3, 17]),
                               min_size=n_reads, max_size=n_reads)),
            dtype=np.int64,
        )
        m = data.draw(st.integers(1, 4))
        pids = data.draw(st.one_of(st.none(), st.lists(
            st.integers(0, len(contents) - 1), min_size=1, unique=True
        ).map(sorted)))
        runs = [
            partition_candidates(
                _database(cap, ix, oracle=o), sketches, reads, n_reads, sws, m,
                StageTimer(), pids,
            )
            for ix, o in ((indexes, False), (oracles, True))
        ]
        (got, got_total), (want, want_total) = runs
        assert got_total == want_total
        for g, w in zip(got, want, strict=True):
            for f in dataclasses.fields(w):
                a, b = getattr(g, f.name), getattr(w, f.name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name


class TestNamedShapes:
    def _index(self, features, lengths):
        n = int(sum(lengths))
        locations = (np.arange(n, dtype=np.uint64) % 5 << np.uint64(32)) | np.arange(
            n, dtype=np.uint64
        )
        return CondensedIndex.from_content(
            np.array(features, np.uint64), np.array(lengths, np.int64), locations
        )

    def test_all_singles_leave_an_empty_multi_column(self):
        index = self._index([0, 5, LAST], [1, 1, 1])
        p = index.pointers
        assert p.multi_features.size == 0 and p.multi_offsets.tolist() == [0]
        assert p.multi_locations.size == 0
        found = p.retrieve(np.array([0, 5, LAST, SENTINEL, 4], np.uint64))[1]
        assert found.tolist() == [True, True, True, True, False]

    def test_all_multis_leave_an_empty_single_column(self):
        index = self._index([0, LAST], [2, 254])
        p = index.pointers
        assert p.single_features.size == 0 and p.single_words.size == 0
        assert p.multi_offsets.tolist() == [0, 2, 256]
        _, _, lengths = index.pointers.lookup(np.array([SENTINEL, 0, 1], np.uint64))
        assert lengths.tolist() == [254, 2, 0]

    def test_empty_partition(self):
        index = self._index([], [])
        assert len(index.pointers) == 0 and index.pointers.n_locations == 0
        words, starts, lengths = index.pointers.lookup(np.array([0, SENTINEL], np.uint64))
        assert words.size == 0 and lengths.tolist() == [0, 0]
        locations, offsets = index.retrieve(np.zeros(0, np.uint64))
        assert locations.size == 0 and offsets.tolist() == [0]
