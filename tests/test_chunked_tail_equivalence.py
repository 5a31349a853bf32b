"""Equivalence harness: the chunked query tail vs the whole-slice oracle.

``repro.core.query.partition_candidates`` gathers, numbers, sorts and
reduces to top-``m`` one read chunk at a time: contiguous reads holding
at most ``CHUNK_LOCATIONS`` locations (a read with more is a chunk of
its own), each inside one bit-budget group, every chunk writing its
rows into one ``Candidates`` per partition.  The oracle is the tail it
replaced, which held every location of the slice at once
(``tests/reference/whole_slice_query.py``).  For any database, batch
and chunk budget -- patched to 1, 7, 64 and left at its default --
every partition's five ``Candidates`` arrays, the location total and
the timed stage names must be identical to it, and every chunk the
planner hands the tail must keep the budget.

Drawn: 1-3 partitions, per-feature caps 3 and 254, ``partition_ids``
subsets, ``m`` 1-4, reads without a location anywhere (so at chunk
edges), reads longer than the budget, and per-read sliding-window
sizes all equal or mixed (both ``reach`` branches of the top-m step).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import whole_slice_query as oracle
from repro.core import candidates as candidates_mod
from repro.core import query as query_mod
from repro.core.candidates import CHUNK_LOCATIONS, read_chunks
from repro.core.config import MetaCacheParams
from repro.core.database import CondensedIndex, Database, DatabasePartition
from repro.core.query import partition_candidates
from repro.genomics.reads import KAL_D, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.hashing.minhash import SKETCH_PAD
from repro.hashing.sketch import sketch_reads_packed
from repro.pipeline.packed import PackedReads
from repro.sort import LocationKeyLayout
from repro.taxonomy.builder import build_taxonomy_for_genomes
from repro.taxonomy.ranks import Rank
from repro.taxonomy.tree import Taxonomy
from repro.util.timer import StageTimer

S = 3  # sketch size of the drawn batches
FEATURES = list(range(1, 13))  # stored in some partitions; 0 and 99 never
BUDGETS = [1, 7, 64, CHUNK_LOCATIONS]
CAPS = [3, 254]
TAXONOMY = Taxonomy([(1, 1, Rank.ROOT, "root")])


@st.composite
def partition_contents(draw, cap: int, pid: int):
    """``(features, lengths, uint64 locations)`` of one partition."""
    features = sorted(draw(st.lists(st.sampled_from(FEATURES), min_size=1, unique=True)))
    lengths = draw(st.lists(
        st.one_of(st.integers(1, min(cap, 9)), st.just(cap)),
        min_size=len(features), max_size=len(features),
    ))
    n = sum(lengths)
    # few targets and windows, so spans and equal keys are common; a
    # wide window now and then changes the partition's key layout
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    targets = rng.integers(0, 6, n, dtype=np.uint64) * np.uint64(3) + np.uint64(pid)
    windows = rng.integers(0, 7, n, dtype=np.uint64)
    windows[rng.random(n) < draw(st.sampled_from([0.0, 0.1]))] = (1 << 20) - 1
    return (
        np.array(features, dtype=np.uint64),
        np.array(lengths, dtype=np.int64),
        targets << np.uint64(32) | windows,
    )


@st.composite
def databases(draw):
    cap = draw(st.sampled_from(CAPS))
    n_partitions = draw(st.integers(1, 3))
    parts = [
        DatabasePartition(
            p, None, CondensedIndex.from_content(*draw(partition_contents(cap, p)))
        )
        for p in range(n_partitions)
    ]
    params = MetaCacheParams.small(max_locations_per_feature=cap)
    return Database(params, TAXONOMY, parts, targets=[])


@st.composite
def batches(draw):
    """``(sketches, window_read_ids, n_reads)``: reads of 0-3 windows,
    some of them only of features no partition stores."""
    n_reads = draw(st.integers(1, 8))
    feature = st.one_of(st.sampled_from(FEATURES), st.sampled_from([0, 99]))
    rows, ids = [], []
    for read in range(n_reads):
        for _ in range(draw(st.integers(0, 3))):
            row = draw(st.lists(feature, max_size=S))
            rows.append(row + [int(SKETCH_PAD)] * (S - len(row)))
            ids.append(read)
    sketches = np.array(rows, dtype=np.uint64).reshape(-1, S)
    return sketches, np.array(ids, dtype=np.int64), n_reads


@st.composite
def window_sizes(draw, n_reads: int):
    """Per-read sliding-window sizes, all equal or mixed."""
    sizes = st.sampled_from([1, 2, 3, 7, 2**33])
    if draw(st.booleans()):
        return np.full(n_reads, draw(sizes), dtype=np.int64)
    return np.array(draw(st.lists(sizes, min_size=n_reads, max_size=n_reads)), np.int64)


def assert_chunked_like_the_oracle(mp, budget, db, batch, sws, m, pids=None):
    """Chunked run (budget patched) vs the oracle: bytes, totals, stages.

    Every chunk ``read_chunks`` plans must hold at most ``budget``
    locations or a single read; returns the chunks planned.
    """
    sketches, read_ids, n_reads = batch
    planned = []

    def checked(layout, read_offsets):
        chunks = read_chunks(layout, read_offsets)
        assert chunks[0][0] == 0 and chunks[-1][1] == n_reads
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        for first, last in chunks:
            assert first < last
            size = read_offsets[last] - read_offsets[first]
            assert size <= budget or last - first == 1, (first, last, size)
        planned.extend(chunks)
        return chunks

    mp.setattr(candidates_mod, "CHUNK_LOCATIONS", budget)
    mp.setattr(query_mod, "read_chunks", checked)
    got_timer, want_timer = StageTimer(), StageTimer()
    got, got_total = partition_candidates(
        db, sketches, read_ids, n_reads, sws, m, got_timer, pids
    )
    want, want_total = oracle.partition_candidates(
        db, sketches, read_ids, n_reads, sws, m, want_timer, pids
    )
    assert got_total == want_total
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for f in dataclasses.fields(w):
            a, b = getattr(g, f.name), getattr(w, f.name)
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert a.tobytes() == b.tobytes(), f.name
    assert set(got_timer.stages) == set(want_timer.stages)
    return planned


class TestAgainstTheWholeSlice:
    @given(db=databases(), batch=batches(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_candidates_byte_identical(self, db, batch, data):
        n_reads = batch[2]
        sws = data.draw(window_sizes(n_reads))
        m = data.draw(st.integers(1, 4))
        budget = data.draw(st.sampled_from(BUDGETS))
        pids = data.draw(st.one_of(st.none(), st.lists(
            st.integers(0, db.n_partitions - 1), min_size=1, unique=True
        ).map(sorted)))
        with pytest.MonkeyPatch.context() as mp:
            assert_chunked_like_the_oracle(mp, budget, db, batch, sws, m, pids)


def _one_partition(lengths: list[int]) -> Database:
    """Feature ``f + 1`` has ``lengths[f]`` locations, on three targets."""
    n = sum(lengths)
    locations = (np.arange(n, dtype=np.uint64) % 3 << np.uint64(32)) | (
        np.arange(n, dtype=np.uint64) % 5
    )
    index = CondensedIndex.from_content(
        np.arange(1, len(lengths) + 1, dtype=np.uint64),
        np.array(lengths, dtype=np.int64),
        locations,
    )
    params = MetaCacheParams.small(max_locations_per_feature=254)
    return Database(params, TAXONOMY, [DatabasePartition(0, None, index)], targets=[])


def _reads(features_per_read: list[list[int]]):
    """One window per feature; ``[]`` is a read without windows."""
    rows, ids = [], []
    for read, features in enumerate(features_per_read):
        for f in features:
            rows.append([f] + [int(SKETCH_PAD)] * (S - 1))
            ids.append(read)
    sketches = np.array(rows, dtype=np.uint64).reshape(-1, S)
    return sketches, np.array(ids, dtype=np.int64), len(features_per_read)


class TestNamedChunks:
    # features 1-4 have 3, 4, 10 and 2 locations; 5 is absent
    DB_LENGTHS = [3, 4, 10, 2]

    @pytest.mark.parametrize("sws", [np.full(8, 2), np.array([1, 3, 2, 2, 5, 1, 4, 2])])
    def test_empty_reads_at_chunk_edges(self, sws):
        # budget 7: reads 0-1 fill the first chunk and the empty reads 2
        # (no windows) and 3 (no hits) end it; read 4 is over budget,
        # alone; the empty read 5 starts the last chunk, 7 ends it
        db = _one_partition(self.DB_LENGTHS)
        batch = _reads([[1], [2], [], [5], [3], [], [1], [5]])
        with pytest.MonkeyPatch.context() as mp:
            chunks = assert_chunked_like_the_oracle(mp, 7, db, batch, sws, 2)
        assert chunks == [(0, 4), (4, 5), (5, 8)]

    def test_read_longer_than_the_budget_is_its_own_chunk(self):
        db = _one_partition(self.DB_LENGTHS)
        batch = _reads([[1], [3, 3], [4], [4], [], [3]])
        with pytest.MonkeyPatch.context() as mp:
            chunks = assert_chunked_like_the_oracle(mp, 7, db, batch, 3, 3)
        assert chunks == [(0, 1), (1, 2), (2, 5), (5, 6)]

    def test_budget_of_one_location(self):
        db = _one_partition(self.DB_LENGTHS)
        batch = _reads([[4], [], [1, 2], [5], [4], []])
        with pytest.MonkeyPatch.context() as mp:
            chunks = assert_chunked_like_the_oracle(mp, 1, db, batch, 2, 4)
        # the empty read 1 cannot join read 2, which is over budget
        assert chunks == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]


class TestReadChunks:
    @pytest.mark.parametrize(
        "bits, span",
        [((7, 8), 1 << (64 - 2 * CHUNK_LOCATIONS.bit_length())), ((31, 32), 2), ((32, 32), 1)],
    )
    def test_chunks_stay_inside_one_bit_budget_group(self, bits, span):
        layout = LocationKeyLayout(*bits)
        assert layout.read_span(2 * CHUNK_LOCATIONS.bit_length()) == span
        offsets = np.arange(6, dtype=np.int64)  # five one-location reads
        chunks = read_chunks(layout, offsets)
        assert chunks == [(a, min(a + span, 5)) for a in range(0, 5, span)]

    def test_no_reads_no_chunks(self):
        assert read_chunks(LocationKeyLayout(3, 3), np.zeros(1, np.int64)) == []

    def test_all_reads_empty_is_one_chunk(self):
        assert read_chunks(LocationKeyLayout(3, 3), np.zeros(5, np.int64)) == [(0, 4)]


class TestDefaultBudget:
    """A dense batch several times the default budget, chunks untouched."""

    def test_dense_batch_spans_several_chunks(self):
        genomes = GenomeSimulator(seed=3, species_divergence=0.005).simulate_collection(
            1, 32, 4000
        )
        taxonomy, taxa = build_taxonomy_for_genomes(genomes)
        refs = [
            (g.name, g.scaffolds[0], taxa.target_taxon[i])
            for i, g in enumerate(genomes)
        ]
        params = MetaCacheParams.small()
        db = Database.build(refs, taxonomy, params=params, n_partitions=2)
        reads = ReadSimulator(genomes, seed=4).simulate(KAL_D, 256)
        packed = PackedReads.from_reads(reads.sequences, reads.mates)
        sketches, read_ids = sketch_reads_packed(
            packed.buffer, packed.offsets, params.sketch, packed.read_ids
        )
        batch = (sketches, read_ids, packed.n_reads)
        sws = params.sliding_window_sizes(packed.read_lengths)
        with pytest.MonkeyPatch.context() as mp:
            chunks = assert_chunked_like_the_oracle(
                mp, CHUNK_LOCATIONS, db, batch, sws,
                params.classification.max_candidates,
            )
        assert len(chunks) >= 4  # two partitions, 2+ chunks each
