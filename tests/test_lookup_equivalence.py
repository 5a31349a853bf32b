"""Equivalence harness: the key-granular lookup vs the pair-granular oracle.

``repro.core.query.partition_candidates`` groups a batch's features
once, probes every partition for each *distinct* feature, expands the
per-feature pointers to occurrences and builds the segmented-sort key
once, which top-candidate generation reads directly.  The contract: for
any sketched batch, database layout, per-key cap and partition subset,
all five ``Candidates`` arrays of every partition and the location total
are *byte-identical* to the retained pair-granular code
(``tests/reference/pair_granular_query.py``), and the same stages are
timed.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import pair_granular_query as oracle
from repro.core import query as query_mod
from repro.core.candidates import candidate_groups
from repro.core.config import MetaCacheParams
from repro.core.database import CondensedIndex, Database, DatabasePartition
from repro.core.io import load_database, save_database
from repro.core.query import partition_candidates, query_database
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.hashing.minhash import SKETCH_PAD
from repro.sort import LocationKeyLayout
from repro.taxonomy.builder import build_taxonomy_for_genomes
from repro.util.bitops import pack_pairs
from repro.util.timer import StageTimer
from repro.warpcore import MultiBucketHashTable

SENTINEL = 0xFFFFFFFF
TOP = 2**32 - 1
S = 4  # sketch size of the hand-made batches
N_PARTITIONS = 3
CAPS = [3, 254]
LAYOUTS = ["build", "condensed", "mmap"]

# stored features: a few small ones, the sentinel's clamp target (the
# sentinel itself inserts there too) and one with the top bit set
STORED = [1, 2, 3, 4, 5, 6, 7, 1 << 31, SENTINEL - 1]
ABSENT = [0, 8, 9, 1000, (1 << 31) + 1]
# (targets of partition 0, windows) id pools; partition p adds p to a
# target.  "wide" needs all 64 payload bits (one read per bit-budget
# group), "tall" 63 (two reads per group).
POOLS = {
    "packed": ([0, 3, 6, 9], list(range(12))),
    "wide": ([0, 3, TOP - 2], [0, 1, 2**31, TOP - 1, TOP]),
    "tall": ([0, 3, 2**30], [0, 5, TOP - 1, TOP]),
}
# "wide" and "tall" do not fit a 32-bit location word at rest.  The
# condensed and mmap layouts use these pools instead, which need the
# same 64 and 63 payload bits in the query tail and fit a word: "wide"
# one target with 32-bit windows, "tall" two targets (one local bit)
# with 31-bit windows.
AT_REST_POOLS = {
    **POOLS,
    "wide": ([TOP - 2], [0, 1, 2**31, TOP - 1, TOP]),
    "tall": ([3, 2**31], [0, 5, 2**31 - 2, 2**31 - 1]),
}


def _taxonomy():
    genomes = GenomeSimulator(seed=3).simulate_collection(1, 1, 4000)
    return build_taxonomy_for_genomes(genomes)[0]


def _table(pid: int, cap: int, pool: str, layout: str) -> MultiBucketHashTable:
    """One partition's table: skewed list lengths, repeated locations."""
    rng = np.random.default_rng(100 * pid + cap)
    targets, windows = (POOLS if layout == "build" else AT_REST_POOLS)[pool]
    keys, values = [], []
    for i, key in enumerate(STORED + [SENTINEL]):
        n = int(rng.choice([1, 2, 5, 40, 300])) if i % 4 else 300
        t = rng.choice(targets, size=n).astype(np.uint64) + np.uint64(pid)
        w = rng.choice(windows, size=n).astype(np.uint64)
        keys.append(np.full(n, key, dtype=np.uint64))
        values.append(pack_pairs(t, w))
    keys, values = np.concatenate(keys), np.concatenate(values)
    table = MultiBucketHashTable(
        keys.size, max_locations_per_key=cap, expected_unique_keys=len(STORED)
    )
    table.insert(keys, values)
    return table


def _synthetic_db(cap: int, pool: str, layout: str, tmp_path_factory) -> Database:
    params = MetaCacheParams.small(max_locations_per_feature=cap)
    parts = [
        DatabasePartition(p, _table(p, cap, pool, layout)) for p in range(N_PARTITIONS)
    ]
    if layout == "condensed":
        parts = [
            DatabasePartition(p.partition_id, None, CondensedIndex.from_table(p.table))
            for p in parts
        ]
    db = Database(params, _taxonomy(), parts, targets=[])
    if layout == "mmap":
        directory = tmp_path_factory.mktemp(f"lookup-{cap}-{pool}")
        save_database(db, directory)
        db = load_database(directory, mmap=True)
        assert db.mmap_path is not None
    return db


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    """``(cap, pool, layout) -> Database``, each built once per module."""
    dbs: dict = {}

    def get(cap, pool, layout):
        key = (cap, pool, layout)
        if key not in dbs:
            dbs[key] = _synthetic_db(cap, pool, layout, tmp_path_factory)
        return dbs[key]

    yield get
    for db in dbs.values():
        db.close()


def assert_same_lookup(db, sketches, read_ids, n_reads, sws, m, pids=None):
    """Production vs oracle: candidates, location total, stage names."""
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
    return got, got_total


def _batch(rows_per_read: list[list[list[int]]]):
    """``(sketches, window_read_ids, n_reads)``: rows padded to ``S``."""
    rows, ids = [], []
    for read, windows in enumerate(rows_per_read):
        for row in windows:
            rows.append(list(row) + [int(SKETCH_PAD)] * (S - len(row)))
            ids.append(read)
    sketches = np.array(rows, dtype=np.uint64).reshape(-1, S)
    return sketches, np.array(ids, dtype=np.int64), len(rows_per_read)


def _assert_several_groups(db):
    """One read per stored feature: same lookup, 2+ bit-budget groups."""
    reads = [[[f]] for f in STORED] + [[[STORED[0], STORED[-1]]]]
    sketches, ids, n = _batch(reads)
    assert_same_lookup(db, sketches, ids, n, 2, 3)
    locations = db.query_features(np.array(STORED, dtype=np.uint64), 0)[0]
    layout = LocationKeyLayout.of(locations)
    assert len(candidate_groups(layout, n, locations.size)) >= 2


feature_st = st.one_of(
    st.sampled_from(STORED),
    st.sampled_from([SENTINEL, SENTINEL - 1]),
    st.sampled_from(ABSENT),
)
# a read with no window is an empty or shorter-than-k read
reads_st = st.lists(st.lists(st.lists(feature_st, max_size=S), max_size=3), max_size=7)
pids_st = st.one_of(
    st.none(),
    st.lists(st.integers(0, N_PARTITIONS - 1), min_size=1, unique=True).map(sorted),
)
sws_st = st.sampled_from([1, 2, 3, 5, 17, 2**31])


class TestHandMadeBatches:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("pool", sorted(POOLS))
    @pytest.mark.parametrize("cap", CAPS)
    @given(reads=reads_st, pids=pids_st, data=st.data(), m=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_byte_identical(self, synthetic, cap, pool, layout, reads, pids, data, m):
        db = synthetic(cap, pool, layout)
        sketches, ids, n_reads = _batch(reads)
        sws = np.array(
            data.draw(st.lists(sws_st, min_size=n_reads, max_size=n_reads)),
            dtype=np.int64,
        )
        assert_same_lookup(db, sketches, ids, n_reads, sws, m, pids)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_duplicates_dominate(self, synthetic, layout):
        db = synthetic(254, "packed", layout)
        one = [[STORED[0], STORED[1]], [STORED[0]]]
        sketches, ids, n = _batch([one] * 40 + [[[STORED[-1]]]])
        _, total = assert_same_lookup(db, sketches, ids, n, 3, 4)
        assert total > 0

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_every_feature_misses(self, synthetic, layout):
        db = synthetic(3, "packed", layout)
        sketches, ids, n = _batch([[ABSENT[:S]], [], [ABSENT[S:]]])
        got, total = assert_same_lookup(db, sketches, ids, n, 2, 3)
        assert total == 0 and not any(c.valid.any() for c in got)

    @pytest.mark.parametrize("hole", ["start", "middle", "end"])
    def test_reads_without_windows(self, synthetic, hole):
        db = synthetic(254, "tall", "condensed")
        full = [[STORED[2], STORED[5]], [STORED[3]]]
        reads = {"start": [[], [], full, full], "middle": [full, [], [], full],
                 "end": [full, full, [], []]}[hole]
        got, _ = assert_same_lookup(db, *_batch(reads), np.array([2, 1, 3, 2]), 2)
        assert [bool(v) for v in got[0].valid[:, 0]] == [bool(r) for r in reads]

    def test_sentinel_and_its_clamp_target(self, synthetic):
        db = synthetic(254, "packed", "mmap")
        batch = [[[SENTINEL, SENTINEL - 1]], [[SENTINEL]], [[SENTINEL - 1]]]
        got, _ = assert_same_lookup(db, *_batch(batch), 3, 2, [0, 2])
        for c in got:  # the two spellings ask for the same list
            assert c.valid[1, 0]
            for f in dataclasses.fields(c):
                assert np.array_equal(getattr(c, f.name)[1], getattr(c, f.name)[2])

    @pytest.mark.parametrize("pool", ["wide", "tall"])
    def test_several_bit_budget_groups(self, synthetic, pool):
        _assert_several_groups(synthetic(254, pool, "build"))

    @pytest.mark.parametrize("layout", LAYOUTS[1:])
    @pytest.mark.parametrize("pool", ["wide", "tall"])
    def test_several_bit_budget_groups_at_rest(self, synthetic, pool, layout):
        _assert_several_groups(synthetic(254, pool, layout))

    def test_rejects_decreasing_read_ids(self, synthetic):
        db = synthetic(3, "packed", "build")
        sketches, _, _ = _batch([[[1]], [[2]]])
        with pytest.raises(ValueError, match="non-decreasing"):
            partition_candidates(
                db, sketches, np.array([1, 0]), 2, 3, 2, StageTimer()
            )


# -- real reads through query_database, the pair-granular path patched in


@pytest.fixture(scope="module")
def world():
    genomes = GenomeSimulator(seed=41).simulate_collection(3, 3, 4000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    refs = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i]) for i, g in enumerate(genomes)
    ]
    return genomes, taxonomy, refs


@pytest.fixture(scope="module", params=[(c, l) for c in CAPS for l in LAYOUTS],
                ids=lambda p: f"cap{p[0]}-{p[1]}")
def built(request, world, tmp_path_factory):
    cap, layout = request.param
    _, taxonomy, refs = world
    params = MetaCacheParams.small(max_locations_per_feature=cap)
    db = Database.build(refs, taxonomy, params=params, n_partitions=N_PARTITIONS)
    if layout == "condensed":
        db.condense()
    elif layout == "mmap":
        directory = tmp_path_factory.mktemp(f"built-{cap}")
        save_database(db, directory)
        db = load_database(directory, mmap=True)
    yield db
    db.close()


class TestQueryDatabase:
    @pytest.mark.parametrize("pids", [None, [1], [0, 2]])
    @pytest.mark.parametrize("paired", [False, True])
    def test_byte_identical(self, world, built, monkeypatch, paired, pids):
        genomes = world[0]
        reads = ReadSimulator(genomes, seed=7).simulate(HISEQ, 40).sequences
        mates = ReadSimulator(genomes, seed=8).simulate(HISEQ, 40).sequences
        blank, short = np.zeros(0, dtype=np.uint8), reads[0][:5]
        # empty and shorter-than-k reads at both ends and in the middle;
        # the repeated read makes its features dominate the batch
        ends = ([blank, short], [short, blank])
        reads = [*ends[0], *reads[:20], *ends[0], *[reads[3]] * 30, *reads[20:], *ends[1]]
        mates = [*ends[1], *mates[:20], *ends[1], *[mates[3]] * 30, *mates[20:], *ends[0]]
        mates = mates if paired else None
        got = query_database(built, reads, mates=mates, partition_ids=pids)
        with monkeypatch.context() as patch:
            patch.setattr(query_mod, "partition_candidates", oracle.partition_candidates)
            want = query_database(built, reads, mates=mates, partition_ids=pids)
        assert got.total_locations == want.total_locations > 0
        for f in dataclasses.fields(want.candidates):
            a, b = getattr(got.candidates, f.name), getattr(want.candidates, f.name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
        assert set(got.stages.stages) == set(want.stages.stages)
