"""Equivalence harness: sorted pointers vs the retired pointer table.

The condensed index maps a feature to its location list by one binary
search over the partition's sorted features and two reads of the
running-sum offsets.  The contract: for any partitioning, any location
cap and *any* query vector -- unsorted, duplicated, empty, absent
keys, ``0``, ``0xFFFFFFFE`` and the sentinel ``0xFFFFFFFF`` -- the
``(locations, offsets)`` of ``CondensedIndex.retrieve``, of
``Database.query_features``, and of eager and memory-mapped reloads are
byte-identical to those of the single-value-table index kept in
``tests/reference/index_ptr_table.py``, built from the same table.
"""

import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.index_ptr_table import PointerTableIndex
from repro.core import database as database_mod
from repro.core.config import MetaCacheParams
from repro.core.database import CondensedIndex, Database, SortedPointers
from repro.core.io import load_database, save_database
from repro.genomics import GenomeSimulator
from repro.taxonomy import build_taxonomy_for_genomes

SENTINEL = 0xFFFFFFFF
EDGES = [0, SENTINEL - 1, SENTINEL]
PARAMS = MetaCacheParams.small()
WORLDS = [(n, cap) for n in (1, 2, 3) for cap in (3, 254)]


@dataclass
class World:
    db: Database  # condensed by its save
    eager: Database
    mapped: Database
    oracles: list[PointerTableIndex]
    features: list[np.ndarray]  # stored features per partition


@pytest.fixture(scope="module")
def refs():
    genomes = GenomeSimulator(seed=41).simulate_collection(3, 2, 4000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    return taxonomy, [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]


@pytest.fixture(scope="module")
def worlds(refs, tmp_path_factory):
    taxonomy, references = refs
    made = {}
    for n_partitions, cap in WORLDS:
        params = PARAMS.replace(max_locations_per_feature=cap)
        db = Database.build(references, taxonomy, params=params,
                            n_partitions=n_partitions)
        # make 0 and the sentinel (clamped onto 0xFFFFFFFE) stored features
        target = next(t for t in db.targets if t.partition_id == 0)
        location = np.uint64(target.target_id << 32 | 1)
        db.partitions[0].table.insert(
            np.array([0, SENTINEL], dtype=np.uint64), np.array([location] * 2)
        )
        oracles = [PointerTableIndex.from_table(p.table) for p in db.partitions]
        for oracle in oracles:  # the oracle holds every feature
            assert oracle.pointers.stats().dropped_values == 0
        directory = tmp_path_factory.mktemp(f"p{n_partitions}-cap{cap}")
        save_database(db, directory)
        made[n_partitions, cap] = World(
            db=db,
            eager=load_database(directory),
            mapped=load_database(directory, mmap=True),
            oracles=oracles,
            features=[p.condensed.pointers.features.copy() for p in db.partitions],
        )
    yield made
    for world in made.values():
        world.mapped.close()


def _assert_same(got, want, label):
    for name, a, b in zip(("locations", "offsets"), got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, (label, name)
        assert a.tobytes() == b.tobytes(), (label, name)


def _assert_equivalent(world: World, pid: int, query: np.ndarray) -> None:
    want = world.oracles[pid].retrieve(query)
    _assert_same(world.db.partitions[pid].condensed.retrieve(query), want, "index")
    for label, db in (("built", world.db), ("eager", world.eager),
                      ("mmap", world.mapped)):
        _assert_same(db.query_features(query, pid), want, label)


@st.composite
def _queries(draw, stored: np.ndarray):
    element = st.one_of(
        st.sampled_from(stored.tolist()),
        st.integers(0, SENTINEL),
        st.sampled_from(EDGES),
    )
    values = draw(st.lists(element, max_size=60))
    if draw(st.booleans()):
        values = sorted(set(values))  # what partition_candidates passes
    dtype = draw(st.sampled_from([np.uint32, np.uint64, np.int64]))
    return np.array(values, dtype=dtype)


class TestSortedEqualsPointerTable:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_query_vector(self, worlds, data):
        key = data.draw(st.sampled_from(WORLDS))
        world = worlds[key]
        pid = data.draw(st.integers(0, key[0] - 1))
        query = data.draw(_queries(world.features[pid]))
        _assert_equivalent(world, pid, query)

    @pytest.mark.parametrize("key", WORLDS)
    def test_every_stored_feature_and_the_edges(self, worlds, key):
        world = worlds[key]
        for pid, stored in enumerate(world.features):
            everything = np.concatenate([stored, EDGES]).astype(np.uint32)
            _assert_equivalent(world, pid, everything)
            _assert_equivalent(world, pid, everything[::-1].copy())
            _assert_equivalent(world, pid, np.repeat(everything[:40], 3))
            _assert_equivalent(world, pid, np.zeros(0, dtype=np.uint32))
        # the sentinel was stored clamped and both spellings find it
        locations, offsets = world.db.query_features(
            np.array([SENTINEL, SENTINEL - 1, 0], dtype=np.uint64), 0
        )
        assert np.all(np.diff(offsets) > 0)

    def test_lookup_found_mask(self, worlds):
        world = worlds[1, 254]
        pointers = world.mapped.partitions[0].condensed.pointers
        stored = world.features[0]
        query = np.concatenate([stored[::7], [1, SENTINEL]]).astype(np.uint64)
        rows, found = pointers.retrieve(query)
        want = world.oracles[0].pointers.retrieve(query)[1]
        assert np.array_equal(found, want)
        clamped = np.minimum(query, SENTINEL - 1)[found]  # the sentinel's row
        assert np.array_equal(stored[rows[found]], clamped.astype(np.uint32))


class TestSortedPointers:
    @pytest.mark.parametrize(
        "features, message",
        [
            ([3, 2, 5], "not strictly ascending"),
            ([2, 2, 5], "not strictly ascending"),
            ([2, 5, SENTINEL], "sentinel"),
            ([2, 5, 1 << 32], "sentinel"),
        ],
    )
    def test_from_content_rejects(self, features, message):
        with pytest.raises(ValueError, match=message):
            CondensedIndex.from_content(
                np.array(features, dtype=np.uint64),
                np.ones(3, dtype=np.int64),
                np.arange(3, dtype=np.uint64),
            )

    def test_lists_past_two_to_the_24_need_no_packing(self):
        pointers = SortedPointers.from_lengths(
            np.array([7], dtype=np.uint64), np.array([1 << 24], dtype=np.int64)
        )
        assert pointers.offsets.tolist() == [0, 1 << 24]

    def test_empty_index(self):
        index = CondensedIndex.from_content(
            np.zeros(0, dtype=np.uint64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.uint64),
        )
        locations, offsets = index.retrieve(np.array([0, 5, SENTINEL], np.uint64))
        assert locations.size == 0 and offsets.tolist() == [0, 0, 0, 0]

    def test_wide_offsets_round_trip(self, refs, tmp_path, monkeypatch):
        """Past the width limit the offsets are uint64, on disk and in memory."""
        taxonomy, references = refs
        narrow = Database.build(references, taxonomy, params=PARAMS, n_partitions=2)
        narrow.condense()
        monkeypatch.setattr(database_mod, "NARROW_OFFSETS_LIMIT", 16)
        db = Database.build(references, taxonomy, params=PARAMS, n_partitions=2)
        save_database(db, tmp_path / "wide")
        manifest = json.loads((tmp_path / "wide" / "manifest.json").read_text())
        for entry in manifest["partitions"]:
            assert entry["arrays"]["offsets"]["dtype"] == "<u8"
            assert entry["arrays"]["features"]["dtype"] == "<u4"
        for kwargs in ({}, {"mmap": True}, {"mmap": True, "verify": True}):
            loaded = load_database(tmp_path / "wide", **kwargs)
            for pid in range(2):
                pointers = loaded.partitions[pid].condensed.pointers
                assert pointers.offsets.dtype == "<u8"
                query = np.concatenate([pointers.features[::3], EDGES])
                got = loaded.query_features(query, pid)
                assert got[1][-1] > 0
                _assert_same(got, narrow.query_features(query, pid), kwargs)
            loaded.close()
        monkeypatch.undo()
        save_database(load_database(tmp_path / "wide"), tmp_path / "narrow")
        manifest = json.loads((tmp_path / "narrow" / "manifest.json").read_text())
        for entry in manifest["partitions"]:
            assert entry["arrays"]["offsets"]["dtype"] == "<u4"
