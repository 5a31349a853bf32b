"""Equivalence harness: the sorted-run build vs the growing-table build.

``DatabaseBuilder`` groups each flushed batch into a sorted run, merges
runs stably and cuts every feature to ``max_locations_per_feature``;
the retained builder in ``tests/reference/build_by_table.py`` inserted
the same batches into a growing multi-bucket hash table, and ingested
FASTA files record by record through the per-line parser.  The
contract: for any history -- ``add_reference`` and ``add_fasta`` calls
(reference blocks of one record, of a few, or of the default
``BLOCK_BASES``), any ``insert_batch_windows``, reopening through
``from_database`` (with or without a save in between) and
``MetaCache.extend`` -- over 1-3 partitions and caps 1, 3 and 254, both
save byte-identical directories, and every finalized builder reports
the same :class:`BuildStats`.  A wrapped sketch also emits the features
``0``, ``0xFFFFFFFE`` and ``0xFFFFFFFF`` (the sentinel, which both
builds store as ``0xFFFFFFFE``).
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.builder as builder_mod
import repro.pipeline.producer as producer_mod
from reference.build_by_table import TableDatabaseBuilder
from repro.api import MetaCache
from repro.core.builder import DatabaseBuilder
from repro.core.config import MetaCacheParams
from repro.core.io import load_database, save_database
from repro.genomics.fasta import write_fasta
from repro.genomics.simulate import GenomeSimulator
from repro.hashing.minhash import SKETCH_PAD
from repro.taxonomy.builder import build_taxonomy_for_genomes

EDGE_FEATURES = np.array([0, 0xFFFFFFFE, 0xFFFFFFFF], dtype=np.uint64)
_sketch = builder_mod.sketch_sequence
_sketch_blocks = builder_mod.sketch_packed_segments


def _with_edge_features(sketches):
    pick = sketches % np.uint64(9)
    edge = (sketches != SKETCH_PAD) & (pick < 3)
    return np.where(edge, EDGE_FEATURES[np.minimum(pick, 2)], sketches)


def sketch_with_edge_features(codes, params):
    """The real sketch with about a third of its features replaced by
    ``0``, ``0xFFFFFFFE`` or ``0xFFFFFFFF`` (chosen by the feature)."""
    return _with_edge_features(_sketch(codes, params))


def sketch_blocks_with_edge_features(buffer, offsets, params):
    """The block kernel with the same replacement, row for row."""
    sketches, counts = _sketch_blocks(buffer, offsets, params)
    return _with_edge_features(sketches), counts


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    """Reference triples, one FASTA file per genome and one holding all
    of them (so reference blocks can hold several records), the
    mapping."""
    root = tmp_path_factory.mktemp("build-equivalence")
    genomes = GenomeSimulator(seed=53).simulate_collection(2, 2, 1200)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    refs, files, mapping = [], [], {}
    for i, g in enumerate(genomes):
        refs.append((g.accession, g.scaffolds[0], taxa.target_taxon[i]))
        path = root / f"g{i}.fasta"
        write_fasta(g.to_fasta_records(), path)
        files.append(path)
        mapping[g.accession] = taxa.target_taxon[i]
    files.append(root / "all.fasta")
    write_fasta([r for g in genomes for r in g.to_fasta_records()], files[-1])
    return taxonomy, refs, files, mapping, root


# one ingest call: ("ref", reference) or ("fasta", files, block bases):
# blocks of one record, of two (the genomes hold 1,200-1,227 bases) and
# of the default
ops_st = st.one_of(
    st.tuples(st.just("ref"), st.integers(0, 3)),
    st.tuples(
        st.just("fasta"),
        st.lists(st.integers(0, 4), min_size=1, max_size=3),
        st.sampled_from([1, 2500, producer_mod.BLOCK_BASES]),
    ),
)
# how a phase after the first reopens the finished database
reopen_st = st.sampled_from(["from_database", "saved", "extend"])
history_st = st.tuples(
    st.lists(ops_st, min_size=1, max_size=4),
    st.lists(
        st.tuples(reopen_st, st.lists(ops_st, min_size=1, max_size=3)),
        max_size=2,
    ),
)


def _ingest(builder, op, refs, files, mapping) -> None:
    if op[0] == "ref":
        builder.add_reference(*refs[op[1]])
    else:
        with mock.patch.object(producer_mod, "BLOCK_BASES", op[2]):
            builder.add_fasta([files[i] for i in op[1]], mapping)


def _extend(db, op, refs, files, mapping):
    """One ``MetaCache.extend`` call of ``op`` on ``db``."""
    mc = MetaCache(db)
    if op[0] == "ref":
        mc.extend(references=[refs[op[1]]])
    else:
        with mock.patch.object(producer_mod, "BLOCK_BASES", op[2]):
            mc.extend([files[i] for i in op[1]], mapping)
    return mc.database


def _table_extend(db, op, refs, files, mapping):
    """What ``MetaCache.extend`` did with the table builder."""
    builder = TableDatabaseBuilder.from_database(db)
    _ingest(builder, op, refs, files, mapping)
    return builder.finalize()


def _run(kind, history, pool, params, n_partitions, batch_windows, workdir: Path):
    """Replay ``history`` with one builder class; returns the database and
    the stats of every builder it finalized."""
    taxonomy, refs, files, mapping, _ = pool
    first, phases = history
    stats = []
    builder = kind(
        taxonomy, params, n_partitions=n_partitions,
        insert_batch_windows=batch_windows,
    )
    for op in first:
        _ingest(builder, op, refs, files, mapping)
    db = builder.finalize()
    stats.append(builder.stats)
    for i, (reopen, ops) in enumerate(phases):
        if reopen == "extend":
            extend = _extend if kind is DatabaseBuilder else _table_extend
            for op in ops:
                db = extend(db, op, refs, files, mapping)
            continue
        if reopen == "saved":
            save_database(db, workdir / f"phase{i}")
            db = load_database(workdir / f"phase{i}")
        builder = kind.from_database(db, insert_batch_windows=batch_windows)
        for op in ops:
            _ingest(builder, op, refs, files, mapping)
        db = builder.finalize()
        stats.append(builder.stats)
    return db, stats


def _saved_bytes(db, directory: Path) -> dict[str, bytes]:
    save_database(db, directory)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@settings(max_examples=60, deadline=None)
@given(
    history=history_st,
    n_partitions=st.integers(1, 3),
    cap=st.sampled_from([1, 3, 254]),
    batch_windows=st.sampled_from([1, 7, 60, 100_000]),
    edge_features=st.booleans(),
)
def test_sorted_build_equals_table_build(
    pool, history, n_partitions, cap, batch_windows, edge_features
):
    params = MetaCacheParams.small(max_locations_per_feature=cap)
    workdir = Path(tempfile.mkdtemp(dir=pool[4]))
    sketch = sketch_with_edge_features if edge_features else _sketch
    blocks = sketch_blocks_with_edge_features if edge_features else _sketch_blocks
    with mock.patch.object(builder_mod, "sketch_sequence", sketch), \
            mock.patch.object(builder_mod, "sketch_packed_segments", blocks):
        runs = {
            name: _run(kind, history, pool, params, n_partitions,
                       batch_windows, workdir / name)
            for name, kind in (("sorted", DatabaseBuilder),
                               ("table", TableDatabaseBuilder))
        }
    (db, stats), (want_db, want_stats) = runs["sorted"], runs["table"]
    assert all(p.table is None for p in db.partitions)
    assert stats == want_stats
    got = _saved_bytes(db, workdir / "sorted-db")
    want = _saved_bytes(want_db, workdir / "table-db")
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], f"{name} diverged"


@pytest.mark.parametrize("cap", [1, 3])
def test_cap_drops_match_the_table_build(pool, cap, tmp_path):
    """Each reference twice over two partitions with a tiny batch: every
    run and merge cuts, and the drop count is the table's."""
    taxonomy, refs, _, _, _ = pool
    params = MetaCacheParams.small(max_locations_per_feature=cap)
    stats, saved = [], []
    for kind in (DatabaseBuilder, TableDatabaseBuilder):
        builder = kind(taxonomy, params, n_partitions=2, insert_batch_windows=5)
        for ref in refs + refs:
            builder.add_reference(*ref)
        saved.append(_saved_bytes(builder.finalize(), tmp_path / kind.__name__))
        stats.append(builder.stats)
    assert stats[0] == stats[1]
    assert stats[0].features_dropped > 0
    assert saved[0] == saved[1]


def test_table_conversion_stores_every_location(pool, tmp_path):
    """``finalize(condense=False)`` (kept for the traced benchmark) holds
    the finished content in a table without a probe-limit drop: many
    features with a few locations each waste bucket cells, so the table
    must be sized by locations, not by features."""
    taxonomy, refs, _, _, _ = pool
    saved = []
    for condense in (True, False):
        builder = DatabaseBuilder(taxonomy, MetaCacheParams.small())
        for ref in refs * 5:
            builder.add_reference(*ref)
        db = builder.finalize(condense=condense)
        if not condense:
            assert db.partitions[0].table.dropped_values == 0
        saved.append(_saved_bytes(db, tmp_path / str(condense)))
    assert saved[0] == saved[1]
