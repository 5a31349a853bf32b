"""Tests for the streaming DatabaseBuilder (incremental build pipeline).

The load-bearing invariant: every construction path -- one-shot
``Database.build``, incremental ``add_reference`` calls, ``add_fasta``
streaming, and extend-then-finalize -- produces **byte-identical**
saved databases and classification output.
"""

import warnings
import weakref

import numpy as np
import pytest

from repro.api import MetaCache, TsvSink
from repro.cli import main
from repro.core.build import accession_of
from repro.core.builder import BuildStats, DatabaseBuilder, _GrowingTable
from repro.core.config import MetaCacheParams
from repro.core.database import Database
from repro.core.io import load_database, save_database
from repro.errors import BuildError, DatabaseFormatError
from repro.genomics.alphabet import decode_sequence, encode_sequence
from repro.genomics.fasta import read_fasta, write_fasta
from repro.genomics.fastq import FastqRecord, write_fastq
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.shard import ShardPlan
from repro.taxonomy.builder import build_taxonomy_for_genomes

PARAMS = MetaCacheParams.small()


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Genomes + taxonomy + FASTA files + reference triples + reads."""
    root = tmp_path_factory.mktemp("builder")
    genomes = GenomeSimulator(seed=41).simulate_collection(3, 2, 5000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    paths, acc2tax = [], {}
    for i, g in enumerate(genomes):
        p = root / f"genome{i}.fasta"
        write_fasta(g.to_fasta_records(), p)
        paths.append(p)
        acc2tax[g.accession] = taxa.target_taxon[i]
    # the canonical arrival order: file order, then in-file order,
    # with the FASTA header as the target name (what add_fasta sees)
    refs = []
    for p in paths:
        for r in read_fasta(p):
            refs.append(
                (r.header, encode_sequence(r.sequence), acc2tax[r.accession])
            )
    reads = ReadSimulator(genomes, seed=5).simulate(HISEQ, 50)
    reads_path = root / "reads.fastq"
    write_fastq(
        [
            FastqRecord(f"r{i}", decode_sequence(s), "I" * s.size)
            for i, s in enumerate(reads.sequences)
        ],
        reads_path,
    )
    return root, genomes, taxonomy, taxa, paths, acc2tax, refs, reads_path


def _v2_bytes(db, directory):
    """Save ``db`` as format v2 and return {filename: bytes}."""
    save_database(db, directory, format=2)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _assert_identical(a: dict, b: dict, label: str):
    assert sorted(a) == sorted(b), f"{label}: file sets differ"
    for name in a:
        assert a[name] == b[name], f"{label}: {name} diverged"


class TestBuilderEquivalence:
    def test_incremental_matches_one_shot(self, world, tmp_path):
        _, _, taxonomy, _, _, _, refs, _ = world
        one = Database.build(refs, taxonomy, params=PARAMS, n_partitions=2)
        builder = DatabaseBuilder(taxonomy, PARAMS, n_partitions=2)
        for name, codes, taxon in refs:
            builder.add_reference(name, codes, taxon)
        inc = builder.finalize(condense=False)
        _assert_identical(
            _v2_bytes(one, tmp_path / "one"),
            _v2_bytes(inc, tmp_path / "inc"),
            "incremental",
        )

    def test_add_fasta_matches_one_shot(self, world, tmp_path):
        _, _, taxonomy, _, paths, acc2tax, refs, _ = world
        one = Database.build(refs, taxonomy, params=PARAMS, n_partitions=2)
        builder = DatabaseBuilder(taxonomy, PARAMS, n_partitions=2)
        builder.add_fasta(paths, acc2tax)
        streamed = builder.finalize(condense=False)
        _assert_identical(
            _v2_bytes(one, tmp_path / "one"),
            _v2_bytes(streamed, tmp_path / "fasta"),
            "add_fasta",
        )

    @pytest.mark.parametrize("layout", ["build", "loaded"])
    def test_extend_matches_one_shot(self, world, tmp_path, layout):
        _, _, taxonomy, _, _, _, refs, _ = world
        half = len(refs) // 2
        one = Database.build(refs, taxonomy, params=PARAMS, n_partitions=2)
        first = Database.build(
            refs[:half], taxonomy, params=PARAMS, n_partitions=2
        )
        if layout == "loaded":
            save_database(first, tmp_path / "first", format=2)
            first = load_database(tmp_path / "first")
        builder = DatabaseBuilder.from_database(first)
        for name, codes, taxon in refs[half:]:
            builder.add_reference(name, codes, taxon)
        extended = builder.finalize()
        _assert_identical(
            _v2_bytes(one, tmp_path / "one"),
            _v2_bytes(extended, tmp_path / "ext"),
            f"extend[{layout}]",
        )

    def test_growth_path_still_identical(self, world, tmp_path):
        """A tiny insert batch forces repeated table growth mid-build."""
        _, _, taxonomy, _, _, _, refs, _ = world
        one = Database.build(refs, taxonomy, params=PARAMS)
        builder = DatabaseBuilder(taxonomy, PARAMS, insert_batch_windows=8)
        for name, codes, taxon in refs:
            builder.add_reference(name, codes, taxon)
        grown = builder.finalize(condense=False)
        _assert_identical(
            _v2_bytes(one, tmp_path / "one"),
            _v2_bytes(grown, tmp_path / "grown"),
            "growth",
        )

    def test_classification_tsv_identical(self, world, tmp_path):
        """All build paths classify a read file byte-identically."""
        _, _, taxonomy, _, paths, acc2tax, refs, reads_path = world

        def classify(db, out):
            with MetaCache(db) as mc:
                with mc.session() as session, TsvSink(out) as sink:
                    session.classify_files(reads_path, sink=sink)
            return out.read_bytes()

        one = Database.build(refs, taxonomy, params=PARAMS, n_partitions=2)
        fasta_builder = DatabaseBuilder(taxonomy, PARAMS, n_partitions=2)
        fasta_builder.add_fasta(paths, acc2tax)
        streamed = fasta_builder.finalize(condense=False)
        ext_builder = DatabaseBuilder.from_database(
            Database.build(refs[:3], taxonomy, params=PARAMS, n_partitions=2)
        )
        for name, codes, taxon in refs[3:]:
            ext_builder.add_reference(name, codes, taxon)
        extended = ext_builder.finalize()

        reference = classify(one, tmp_path / "one.tsv")
        assert reference.strip()
        assert classify(streamed, tmp_path / "fasta.tsv") == reference
        assert classify(extended, tmp_path / "ext.tsv") == reference


class TestBoundedMemory:
    def test_streaming_build_does_not_retain_sequences(self, world):
        """Peak live encoded sequences is O(1), independent of corpus.

        Every yielded codes array gets a finalizer; CPython refcounting
        runs it the moment the builder drops its last reference, so
        the live counter is an exact resident-set proxy.
        """
        _, _, taxonomy, taxa, _, _, _, _ = world
        live = {"now": 0, "peak": 0}

        def dec():
            live["now"] -= 1

        rng = np.random.default_rng(9)
        taxon = taxa.target_taxon[0]
        n_refs = 40

        def stream():
            for i in range(n_refs):
                codes = rng.integers(0, 4, size=2000, dtype=np.uint8)
                live["now"] += 1
                live["peak"] = max(live["peak"], live["now"])
                weakref.finalize(codes, dec)
                yield (f"t{i}", codes, taxon)

        db = Database.build(stream(), taxonomy, params=PARAMS)
        assert db.n_targets == n_refs
        # one in the builder's hands plus one the generator holds
        assert live["peak"] <= 4

    def test_growing_table_preserves_content(self):
        """Chunked-rebuild growth loses no pair and keeps value order."""
        rng = np.random.default_rng(3)
        keys = rng.integers(1, 500, size=5000).astype(np.uint64)
        values = np.arange(5000, dtype=np.uint64)
        params = MetaCacheParams.small()
        small = _GrowingTable(params, initial_capacity=256)
        for start in range(0, 5000, 500):
            small.insert(keys[start : start + 500], values[start : start + 500])
        assert small.capacity_values > 256  # growth actually happened
        big = _GrowingTable(params, initial_capacity=8192)
        big.insert(keys, values)
        uniq = np.unique(keys)
        got_small = small.table.retrieve(uniq)
        got_big = big.table.retrieve(uniq)
        assert np.array_equal(got_small[0], got_big[0])
        assert np.array_equal(got_small[1], got_big[1])


class TestBuildStats:
    def test_progress_and_counters(self, world):
        _, _, taxonomy, _, _, _, refs, _ = world
        snapshots = []
        builder = DatabaseBuilder(
            taxonomy, PARAMS, on_progress=snapshots.append
        )
        for name, codes, taxon in refs:
            builder.add_reference(name, codes, taxon)
        assert len(snapshots) == len(refs)
        assert all(isinstance(s, BuildStats) for s in snapshots)
        assert snapshots[-1].n_targets == len(refs)
        pre = builder.stats
        assert pre.features_pending > 0  # default batch far from full
        db = builder.finalize(condense=False)
        post_inserted = sum(
            p.table.stored_values for p in db.partitions
        )
        assert pre.features_sketched == post_inserted + sum(
            p.table.dropped_values for p in db.partitions
        )

    def test_lost_features_accounting(self, world):
        """max_locations_per_feature drops are counted, not silent."""
        _, _, taxonomy, taxa, _, _, _, _ = world
        tight = MetaCacheParams.small(max_locations_per_feature=1)
        codes = GenomeSimulator(seed=77).simulate_collection(1, 1, 4000)[0]
        builder = DatabaseBuilder(taxonomy, tight)
        # the same sequence twice: every feature's second location set
        # exceeds the cap of one
        builder.add_reference("a", codes.scaffolds[0], taxa.target_taxon[0])
        builder.add_reference("b", codes.scaffolds[0], taxa.target_taxon[0])
        builder.finalize(condense=False)
        stats = builder.stats
        assert stats.features_dropped > 0
        assert (
            stats.features_inserted + stats.features_dropped
            == stats.features_sketched
        )
        assert 0.0 < stats.features_kept_fraction < 1.0
        assert "dropped" in stats.summary()

    def test_from_database_carries_accounting(self, world):
        _, _, taxonomy, _, _, _, refs, _ = world
        first = Database.build(refs[:2], taxonomy, params=PARAMS)
        inserted = sum(p.table.stored_values for p in first.partitions)
        builder = DatabaseBuilder.from_database(first)
        assert builder.stats.n_targets == 2
        assert builder.stats.features_inserted == inserted


class TestBuilderLifecycle:
    def test_finalize_is_single_shot(self, world):
        _, _, taxonomy, _, _, _, refs, _ = world
        builder = DatabaseBuilder(taxonomy, PARAMS)
        builder.add_reference(*refs[0])
        builder.finalize()
        with pytest.raises(RuntimeError, match="finalized"):
            builder.add_reference(*refs[1])
        with pytest.raises(RuntimeError, match="finalized"):
            builder.finalize()

    def test_empty_builder_finalizes(self, world):
        _, _, taxonomy, _, _, _, _, _ = world
        db = DatabaseBuilder(taxonomy, PARAMS, n_partitions=3).finalize(
            condense=False
        )
        assert db.n_targets == 0
        assert db.n_partitions == 3
        assert all(p.table is not None for p in db.partitions)

    def test_constructor_validation(self, world):
        _, _, taxonomy, _, _, _, _, _ = world
        with pytest.raises(ValueError):
            DatabaseBuilder(taxonomy, PARAMS, n_partitions=0)

    @pytest.mark.parametrize(
        "surface",
        [
            "build",
            "ephemeral",
            "extend",
            "DatabaseBuilder",
            "from_database",
            "cli build",
            "cli add",
        ],
    )
    def test_build_worker_settings_are_gone(self, world, surface):
        """Every reference is sketched inline; no setting asks for a pool."""
        _, _, taxonomy, _, paths, acc2tax, refs, _ = world
        calls = {
            "build": lambda: MetaCache.build(
                paths, taxonomy, acc2tax, params=PARAMS, build_workers=2
            ),
            "ephemeral": lambda: MetaCache.ephemeral(
                refs, taxonomy, params=PARAMS, build_workers=2
            ),
            "extend": lambda: MetaCache.ephemeral(
                refs[:1], taxonomy, params=PARAMS
            ).extend(references=refs[1:], build_workers=2),
            "DatabaseBuilder": lambda: DatabaseBuilder(
                taxonomy, PARAMS, sketch_workers=2
            ),
            "from_database": lambda: DatabaseBuilder.from_database(
                Database.build(refs[:1], taxonomy, params=PARAMS),
                sketch_workers=2,
            ),
        }
        if surface.startswith("cli"):
            command = {
                "cli build": ["build", "refs.fasta", "--taxonomy", "tax",
                              "--mapping", "acc2tax.tsv", "--out", "db"],
                "cli add": ["add", "refs.fasta", "--db", "db",
                            "--mapping", "acc2tax.tsv"],
            }[surface]
            with pytest.raises(SystemExit) as exit_info:
                main([*command, "--build-workers", "2"])
            assert exit_info.value.code == 2
        else:
            with pytest.raises(TypeError, match="workers"):
                calls[surface]()


class TestBuildErrors:
    def test_unknown_taxon(self, world):
        _, _, taxonomy, _, _, _, refs, _ = world
        builder = DatabaseBuilder(taxonomy, PARAMS)
        with pytest.raises(BuildError, match="987654") as exc_info:
            builder.add_reference("bad", refs[0][1], 987654)
        err = exc_info.value
        assert err.taxon_id == 987654
        assert err.header == "bad"
        assert isinstance(err, KeyError)  # pre-builder compatibility

    def test_unmapped_accession_names_file_and_header(self, world):
        _, _, taxonomy, _, paths, acc2tax, _, _ = world
        bad = dict(list(acc2tax.items())[1:])  # drop the first genome
        builder = DatabaseBuilder(taxonomy, PARAMS)
        with pytest.raises(BuildError) as exc_info:
            builder.add_fasta(paths, bad)
        err = exc_info.value
        assert err.file == str(paths[0])
        assert err.header is not None
        assert str(paths[0]) in str(err)

    def test_api_reexport(self):
        from repro.api.errors import BuildError as ApiBuildError

        assert ApiBuildError is BuildError


class TestMetaCacheExtend:
    def test_extend_with_references(self, world, tmp_path):
        _, _, taxonomy, _, _, _, refs, reads_path = world
        half = len(refs) // 2
        full = MetaCache.ephemeral(refs, taxonomy, params=PARAMS)
        grown = MetaCache.ephemeral(refs[:half], taxonomy, params=PARAMS)
        grown.extend(references=refs[half:])
        assert grown.n_targets == full.n_targets

        def tsv(mc, out):
            with mc.session() as session, TsvSink(out) as sink:
                session.classify_files(reads_path, sink=sink)
            return out.read_bytes()

        assert tsv(grown, tmp_path / "g.tsv") == tsv(full, tmp_path / "f.tsv")

    def test_failed_extend_leaves_database_intact(self, world, tmp_path):
        """A BuildError mid-extend must not corrupt the handle.

        from_database copies the index (never shares tables), so a
        partially-ingested extension is discarded wholesale and the
        handle keeps serving the original database.
        """
        _, _, taxonomy, _, _, _, refs, _ = world
        mc = MetaCache.ephemeral(refs[:2], taxonomy, params=PARAMS)
        before = _v2_bytes(mc.database, tmp_path / "before")  # condenses
        with pytest.raises(BuildError):
            # first reference ingests fine, second has an unknown taxon
            mc.extend(
                references=[
                    (refs[2][0], refs[2][1], refs[2][2]),
                    ("bad", refs[3][1], 999_999),
                ]
            )
        assert mc.n_targets == 2
        _assert_identical(
            before,
            _v2_bytes(mc.database, tmp_path / "after"),
            "failed extend",
        )

    def test_extend_validation(self, world):
        _, _, taxonomy, _, _, _, refs, _ = world
        mc = MetaCache.ephemeral(refs[:1], taxonomy, params=PARAMS)
        with pytest.raises(ValueError, match="refs"):
            mc.extend()
        with pytest.raises(ValueError, match="mapping"):
            mc.extend(["some.fasta"])

    def test_extend_preserves_format_and_saves(self, world, tmp_path):
        _, _, taxonomy, _, _, _, refs, _ = world
        db = Database.build(refs[:2], taxonomy, params=PARAMS)
        save_database(db, tmp_path / "v2", format=2)
        mc = MetaCache.open(tmp_path / "v2")
        mc.extend(references=refs[2:])
        files = mc.save(tmp_path / "v2b")
        assert (tmp_path / "v2b" / "manifest.json").exists()
        assert len(files) > 0

    def test_extend_then_default_save_stays_mmap_and_shard_ready(
        self, world, tmp_path
    ):
        """open(mmap) -> extend -> save(out) used to downgrade ``out`` to
        the rebuild-on-open layout: ``open(out, mmap=True)`` warned and
        rebuilt, ``ShardPlan.from_directory(out, 1)`` raised."""
        _, _, taxonomy, _, _, _, refs, reads_path = world
        half = len(refs) // 2
        MetaCache.ephemeral(refs[:half], taxonomy, params=PARAMS).save(tmp_path / "half")
        one_shot = MetaCache.ephemeral(refs, taxonomy, params=PARAMS)
        one_shot.save(tmp_path / "one")
        out = tmp_path / "out"
        with MetaCache.open(tmp_path / "half", mmap=True) as mc:
            mc.extend(references=refs[half:])
            mc.save(out)
        _assert_identical(
            {p.name: p.read_bytes() for p in (tmp_path / "one").iterdir()},
            {p.name: p.read_bytes() for p in out.iterdir()},
            "extend -> save",
        )
        assert ShardPlan.from_directory(out, 1).n_shards == 1

        def tsv(mc, name):
            with mc.session() as session, TsvSink(tmp_path / name) as sink:
                session.classify_files(reads_path, sink=sink)
            return (tmp_path / name).read_bytes()

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the v1 rebuild path warns
            with MetaCache.open(out, mmap=True) as reopened:
                assert reopened.database.mmap_path == out
                assert tsv(reopened, "out.tsv") == tsv(one_shot, "one.tsv") != b""

    def test_mmap_backed_save_to_self_refused(self, world, tmp_path):
        _, _, taxonomy, _, _, _, refs, _ = world
        db = Database.build(refs[:2], taxonomy, params=PARAMS)
        save_database(db, tmp_path / "m", format=2)
        mc = MetaCache.open(tmp_path / "m", mmap=True)
        with pytest.raises(DatabaseFormatError, match="memory-mapped"):
            mc.save(tmp_path / "m", format=2)
        # a different destination is fine
        mc.save(tmp_path / "m2", format=2)


class TestAccessionOf:
    @pytest.mark.parametrize(
        "header,expected",
        [
            ("SYN_000_001 some description", "SYN_000_001"),
            ("AFS_COW.17 scaffold 17", "AFS_COW"),
            ("NC_0001.x desc", "NC_0001.x"),
            ("", ""),
            ("   ", ""),  # all-whitespace header
            ("\t\t", ""),
            ("A.1.2 nested", "A.1"),  # only the last suffix strips
            ("ACC. trailing-dot", "ACC."),  # empty suffix is not digits
            ("  padded.3 desc", "padded"),  # leading whitespace
            ("only-token", "only-token"),
        ],
    )
    def test_edge_cases(self, header, expected):
        assert accession_of(header) == expected
