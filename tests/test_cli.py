"""End-to-end tests of the command line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.core import Database, MetaCacheParams, query_database
from repro.core.merge import save_candidates
from repro.genomics.alphabet import decode_sequence
from repro.genomics.fasta import write_fasta
from repro.genomics.fastq import FastqRecord, write_fastq
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.pipeline.packed import PackedReads
from repro.taxonomy.builder import build_taxonomy_for_genomes
from repro.taxonomy.ncbi import write_ncbi_dump


@pytest.fixture(scope="module")
def cli_world(tmp_path_factory):
    """Reference FASTA + taxonomy dumps + mapping + reads on disk."""
    root = tmp_path_factory.mktemp("cli")
    genomes = GenomeSimulator(seed=61).simulate_collection(2, 2, 4000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    refs_path = root / "refs.fasta"
    write_fasta(
        [rec for g in genomes for rec in g.to_fasta_records()], refs_path
    )
    tax_dir = root / "taxonomy"
    tax_dir.mkdir()
    write_ncbi_dump(taxonomy, tax_dir / "nodes.dmp", tax_dir / "names.dmp")
    mapping_path = root / "acc2tax.tsv"
    mapping_path.write_text(
        "# accession\ttaxid\n"
        + "".join(
            f"{g.accession}\t{taxa.target_taxon[i]}\n" for i, g in enumerate(genomes)
        )
    )
    reads = ReadSimulator(genomes, seed=3).simulate(HISEQ, 40)
    reads_path = root / "sample.fastq"
    write_fastq(
        [
            FastqRecord(f"r{i}", decode_sequence(s), "I" * s.size)
            for i, s in enumerate(reads.sequences)
        ],
        reads_path,
    )
    return root, genomes, taxonomy, taxa, refs_path, tax_dir, mapping_path, reads_path


def _build_args(world, out_name="db", extra=()):
    root, _, _, _, refs, tax_dir, mapping, _ = world
    return [
        "build",
        str(refs),
        "--taxonomy", str(tax_dir),
        "--mapping", str(mapping),
        "--out", str(root / out_name),
        "--kmer-length", "8",
        "--sketch-size", "4",
        "--window-size", "24",
        *extra,
    ]


class TestCliBuild:
    def test_build_creates_database(self, cli_world, capsys):
        root = cli_world[0]
        assert main(_build_args(cli_world)) == 0
        assert (root / "db" / "database.meta").exists()
        assert (root / "db" / "manifest.json").exists()
        assert (root / "db" / "part0.single.features.npy").exists()
        out = capsys.readouterr().out
        assert "built 4 targets" in out

    def test_build_partitions(self, cli_world):
        root = cli_world[0]
        assert main(_build_args(cli_world, "db2", ["--partitions", "2"])) == 0
        assert (root / "db2" / "part1.multi.offsets.npy").exists()

    def test_build_missing_mapping_entry(self, cli_world, tmp_path):
        bad_mapping = tmp_path / "bad.tsv"
        bad_mapping.write_text("WRONG_ACC\t1\n")
        args = _build_args(cli_world)
        args[args.index("--mapping") + 1] = str(bad_mapping)
        with pytest.raises(KeyError):
            main(args)


class TestCliAdd:
    def _extra_world(self, tmp_path, taxonomy, taxa, genomes):
        """A new genome file + mapping entry to add to a built db."""
        extra = GenomeSimulator(seed=99).simulate_collection(1, 1, 4000)
        # graft the new genome onto an existing taxon so the saved
        # taxonomy still resolves it
        path = tmp_path / "extra.fasta"
        write_fasta(extra[0].to_fasta_records(), path)
        mapping = tmp_path / "extra.tsv"
        mapping.write_text(f"{extra[0].accession}\t{taxa.target_taxon[0]}\n")
        return path, mapping

    def test_add_extends_in_place(self, cli_world, tmp_path, capsys):
        root, genomes, taxonomy, taxa, *_ = cli_world
        main(_build_args(cli_world, "db_add"))
        before = (root / "db_add" / "database.meta").read_text()
        path, mapping = self._extra_world(tmp_path, taxonomy, taxa, genomes)
        assert (
            main(
                [
                    "add",
                    str(path),
                    "--db", str(root / "db_add"),
                    "--mapping", str(mapping),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "added 1 targets" in out
        after = (root / "db_add" / "database.meta").read_text()
        assert after != before  # the database on disk actually grew

    def test_add_to_new_directory_keeps_source(self, cli_world, tmp_path, capsys):
        root, genomes, taxonomy, taxa, *_ = cli_world
        main(_build_args(cli_world, "db_src"))
        source = (root / "db_src" / "manifest.json").read_bytes()
        path, mapping = self._extra_world(tmp_path, taxonomy, taxa, genomes)
        assert (
            main(
                [
                    "add",
                    str(path),
                    "--db", str(root / "db_src"),
                    "--mapping", str(mapping),
                    "--out", str(tmp_path / "db_dst"),
                ]
            )
            == 0
        )
        # source untouched; the destination is a complete database
        assert (root / "db_src" / "manifest.json").read_bytes() == source
        assert (tmp_path / "db_dst" / "manifest.json").exists()

    def test_add_missing_mapping_entry(self, cli_world, tmp_path):
        root, genomes, taxonomy, taxa, *_ = cli_world
        main(_build_args(cli_world, "db_badadd"))
        path, mapping = self._extra_world(tmp_path, taxonomy, taxa, genomes)
        mapping.write_text("WRONG\t1\n")
        with pytest.raises(KeyError):
            main(
                [
                    "add",
                    str(path),
                    "--db", str(root / "db_badadd"),
                    "--mapping", str(mapping),
                ]
            )


class TestCliQuery:
    def test_query_writes_tsv(self, cli_world, capsys, tmp_path):
        root, _, _, _, _, _, _, reads_path = cli_world
        main(_build_args(cli_world, "dbq"))
        out_path = tmp_path / "result.tsv"
        rc = main(
            [
                "query",
                "--db", str(root / "dbq"),
                "--reads", str(reads_path),
                "--out", str(out_path),
                "--min-hits", "2",
            ]
        )
        assert rc == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("read\ttaxon_id")
        assert len(lines) == 41  # header + 40 reads
        assert "classified" in capsys.readouterr().err

    def test_query_stdout_and_abundance(self, cli_world, capsys):
        root, _, _, _, _, _, _, reads_path = cli_world
        main(_build_args(cli_world, "dba"))
        rc = main(
            [
                "query",
                "--db", str(root / "dba"),
                "--reads", str(reads_path),
                "--min-hits", "2",
                "--abundance", "species",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "abundance estimate" in captured.err
        assert captured.out.count("\n") >= 41

    def test_query_rejects_unpaired_mates(self, cli_world, tmp_path):
        root, _, _, _, _, _, _, reads_path = cli_world
        main(_build_args(cli_world, "dbm"))
        short = tmp_path / "short.fastq"
        write_fastq([FastqRecord("x", "ACGTACGTAC", "IIIIIIIIII")], short)
        with pytest.raises(ValueError):
            main(
                [
                    "query",
                    "--db", str(root / "dbm"),
                    "--reads", str(reads_path),
                    "--mates", str(short),
                ]
            )


class TestCliInfo:
    def test_info(self, cli_world, capsys):
        root = cli_world[0]
        main(_build_args(cli_world, "dbi"))
        assert main(["info", "--db", str(root / "dbi")]) == 0
        out = capsys.readouterr().out
        assert "targets: 4" in out
        assert "k=8 s=4 w=24" in out


class TestCliMerge:
    def test_merge_runs(self, cli_world, tmp_path, capsys):
        _, genomes, taxonomy, taxa, *_ = cli_world
        refs = [
            (g.name, g.scaffolds[0], taxa.target_taxon[i])
            for i, g in enumerate(genomes)
        ]
        db = Database.build(
            refs, taxonomy, params=MetaCacheParams.small(), n_partitions=2
        )
        reads = ReadSimulator(genomes, seed=9).simulate(HISEQ, 10)
        paths = []
        for pid, part in enumerate(db.partitions):
            solo = Database(
                params=db.params, taxonomy=taxonomy,
                partitions=[part], targets=db.targets,
            )
            res = query_database(solo, PackedReads.from_reads(reads.sequences))
            p = tmp_path / f"run{pid}.npz"
            save_candidates(res.candidates, p)
            paths.append(str(p))
        out = tmp_path / "merged.npz"
        rc = main(["merge", *paths, "--out", str(out), "--top", "2"])
        assert rc == 0
        assert out.exists()
        assert "merged 2 runs" in capsys.readouterr().out


class TestCliParsing:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_sniff_rejects_garbage(self, cli_world, tmp_path):
        root = cli_world[0]
        main(_build_args(cli_world, "dbg"))
        garbage = tmp_path / "garbage.txt"
        garbage.write_text("this is not sequence data\n")
        with pytest.raises(ValueError):
            main(["query", "--db", str(root / "dbg"), "--reads", str(garbage)])
