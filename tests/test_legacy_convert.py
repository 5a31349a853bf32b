"""Legacy index layouts: refused on every open path, upgraded by ``convert``.

``load_database`` opens one layout.  The layouts this package wrote
before it -- format v1 and the five-array v2 directory
(``tests/reference/index_v1.py``), pointer-table partitions
(``index_ptr_table.py``), uint64 location words (``index_u64.py``) and
one-column partitions that kept singletons behind pointers too
(``sorted_pointers.py``) -- are written here by those retired writers
and must be:

- refused by ``load_database`` (eager, ``mmap=True``, ``verify=True``),
  ``MetaCache.open``, ``ShardPlan.from_directory`` and
  ``MetaCache.reload`` with a :class:`DatabaseFormatError` naming the
  directory and ``metacache-repro convert``, before any index array is
  opened and without a warning; a refused reload leaves the old
  generation answering and the fd count flat;
- converted (``MetaCache.convert``; the CLI's ``convert`` is tested
  in ``tests/test_io_v2.py``) into a directory that is file for file a fresh save of the same database
  and classifies to the same bytes, eagerly and memory-mapped.
"""

import hashlib
import os
import warnings
from pathlib import Path

import pytest

from repro.api import DatabaseFormatError, MetaCache, MetaCacheParams, TsvSink
from repro.cli import main as cli_main
from repro.core import io as io_mod
from repro.core.database import Database
from repro.core.io import load_database, save_database
from repro.genomics.alphabet import decode_sequence
from repro.genomics.fastq import FastqRecord, write_fastq
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.shard import ShardPlan
from repro.taxonomy.builder import build_taxonomy_for_genomes

from reference.index_ptr_table import save_database_ptr_table
from reference.index_u64 import save_database_u64
from reference.index_v1 import save_database_v1, save_database_v2_five_arrays
from reference.sorted_pointers import save_database_one_column

PARAMS = MetaCacheParams.small()

LAYOUTS = {
    "v1": save_database_v1,
    "five-array": save_database_v2_five_arrays,
    "pointer-table": save_database_ptr_table,
    "u64": save_database_u64,
    "one-column": save_database_one_column,
}


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """One 2-partition database: a fresh save, every legacy layout, reads."""
    genomes = GenomeSimulator(seed=41).simulate_collection(3, 2, 5000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    refs = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]
    db = Database.build(refs, taxonomy, params=PARAMS, n_partitions=2)
    root = tmp_path_factory.mktemp("legacy")
    save_database(db, root / "fresh")
    for name, save in LAYOUTS.items():
        save(db, root / name)
    reads = ReadSimulator(genomes, seed=43).simulate(HISEQ, 120)
    read_file = root / "reads.fastq"
    write_fastq(
        [
            FastqRecord(f"r{i}", decode_sequence(s), "I" * s.size)
            for i, s in enumerate(reads.sequences)
        ],
        read_file,
    )
    return root, read_file


def _digests(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).iterdir())
    }


def _tsv(db_dir, read_file, out, **open_kwargs) -> bytes:
    with MetaCache.open(db_dir, **open_kwargs) as mc:
        with mc.session() as session, TsvSink(out) as sink:
            session.classify_files(read_file, sink=sink)
    return out.read_bytes()


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


def _assert_refusal(excinfo, directory):
    message = str(excinfo.value)
    assert str(directory) in message, message
    assert "metacache-repro convert" in message, message


@pytest.fixture()
def no_array_opens(monkeypatch):
    """Fail the test if the loader opens an index array file."""
    opened = []
    real = io_mod._open_npy

    def recording(path, *args, **kwargs):
        opened.append(path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(io_mod, "_open_npy", recording)
    yield opened
    assert opened == []


@pytest.mark.parametrize("layout", list(LAYOUTS))
class TestRefusedUnconverted:
    @pytest.mark.parametrize(
        "kwargs", [{}, {"mmap": True}, {"verify": True}, {"mmap": True, "verify": True}]
    )
    def test_load_database(self, world, layout, kwargs, no_array_opens):
        root, _ = world
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatabaseFormatError) as excinfo:
                load_database(root / layout, **kwargs)
        _assert_refusal(excinfo, root / layout)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_metacache_open(self, world, layout, mmap, no_array_opens):
        root, _ = world
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatabaseFormatError) as excinfo:
                MetaCache.open(root / layout, mmap=mmap)
        _assert_refusal(excinfo, root / layout)

    def test_shard_plan(self, world, layout):
        root, _ = world
        with pytest.raises(DatabaseFormatError) as excinfo:
            ShardPlan.from_directory(root / layout, 1)
        _assert_refusal(excinfo, root / layout)
        with pytest.raises(DatabaseFormatError):
            MetaCache.open(root / layout, shards=1)

    def test_reload_keeps_the_old_generation(self, world, layout, tmp_path):
        root, read_file = world
        with MetaCache.open(root / "fresh", mmap=True) as mc:
            with mc.session() as session:
                before = tmp_path / "before.tsv"
                with TsvSink(before) as sink:
                    session.classify_files(read_file, sink=sink)
                old = mc.database
                fds = _fd_count()
                for _ in range(5):
                    with pytest.raises(DatabaseFormatError) as excinfo:
                        mc.reload(root / layout)
                    _assert_refusal(excinfo, root / layout)
                assert _fd_count() == fds
                assert mc.database is old and not old.closed
                assert mc.source_path == str(root / "fresh")
                after = tmp_path / "after.tsv"
                with TsvSink(after) as sink:
                    session.classify_files(read_file, sink=sink)
        assert before.read_bytes() == after.read_bytes() != b""


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_convert_is_a_fresh_save(world, layout, tmp_path):
    root, read_file = world
    out = tmp_path / "converted"
    MetaCache.convert(root / layout, out)
    assert _digests(out) == _digests(root / "fresh")
    want = _tsv(root / "fresh", read_file, tmp_path / "fresh.tsv")
    assert want
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _tsv(out, read_file, tmp_path / "eager.tsv") == want
        assert _tsv(out, read_file, tmp_path / "mmap.tsv", mmap=True) == want
    db = load_database(out, mmap=True)
    assert db.mmap_path == out
    db.close()


def test_convert_of_a_current_directory_is_a_copy(world, tmp_path):
    root, _ = world
    MetaCache.convert(root / "fresh", tmp_path / "copy")
    assert _digests(tmp_path / "copy") == _digests(root / "fresh")


def test_convert_help_names_every_layout(capsys):
    with pytest.raises(SystemExit):
        cli_main(["--help"])
    usage = capsys.readouterr().out
    assert "format v1" in usage and "pointer-table" in usage and "uint64" in usage
    assert "one-column" in usage
