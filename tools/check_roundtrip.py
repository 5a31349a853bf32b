#!/usr/bin/env python
"""Gate: classification is byte-identical however the index is opened.

Builds a small database (48 simulated 40 kbp genomes, 2 partitions),
saves it, then classifies 600 simulated HiSeq reads of a 10-species
mock community through the public API under ten configurations:

- eager load;
- eager load + ``session(workers=2)`` (the database is not
  mmap-backed, so worker processes attach a private spill of it);
- ``mmap=True`` (zero-rebuild, page-cache-backed);
- ``mmap=True`` + ``session(workers=2)`` (worker processes attach
  the same files via :class:`FileBackedDatabaseHandle`);
- ``shards=2, replicas=2`` (every batch fans out through the
  :mod:`repro.shard` router and is re-merged);
- the directory produced by the *extend* path: a database built from
  the first half of the references, saved, reopened, grown with
  ``MetaCache.extend`` (the ``metacache-repro add`` path) and
  re-saved -- gating that add-targets round-trips end to end;
- a legacy directory with uint64 location words (written by the
  retired writer in ``tests/reference/index_u64.py``), opened eagerly
  and with ``mmap=True`` (which loads it eagerly, with a warning):
  both pack the words in memory and must classify the same;
- one session classifying *through a hot-swap reload*: mmap,
  classify, ``MetaCache.reload`` onto the extended directory (the
  zero-downtime swap path), classify again with the same session --
  both legs must match, gating that a swap never perturbs answers.

All TSV outputs must match byte for byte, and the extended directory
must be **file-for-file byte-identical** to the one-shot directory
(legacy format-v1 input is covered by ``tests/test_io_v2.py``).  Exit
status 0 when they do, 1 (with a diff summary) when any diverges.

Usage:

    PYTHONPATH=src python tools/check_roundtrip.py

``tests/test_roundtrip_gate.py`` runs the same ``main()`` in tier-1.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.api import MetaCache, TsvSink
from repro.core.database import Database
from repro.core.io import save_database
from repro.genomics.alphabet import decode_sequence
from repro.genomics.community import MockCommunity
from repro.genomics.fastq import FastqRecord, write_fastq
from repro.genomics.reads import HISEQ
from repro.genomics.simulate import GenomeSimulator
from repro.taxonomy.builder import build_taxonomy_for_genomes

# the retired uint64 writer lives with the test oracles
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from reference.index_u64 import save_database_u64  # noqa: E402


def _inputs(n_reads: int = 600):
    """References, taxonomy and reads: 16 genera x 3 species, 10 members."""
    genomes = GenomeSimulator(seed=101).simulate_collection(
        n_genera=16, species_per_genus=3, genome_length=40_000, name_prefix="RSQ"
    )
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    references = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i]) for i, g in enumerate(genomes)
    ]
    community = MockCommunity.uniform(
        genomes, list(range(0, 30, 3)), seed=77, strain_divergence=0.03
    )
    return references, taxonomy, community.simulate_reads(HISEQ, n_reads)


def _classify(
    db_dir: Path, read_file: Path, out: Path, workers: int = 1, **open_kwargs
) -> bytes:
    """One classification run through the facade; returns the TSV bytes."""
    with MetaCache.open(db_dir, **open_kwargs) as mc:
        with mc.session(workers=workers) as session, TsvSink(out) as sink:
            session.classify_files(read_file, sink=sink)
    return out.read_bytes()


def _classify_through_reload(
    v2_dir: Path, ext_dir: Path, read_file: Path, tmp: Path
) -> tuple[bytes, bytes]:
    """One session's TSVs from before and after a hot-swap reload."""
    before, after = tmp / "pre-reload.tsv", tmp / "post-reload.tsv"
    with MetaCache.open(v2_dir, mmap=True) as mc:
        with mc.session() as session:
            with TsvSink(before) as sink:
                session.classify_files(read_file, sink=sink)
            mc.reload(ext_dir)  # the zero-downtime swap path
            with TsvSink(after) as sink:
                session.classify_files(read_file, sink=sink)
    return before.read_bytes(), after.read_bytes()


def main() -> int:
    """Run the comparison; 0 = identical, 1 = divergence."""
    references, taxonomy, reads = _inputs()
    db = Database.build(references, taxonomy, n_partitions=2)

    with tempfile.TemporaryDirectory(prefix="roundtrip-") as tmp:
        tmp = Path(tmp)
        v2_dir, u64_dir = tmp / "v2", tmp / "v2u64"
        save_database(db, v2_dir)
        save_database_u64(db, u64_dir)

        # the extend path: half the references, saved, reopened, grown
        # to the full set through MetaCache.extend, re-saved
        half = len(references) // 2
        db_half = Database.build(references[:half], taxonomy, n_partitions=2)
        half_dir, ext_dir = tmp / "v2half", tmp / "v2ext"
        save_database(db_half, half_dir)
        with MetaCache.open(half_dir) as mc:
            mc.extend(references=references[half:])
            mc.save(ext_dir)

        one_shot = {p.name: p.read_bytes() for p in v2_dir.iterdir()}
        extended = {p.name: p.read_bytes() for p in ext_dir.iterdir()}
        mismatched_files = sorted(set(one_shot) ^ set(extended)) + sorted(
            name
            for name in one_shot
            if name in extended and one_shot[name] != extended[name]
        )
        if mismatched_files:
            print(
                "FAIL: extended directory diverges from the one-shot one in "
                + ", ".join(mismatched_files),
                file=sys.stderr,
            )
            return 1
        print(
            f"extend: {len(list(ext_dir.iterdir()))} files byte-identical "
            "to the one-shot directory"
        )

        read_file = tmp / "reads.fastq"
        write_fastq(
            [
                FastqRecord(f"r{i}", decode_sequence(s), "I" * s.size)
                for i, s in enumerate(reads.sequences)
            ],
            read_file,
        )

        configs = {
            "eager": (v2_dir, {}),
            "eager+workers=2": (v2_dir, {"workers": 2}),
            "mmap": (v2_dir, {"mmap": True}),
            "mmap+workers=2": (v2_dir, {"mmap": True, "workers": 2}),
            "shards=2x2": (v2_dir, {"shards": 2, "replicas": 2}),
            "extended": (ext_dir, {}),
            "legacy-u64": (u64_dir, {}),
            "legacy-u64+mmap": (u64_dir, {"mmap": True}),
        }
        outputs = {
            name: _classify(db_dir, read_file, tmp / f"{name}.tsv", **kwargs)
            for name, (db_dir, kwargs) in configs.items()
        }
        (
            outputs["pre-reload"],
            outputs["post-reload"],
        ) = _classify_through_reload(v2_dir, ext_dir, read_file, tmp)

    reference_name, reference = next(iter(outputs.items()))
    if not reference.strip():
        print("FAIL: reference run produced empty output", file=sys.stderr)
        return 1
    failed = [
        name for name, blob in outputs.items() if blob != reference
    ]
    for name in outputs:
        status = "DIVERGED" if name in failed else "ok"
        print(f"{name:>20}: {len(outputs[name]):7d} TSV bytes  [{status}]")
    if failed:
        print(
            f"FAIL: {', '.join(failed)} diverged from {reference_name}",
            file=sys.stderr,
        )
        return 1
    print(f"OK: {len(outputs)} configurations byte-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
