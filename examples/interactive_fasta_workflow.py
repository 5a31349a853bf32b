#!/usr/bin/env python
"""The full file-based workflow: FASTA in, classifications out.

Mirrors how the real MetaCache binary is operated, expressed entirely
through the :mod:`repro.api` facade:

1. reference genomes arrive as FASTA files plus NCBI-format taxonomy
   dumps (nodes.dmp / names.dmp);
2. ``MetaCache.build`` parses them through the producer/consumer
   pipeline into a partitioned database, saved as database.meta plus
   the mmap-ready index arrays of each partition;
3. ``MetaCache.open`` later reloads the condensed database and a
   session streams a FASTQ sample straight into result sinks --
   the classic TSV report plus a lossless JSONL copy, without the
   sample ever being fully resident in memory.

Run:  python examples/interactive_fasta_workflow.py
"""

import tempfile
from pathlib import Path

from repro.api import JsonlSink, MetaCache, TsvSink
from repro.genomics import GenomeSimulator, ReadSimulator, write_fasta
from repro.genomics.alphabet import decode_sequence
from repro.genomics.fastq import FastqRecord, write_fastq
from repro.genomics.reads import HISEQ
from repro.taxonomy import build_taxonomy_for_genomes, write_ncbi_dump


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="metacache-demo-"))
    print(f"working in {workdir}")

    # -- stage 0: someone gives us files ------------------------------------
    genomes = GenomeSimulator(seed=9).simulate_collection(
        n_genera=6, species_per_genus=2, genome_length=25_000
    )
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    fasta_paths = []
    acc2tax = {}
    for i, g in enumerate(genomes):
        path = workdir / f"genome_{i:02d}.fasta"
        write_fasta(g.to_fasta_records(), path)
        fasta_paths.append(path)
        acc2tax[g.accession] = taxa.target_taxon[i]
    write_ncbi_dump(taxonomy, workdir / "nodes.dmp", workdir / "names.dmp")
    reads = ReadSimulator(genomes, seed=13).simulate(HISEQ, 300)
    sample_path = workdir / "sample.fastq"
    write_fastq(
        [
            FastqRecord(f"read_{i}", decode_sequence(seq), "I" * seq.size)
            for i, seq in enumerate(reads.sequences)
        ],
        sample_path,
    )
    print(f"  {len(fasta_paths)} reference FASTA files, 1 FASTQ sample")

    # -- stage 1: build and save --------------------------------------------
    # taxonomy can be passed as the dump directory; the mapping as a dict
    mc = MetaCache.build(
        fasta_paths, taxonomy=workdir, mapping=acc2tax, n_partitions=2
    )
    db_dir = workdir / "db"
    files = mc.save(db_dir)
    print(f"  built {mc.n_targets} targets; saved {len(files)} database files")

    # -- stage 2: reload and classify, streaming into sinks ------------------
    session = MetaCache.open(db_dir).session()
    report_path = workdir / "classification.tsv"
    jsonl_path = workdir / "classification.jsonl"
    with TsvSink(report_path) as tsv, JsonlSink(jsonl_path) as jsonl:
        report = session.classify_files(
            sample_path,
            sink=tsv,
            batch_size=64,  # at most 64 reads resident at a time
        )
        # second pass showing an alternate wire format from the same session
        session.classify_files(sample_path, sink=jsonl, batch_size=64)

    print(
        f"  classified {report.n_classified}/{report.n_reads} reads in "
        f"{report.n_batches} streamed batches -> {report_path}"
    )
    print("\nfirst lines of the report:")
    for line in report_path.read_text().splitlines()[:6]:
        print("   ", line)
    print(f"\nJSONL copy at {jsonl_path} ({jsonl_path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
