#!/usr/bin/env python
"""Incremental indexing: build a database in stages, never rebuilding.

Reference collections grow. This example shows the streaming build
surface (:class:`repro.api.DatabaseBuilder` and
:meth:`repro.api.MetaCache.extend`) handling that without ever
re-sketching the existing index or holding the corpus in memory:

1. stream an initial genome collection into a ``DatabaseBuilder``
   one reference at a time, watching :class:`BuildStats` progress
   (including the paper's "lost features" accounting);
2. save the database, then *extend* the saved index with newly
   "published" genomes through the facade — the zero-rebuild growth
   path behind ``metacache-repro add``;
3. verify the punchline: the extended database is byte-identical to
   a from-scratch build of the full collection;
4. classify reads drawn from both waves of genomes against it.

Run:  python examples/incremental_index.py
"""

import tempfile
from pathlib import Path

from repro.api import DatabaseBuilder, MetaCache
from repro.genomics import GenomeSimulator, ReadSimulator
from repro.genomics.reads import HISEQ
from repro.taxonomy import build_taxonomy_for_genomes


def main() -> None:
    # -- 0. two "waves" of reference genomes -------------------------------
    print("simulating reference genomes (wave 1 + wave 2) ...")
    genomes = GenomeSimulator(seed=11).simulate_collection(
        n_genera=8, species_per_genus=2, genome_length=30_000
    )
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    references = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]
    wave1, wave2 = references[:10], references[10:]
    print(f"  wave 1: {len(wave1)} genomes, wave 2: {len(wave2)} genomes")

    # -- 1. stream wave 1 through a DatabaseBuilder ------------------------
    print("building the initial index incrementally ...")
    builder = DatabaseBuilder(taxonomy, n_partitions=2)
    for name, codes, taxon in wave1:            # any stream: O(1) memory
        builder.add_reference(name, codes, taxon)
    db = builder.finalize()
    stats = builder.stats                       # final accounting snapshot
    print(
        f"  {stats.summary()}\n"
        f"  features kept: {stats.features_kept_fraction:.1%} "
        f"(dropped at the per-feature location cap: "
        f"{stats.features_dropped})"
    )

    with tempfile.TemporaryDirectory(prefix="incremental-") as tmp:
        tmp = Path(tmp)
        MetaCache(db).save(tmp / "db")

        # -- 2. wave 2 lands: extend the saved index -----------------------
        print("extending the saved index with wave 2 (no rebuild) ...")
        mc = MetaCache.open(tmp / "db")
        mc.extend(references=wave2)
        mc.save(tmp / "db_extended")
        print(f"  now {mc.n_targets} targets")

        # -- 3. byte-identical to a from-scratch build ---------------------
        MetaCache.ephemeral(references, taxonomy, n_partitions=2).save(
            tmp / "db_fromscratch"
        )
        diverged = [
            p.name
            for p in sorted((tmp / "db_fromscratch").iterdir())
            if p.read_bytes() != (tmp / "db_extended" / p.name).read_bytes()
        ]
        assert not diverged, diverged
        print(
            "  extended index is byte-identical to a from-scratch build "
            f"({len(list((tmp / 'db_extended').iterdir()))} files compared)"
        )

        # -- 4. classify a sample spanning both waves ----------------------
        reads = ReadSimulator(genomes, seed=3).simulate(HISEQ, 500)
        run = mc.session().classify(reads.sequences)
        print(
            f"  classified {run.n_classified}/{len(reads)} reads "
            "against the extended index"
        )
        mc.close()


if __name__ == "__main__":
    main()
