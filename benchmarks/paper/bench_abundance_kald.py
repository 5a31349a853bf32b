"""Section 6.5's KAL_D abundance experiment.

Paper: against the known meat ratios of the sausage sample,
MetaCache-GPU achieves 6.5% accumulated deviation with 2.5% false
positives; MetaCache-CPU 16.0% / 2.0%; Kraken2 21.4% / 7.5%.

Mini version: the KAL_D-like paired reads are drawn from four "food"
genomes at 50/25/15/10 ratios; every method estimates species-level
abundances against the afs-plus-mini database.
"""

import numpy as np

from repro.baselines.kraken2 import Kraken2Classifier
from repro.baselines.metacache_cpu import MetaCacheCpu
from repro.core.abundance import abundance_deviation, estimate_abundances
from repro.core.classify import classify_reads
from repro.core.query import query_database
from repro.taxonomy.ranks import Rank

from paper.bench.runners import build_gpu_database, kraken2_params, paper_params
from paper.bench.tables import render_table
from paper.bench.workloads import afs_plus_mini, kald_mini


def _run_all():
    refset = afs_plus_mini()
    ds = kald_mini()
    reads = ds.reads
    truth_by_target = {}
    # reconstruct the community's true species-level fractions
    targets, counts = np.unique(reads.true_target, return_counts=True)
    total = counts.sum()
    truth = {
        refset.taxa.species_taxon[int(t)]: c / total
        for t, c in zip(targets, counts)
    }

    results = {}
    db = build_gpu_database(refset, 4)
    cls = classify_reads(
        db, query_database(db, reads.sequences, mates=reads.mates).candidates
    )
    est = estimate_abundances(refset.taxonomy, cls, Rank.SPECIES)
    results["MC 4 GPUs"] = abundance_deviation(est, truth)

    cpu = MetaCacheCpu(refset.taxonomy, paper_params()).build(refset.references)
    est = estimate_abundances(
        refset.taxonomy, cpu.classify(reads.sequences, mates=reads.mates),
        Rank.SPECIES,
    )
    results["MC CPU"] = abundance_deviation(est, truth)

    k2 = Kraken2Classifier(refset.taxonomy, kraken2_params()).build(refset.references)
    est = estimate_abundances(
        refset.taxonomy, k2.classify(reads.sequences, mates=reads.mates),
        Rank.SPECIES,
    )
    results["Kraken2*"] = abundance_deviation(est, truth)
    return results


def test_abundance_estimation_kald(benchmark, report):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    paper = {"MC 4 GPUs": (6.5, 2.5), "MC CPU": (16.0, 2.0), "Kraken2*": (21.4, 7.5)}
    rows = [
        [m, f"{100 * dev:.1f}%", f"{100 * fp:.1f}%",
         f"{paper[m][0]:.1f}%", f"{paper[m][1]:.1f}%"]
        for m, (dev, fp) in results.items()
    ]
    report(
        render_table(
            "KAL_D abundance estimation (measured | paper)",
            ["Method", "Deviation", "False pos.", "Paper dev.", "Paper FP"],
            rows,
        )
    )
    dev_gpu, fp_gpu = results["MC 4 GPUs"]
    dev_k2, fp_k2 = results["Kraken2*"]
    # MetaCache recovers the mixture closely and beats Kraken2*
    assert dev_gpu < 0.15
    assert dev_gpu <= dev_k2 + 0.02
    assert fp_gpu < 0.10
