#!/usr/bin/env python
"""Multi-GPU database distribution and on-the-fly operation.

Demonstrates the paper's operational story end to end, through the
:mod:`repro.api` facade plus the simulated GPU substrate, which wraps
the production code from outside (:mod:`paper.gpu`):

1. a reference set too big for one (artificially small) device forces
   partitioning -- the same reason AFS31+RefSeq202 needs 8 V100s
   (``charge_partitions`` charges a built database to devices);
2. ``MetaCache.ephemeral`` distributes targets across partitions and
   ``ring_query`` merges per-device top hits along the ring (Fig. 2),
   with results *identical* to a single-partition database;
3. on-the-fly mode makes the freshly built database queryable in one
   step, and the cost model projects what that buys on a real DGX-1.

Run:  PYTHONPATH=src:benchmarks python benchmarks/paper/multi_gpu_scaling.py
"""

import numpy as np

from repro.api import MetaCache
from repro.core.classify import classify_reads
from repro.genomics import GenomeSimulator, ReadSimulator
from repro.genomics.reads import HISEQ
from repro.pipeline.packed import PackedReads
from repro.taxonomy import build_taxonomy_for_genomes

from paper.gpu import DeviceSpec, MultiGpuNode, OutOfDeviceMemory, charge_partitions
from paper.gpu.costmodel import DGX1_COST_MODEL
from paper.gpu.multi_gpu import ring_query

# a deliberately tiny "GPU" so the mini reference set exceeds one device
TINY_GPU = DeviceSpec(
    name="tiny-sim-GPU",
    memory_bytes=4 * 1024**2,  # 4 MiB
    mem_bandwidth=900e9,
    sm_count=80,
    cores_per_sm=64,
    clock_hz=1.53e9,
    nvlink_bw=25e9,
    pcie_bw=16e9,
)


def main() -> None:
    genomes = GenomeSimulator(seed=3).simulate_collection(
        n_genera=12, species_per_genus=2, genome_length=40_000
    )
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    references = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i]) for i, g in enumerate(genomes)
    ]

    for n_gpus in (1, 2, 4):
        node = MultiGpuNode.dgx1(n_gpus, spec=TINY_GPU)
        with MetaCache.ephemeral(references, taxonomy, n_partitions=n_gpus) as mc:
            try:
                charge_partitions(mc.database, node.devices)
            except OutOfDeviceMemory as exc:
                print(f"{n_gpus} device(s): does not fit ({exc})")
                continue
            per_dev = [d.memory.allocated_bytes / 1e6 for d in node.devices]
            print(
                f"{n_gpus} devices: built in {mc.time_to_query:.2f} s, "
                f"per-device MB: {[f'{x:.1f}' for x in per_dev]}"
            )
            reads = ReadSimulator(genomes, seed=5).simulate(HISEQ, 500)
            result, trace = ring_query(
                node, mc.database, PackedReads.from_reads(reads.sequences)
            )
            cls = classify_reads(mc.database, result.candidates)
            print(
                f"  ring query classified {cls.n_classified}/500 reads "
                f"(stages: "
                + ", ".join(
                    f"{k} {v * 1e3:.0f}ms" for k, v in result.stages.stages.items()
                )
                + f"; simulated ring transfer "
                f"{trace.total_transfer_seconds * 1e6:.0f} us)"
            )

    # cross-check: partitioned result == single-partition result
    mc1 = MetaCache.ephemeral(references, taxonomy, n_partitions=1)
    mc4 = MetaCache.ephemeral(references, taxonomy, n_partitions=4)
    reads = ReadSimulator(genomes, seed=5).simulate(HISEQ, 500)
    c1 = mc1.classify(reads.sequences)
    c4 = mc4.classify(reads.sequences)
    assert np.array_equal(c1.classification.taxon, c4.classification.taxon)
    print("\npartitioned and single-partition classifications are identical")

    print("\nprojected on a real DGX-1 (RefSeq 202, 74 GB):")
    m = DGX1_COST_MODEL
    for n in (4, 8):
        t = m.build_time_gpu(74 * 10**9, n, 51_326)
        print(f"  {n} V100s: build {t:.1f} s -> queryable immediately (OTF)")
    t_cpu = m.build_time_cpu(74 * 10**9, 51_326)
    print(f"  CPU MetaCache needs {t_cpu / 60:.0f} min for the same build")


if __name__ == "__main__":
    main()
