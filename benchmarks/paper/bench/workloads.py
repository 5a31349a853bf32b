"""Benchmark workloads: mini-scale data + paper-scale descriptors.

The mini reference sets reproduce the *structure* of the paper's two
databases (Table 1):

- ``refseq_mini`` -- many moderately sized microbial genomes grouped
  into genera (stand-in for the 15,461-species RefSeq202 set);
- ``afs_plus_mini`` -- refseq_mini plus a few much larger "food"
  genomes fragmented into dozens of scaffolds (stand-in for the 31
  AFS genomes whose scaffold counts stress the per-target path).

Read datasets mirror Table 2: HiSeq-like and MiSeq-like single-end
mock communities with strain-level divergence from the database
genomes, and a KAL_D-like paired-end meat mixture with known ratios.

Every workload also carries the *paper-scale* descriptor used by the
cost-model projections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.genomics.community import CommunityMember, MockCommunity
from repro.genomics.reads import HISEQ, KAL_D, MISEQ, SimulatedReads
from repro.genomics.simulate import GenomeSimulator, SimulatedGenome
from repro.taxonomy.builder import GenomeTaxa, build_taxonomy_for_genomes
from repro.taxonomy.tree import Taxonomy

from paper.gpu.costmodel import WorkloadShape

__all__ = [
    "PaperScaleDb",
    "ReferenceSet",
    "ReadDataset",
    "refseq_mini",
    "afs_plus_mini",
    "hiseq_mini",
    "miseq_mini",
    "kald_mini",
    "PAPER_REFSEQ",
    "PAPER_AFS",
]


@dataclass(frozen=True)
class PaperScaleDb:
    """Paper-scale database descriptor (Table 1 row) for projections."""

    name: str
    species: int
    total_bases: int
    n_targets: int


#: Table 1: RefSeq 202 -- 15,461 species, 74 GB
PAPER_REFSEQ = PaperScaleDb(
    name="RefSeq 202", species=15_461, total_bases=74 * 10**9, n_targets=51_326
)
#: Table 1: AFS 31 + RefSeq 202 -- 15,492 species, 151 GB; the AFS
#: genomes are scaffold-level drafts, so targets number in the millions
PAPER_AFS = PaperScaleDb(
    name="AFS 31 + RefSeq 202",
    species=15_492,
    total_bases=151 * 10**9,
    n_targets=3_000_000,
)


@dataclass
class ReferenceSet:
    """A reference genome collection ready for database builds."""

    name: str
    genomes: list[SimulatedGenome]
    taxonomy: Taxonomy
    taxa: GenomeTaxa
    paper: PaperScaleDb

    @property
    def references(self) -> list[tuple[str, np.ndarray, int]]:
        """Per-*scaffold* reference triples (each scaffold = a target)."""
        refs: list[tuple[str, np.ndarray, int]] = []
        for i, g in enumerate(self.genomes):
            taxon = self.taxa.target_taxon[i]
            if len(g.scaffolds) == 1:
                refs.append((g.name, g.scaffolds[0], taxon))
            else:
                for s, scaffold in enumerate(g.scaffolds):
                    refs.append((f"{g.name} scaffold {s}", scaffold, taxon))
        return refs

    @property
    def total_bases(self) -> int:
        return sum(g.length for g in self.genomes)

    @property
    def n_species(self) -> int:
        return len({g.species for g in self.genomes})

    @property
    def n_targets(self) -> int:
        return sum(len(g.scaffolds) for g in self.genomes)


@dataclass
class ReadDataset:
    """A query read set with ground truth + projection shapes."""

    name: str
    reads: SimulatedReads
    refset: ReferenceSet
    #: cost-model shapes per paper database name
    paper_shapes: dict[str, WorkloadShape] = field(default_factory=dict)

    @property
    def true_species(self) -> np.ndarray:
        return np.array(
            [self.refset.taxa.species_taxon[t] for t in self.reads.true_target]
        )

    @property
    def true_genus(self) -> np.ndarray:
        return np.array(
            [self.refset.taxa.genus_taxon[t] for t in self.reads.true_target]
        )


# --------------------------------------------------------------------------
# reference sets


@lru_cache(maxsize=4)
def refseq_mini(
    n_genera: int = 16, species_per_genus: int = 3, genome_length: int = 40_000
) -> ReferenceSet:
    """The RefSeq202 stand-in: a genus-structured microbial collection."""
    sim = GenomeSimulator(seed=101)
    genomes = sim.simulate_collection(
        n_genera=n_genera,
        species_per_genus=species_per_genus,
        genome_length=genome_length,
        name_prefix="RSQ",
    )
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    return ReferenceSet(
        name="refseq-mini",
        genomes=genomes,
        taxonomy=taxonomy,
        taxa=taxa,
        paper=PAPER_REFSEQ,
    )


@lru_cache(maxsize=4)
def afs_plus_mini(n_food_genomes: int = 4, food_length: int = 250_000) -> ReferenceSet:
    """AFS31+RefSeq202 stand-in: refseq_mini + large scaffolded genomes."""
    base = refseq_mini()
    sim = GenomeSimulator(seed=202)
    food_names = ["cow", "sheep", "pig", "horse", "chicken", "turkey"]
    genomes = list(base.genomes)
    next_genus = max(g.genus for g in genomes) + 1
    next_species = max(g.species for g in genomes) + 1
    for i in range(n_food_genomes):
        genomes.append(
            sim.simulate_scaffolded_genome(
                total_length=food_length,
                n_scaffolds=40,
                name=f"AFS {food_names[i]}",
                accession=f"AFS_{food_names[i].upper()}",
                genus=next_genus + i,
                species=next_species + i,
            )
        )
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    return ReferenceSet(
        name="afs-plus-mini",
        genomes=genomes,
        taxonomy=taxonomy,
        taxa=taxa,
        paper=PAPER_AFS,
    )


# --------------------------------------------------------------------------
# read datasets (paper-scale shapes: see EXPERIMENTS.md "calibration"
# -- avg_locations_per_read values are fits to Table 4, not measurements)

_PAPER_HISEQ = {
    "RefSeq 202": WorkloadShape(
        n_reads=10_000_000,
        total_read_bases=int(10e6 * 92.3),
        windows_per_read=1.0,
        avg_locations_per_read=600,
        cpu_avg_locations_per_read=9,
    ),
    "AFS 31 + RefSeq 202": WorkloadShape(
        n_reads=10_000_000,
        total_read_bases=int(10e6 * 92.3),
        windows_per_read=1.0,
        avg_locations_per_read=600,
        cpu_avg_locations_per_read=210,
    ),
}
_PAPER_MISEQ = {
    "RefSeq 202": WorkloadShape(
        n_reads=10_000_000,
        total_read_bases=int(10e6 * 156.8),
        windows_per_read=2.0,
        avg_locations_per_read=560,
        cpu_avg_locations_per_read=35,
    ),
    "AFS 31 + RefSeq 202": WorkloadShape(
        n_reads=10_000_000,
        total_read_bases=int(10e6 * 156.8),
        windows_per_read=2.0,
        avg_locations_per_read=545,
        cpu_avg_locations_per_read=945,
    ),
}
_PAPER_KALD = {
    "RefSeq 202": WorkloadShape(
        n_reads=26_114_376,
        total_read_bases=int(26_114_376 * 202),
        windows_per_read=2.0,
        avg_locations_per_read=130,
        cpu_avg_locations_per_read=1.3,
    ),
    "AFS 31 + RefSeq 202": WorkloadShape(
        n_reads=26_114_376,
        total_read_bases=int(26_114_376 * 202),
        windows_per_read=2.0,
        avg_locations_per_read=1585,
        cpu_avg_locations_per_read=160,
    ),
}


@lru_cache(maxsize=4)
def hiseq_mini(n_reads: int = 4000) -> ReadDataset:
    """HiSeq-like mock community over refseq_mini (10 member species)."""
    refset = refseq_mini()
    members = list(range(0, 30, 3))[:10]  # 10 spread-out genomes
    # 3% strain divergence puts reads in the same
    # harder-than-reference regime as the paper's mock communities
    # (sequenced strains differ from the deposited genomes)
    com = MockCommunity.uniform(
        refset.genomes, members, seed=77, strain_divergence=0.03
    )
    reads = com.simulate_reads(HISEQ, n_reads)
    return ReadDataset(
        name="HiSeq", reads=reads, refset=refset, paper_shapes=_PAPER_HISEQ
    )


@lru_cache(maxsize=4)
def miseq_mini(n_reads: int = 4000) -> ReadDataset:
    """MiSeq-like mock community (longer reads, two windows each)."""
    refset = refseq_mini()
    members = list(range(1, 31, 3))[:10]
    com = MockCommunity.uniform(
        refset.genomes, members, seed=78, strain_divergence=0.03
    )
    reads = com.simulate_reads(MISEQ, n_reads)
    return ReadDataset(
        name="MiSeq", reads=reads, refset=refset, paper_shapes=_PAPER_MISEQ
    )


@lru_cache(maxsize=4)
def kald_mini(n_reads: int = 3000) -> ReadDataset:
    """KAL_D-like paired-end meat mixture over afs_plus_mini.

    The paper's sausage: beef, mutton, pork, horse at known ratios;
    here the four food genomes at 50/25/15/10.
    """
    refset = afs_plus_mini()
    food_idx = [i for i, g in enumerate(refset.genomes) if g.name.startswith("AFS")]
    ratios = [0.50, 0.25, 0.15, 0.10]
    com = MockCommunity(
        refset.genomes,
        members=[
            CommunityMember(i, r) for i, r in zip(food_idx, ratios)
        ],
        seed=79,
        strain_divergence=0.005,
    )
    reads = com.simulate_reads(KAL_D, n_reads)
    return ReadDataset(
        name="KAL_D", reads=reads, refset=refset, paper_shapes=_PAPER_KALD
    )
