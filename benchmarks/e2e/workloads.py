"""The two workloads: what is generated, how it is served, and why.

A workload is one set of inputs (reference collection + read set +
request shape).  Sizes are fixed here and nowhere else; ``scaled``
shrinks one for the smoke test.  The *why* of each workload is the
``why`` in ``BENCHMARK.json`` and the README's workload table.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "FIRST_BATCH_READS"]

#: reads classified by the "first batch" that ends time-to-query
FIRST_BATCH_READS = 4096


@dataclass(frozen=True)
class Workload:
    """Sizes and settings of one workload (everything else is default)."""

    name: str
    # reference collection
    n_genera: int
    species_per_genus: int
    genome_length: int
    species_divergence: float
    # read set: drawn from `n_members` strains of reference species
    n_reads: int
    paired: bool
    n_members: int
    strain_divergence: float
    # serving: reads per request, open-loop arrival rate, latency limit
    request_reads: int
    open_rate: float
    limit_ms: float
    # accuracy floors (a correctness check, not a tuning target)
    min_sensitivity: float = 0.0
    min_precision: float = 0.0

    @property
    def n_targets(self) -> int:
        return self.n_genera * self.species_per_genus

    def scaled(self, scale: float) -> "Workload":
        """The same shape at ``scale`` of the bases and reads."""
        if scale == 1.0:
            return self
        return dataclasses.replace(
            self,
            # genomes must stay long enough for a few full windows
            genome_length=max(4000, int(self.genome_length * scale)),
            # and the read set large enough to fill a few requests
            n_reads=max(1024, int(self.n_reads * scale)),
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sparse-se",
            n_genera=16,
            species_per_genus=3,
            genome_length=60_000,
            species_divergence=0.03,
            n_reads=24_000,
            paired=False,
            n_members=10,
            strain_divergence=0.015,
            request_reads=8,
            open_rate=100.0,
            limit_ms=25.0,
            min_sensitivity=0.70,
            min_precision=0.95,
        ),
        Workload(
            name="dense-pe",
            n_genera=4,
            species_per_genus=32,
            genome_length=20_000,
            species_divergence=0.03,
            n_reads=10_000,
            paired=True,
            n_members=128,
            strain_divergence=0.005,
            request_reads=64,
            open_rate=48.0,
            limit_ms=60.0,
            min_sensitivity=0.75,
            min_precision=0.95,
        ),
    )
}
