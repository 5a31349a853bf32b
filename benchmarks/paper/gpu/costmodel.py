"""Analytical performance model calibrated to the paper's DGX-1.

The sandbox cannot run a DGX-1 workload (74 GB of genomes, 10M reads,
8 V100s), so the bench harness reports two kinds of numbers for the
timing tables:

1. *measured* wall-clock of this repo's implementations on mini-scale
   workloads -- real, but thousands of times smaller than the paper;
2. *projected* times from this model at full paper scale.

The model is a small set of throughput constants with the structure
of the system (pipeline stages, multi-GPU scaling, disk phases) made
explicit.  Constants are calibrated once against Tables 3-5 (the
calibration is data, not a claim of independent measurement -- see
EXPERIMENTS.md); the model then *reproduces the shape*: who wins,
crossovers, how on-the-fly mode changes time-to-query, and the Fig. 5
stage breakdown.

Structural observations encoded in the model (derived from the paper):

- GPU build barely speeds up from 4 to 8 GPUs on RefSeq202 (10.4 s ->
  9.7 s): the build is bounded by host-side parsing/IO, not insertion.
- AFS31+RefSeq202 builds ~4x slower per byte everywhere: its genomes
  arrive as hundreds of thousands of scaffold targets, so per-target
  overhead (taxonomy linkage, window bookkeeping) matters; all three
  builders carry a per-target cost constant.
- GPU query is bound by sketch generation on the *first* device of
  the ring (Fig. 2) -- it does not scale with GPU count -- plus
  location-list processing, which does scale.
- Kraken2 queries scale with read bases only (no location lists),
  explaining its insensitivity to database size (Section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from paper.gpu.device import DeviceSpec, V100_32GB

__all__ = ["HostSpec", "CostModel", "DGX1_HOST", "DGX1_COST_MODEL", "WorkloadShape"]


@dataclass(frozen=True)
class HostSpec:
    """Host-side machine properties (DGX-1: dual Xeon E5-2698 v4)."""

    name: str
    cores: int
    threads: int
    ram_bytes: int
    fs_write_bw: float  # bytes/s to the (RAM-drive) file system
    fs_read_bw: float


DGX1_HOST = HostSpec(
    name="Dual Xeon E5-2698 v4, 512 GB DDR4",
    cores=40,
    threads=80,
    ram_bytes=512 * 1024**3,
    fs_write_bw=1.8e9,
    fs_read_bw=1.9e9,
)


@dataclass(frozen=True)
class WorkloadShape:
    """Scale-independent description of a query workload.

    ``avg_locations_per_read`` describes the GPU database; the CPU
    database stores far fewer locations (one partition, the global
    254-per-feature cap, different merge behaviour -- Section 6.5),
    so its effective value is a separate fit
    (``cpu_avg_locations_per_read``, defaulting to the GPU value).
    """

    n_reads: int  # reads or read pairs
    total_read_bases: int  # all bases across reads (and mates)
    windows_per_read: float = 1.0  # sketches per read (MiSeq ~2)
    avg_locations_per_read: float = 50.0  # retrieved locations per read
    cpu_avg_locations_per_read: float | None = None

    @property
    def cpu_locations(self) -> float:
        if self.cpu_avg_locations_per_read is None:
            return self.avg_locations_per_read
        return self.cpu_avg_locations_per_read


@dataclass(frozen=True)
class CostModel:
    """Calibrated throughput model for one DGX-1-like node."""

    device: DeviceSpec = V100_32GB
    host: HostSpec = DGX1_HOST

    # --- build-phase rates
    gpu_insert_rate: float = 2.8e8  # features/s per GPU (insert kernel)
    host_parse_rate: float = 1.0e10  # bases/s (producers, RAM drive)
    gpu_per_target_cost: float = 1.0e-5  # s/target (host bookkeeping)
    build_startup: float = 1.5  # s (allocation, taxonomy)
    cpu_insert_rate: float = 2.7e6  # features/s, single hashing thread
    cpu_per_target_cost: float = 1.2e-3  # s/target (single consumer)
    kraken2_build_rate: float = 1.75e7  # bases/s with 80 threads
    kraken2_per_target_cost: float = 2.2e-3  # s/target
    sketch_stride: int = 112
    sketch_size: int = 16

    # --- query-phase rates
    gpu_query_base_rate: float = 7.8e8  # read bases/s on the first GPU
    gpu_location_rate: float = 0.92e9  # locations/s per GPU (steps 5-8)
    query_startup: float = 0.25
    otf_query_penalty: float = 1.25  # build-layout probing is ~20% slower
    #: share of location processing per stage (Fig. 5)
    location_stage_shares: dict = field(
        default_factory=lambda: {
            "compact": 0.14,
            "segmented_sort": 0.60,
            "window_count_top": 0.26,
        }
    )
    cpu_window_rate: float = 1.4e6  # read windows/s (MC CPU, 80 threads)
    cpu_location_rate: float = 2.1e7  # locations/s (merge + scan)
    kraken2_query_base_rate: float = 2.0e8  # read bases/s, 80 threads
    kraken2_load_rate: float = 1.75e9  # bytes/s loading its index

    # --- database size factors (bytes per reference base)
    gpu_db_bytes_per_base: float = 1.19  # 4-partition layout
    gpu_db_bytes_per_base_8: float = 1.31  # more partitions -> duplication
    cpu_db_bytes_per_base: float = 0.69
    kraken2_db_bytes_per_base: float = 0.54

    # ------------------------------------------------------------------ build

    def features_of(self, total_bases: int) -> float:
        """Sketch features a reference set generates."""
        return total_bases / self.sketch_stride * self.sketch_size

    def build_time_gpu(self, total_bases: int, n_gpus: int, n_targets: int = 0) -> float:
        """In-memory multi-GPU build (Table 3 'build time').

        Parsing, PCIe copies and insertion overlap in the stream
        pipeline, so the compute bound is their maximum; per-target
        host bookkeeping does not overlap (single taxonomy structure).
        """
        features = self.features_of(total_bases)
        t_insert = features / (self.gpu_insert_rate * n_gpus)
        t_copy = total_bases / (self.device.pcie_bw * min(n_gpus, 4))
        t_parse = total_bases / self.host_parse_rate
        return (
            max(t_insert, t_copy, t_parse)
            + n_targets * self.gpu_per_target_cost
            + self.build_startup
        )

    def build_time_cpu(self, total_bases: int, n_targets: int = 0) -> float:
        """MetaCache CPU build: hash table bound to one consumer thread."""
        return (
            self.features_of(total_bases) / self.cpu_insert_rate
            + n_targets * self.cpu_per_target_cost
            + 5.0
        )

    def build_time_kraken2(self, total_bases: int, n_targets: int = 0) -> float:
        return (
            total_bases / self.kraken2_build_rate
            + n_targets * self.kraken2_per_target_cost
            + 10.0
        )

    def db_bytes_gpu(self, total_bases: int, n_gpus: int) -> int:
        f = self.gpu_db_bytes_per_base if n_gpus <= 4 else self.gpu_db_bytes_per_base_8
        return int(total_bases * f)

    def db_bytes_cpu(self, total_bases: int) -> int:
        return int(total_bases * self.cpu_db_bytes_per_base)

    def db_bytes_kraken2(self, total_bases: int) -> int:
        return int(total_bases * self.kraken2_db_bytes_per_base)

    def write_time(self, db_bytes: int) -> float:
        return db_bytes / self.host.fs_write_bw

    def load_time(self, db_bytes: int) -> float:
        return db_bytes / self.host.fs_read_bw

    # ------------------------------------------------------------------ query

    def query_time_gpu(
        self, shape: WorkloadShape, n_gpus: int, on_the_fly: bool = False
    ) -> float:
        """Multi-GPU query time (Table 4).

        Sketches are generated on the ring's first device (no GPU
        scaling); location processing distributes across devices.
        """
        t_sketch = shape.total_read_bases / self.gpu_query_base_rate
        locations = shape.n_reads * shape.avg_locations_per_read
        t_loc = locations / (self.gpu_location_rate * n_gpus)
        if on_the_fly:
            t_loc *= self.otf_query_penalty
        return t_sketch + t_loc + self.query_startup

    def query_stage_breakdown(
        self, shape: WorkloadShape, n_gpus: int
    ) -> dict[str, float]:
        """Fig. 5: absolute seconds per pipeline stage."""
        t_sketch = shape.total_read_bases / self.gpu_query_base_rate
        locations = shape.n_reads * shape.avg_locations_per_read
        t_loc = locations / (self.gpu_location_rate * n_gpus)
        out = {"sketch_query": t_sketch}
        for stage, share in self.location_stage_shares.items():
            out[stage] = t_loc * share
        return out

    def query_time_cpu(self, shape: WorkloadShape) -> float:
        """MetaCache CPU query: location merging dominates on big DBs."""
        windows = shape.n_reads * shape.windows_per_read
        t_windows = windows / self.cpu_window_rate
        t_loc = shape.n_reads * shape.cpu_locations / self.cpu_location_rate
        return t_windows + t_loc

    def query_time_kraken2(self, shape: WorkloadShape) -> float:
        """Kraken2 queries scale with bases, insensitive to DB size."""
        return shape.total_read_bases / self.kraken2_query_base_rate + 0.5

    # ----------------------------------------------------------- time-to-query

    def time_to_query_gpu_otf(
        self, total_bases: int, n_gpus: int, n_targets: int = 0
    ) -> float:
        """Table 5: on-the-fly mode = build only, no write/load."""
        return self.build_time_gpu(total_bases, n_gpus, n_targets)

    def time_to_query_gpu_write_load(
        self, total_bases: int, n_gpus: int, n_targets: int = 0
    ) -> float:
        db = self.db_bytes_gpu(total_bases, n_gpus)
        return (
            self.build_time_gpu(total_bases, n_gpus, n_targets)
            + self.write_time(db)
            + self.load_time(db)
        )

    def time_to_query_cpu_otf(self, total_bases: int, n_targets: int = 0) -> float:
        return self.build_time_cpu(total_bases, n_targets)

    def time_to_query_kraken2(self, total_bases: int, n_targets: int = 0) -> float:
        db = self.db_bytes_kraken2(total_bases)
        return self.build_time_kraken2(total_bases, n_targets) + db / self.kraken2_load_rate


DGX1_COST_MODEL = CostModel()
