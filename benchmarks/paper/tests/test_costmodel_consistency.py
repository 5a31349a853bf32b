"""Cost-model consistency: projections must reproduce the paper's
published numbers within stated tolerances.

These tests pin the calibration: if someone retunes a constant and
silently breaks a Table 3/4/5 agreement, the suite catches it.  Each
test names the paper value it guards.
"""

import pytest

from paper.bench.workloads import (
    PAPER_AFS,
    PAPER_REFSEQ,
    hiseq_mini,
    kald_mini,
    miseq_mini,
)
from paper.gpu.costmodel import DGX1_COST_MODEL as M


def within(value, target, tolerance):
    return target * (1 - tolerance) <= value <= target * (1 + tolerance)


class TestTable3Projections:
    B, T = PAPER_REFSEQ.total_bases, PAPER_REFSEQ.n_targets
    BA, TA = PAPER_AFS.total_bases, PAPER_AFS.n_targets

    def test_gpu8_build(self):
        assert within(M.build_time_gpu(self.B, 8, self.T), 9.7, 0.25)

    def test_gpu4_build(self):
        assert within(M.build_time_gpu(self.B, 4, self.T), 10.4, 0.25)

    def test_cpu_build(self):
        assert within(M.build_time_cpu(self.B, self.T), 67 * 60, 0.15)

    def test_kraken2_total(self):
        assert within(M.build_time_kraken2(self.B, self.T), 72 * 60, 0.15)

    def test_afs_gpu8_build(self):
        assert within(M.build_time_gpu(self.BA, 8, self.TA), 42.7, 0.25)

    def test_afs_cpu_build(self):
        assert within(M.build_time_cpu(self.BA, self.TA), 194 * 60, 0.15)

    def test_afs_kraken2_build(self):
        assert within(M.build_time_kraken2(self.BA, self.TA), 256 * 60, 0.15)

    def test_db_sizes(self):
        assert within(M.db_bytes_gpu(self.B, 4), 88e9, 0.15)
        assert within(M.db_bytes_gpu(self.B, 8), 97e9, 0.15)
        assert within(M.db_bytes_cpu(self.B), 51e9, 0.15)
        assert within(M.db_bytes_kraken2(self.B), 40e9, 0.15)


class TestTable4Projections:
    """Query times; paper values in seconds (Table 4)."""

    def test_hiseq_refseq(self):
        shape = hiseq_mini().paper_shapes[PAPER_REFSEQ.name]
        assert within(M.query_time_gpu(shape, 8), 2.0, 0.35)
        assert within(M.query_time_cpu(shape), 11.4, 0.30)
        assert within(M.query_time_kraken2(shape), 4.6, 0.30)

    def test_miseq_refseq(self):
        shape = miseq_mini().paper_shapes[PAPER_REFSEQ.name]
        assert within(M.query_time_gpu(shape, 8), 2.8, 0.35)
        assert within(M.query_time_cpu(shape), 31.2, 0.30)

    def test_hiseq_afs_cpu_collapse(self):
        """Paper: MC CPU drops to 5.6 Mreads/min on the AFS DB."""
        shape = hiseq_mini().paper_shapes[PAPER_AFS.name]
        t = M.query_time_cpu(shape)
        speed = shape.n_reads / t / 1e6 * 60
        assert within(speed, 5.6, 0.35)

    def test_kald_gpu8_afs(self):
        shape = kald_mini().paper_shapes[PAPER_AFS.name]
        assert within(M.query_time_gpu(shape, 8), 12.6, 0.35)

    def test_kraken2_db_insensitive(self):
        """Kraken2 query time identical across database sizes."""
        a = hiseq_mini().paper_shapes[PAPER_REFSEQ.name]
        b = hiseq_mini().paper_shapes[PAPER_AFS.name]
        assert M.query_time_kraken2(a) == M.query_time_kraken2(b)


class TestTable5Projections:
    def test_refseq_ttq_speedups(self):
        B, T = PAPER_REFSEQ.total_bases, PAPER_REFSEQ.n_targets
        k2 = M.time_to_query_kraken2(B, T)
        assert within(k2 / M.time_to_query_gpu_otf(B, 8, T), 450, 0.25)
        assert within(k2 / M.time_to_query_gpu_otf(B, 4, T), 420, 0.25)

    def test_afs_ttq_speedup(self):
        B, T = PAPER_AFS.total_bases, PAPER_AFS.n_targets
        k2 = M.time_to_query_kraken2(B, T)
        assert within(k2 / M.time_to_query_gpu_otf(B, 8, T), 360, 0.25)

    def test_write_load_roundtrip(self):
        """Fig. 4: load time ~ build time for the GPU database."""
        B, T = PAPER_REFSEQ.total_bases, PAPER_REFSEQ.n_targets
        db = M.db_bytes_gpu(B, 8)
        # paper: "Loading the database takes almost the same time as
        # building it" -- within an order anyway, both tens of seconds
        assert 10 < M.load_time(db) < 120
        assert 10 < M.write_time(db) < 120
