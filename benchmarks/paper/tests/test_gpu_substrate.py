"""Tests for the GPU simulation substrate (device, memory, streams,
warp primitives, topology, cost model)."""

import numpy as np
import pytest

from paper.gpu.costmodel import DGX1_COST_MODEL, WorkloadShape
from paper.gpu.device import DGX1_SPECS, Device, V100_32GB
from paper.gpu.memory import MemoryPool, OutOfDeviceMemory
from paper.gpu.stream import Event, Stream
from paper.gpu.topology import MultiGpuNode
from paper.gpu.warp import (
    WARP_SIZE,
    ballot,
    segmented_reduce_sum,
    shfl_down,
    shfl_up,
    shfl_xor,
    warp_max,
    warp_min,
    warp_sum,
)


class TestDevice:
    def test_v100_spec(self):
        assert V100_32GB.memory_bytes == 32 * 1024**3
        assert len(DGX1_SPECS) == 8

    def test_device_memory_enforced(self):
        d = Device(device_id=0)
        d.memory.alloc("big", 30 * 1024**3)
        with pytest.raises(OutOfDeviceMemory):
            d.memory.alloc("too-much", 3 * 1024**3)

    def test_streams_unique(self):
        d = Device(device_id=1)
        s1, s2 = d.new_stream("a"), d.new_stream("b")
        assert s1 is not s2


class TestMemoryPool:
    def test_alloc_free(self):
        pool = MemoryPool(1000)
        pool.alloc("x", 600)
        assert pool.free_bytes == 400
        assert pool.free("x") == 600
        assert pool.free_bytes == 1000

    def test_duplicate_name(self):
        pool = MemoryPool(100)
        pool.alloc("x", 10)
        with pytest.raises(ValueError):
            pool.alloc("x", 10)

    def test_free_unknown(self):
        with pytest.raises(KeyError):
            MemoryPool(100).free("nope")

    def test_negative_alloc(self):
        with pytest.raises(ValueError):
            MemoryPool(100).alloc("x", -1)

    def test_would_fit(self):
        pool = MemoryPool(100)
        assert pool.would_fit(100)
        pool.alloc("x", 60)
        assert not pool.would_fit(50)


class TestStreams:
    def test_serial_ordering(self):
        s = Stream()
        assert s.enqueue("a", 1.0) == 1.0
        assert s.enqueue("b", 2.0) == 3.0
        assert s.busy_time == 3.0

    def test_earliest_start_gap(self):
        s = Stream()
        s.enqueue("a", 1.0)
        end = s.enqueue("b", 1.0, earliest_start=5.0)
        assert end == 6.0
        assert s.busy_time == 2.0  # gaps excluded

    def test_event_sync(self):
        a, b = Stream("a"), Stream("b")
        a.enqueue("work", 4.0)
        ev = a.record_event(Event("done"))
        b.enqueue("own", 1.0)
        b.wait_event(ev)
        assert b.enqueue("after", 1.0) == 5.0

    def test_wait_unrecorded_raises(self):
        with pytest.raises(RuntimeError):
            Stream().wait_event(Event("never"))

    def test_negative_duration(self):
        with pytest.raises(ValueError):
            Stream().enqueue("x", -1.0)

    def test_op_times(self):
        s = Stream()
        s.enqueue("copy", 1.0)
        s.enqueue("kernel", 2.0)
        s.enqueue("copy", 3.0)
        assert s.op_times("copy") == 4.0


class TestWarpPrimitives:
    def test_shfl_xor_roundtrip(self):
        v = np.arange(WARP_SIZE)
        assert np.array_equal(shfl_xor(shfl_xor(v, 5), 5), v)

    def test_shfl_xor_pairs(self):
        v = np.arange(WARP_SIZE)
        out = shfl_xor(v, 1)
        assert out[0] == 1 and out[1] == 0 and out[30] == 31

    def test_shfl_down_up(self):
        v = np.arange(WARP_SIZE)
        d = shfl_down(v, 4, fill=-1)
        assert d[0] == 4 and d[31] == -1
        u = shfl_up(v, 4, fill=-1)
        assert u[31] == 27 and u[0] == -1

    def test_wrong_lane_count(self):
        with pytest.raises(ValueError):
            shfl_xor(np.arange(16), 1)

    def test_ballot(self):
        p = np.zeros(WARP_SIZE, dtype=bool)
        p[0] = p[5] = True
        assert ballot(p) == (1 | (1 << 5))

    def test_reductions(self):
        rng = np.random.default_rng(0)
        v = rng.integers(0, 100, WARP_SIZE)
        assert (warp_min(v) == v.min()).all()
        assert (warp_max(v) == v.max()).all()
        assert (warp_sum(v) == v.sum()).all()

    def test_segmented_reduce(self):
        v = np.ones(WARP_SIZE, dtype=np.int64)
        heads = np.zeros(WARP_SIZE, dtype=bool)
        heads[0] = heads[10] = heads[20] = True
        out = segmented_reduce_sum(v, heads)
        assert out[0] == 10 and out[10] == 10 and out[20] == 12

    def test_segmented_reduce_single_lanes(self):
        v = np.arange(WARP_SIZE, dtype=np.int64)
        heads = np.ones(WARP_SIZE, dtype=bool)
        out = segmented_reduce_sum(v, heads)
        assert np.array_equal(out, v)


class TestTopology:
    def test_dgx1(self):
        node = MultiGpuNode.dgx1(8)
        assert node.n_gpus == 8
        assert node.ring_order() == list(range(8))

    def test_transfer_time(self):
        node = MultiGpuNode.dgx1(2)
        t = node.transfer_time(0, 1, 25_000_000_000)
        assert abs(t - 1.0) < 1e-9
        assert node.transfer_time(0, 0, 10**9) == 0.0

    def test_bad_gpu_count(self):
        with pytest.raises(ValueError):
            MultiGpuNode.dgx1(0)


class TestCostModel:
    """The calibrated model must reproduce the paper's shape."""

    BASES_REFSEQ = 74 * 10**9
    TARGETS_REFSEQ = 51_326
    BASES_AFS = 151 * 10**9
    TARGETS_AFS = 3_000_000  # AFS scaffolds dominate the target count

    HISEQ = WorkloadShape(
        n_reads=10_000_000,
        total_read_bases=int(10e6 * 92.3),
        windows_per_read=1.0,
        avg_locations_per_read=600,
        cpu_avg_locations_per_read=9,
    )

    def test_build_speedup_shape(self):
        m = DGX1_COST_MODEL
        t_gpu8 = m.build_time_gpu(self.BASES_REFSEQ, 8, self.TARGETS_REFSEQ)
        t_cpu = m.build_time_cpu(self.BASES_REFSEQ, self.TARGETS_REFSEQ)
        t_k2 = m.build_time_kraken2(self.BASES_REFSEQ, self.TARGETS_REFSEQ)
        # paper: 9.7 s vs 67 min vs ~72 min
        assert 5 < t_gpu8 < 30
        assert 3000 < t_cpu < 5000
        assert 3500 < t_k2 < 5500
        assert t_cpu / t_gpu8 > 100

    def test_afs_build_slower_per_byte(self):
        """AFS's scaffold-heavy genomes build >2x slower per byte."""
        m = DGX1_COST_MODEL
        per_byte_refseq = (
            m.build_time_gpu(self.BASES_REFSEQ, 8, self.TARGETS_REFSEQ)
            / self.BASES_REFSEQ
        )
        per_byte_afs = (
            m.build_time_gpu(self.BASES_AFS, 8, self.TARGETS_AFS) / self.BASES_AFS
        )
        assert per_byte_afs > 2 * per_byte_refseq

    def test_build_scales_with_gpus(self):
        m = DGX1_COST_MODEL
        assert m.build_time_gpu(self.BASES_REFSEQ, 8) <= m.build_time_gpu(
            self.BASES_REFSEQ, 4
        )

    def test_ttq_speedup_two_orders(self):
        m = DGX1_COST_MODEL
        ttq_gpu = m.time_to_query_gpu_otf(self.BASES_REFSEQ, 8, self.TARGETS_REFSEQ)
        ttq_k2 = m.time_to_query_kraken2(self.BASES_REFSEQ, self.TARGETS_REFSEQ)
        speedup = ttq_k2 / ttq_gpu
        # paper: 450x
        assert 200 < speedup < 900

    def test_query_gpu_beats_all(self):
        m = DGX1_COST_MODEL
        t_gpu = m.query_time_gpu(self.HISEQ, 8)
        t_cpu = m.query_time_cpu(self.HISEQ)
        t_k2 = m.query_time_kraken2(self.HISEQ)
        assert t_gpu < t_k2 < t_cpu  # paper Table 4, HiSeq/RefSeq ordering

    def test_otf_slower_than_condensed_query(self):
        m = DGX1_COST_MODEL
        assert m.query_time_gpu(self.HISEQ, 8, on_the_fly=True) > m.query_time_gpu(
            self.HISEQ, 8
        )

    def test_breakdown_segsort_dominates(self):
        m = DGX1_COST_MODEL
        shape = WorkloadShape(
            n_reads=26_114_376,
            total_read_bases=int(26_114_376 * 202),
            windows_per_read=2.0,
            avg_locations_per_read=1500,
        )
        bd = m.query_stage_breakdown(shape, 8)
        loc_stages = {k: v for k, v in bd.items() if k != "sketch_query"}
        assert bd["segmented_sort"] == max(loc_stages.values())

    def test_db_sizes_ordering(self):
        m = DGX1_COST_MODEL
        # paper Table 3: Kraken2 40 GB < MC CPU 51 GB < MC GPU 88-97 GB
        k2 = m.db_bytes_kraken2(self.BASES_REFSEQ)
        cpu = m.db_bytes_cpu(self.BASES_REFSEQ)
        gpu4 = m.db_bytes_gpu(self.BASES_REFSEQ, 4)
        gpu8 = m.db_bytes_gpu(self.BASES_REFSEQ, 8)
        assert k2 < cpu < gpu4 < gpu8
