"""Simulated CUDA substrate.

No CUDA/GPU exists in this environment, so the paper's device-side
machinery is reproduced as a *simulation substrate* with three layers:

1. **Resource model** (:mod:`repro.gpu.device`, :mod:`repro.gpu.memory`,
   :mod:`repro.gpu.stream`): devices with V100-like properties, memory
   accounting that enforces the 32 GB HBM limit (driving database
   partitioning exactly like the real system), and streams/events with
   simulated timelines so pipeline overlap is modeled like CUDA's.
2. **Warp-level kernel emulation** (:mod:`repro.gpu.warp`,
   :mod:`repro.gpu.kernels`): the cooperative algorithms of Section 5
   (shuffle-based encoding, register bitonic sort, size-binned
   segmented sort, segmented reduction, per-thread top lists)
   executed thread-by-thread on 32-lane NumPy vectors (the sort
   networks: across whole batch matrices).  Slow, but step-for-step
   faithful -- the tests cross-check them against the fast batch
   implementations.
3. **Cost model** (:mod:`repro.gpu.costmodel`): an analytical
   throughput model with constants calibrated against the paper's
   DGX-1 measurements, used by the bench harness to project mini-scale
   runs to paper-scale (Tables 3-5, Figures 4-5).

:mod:`repro.gpu.topology` + :mod:`repro.gpu.multi_gpu` model the
multi-GPU node and the ring-style sketch forwarding of Figure 2.

The substrate wraps :mod:`repro.core`, never the reverse (repro-lint
RL007): :func:`charge_partitions` charges a finished database's
partitions to simulated devices, and
:func:`repro.gpu.multi_gpu.ring_query` runs the production query
pipeline with a ring merge.
"""

from repro.gpu.device import (
    DeviceSpec,
    Device,
    V100_32GB,
    DGX1_SPECS,
    charge_partitions,
)
from repro.gpu.memory import MemoryPool, OutOfDeviceMemory
from repro.gpu.stream import Stream, Event
from repro.gpu.topology import MultiGpuNode
from repro.gpu.costmodel import CostModel, DGX1_COST_MODEL, HostSpec, DGX1_HOST
from repro.gpu.pipeline_sim import BatchPipelineSim, PipelineResult

__all__ = [
    "DeviceSpec",
    "Device",
    "V100_32GB",
    "DGX1_SPECS",
    "charge_partitions",
    "MemoryPool",
    "OutOfDeviceMemory",
    "Stream",
    "Event",
    "MultiGpuNode",
    "CostModel",
    "DGX1_COST_MODEL",
    "HostSpec",
    "DGX1_HOST",
    "BatchPipelineSim",
    "PipelineResult",
]
