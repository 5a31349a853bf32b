"""Multi-GPU node topology.

A DGX-1 connects its 8 V100s in a hybrid cube-mesh of NVLink links;
WarpCore's multi-GPU extension [19] provides all-to-all exchange over
such dense topologies.  For the pipeline semantics only two things
matter -- which devices exist, and how fast peers exchange data -- so
the model is a node of ``Device`` objects with a peer-bandwidth
matrix (NVLink between peers, PCIe as fallback).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from paper.gpu.device import Device, DeviceSpec, V100_32GB

__all__ = ["MultiGpuNode"]


@dataclass
class MultiGpuNode:
    """A single machine with ``n`` simulated GPUs."""

    devices: list[Device]
    link_bw: np.ndarray  # (n, n) peer bytes/s; diagonal unused

    @classmethod
    def dgx1(cls, n_gpus: int = 8, spec: DeviceSpec = V100_32GB) -> "MultiGpuNode":
        """DGX-1-like node: NVLink everywhere (dense enough for rings)."""
        if not 1 <= n_gpus <= 16:
            raise ValueError("n_gpus must be in [1, 16]")
        devices = [Device(device_id=i, spec=spec) for i in range(n_gpus)]
        bw = np.full((n_gpus, n_gpus), spec.nvlink_bw)
        np.fill_diagonal(bw, 0.0)
        return cls(devices=devices, link_bw=bw)

    @property
    def n_gpus(self) -> int:
        return len(self.devices)

    def transfer_time(self, src: int, dst: int, nbytes: int) -> float:
        """Simulated seconds to move ``nbytes`` between peers."""
        if src == dst:
            return 0.0
        return nbytes / float(self.link_bw[src, dst])

    def ring_order(self) -> list[int]:
        """Device order for the query ring of Fig. 2 (sketches flow
        0 -> 1 -> ... -> n-1; top hits merge along the same path)."""
        return list(range(self.n_gpus))

    def total_free_memory(self) -> int:
        return sum(d.memory.free_bytes for d in self.devices)
