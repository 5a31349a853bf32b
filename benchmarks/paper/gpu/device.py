"""Device model: V100-like GPU properties plus per-device state.

The evaluation system (Section 6) is a DGX-1 Volta: 8 Tesla V100 GPUs
with 32 GB HBM2 each.  ``DeviceSpec`` carries the properties the
simulation needs; ``Device`` adds mutable per-device state (memory
pool, streams).  Enforcing the 32 GB limit is what makes database
partitioning behave like the real system: RefSeq202 fits on 4 GPUs
only with the multi-bucket layout, and AFS31+RefSeq202 needs all 8
(footnote 2 of Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.database import Database

from paper.gpu.memory import MemoryPool
from paper.gpu.stream import Stream

__all__ = ["DeviceSpec", "Device", "V100_32GB", "DGX1_SPECS", "charge_partitions"]


@dataclass(frozen=True)
class DeviceSpec:
    """Static properties of a simulated CUDA device."""

    name: str
    memory_bytes: int
    mem_bandwidth: float  # HBM bytes/s
    sm_count: int
    cores_per_sm: int
    clock_hz: float
    nvlink_bw: float  # per-direction bytes/s to a peer
    pcie_bw: float  # host <-> device bytes/s

    @property
    def peak_flops(self) -> float:
        return self.sm_count * self.cores_per_sm * self.clock_hz * 2.0


#: Tesla V100 SXM2 32 GB (the DGX-1 Volta configuration)
V100_32GB = DeviceSpec(
    name="Tesla V100-SXM2-32GB",
    memory_bytes=32 * 1024**3,
    mem_bandwidth=900e9,
    sm_count=80,
    cores_per_sm=64,
    clock_hz=1.53e9,
    nvlink_bw=25e9,
    pcie_bw=16e9,
)

#: The 8 GPUs of a DGX-1 Volta node
DGX1_SPECS = tuple(V100_32GB for _ in range(8))


@dataclass
class Device:
    """One simulated GPU: spec + memory pool + default stream."""

    device_id: int
    spec: DeviceSpec = V100_32GB
    memory: MemoryPool = field(init=False)
    default_stream: Stream = field(init=False)

    def __post_init__(self) -> None:
        self.memory = MemoryPool(self.spec.memory_bytes, owner=self.spec.name)
        self.default_stream = Stream(name=f"dev{self.device_id}/default")

    def new_stream(self, name: str | None = None) -> Stream:
        return Stream(name=name or f"dev{self.device_id}/stream")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        used = self.memory.allocated_bytes / 1024**3
        total = self.spec.memory_bytes / 1024**3
        return f"<Device {self.device_id} {self.spec.name} {used:.1f}/{total:.0f} GiB>"


def charge_partitions(db: Database, devices: Sequence[Device]) -> None:
    """Charge each partition's index bytes to its simulated device.

    Partition ``p`` lands on ``devices[p]`` as the allocation
    ``partition{p}/index``.  Raises
    :class:`~paper.gpu.memory.OutOfDeviceMemory` at the first
    partition that does not fit -- earlier allocations stay visible
    for diagnosis -- which is the signal to rebuild with more
    partitions, exactly like the real workflow (footnote 2 of
    Table 4).  Free with ``device.memory.free(name)`` or
    ``device.memory.reset()``.
    """
    if len(devices) < db.n_partitions:
        raise ValueError("need at least one device per partition")
    for part, device in zip(db.partitions, devices):
        device.memory.alloc(f"partition{part.partition_id}/index", part.nbytes)
