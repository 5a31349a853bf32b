"""Two-stage hybrid probing: outer double hashing, inner group-linear.

WarpCore's cooperative probing scheme (Section 3): the table is viewed
as a sequence of *groups* of consecutive slots (the CUDA cooperative
group / sub-warp tile).  An outer double-hashing walk selects groups
-- suppressing clustering -- while within a group, slots are visited
linearly so that the warp's memory accesses coalesce.

The flat probe sequence for key ``x`` is

    slot(x, r) = group(x, r // G) * G + (r mod G)
    group(x, j) = (g1(x) + j * g2(x)) mod n_groups

``for_capacity`` chooses a *prime* group count: with prime
``n_groups`` every step ``g2 in [1, n_groups)`` is coprime with the
modulus, so the walk provably visits every group (and, unlike
power-of-two sizing, the table never over-allocates by up to 2x --
the memory-density comparisons depend on tight sizing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hashing.hashes import fmix64

__all__ = ["ProbingScheme", "next_prime"]

_U64 = np.uint64


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n (trial division; fine for table sizing)."""
    n = max(2, n)
    while not _is_prime(n):
        n += 1
    return n


@dataclass(frozen=True)
class ProbingScheme:
    """Hybrid probing over ``n_groups`` groups of ``group_size`` slots.

    The full-period guarantee of the outer walk holds when
    ``n_groups`` is prime (what :meth:`for_capacity` picks); arbitrary
    counts are accepted for experimentation.
    """

    n_groups: int
    group_size: int
    max_probe_rounds: int

    def __post_init__(self) -> None:
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")
        if self.n_groups < 1:
            raise ValueError("n_groups must be >= 1")

    @classmethod
    def for_capacity(
        cls, min_slots: int, group_size: int = 4, max_probe_rounds: int | None = None
    ) -> "ProbingScheme":
        """Smallest prime group count covering ``min_slots``."""
        n_groups = next_prime(max(1, -(-min_slots // group_size)))
        if max_probe_rounds is None:
            # WarpCore-style default: generous but bounded walk.
            max_probe_rounds = min(n_groups * group_size, 1024)
        return cls(n_groups=n_groups, group_size=group_size,
                   max_probe_rounds=max_probe_rounds)

    @property
    def n_slots(self) -> int:
        return self.n_groups * self.group_size

    def probe_bases(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Start group ``g1`` and step ``g2`` of each key's outer walk.

        The two ``fmix64`` calls of a walk, made once: every table
        carries the pair along its probe rounds and asks
        :meth:`slots_at` for the slot of each round.
        """
        keys = np.asarray(keys, dtype=_U64)
        n = _U64(self.n_groups)
        g1 = (fmix64(keys) % n).astype(np.int64)
        if self.n_groups > 1:
            # step in [1, n_groups): coprime with a prime modulus
            g2 = (
                fmix64(keys ^ _U64(0xA5A5A5A5A5A5A5A5)) % (n - _U64(1)) + _U64(1)
            ).astype(np.int64)
        else:
            g2 = np.zeros_like(g1)
        return g1, g2

    def slots_at(
        self, g1: np.ndarray, g2: np.ndarray, rounds: int | np.ndarray
    ) -> np.ndarray:
        """Slot index of probe round ``rounds`` for walks ``(g1, g2)``.

        ``rounds`` is a scalar when the whole batch walks in lock-step
        (every table's insert), one round per walk, or -- against
        column vectors ``g1``/``g2`` -- several rounds, one row of
        slots per walk.  Lookups (:func:`repro.warpcore.base.probe_walk`)
        carry the same walk as ``g1 * G`` and ``g2 * G`` instead.
        """
        rounds = np.asarray(rounds, dtype=np.int64)
        group = (g1 + (rounds // self.group_size) * g2) % self.n_groups
        return group * self.group_size + rounds % self.group_size
