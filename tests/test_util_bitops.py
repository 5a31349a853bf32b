"""Unit and property tests for repro.util.bitops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.bitops import (
    pack_pairs,
    reverse_2bit_fields,
    reverse_complement_2bit,
    unpack_pairs,
)


class TestReverse2BitFields:
    def test_single_base_identity(self):
        v = np.array([0, 1, 2, 3], dtype=np.uint64)
        assert np.array_equal(reverse_2bit_fields(v, 1), v)

    def test_two_bases_swap(self):
        # fields (a,b) -> (b,a): 0b0111 (1,3) -> 0b1101 (3,1)
        v = np.array([0b0111], dtype=np.uint64)
        assert reverse_2bit_fields(v, 2)[0] == 0b1101

    def test_known_k4(self):
        # ACGT = 00 01 10 11 -> reversed TGCA = 11 10 01 00
        acgt = np.array([0b00011011], dtype=np.uint64)
        assert reverse_2bit_fields(acgt, 4)[0] == 0b11100100

    def test_full_width_k32(self):
        v = np.array([0x0123456789ABCDEF], dtype=np.uint64)
        out = reverse_2bit_fields(v, 32)
        # reversing twice is identity
        assert reverse_2bit_fields(out, 32)[0] == v[0]

    @pytest.mark.parametrize("k", [0, 33, -1])
    def test_invalid_k_raises(self, k):
        with pytest.raises(ValueError):
            reverse_2bit_fields(np.array([1], dtype=np.uint64), k)

    @given(
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=50),
        st.integers(1, 16),
    )
    @settings(max_examples=50)
    def test_involution_property(self, values, k):
        mask = (1 << (2 * k)) - 1
        v = np.array([x & mask for x in values], dtype=np.uint64)
        assert np.array_equal(reverse_2bit_fields(reverse_2bit_fields(v, k), k), v)

    @given(st.integers(1, 32))
    @settings(max_examples=32)
    def test_matches_scalar_reference(self, k):
        rng = np.random.default_rng(k)
        mask = (1 << (2 * k)) - 1 if k < 32 else (1 << 64) - 1
        vals = rng.integers(0, 2**63, size=20, dtype=np.uint64) & np.uint64(mask)

        def scalar_reverse(x: int) -> int:
            out = 0
            for _ in range(k):
                out = (out << 2) | (x & 3)
                x >>= 2
            return out

        expected = np.array([scalar_reverse(int(x)) for x in vals], dtype=np.uint64)
        assert np.array_equal(reverse_2bit_fields(vals, k), expected)


class TestReverseComplement:
    def test_known_value(self):
        # ACGT -> revcomp(ACGT) = ACGT (palindrome)
        acgt = np.array([0b00011011], dtype=np.uint64)
        assert reverse_complement_2bit(acgt, 4)[0] == 0b00011011

    def test_aaaa_becomes_tttt(self):
        aaaa = np.array([0], dtype=np.uint64)
        assert reverse_complement_2bit(aaaa, 4)[0] == 0b11111111

    @given(st.integers(1, 32))
    @settings(max_examples=32)
    def test_involution(self, k):
        rng = np.random.default_rng(k + 1000)
        mask = np.uint64((1 << (2 * k)) - 1 if k < 32 else (1 << 64) - 1)
        vals = rng.integers(0, 2**63, size=30, dtype=np.uint64) & mask
        rc = reverse_complement_2bit(vals, k)
        assert np.array_equal(reverse_complement_2bit(rc, k), vals)
        assert (rc <= mask).all()


class TestPackPairs:
    def test_roundtrip(self):
        hi = np.array([0, 1, 2**32 - 1], dtype=np.uint64)
        lo = np.array([5, 0, 2**32 - 1], dtype=np.uint64)
        h, l = unpack_pairs(pack_pairs(hi, lo))
        assert np.array_equal(h, hi.astype(np.uint32))
        assert np.array_equal(l, lo.astype(np.uint32))

    def test_sort_orders_by_high_then_low(self):
        hi = np.array([1, 0, 1, 0], dtype=np.uint64)
        lo = np.array([0, 9, 3, 2], dtype=np.uint64)
        packed = np.sort(pack_pairs(hi, lo))
        h, l = unpack_pairs(packed)
        assert list(h) == [0, 0, 1, 1]
        assert list(l) == [2, 9, 0, 3]

    @given(
        st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=50)
    def test_roundtrip_property(self, pairs):
        hi = np.array([p[0] for p in pairs], dtype=np.uint64)
        lo = np.array([p[1] for p in pairs], dtype=np.uint64)
        h, l = unpack_pairs(pack_pairs(hi, lo))
        assert np.array_equal(h.astype(np.uint64), hi)
        assert np.array_equal(l.astype(np.uint64), lo)
