"""Tests for alphabet encoding, k-mer packing and canonicalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genomics.alphabet import (
    _ENCODE_LUT,
    AMBIG,
    complement_codes,
    decode_sequence,
    encode_sequence,
    reverse_complement_str,
)
from repro.genomics.kmers import (
    canonical_kmers,
    pack_canonical_kmers,
    valid_canonical_kmers,
)

dna = st.text(alphabet="ACGT", min_size=0, max_size=200)
dna_with_n = st.text(alphabet="ACGTN", min_size=0, max_size=200)


class TestAlphabet:
    def test_encode_known(self):
        codes = encode_sequence("ACGT")
        assert list(codes) == [0, 1, 2, 3]

    def test_encode_lower_and_u(self):
        assert list(encode_sequence("acgu")) == [0, 1, 2, 3]

    def test_ambiguous(self):
        codes = encode_sequence("ANRT")
        assert codes[0] == 0 and codes[3] == 3
        assert codes[1] == AMBIG and codes[2] == AMBIG

    def test_decode_roundtrip(self):
        assert decode_sequence(encode_sequence("ACGTN")) == "ACGTN"

    def test_encode_idempotent_on_arrays(self):
        codes = encode_sequence("ACGT")
        assert encode_sequence(codes) is codes

    def test_encode_rejects_wrong_dtype(self):
        with pytest.raises(TypeError):
            encode_sequence(np.zeros(4, dtype=np.int64))

    def test_complement(self):
        assert list(complement_codes(encode_sequence("ACGTN"))) == [3, 2, 1, 0, AMBIG]

    def test_reverse_complement_str(self):
        assert reverse_complement_str("AACGTT") == "AACGTT"  # palindrome
        assert reverse_complement_str("AAAC") == "GTTT"

    def test_encode_table_over_every_byte(self):
        """The byte table the encoder translates through: ACGTU either
        case to 0-3 (U as T), every other byte value to AMBIG."""
        codes = dict(zip(b"ACGTUacgtu", [0, 1, 2, 3, 3] * 2))
        every = bytes(range(256))
        want = [codes.get(b, AMBIG) for b in every]
        assert encode_sequence(every).tolist() == want
        assert _ENCODE_LUT.tolist() == want

    @given(st.binary(max_size=600) | st.lists(
        st.sampled_from(b"ACGTNUacgtnu\x00\xff"), max_size=600).map(bytes))
    @settings(max_examples=300)
    def test_encode_equals_the_lut_gather(self, raw):
        """``bytes.translate`` gives the fancy index's codes, writable."""
        got = encode_sequence(raw)
        assert got.dtype == np.uint8 and got.flags.writeable
        assert np.array_equal(got, _ENCODE_LUT[np.frombuffer(raw, dtype=np.uint8)])
        if raw.isascii():
            assert np.array_equal(encode_sequence(raw.decode("ascii")), got)
        got[:1] = 7  # callers write into it

    @given(dna)
    @settings(max_examples=50)
    def test_revcomp_involution(self, seq):
        assert reverse_complement_str(reverse_complement_str(seq)) == seq


def _packed(seq: str, k: int) -> list[int]:
    """Scalar 2-bit packing of every k-mer of an ACGT string."""
    out = []
    for i in range(max(0, len(seq) - k + 1)):
        v = 0
        for ch in seq[i : i + k]:
            v = (v << 2) | "ACGT".index(ch)
        out.append(v)
    return out


class TestPackKmers:
    """``pack_canonical_kmers``' values against scalar packing."""

    def test_short_sequence_empty(self):
        assert pack_canonical_kmers(encode_sequence("ACG"), 4)[0].size == 0

    def test_known_packing(self):
        # ACGT is its own reverse complement: 0b00_01_10_11 = 27
        out, invalid = pack_canonical_kmers(encode_sequence("ACGT"), 4)
        assert out.tolist() == [27] and invalid is None

    def test_sliding(self):
        out, _ = pack_canonical_kmers(encode_sequence("AACGT"), 4)
        # AACG = 0b00_00_01_10 = 6 (below CGTT); ACGT = 27
        assert out.tolist() == [6, 27]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            pack_canonical_kmers(encode_sequence("ACGT"), 0)
        with pytest.raises(ValueError):
            pack_canonical_kmers(encode_sequence("ACGT"), 33)

    @given(dna, st.integers(1, 8))
    @settings(max_examples=50)
    def test_matches_scalar_packing(self, seq, k):
        out, _ = pack_canonical_kmers(encode_sequence(seq), k)
        forward = _packed(seq, k)
        reverse = _packed(reverse_complement_str(seq), k)[::-1]
        assert out.tolist() == [min(f, r) for f, r in zip(forward, reverse)]


class TestValidity:
    """``pack_canonical_kmers``' mask of k-mers covering an ambiguous base."""

    def test_all_valid(self):
        assert pack_canonical_kmers(encode_sequence("ACGTACGT"), 4)[1] is None

    def test_n_invalidates_covering_kmers(self):
        _, invalid = pack_canonical_kmers(encode_sequence("ACGNACGT"), 4)
        # positions 0..3 cover the N at index 3; position 4 onward valid
        assert invalid.tolist() == [True, True, True, True, False]

    @given(dna_with_n, st.integers(1, 8))
    @settings(max_examples=50)
    def test_matches_scalar(self, seq, k):
        canonical, invalid = pack_canonical_kmers(encode_sequence(seq), k)
        if invalid is None:
            invalid = np.zeros(canonical.size, dtype=bool)
        expected = ["N" in seq[i : i + k] for i in range(max(0, len(seq) - k + 1))]
        assert invalid.tolist() == expected


class TestCanonical:
    def test_canonical_is_min(self):
        kmers = np.array([0, 255], dtype=np.uint64)  # AAAA and TTTT
        assert canonical_kmers(kmers, 4).tolist() == [0, 0]

    @given(dna.filter(lambda s: len(s) >= 8))
    @settings(max_examples=50)
    def test_strand_independence(self, seq):
        """A sequence and its reverse complement share canonical k-mers."""
        k = 8
        fwd = valid_canonical_kmers(encode_sequence(seq), k)
        rev = valid_canonical_kmers(
            encode_sequence(reverse_complement_str(seq)), k
        )
        assert sorted(fwd.tolist()) == sorted(rev.tolist())

    def test_valid_canonical_excludes_ambiguous(self):
        out = valid_canonical_kmers(encode_sequence("ACGTNACGT"), 4)
        # positions covering N removed: 9-4+1=6 kmers total, 4 cover N
        assert out.size == 2
