"""Tests for hash functions, minhash sketching and batch sketching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genomics.alphabet import encode_sequence
from repro.genomics.kmers import canonical_kmers, pack_kmers
from repro.hashing.hashes import fmix32, fmix64, hash_kmers_h1
from repro.hashing.minhash import (
    SKETCH_PAD,
    sketch_window,
    sketch_windows_batch,
    window_hash_matrix,
)
from repro.hashing.sketch import SketchParams, position_hashes, sketch_reads, sketch_sequence

dna = st.text(alphabet="ACGT", min_size=0, max_size=300)


class TestHashes:
    def test_fmix64_known_vector(self):
        # murmur3 fmix64 reference: fmix64(0) == 0
        assert fmix64(np.array([0], dtype=np.uint64))[0] == 0
        # non-zero inputs must change
        out = fmix64(np.array([1, 2, 3], dtype=np.uint64))
        assert len(set(out.tolist())) == 3
        assert (out != np.array([1, 2, 3], dtype=np.uint64)).all()

    def test_fmix32_distinct(self):
        out = fmix32(np.arange(1000, dtype=np.uint32))
        assert len(set(out.tolist())) == 1000

    def test_fmix64_bijective_sample(self):
        rng = np.random.default_rng(0)
        v = rng.integers(0, 2**63, size=10000, dtype=np.uint64)
        assert len(set(fmix64(v).tolist())) == len(set(v.tolist()))

    def test_h1_is_32bit(self):
        rng = np.random.default_rng(1)
        v = rng.integers(0, 2**63, size=1000, dtype=np.uint64)
        h = hash_kmers_h1(v)
        assert (h < (1 << 32)).all()
        assert h.dtype == np.uint64

    def test_h1_uniformity(self):
        """Mean of hashed values should be near the middle of the range."""
        v = np.arange(100_000, dtype=np.uint64)
        h = hash_kmers_h1(v).astype(np.float64)
        assert abs(h.mean() / 2**32 - 0.5) < 0.01


class TestSketchWindow:
    def test_selects_smallest_unique(self):
        h = np.array([14, 8, 7, 11, 14], dtype=np.uint64)
        out = sketch_window(h, 2)
        assert list(out) == [7, 8]  # the paper's worked example

    def test_fewer_values_than_s(self):
        out = sketch_window(np.array([5, 5, 5], dtype=np.uint64), 4)
        assert list(out) == [5]

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            sketch_window(np.array([1], dtype=np.uint64), 0)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=100), st.integers(1, 10))
    @settings(max_examples=50)
    def test_property(self, values, s):
        h = np.array(values, dtype=np.uint64)
        out = sketch_window(h, s)
        expected = sorted(set(values))[:s]
        assert list(out) == expected


class TestBatchSketch:
    def test_matches_scalar_per_row(self):
        rng = np.random.default_rng(0)
        matrix = rng.integers(0, 40, size=(20, 15)).astype(np.uint64)
        out = sketch_windows_batch(matrix, 4)
        for i in range(20):
            expected = sketch_window(matrix[i], 4)
            got = out[i][out[i] != SKETCH_PAD]
            assert list(got) == list(expected)

    def test_pad_values_ignored(self):
        m = np.array([[3, SKETCH_PAD, 1, SKETCH_PAD]], dtype=np.uint64)
        out = sketch_windows_batch(m, 3)
        assert list(out[0]) == [1, 3, SKETCH_PAD]

    def test_empty_matrix(self):
        m = np.zeros((0, 5), dtype=np.uint64)
        out = sketch_windows_batch(m, 3)
        assert out.shape == (0, 3)

    def test_all_pad_row(self):
        m = np.full((2, 4), SKETCH_PAD, dtype=np.uint64)
        out = sketch_windows_batch(m, 2)
        assert (out == SKETCH_PAD).all()

    @given(
        st.integers(1, 30),
        st.integers(1, 20),
        st.integers(1, 8),
        st.integers(0, 2**31),
    )
    @settings(max_examples=40)
    def test_property_matches_scalar(self, rows, cols, s, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 30, size=(rows, cols)).astype(np.uint64)
        out = sketch_windows_batch(matrix, s)
        assert out.shape == (rows, s)
        for i in range(rows):
            got = out[i][out[i] != SKETCH_PAD]
            assert list(got) == list(sketch_window(matrix[i], s))


class TestWindowHashMatrix:
    def test_gathers_slices(self):
        hashes = np.arange(10, dtype=np.uint64)
        m = window_hash_matrix(
            hashes, starts=np.array([0, 4]), lengths=np.array([4, 3]), width=5
        )
        assert list(m[0]) == [0, 1, 2, 3, SKETCH_PAD]
        assert list(m[1]) == [4, 5, 6, SKETCH_PAD, SKETCH_PAD]


class TestSketchSequence:
    PARAMS = SketchParams(k=8, sketch_size=4, window_size=24)

    def test_short_sequence_empty(self):
        out = sketch_sequence(encode_sequence("ACGT"), self.PARAMS)
        assert out.shape == (0, 4)

    def test_window_count(self):
        seq = encode_sequence("ACGT" * 30)  # 120 bases
        out = sketch_sequence(seq, self.PARAMS)
        # stride = 24-8+1=17, last kmer start=112 -> 112//17+1 = 7 windows
        assert out.shape == (7, 4)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        seq = rng.integers(0, 4, size=200).astype(np.uint8)
        a = sketch_sequence(seq, self.PARAMS)
        b = sketch_sequence(seq, self.PARAMS)
        assert np.array_equal(a, b)

    @given(dna.filter(lambda s: len(s) >= 24))
    @settings(max_examples=30)
    def test_matches_reference_implementation(self, seq):
        """Batch pipeline == per-window scalar sketching."""
        params = self.PARAMS
        codes = encode_sequence(seq)
        batch = sketch_sequence(codes, params)
        layout = params.layout
        starts, ends = layout.window_slices(codes.size)
        for i, (s0, e0) in enumerate(zip(starts, ends)):
            window = codes[s0:e0]
            kmers = pack_kmers(window, params.k)
            hashes = hash_kmers_h1(canonical_kmers(kmers, params.k))
            expected = sketch_window(hashes, params.sketch_size)
            got = batch[i][batch[i] != SKETCH_PAD]
            assert list(got) == list(expected)

    def test_ambiguous_bases_excluded(self):
        seq = encode_sequence("ACGTACGTNNNNNNNNACGTACGTA")
        hashes = position_hashes(seq, SketchParams(k=8, sketch_size=4, window_size=25))
        # positions overlapping the N-run must be PAD
        assert (hashes[1:16] == SKETCH_PAD).all()
        assert hashes[0] != SKETCH_PAD
        assert hashes[16] != SKETCH_PAD


class TestSketchReads:
    PARAMS = SketchParams(k=8, sketch_size=4, window_size=24)

    def test_reads_map_to_ids(self):
        rng = np.random.default_rng(0)
        reads = [rng.integers(0, 4, size=n).astype(np.uint8) for n in (30, 100, 5)]
        sketches, win_ids = sketch_reads(reads, self.PARAMS)
        # read 2 (5bp < k) contributes nothing
        assert set(win_ids.tolist()) == {0, 1}
        assert sketches.shape[0] == win_ids.size

    def test_paired_reads_share_id(self):
        rng = np.random.default_rng(1)
        m1 = [rng.integers(0, 4, size=24).astype(np.uint8) for _ in range(3)]
        m2 = [rng.integers(0, 4, size=24).astype(np.uint8) for _ in range(3)]
        ids = np.array([0, 1, 2, 0, 1, 2])
        sketches, win_ids = sketch_reads(m1 + m2, self.PARAMS, read_ids=ids)
        # each read id appears twice (one window per mate)
        for rid in (0, 1, 2):
            assert (win_ids == rid).sum() == 2

    def test_id_length_mismatch(self):
        with pytest.raises(ValueError):
            sketch_reads(
                [np.zeros(30, dtype=np.uint8)], self.PARAMS, read_ids=np.array([0, 1])
            )

    def test_empty_batch(self):
        sketches, win_ids = sketch_reads([], self.PARAMS)
        assert sketches.shape == (0, 4)
        assert win_ids.size == 0

    def test_windows_never_cross_reads(self):
        """Sketches from batched reads == sketches from single reads."""
        rng = np.random.default_rng(2)
        reads = [rng.integers(0, 4, size=n).astype(np.uint8) for n in (50, 70, 24)]
        batch_sk, batch_ids = sketch_reads(reads, self.PARAMS)
        row = 0
        for i, r in enumerate(reads):
            solo = sketch_sequence(r, self.PARAMS)
            for w in range(solo.shape[0]):
                assert np.array_equal(batch_sk[row], solo[w])
                assert batch_ids[row] == i
                row += 1
        assert row == batch_sk.shape[0]
