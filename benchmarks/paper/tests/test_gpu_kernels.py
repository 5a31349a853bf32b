"""Fidelity tests: warp-level kernel emulations == batch pipeline.

These tests are the evidence that the vectorized implementations
compute exactly what the paper's SIMT algorithms would.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import generate_top_candidates
from repro.genomics.alphabet import encode_sequence
from repro.hashing.minhash import SKETCH_PAD
from repro.hashing.sketch import SketchParams, sketch_sequence
from repro.util.bitops import pack_pairs

from paper.gpu.kernels.candidates_kernel import warp_top_candidates
from paper.gpu.kernels.minhash_kernel import warp_encode_window, warp_sketch_window

dna = st.text(alphabet="ACGT", min_size=16, max_size=128)
dna_n = st.text(alphabet="ACGTN", min_size=16, max_size=128)


class TestWarpEncode:
    def test_lane_buffers_cover_window(self):
        seq = "ACGT" * 32  # 128 chars
        chars, ambig = warp_encode_window(encode_sequence(seq))
        # lane buffers: lane i holds chars [16*(i//4), 16*(i//4)+32)
        for lane in range(28):  # last sub-warp has no successor
            base = 16 * (lane // 4)
            expected = encode_sequence(seq)[base : base + 32]
            assert np.array_equal(chars[lane], expected), f"lane {lane}"
            assert not ambig[lane].any()

    def test_ambiguous_chars_flagged(self):
        seq = "A" * 10 + "N" + "A" * 100
        chars, ambig = warp_encode_window(encode_sequence(seq))
        assert ambig[0, 10]  # lane 0 sees the N at buffer offset 10

    def test_window_too_long_rejected(self):
        with pytest.raises(ValueError):
            warp_encode_window(np.zeros(129, dtype=np.uint8))


class TestWarpSketchKernel:
    PARAMS = SketchParams(k=16, sketch_size=16, window_size=127)

    def _batch_sketch(self, codes):
        out = sketch_sequence(codes, self.PARAMS)
        if out.shape[0] == 0:
            return np.zeros(0, dtype=np.uint64)
        row = out[0]
        return row[row != SKETCH_PAD]

    @given(dna)
    @settings(max_examples=15, deadline=None)
    def test_matches_batch_pipeline(self, seq):
        codes = encode_sequence(seq[:127])
        warp = warp_sketch_window(codes, k=16, s=16)
        batch = self._batch_sketch(codes)
        assert np.array_equal(warp, batch)

    @given(dna_n)
    @settings(max_examples=15, deadline=None)
    def test_matches_with_ambiguous_bases(self, seq):
        codes = encode_sequence(seq[:127])
        warp = warp_sketch_window(codes, k=16, s=16)
        batch = self._batch_sketch(codes)
        assert np.array_equal(warp, batch)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            warp_sketch_window(np.zeros(32, dtype=np.uint8), k=17, s=4)

    def test_small_window(self):
        codes = encode_sequence("ACGTACGTACGTACGTA")  # 17 chars, 2 k-mers
        warp = warp_sketch_window(codes, k=16, s=16)
        assert warp.size <= 2


class TestWarpCandidatesKernel:
    @staticmethod
    def _batch(locations, sws, m):
        offsets = np.array([0, locations.size])
        c = generate_top_candidates(locations, offsets, sws, m)
        return [
            (int(t), int(wf), int(wl), int(s))
            for t, wf, wl, s, v in zip(
                c.target[0], c.window_first[0], c.window_last[0],
                c.score[0], c.valid[0],
            )
            if v
        ]

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 15)),
            min_size=0,
            max_size=120,
        ),
        st.integers(1, 5),
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_batch(self, entries, sws, m):
        if entries:
            locations = np.sort(
                pack_pairs(
                    np.array([t for t, _ in entries], dtype=np.uint64),
                    np.array([w for _, w in entries], dtype=np.uint64),
                )
            )
        else:
            locations = np.zeros(0, dtype=np.uint64)
        warp = warp_top_candidates(locations, sws, m)
        batch = self._batch(locations, sws, m)
        assert warp == batch

    def test_long_list_chunking(self):
        """Lists spanning many 32-lane chunks accumulate correctly."""
        rng = np.random.default_rng(7)
        t = rng.integers(0, 3, 500).astype(np.uint64)
        w = rng.integers(0, 8, 500).astype(np.uint64)
        locations = np.sort(pack_pairs(t, w))
        assert warp_top_candidates(locations, 4, 3) == self._batch(locations, 4, 3)

    def test_run_crossing_chunk_boundary(self):
        """A run of identical locations split across chunks must merge."""
        locations = np.sort(
            pack_pairs(
                np.ones(70, dtype=np.uint64), np.full(70, 5, dtype=np.uint64)
            )
        )
        out = warp_top_candidates(locations, 2, 2)
        assert out == [(1, 5, 5, 70)]
