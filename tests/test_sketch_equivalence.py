"""Equivalence harness: the doubling sketch kernel vs the windowed oracle.

The one kernel under ``sketch_sequence``, ``sketch_reads_packed`` and
``sketch_packed_segments`` packs both strands by doubling, gathers
window rows contiguously and reads the sketch off the sorted prefix.
The contract is strong: for any batch and any parameters the sketches
*and* the window -> read ids are bit-identical to the retained
pre-doubling implementation (``tests/reference/sketch_windowed.py``,
run one read at a time by ``tests/reference/legacy.py``), so index
files, TSVs and server responses stay byte-for-byte.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import sketch_windowed as oracle
from reference.legacy import sketch_reads_loop
from repro.genomics import kmers
from repro.genomics.alphabet import encode_sequence
from repro.hashing import minhash
from repro.hashing.minhash import SKETCH_PAD
from repro.hashing.sketch import (
    SketchParams,
    position_hashes,
    sketch_packed_segments,
    sketch_reads,
    sketch_reads_packed,
    sketch_sequence,
)

# the one canonical 16-mer whose h1 is 0xFFFFFFFF (found by scanning all 4**16)
TOP_FEATURE_16MER = "GAGGATCAGTTTCTAA"

_pieces = st.one_of(
    st.text(alphabet="ACGT", max_size=40),
    # homopolymers and short tandem repeats: one k-mer value many times
    # over, so duplicates straddle the s-th rank of the sorted row
    st.builds(lambda base, n: base * n, st.sampled_from("ACGT"), st.integers(1, 50)),
    st.builds(
        lambda unit, n: unit * n,
        st.text(alphabet="ACGT", min_size=2, max_size=3),
        st.integers(1, 20),
    ),
    # ambiguous runs, shorter and longer than any k
    st.builds(lambda n: "N" * n, st.integers(1, 40)),
)
_segments = st.lists(_pieces, max_size=5).map("".join)


@st.composite
def sketch_params(draw):
    """Any k (both word widths), windows down to one k-mer, s past the window."""
    k = draw(st.integers(1, 32))
    return SketchParams(
        k=k,
        sketch_size=draw(st.integers(1, 20)),
        window_size=k + draw(st.sampled_from([0, 1, 2, 5, 11, 40])),
    )


def pack(segments: list[str]) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """``(per-segment codes, buffer, offsets)`` of a list of sequences."""
    codes = [encode_sequence(s) for s in segments]
    offsets = np.zeros(len(codes) + 1, dtype=np.int64)
    np.cumsum([c.size for c in codes], out=offsets[1:])
    buffer = np.concatenate([np.zeros(0, dtype=np.uint8), *codes])
    return codes, buffer, offsets


def assert_identical(got: np.ndarray, expected: np.ndarray) -> None:
    """Same dtype, shape and bytes."""
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


def assert_batch_identical(segments, params, read_ids=None):
    """Every kernel shape against the per-read oracle; returns the sketches."""
    codes, buffer, offsets = pack(segments)
    expected, expected_ids = sketch_reads_loop(codes, params, read_ids)
    got, got_ids = sketch_reads_packed(buffer, offsets, params, read_ids)
    assert_identical(got, expected)
    assert_identical(got_ids, expected_ids)
    assert got.flags.c_contiguous and got.flags.writeable

    blocks, counts = sketch_packed_segments(buffer, offsets, params)
    assert_identical(blocks, expected)
    assert counts.size == len(segments) and counts.sum() == expected.shape[0]
    row = 0
    for seg, n in zip(codes, counts.tolist()):
        assert_identical(sketch_sequence(seg, params), oracle.sketch_sequence(seg, params))
        assert_identical(blocks[row : row + n], sketch_sequence(seg, params))
        row += n
    return got


class TestAgainstOracle:
    @given(
        segments=st.lists(_segments, max_size=6),
        params=sketch_params(),
        paired=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_sketches_and_window_ids_bit_identical(self, segments, params, paired):
        read_ids = np.arange(len(segments), dtype=np.int64) // 2 if paired else None
        assert_batch_identical(segments, params, read_ids)

    @given(seq=_segments, k=st.integers(1, 32))
    @settings(max_examples=200, deadline=None)
    def test_kmer_stages_match(self, seq, k):
        """The packer under the kernel, stage by stage."""
        codes = encode_sequence(seq)
        packed = oracle.pack_kmers(codes, k)
        valid = oracle.kmer_validity(codes, k)
        assert_identical(kmers.pack_kmers(codes, k), packed)
        assert_identical(kmers.kmer_validity(codes, k), valid)
        canonical, invalid = kmers.pack_canonical_kmers(codes, k)
        assert canonical.dtype == (np.uint32 if k <= 16 else np.uint64)
        assert np.array_equal(canonical, oracle.canonical_kmers(packed, k))
        assert (invalid is None and valid.all()) or np.array_equal(invalid, ~valid)
        assert_identical(
            kmers.valid_canonical_kmers(codes, k),
            oracle.canonical_kmers(packed[valid], k),
        )
        params = SketchParams(k=k, sketch_size=4, window_size=k + 8)
        assert_identical(position_hashes(codes, params), oracle.position_hashes(codes, params))

    @given(
        rows=st.lists(
            st.lists(st.sampled_from([0, 1, 2, 3, 7, 2**32 - 1, int(SKETCH_PAD)]), min_size=1, max_size=9),
            max_size=6,
        ),
        s=st.integers(1, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_prefix_select_matches_full_dedup(self, rows, s):
        """``sketch_windows_batch`` on ragged-by-PAD rows, s past the width."""
        width = max((len(r) for r in rows), default=1)
        matrix = np.full((len(rows), width), SKETCH_PAD, dtype=np.uint64)
        for i, r in enumerate(rows):
            matrix[i, : len(r)] = r
        before = matrix.copy()
        assert_identical(
            minhash.sketch_windows_batch(matrix, s), oracle.sketch_windows_batch(matrix, s)
        )
        assert np.array_equal(matrix, before)  # the public form sorts a copy


_RNG = np.random.default_rng(17)
_READS = ["".join(_RNG.choice(list("ACGT"), size=n)) for n in (70, 33, 101, 64, 5, 90)]


class TestNamedShapes:
    READS = _READS

    @pytest.mark.parametrize("k", range(1, 33))
    def test_every_k(self, k):
        segments = self.READS + ["ACGTN" * 12, "N" + self.READS[0] + "N"]
        assert_batch_identical(segments, SketchParams(k=k, sketch_size=8, window_size=k + 20))

    def test_sketch_size_larger_than_the_window(self):
        got = assert_batch_identical(self.READS, SketchParams(k=8, sketch_size=16, window_size=12))
        assert (got[:, 5:] == SKETCH_PAD).all()  # 5 k-mers per window at most

    def test_window_of_one_kmer(self):
        got = assert_batch_identical(self.READS, SketchParams(k=9, sketch_size=3, window_size=9))
        assert got.shape[0] == sum(max(0, len(r) - 8) for r in self.READS)
        assert (got[:, 1:] == SKETCH_PAD).all()

    def test_segments_shorter_than_k(self):
        params = SketchParams(k=16, sketch_size=4, window_size=40)
        got = assert_batch_identical(["ACGT", "", "ACGTACGTACGTACG", self.READS[0]], params)
        assert got.shape[0] == 3  # only the 70-mer has windows
        assert assert_batch_identical(["ACGT", ""], params).shape == (0, 4)

    def test_empty_batch(self):
        params = SketchParams(k=8, sketch_size=4, window_size=24)
        assert assert_batch_identical([], params).shape == (0, 4)
        sketches, ids = sketch_reads([], params)
        assert sketches.shape == (0, 4) and ids.dtype == np.int64 and ids.size == 0

    def test_paired_read_ids(self):
        params = SketchParams(k=8, sketch_size=4, window_size=24)
        read_ids = np.array([0, 0, 1, 1, 2, 2])
        assert_batch_identical(self.READS, params, read_ids)
        _, buffer, offsets = pack(self.READS)
        _, ids = sketch_reads_packed(buffer, offsets, params, read_ids)
        assert ids.dtype == np.int64 and set(ids.tolist()) == {0, 1, 2}
        with pytest.raises(ValueError):
            sketch_reads_packed(buffer, offsets, params, read_ids[:-1])

    @pytest.mark.parametrize("k", [4, 16, 17, 32])
    def test_ambiguity_at_edges_and_in_long_runs(self, k):
        body = self.READS[2]
        segments = [
            "N" + body,
            body + "N",
            "N" * (k - 1) + body + "N" * k,
            body[:40] + "N" * (k + 3) + body[40:],
            body[:40] + "N" + body[41:],
            body,  # a clean neighbour: masks must not leak across segments
        ]
        assert_batch_identical(segments, SketchParams(k=k, sketch_size=8, window_size=k + 30))

    def test_all_ambiguous_read(self):
        params = SketchParams(k=8, sketch_size=4, window_size=24)
        got = assert_batch_identical([self.READS[0], "N" * 60, self.READS[1]], params)
        _, buffer, offsets = pack([self.READS[0], "N" * 60, self.READS[1]])
        _, ids = sketch_reads_packed(buffer, offsets, params)
        assert (got[ids == 1] == SKETCH_PAD).all() and (ids == 1).sum() == 4

    def test_duplicates_across_the_sth_rank_take_the_repair_path(self, monkeypatch):
        repaired = []
        general = minhash._distinct_prefix

        def spy(m, s):
            repaired.append(m.shape[0])
            return general(m, s)

        monkeypatch.setattr(minhash, "_distinct_prefix", spy)
        params = SketchParams(k=8, sketch_size=4, window_size=24)
        clean = self.READS[0][:24]
        segments = ["A" * 60, clean, "ACAC" * 12, "A" * 20 + clean, clean]
        got = assert_batch_identical(segments, params)
        assert repaired and max(repaired) < got.shape[0]  # some rows, never all
        homopolymer = sketch_sequence(encode_sequence("A" * 60), params)
        assert (homopolymer[:, 0] != SKETCH_PAD).all()
        assert (homopolymer[:, 1:] == SKETCH_PAD).all()

    def test_feature_equal_to_the_32_bit_top_is_kept(self):
        params = SketchParams()  # k=16: the uint32 word
        read = TOP_FEATURE_16MER + "ACGT"
        got = assert_batch_identical([read, "N" + read], params)
        for row in got:
            assert row[4] == np.uint64(0xFFFFFFFF)  # largest of 5 distinct features
            assert (row[5:] == SKETCH_PAD).all()


class TestFullSize:
    def test_seeded_reads_and_reference(self):
        """The benchmark's shape: 24 000 x 101 bp reads, one 60 kb reference."""
        params = SketchParams()
        rng = np.random.default_rng(20211)
        n, length = 24_000, 101
        buffer = rng.integers(0, 4, size=n * length, dtype=np.uint8)
        offsets = np.arange(n + 1, dtype=np.int64) * length
        read_ids = np.arange(n, dtype=np.int64) // 2
        for codes in (buffer, _with_ambiguity(buffer, rng)):
            got, got_ids = sketch_reads_packed(codes, offsets, params, read_ids)
            expected, expected_ids = oracle.sketch_reads_packed(codes, offsets, params, read_ids)
            assert_identical(got, expected)
            assert_identical(got_ids, expected_ids)
        reference = rng.integers(0, 4, size=60_000, dtype=np.uint8)
        for codes in (reference, _with_ambiguity(reference, rng)):
            assert_identical(sketch_sequence(codes, params), oracle.sketch_sequence(codes, params))


def _with_ambiguity(codes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A copy with scattered single Ns and a few runs longer than k."""
    out = codes.copy()
    out[rng.integers(0, out.size, size=out.size // 2000)] = 255
    for start in rng.integers(0, out.size - 40, size=8).tolist():
        out[start : start + 40] = 255
    return out
