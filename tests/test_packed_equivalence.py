"""Property-based packed-vs-legacy equivalence harness.

The packed-batch refactor replaces every per-read Python loop on the
query hot path with contiguous-array kernels.  Its correctness claim
is strong: *byte-identical* results to the retained per-read reference
implementations (``tests/reference/legacy.py``) at every stage
boundary --

- sketches + window->read ids (`sketch_reads_packed` vs
  `sketch_reads_loop`),
- window geometry (`packed_window_slices` vs per-segment
  `window_slices`),
- sliding-window sizes (batch vs scalar),
- hash-table locations (identical features => identical location
  arrays),
- top candidates and classifications (`query_database` vs
  `query_database_legacy`),
- final TSV output across workers in {1, 2} x {in-memory, mmap}.

Randomized read sets are generated two ways: hypothesis drives the
shrinkable stage-level properties (varying lengths including < k,
ambiguous bases, paired-end, the empty batch), and seeded generators
drive the full-pipeline and worker-matrix checks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import MetaCache, MetaCacheParams, TsvSink
from repro.core.classify import classify_reads
from repro.core.query import query_database
from repro.genomics.alphabet import decode_sequence, encode_sequence
from repro.genomics.fastq import FastqRecord, write_fastq
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.genomics.windows import WindowLayout, window_slices
from repro.hashing.minhash import SKETCH_PAD
from repro.hashing.sketch import (
    SketchParams,
    sketch_reads_packed,
    sketch_sequence,
)
from repro.pipeline.packed import PackedReads
from repro.taxonomy.builder import build_taxonomy_for_genomes

from reference.legacy import (
    _interleave_pairs_loop,
    query_database_legacy,
    sketch_reads_loop,
)
from reference import segments
from reference.pack_lines import from_lines

PARAMS = MetaCacheParams.small()  # k=8, s=4, w=24
SK = PARAMS.sketch
# a read as the parsers hand it over: ASCII, no line end, maybe empty
_ASCII_READ = st.text("ACGTNacgtnURYKMSW-*. \t", max_size=9).map(str.encode)

# ambiguous bases encode to 255; 0..3 are A/C/G/T
_CODES = st.sampled_from([0, 1, 2, 3, 255])

# shrinkable read sets: lengths straddle k (8) and window_size (24)
_LENGTHS = st.lists(st.integers(0, 40), min_size=0, max_size=10)
_SEEDS = st.integers(0, 2**32 - 1)


def _random_reads(lengths: list[int], seed: int) -> list[np.ndarray]:
    """Encoded reads with ~10% ambiguous bases at the given lengths."""
    rng = np.random.default_rng(seed)
    reads = []
    for n in lengths:
        codes = rng.integers(0, 4, size=n).astype(np.uint8)
        codes[rng.random(n) < 0.1] = 255  # ambiguous
        reads.append(codes)
    return reads


def _assert_query_results_equal(a, b) -> None:
    """Byte-identical QueryResults: lengths, candidates, accounting."""
    assert a.n_reads == b.n_reads
    assert np.array_equal(a.read_lengths, b.read_lengths)
    assert a.total_locations == b.total_locations
    ca, cb = a.candidates, b.candidates
    assert np.array_equal(ca.target, cb.target)
    assert np.array_equal(ca.score, cb.score)
    assert np.array_equal(ca.window_first, cb.window_first)
    assert np.array_equal(ca.window_last, cb.window_last)
    assert np.array_equal(ca.valid, cb.valid)


# ------------------------------------------------------------ stage: sketch


class TestSketchStage:
    @given(lengths=_LENGTHS, seed=_SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_single_end_byte_identical(self, lengths, seed):
        reads = _random_reads(lengths, seed)
        s_loop, ids_loop = sketch_reads_loop(reads, SK)
        packed = PackedReads.from_reads(reads)
        s_pack, ids_pack = sketch_reads_packed(
            packed.buffer, packed.offsets, SK, packed.read_ids
        )
        assert np.array_equal(s_loop, s_pack)
        assert np.array_equal(ids_loop, ids_pack)

    @given(lengths=_LENGTHS, seed=_SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_paired_end_byte_identical(self, lengths, seed):
        reads = _random_reads(lengths, seed)
        mates = _random_reads(lengths[::-1], seed + 1)[: len(reads)]
        # legacy interleaving: the pinned per-element reference
        seqs, ids, lens = _interleave_pairs_loop(reads, mates)
        s_loop, ids_loop = sketch_reads_loop(seqs, SK, ids)
        packed = PackedReads.from_reads(reads, mates)
        s_pack, ids_pack = sketch_reads_packed(
            packed.buffer, packed.offsets, SK, packed.read_ids
        )
        assert np.array_equal(s_loop, s_pack)
        assert np.array_equal(ids_loop, ids_pack)
        assert np.array_equal(lens, packed.read_lengths)

    @given(
        segments=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 30)), max_size=12
        ),
        trailing=st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_read_lengths_match_scatter_add(self, segments, trailing):
        # read ids advance by 0-3 per segment (reads with no segment
        # at all), segment lengths include 0, and up to 3 reads past
        # the last segment own nothing
        read_ids = np.cumsum([step for step, _ in segments], dtype=np.int64)
        sizes = np.array([size for _, size in segments], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        n_reads = (int(read_ids[-1]) + 1 if read_ids.size else 0) + trailing
        packed = PackedReads(
            np.zeros(int(offsets[-1]), dtype=np.uint8),
            offsets,
            read_ids,
            n_reads=n_reads,
        )
        expected = np.zeros(n_reads, dtype=np.int64)
        np.add.at(expected, read_ids, sizes)
        assert packed.read_lengths.dtype == np.int64
        assert np.array_equal(packed.read_lengths, expected)

    @given(lengths=_LENGTHS, seed=_SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_packed_segments_match_per_sequence(self, lengths, seed):
        reads = _random_reads(lengths, seed)
        from repro.hashing.sketch import sketch_packed_segments

        packed = PackedReads.from_reads(reads)
        sk, counts = sketch_packed_segments(packed.buffer, packed.offsets, SK)
        assert counts.tolist() == [
            SK.layout.num_windows(r.size) for r in reads
        ]
        row = 0
        for r, c in zip(reads, counts):
            assert np.array_equal(sk[row : row + c], sketch_sequence(r, SK))
            row += c
        assert row == sk.shape[0]


# ------------------------------------------------------ stage: window layout


class TestWindowLayout:
    @given(lengths=st.lists(st.integers(0, 400), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_packed_slices_match_scalar(self, lengths):
        layout = WindowLayout(k=16, window_size=127)
        counts, seg_ids, starts, ends = layout.packed_window_slices(
            np.array(lengths, dtype=np.int64)
        )
        row = 0
        for i, n in enumerate(lengths):
            ref_starts, ref_ends = window_slices(n, 127, layout.stride, 16)
            assert counts[i] == ref_starts.size
            sl = slice(row, row + ref_starts.size)
            assert np.array_equal(starts[sl], ref_starts)
            assert np.array_equal(ends[sl], ref_ends)
            assert (seg_ids[sl] == i).all()
            row += ref_starts.size
        assert row == seg_ids.size

    @given(lengths=st.lists(st.integers(-5, 600), max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_sliding_window_sizes_match_scalar(self, lengths):
        batch = PARAMS.sliding_window_sizes(
            np.array(lengths, dtype=np.int64)
        )
        scalar = [PARAMS.sliding_window_size(int(n)) for n in lengths]
        assert batch.tolist() == scalar


# -------------------------------------------------------- PackedReads shape


class TestPackedReads:
    @given(lengths=_LENGTHS, seed=_SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_and_geometry(self, lengths, seed):
        reads = _random_reads(lengths, seed)
        p = PackedReads.from_reads(reads)
        assert len(p) == len(reads)
        assert p.total_bases == sum(r.size for r in reads)
        assert p.segment_lengths.tolist() == [r.size for r in reads]
        assert not p.paired
        assert all(np.array_equal(a, b) for a, b in zip(segments(p), reads))

    @given(
        lengths=_LENGTHS,
        seed=_SEEDS,
        cut=st.tuples(st.integers(0, 12), st.integers(0, 12)),
    )
    @settings(max_examples=40, deadline=None)
    def test_slice_reads_matches_list_slice(self, lengths, seed, cut):
        reads = _random_reads(lengths, seed)
        mates = _random_reads(lengths, seed + 1)
        p = PackedReads.from_reads(reads, mates)
        start, stop = min(cut), max(cut)
        sub = p.slice_reads(start, stop)
        segs = segments(sub)
        s, m = segs[0::2], segs[1::2]
        assert all(np.array_equal(a, b) for a, b in zip(s, reads[start:stop]))
        assert all(np.array_equal(a, b) for a, b in zip(m, mates[start:stop]))
        assert len(s) == len(reads[start:stop])

    @given(
        lengths=_LENGTHS,
        seed=_SEEDS,
        cuts=st.lists(st.integers(0, 12), max_size=4),
        paired=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_concatenate_inverts_slice_reads(self, lengths, seed, cuts, paired):
        reads = _random_reads(lengths, seed)
        mates = _random_reads(lengths, seed + 1) if paired else None
        whole = PackedReads.from_reads(reads, mates)
        bounds = [0, *sorted(min(c, len(reads)) for c in cuts), len(reads)]
        parts = [whole.slice_reads(a, b) for a, b in zip(bounds, bounds[1:])]
        joined = PackedReads.concatenate(parts)
        assert joined.n_reads == whole.n_reads and joined.paired == whole.paired
        assert np.array_equal(joined.buffer, whole.buffer)
        assert np.array_equal(joined.offsets, whole.offsets)
        assert np.array_equal(joined.read_ids, whole.read_ids)
        assert PackedReads.concatenate([whole]) is whole
        if reads:
            assert whole.slice_reads(0, len(reads)) is whole

    def test_concatenate_refuses_mixed_layouts(self):
        single = PackedReads.from_reads(_random_reads([5], 1))
        pair = PackedReads.from_reads(_random_reads([5], 1), _random_reads([5], 2))
        with pytest.raises(ValueError, match="paired"):
            PackedReads.concatenate([single, pair])

    def test_from_ascii_matches_from_reads(self):
        texts = [b"ACGTN", b"", b"acgu\nT", b"GG"]  # every byte is a base
        packed = PackedReads.from_ascii(texts)
        ref = PackedReads.from_reads([encode_sequence(t) for t in texts])
        assert np.array_equal(packed.buffer, ref.buffer)
        assert np.array_equal(packed.offsets, ref.offsets)
        assert np.array_equal(packed.read_ids, ref.read_ids)
        assert packed.n_reads == 4 and not packed.paired
        assert PackedReads.from_ascii([]).n_reads == 0

    @given(pairs=st.lists(st.tuples(_ASCII_READ, _ASCII_READ), max_size=8),
           paired=st.booleans())
    @example(pairs=[], paired=False)
    @example(pairs=[], paired=True)
    @example(pairs=[(b"", b"")], paired=True)
    @settings(max_examples=200, deadline=None)
    def test_from_ascii_matches_the_line_packer(self, pairs, paired):
        """``from_ascii`` packs a block as ``from_lines`` packed its lines."""
        texts = [text for text, _ in pairs]
        mates = [mate for _, mate in pairs] if paired else None
        got = PackedReads.from_ascii(texts, mates)
        ref = from_lines(
            [t + b"\n" for t in texts],
            None if mates is None else [m + b"\n" for m in mates],
        )
        for name in ("buffer", "offsets", "read_ids"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert (got.n_reads, got.paired) == (ref.n_reads, ref.paired)

    @pytest.mark.parametrize("mates", [[b"TT"], [b"TT", b"A", b"C"]])
    def test_from_ascii_refuses_mismatched_mates(self, mates):
        texts = [b"ACGT", b"GG"]
        with pytest.raises(ValueError) as expected:
            from_lines([t + b"\n" for t in texts], [m + b"\n" for m in mates])
        with pytest.raises(ValueError) as got:
            PackedReads.from_ascii(texts, mates)
        assert str(got.value) == str(expected.value)

    def test_validation_rejects_malformed(self):
        with pytest.raises(ValueError):
            PackedReads(
                buffer=np.zeros(4, dtype=np.uint8),
                offsets=np.array([0, 2], dtype=np.int64),  # span != buffer
                read_ids=np.array([0], dtype=np.int64),
                n_reads=1,
            )
        with pytest.raises(ValueError):
            PackedReads(
                buffer=np.zeros(4, dtype=np.uint8),
                offsets=np.array([0, 3, 2, 4], dtype=np.int64),  # decreasing
                read_ids=np.array([0, 1, 2], dtype=np.int64),
                n_reads=3,
            )
        with pytest.raises(ValueError):
            PackedReads(
                buffer=np.zeros(4, dtype=np.uint8),
                offsets=np.array([0, 2, 4], dtype=np.int64),
                read_ids=np.array([1, 0], dtype=np.int64),  # not sorted
                n_reads=2,
            )
        with pytest.raises(ValueError):
            PackedReads(  # paired needs 2 segments per read
                buffer=np.zeros(4, dtype=np.uint8),
                offsets=np.array([0, 4], dtype=np.int64),
                read_ids=np.array([0], dtype=np.int64),
                n_reads=1,
                paired=True,
            )


# ------------------------------------------- sketch_reads_packed edge paths


def _sketch_list(reads, params):
    """Sketch a list of encoded reads through the packed kernel."""
    packed = PackedReads.from_reads(reads)
    return sketch_reads_packed(packed.buffer, packed.offsets, params)


class TestSketchEdgePaths:
    def test_all_reads_shorter_than_k(self):
        reads = [np.zeros(n, dtype=np.uint8) for n in (0, 1, SK.k - 1)]
        sketches, ids = _sketch_list(reads, SK)
        assert sketches.shape == (0, SK.sketch_size)
        assert ids.size == 0

    def test_read_of_exactly_window_size(self):
        rng = np.random.default_rng(5)
        read = rng.integers(0, 4, size=SK.window_size).astype(np.uint8)
        sketches, ids = _sketch_list([read], SK)
        # exactly one full window; identical to the reference sketcher
        assert sketches.shape == (1, SK.sketch_size)
        assert np.array_equal(sketches, sketch_sequence(read, SK))
        assert ids.tolist() == [0]

    def test_read_of_window_size_plus_one_spills(self):
        rng = np.random.default_rng(6)
        read = rng.integers(0, 4, size=SK.window_size + 1).astype(np.uint8)
        sketches, _ = _sketch_list([read], SK)
        assert sketches.shape[0] == SK.layout.num_windows(read.size) == 2

    def test_only_last_read_contributes_windows(self):
        # the window->read-id off-by-one trap: every window must map to
        # the *last* read even though earlier segments consumed buffer
        rng = np.random.default_rng(7)
        reads = [
            np.zeros(3, dtype=np.uint8),
            np.zeros(SK.k - 1, dtype=np.uint8),
            rng.integers(0, 4, size=30).astype(np.uint8),
        ]
        sketches, ids = _sketch_list(reads, SK)
        assert sketches.shape[0] == SK.layout.num_windows(30)
        assert (ids == 2).all()
        assert np.array_equal(sketches, sketch_sequence(reads[2], SK))

    def test_only_first_read_contributes_windows(self):
        rng = np.random.default_rng(8)
        reads = [
            rng.integers(0, 4, size=30).astype(np.uint8),
            np.zeros(2, dtype=np.uint8),
            np.zeros(0, dtype=np.uint8),
        ]
        _, ids = _sketch_list(reads, SK)
        assert (ids == 0).all()

    def test_all_ambiguous_read_yields_padded_sketch(self):
        read = np.full(30, 255, dtype=np.uint8)
        sketches, ids = _sketch_list([read], SK)
        # windows exist but every k-mer is invalid -> all-pad rows
        assert sketches.shape[0] == SK.layout.num_windows(30)
        assert (sketches == SKETCH_PAD).all()


# ------------------------------------------------------ full query pipeline


@pytest.fixture(scope="module")
def world():
    genomes = GenomeSimulator(seed=21).simulate_collection(3, 2, 5000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    references = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]
    mc = MetaCache.ephemeral(references, taxonomy, params=PARAMS)
    return mc, genomes


def _mixed_reads(genomes, seed: int, n: int) -> list[np.ndarray]:
    """Realistic + adversarial mix: simulated reads, short reads, Ns."""
    rng = np.random.default_rng(seed)
    reads = list(ReadSimulator(genomes, seed=seed).simulate(HISEQ, n).sequences)
    extra = _random_reads(
        [0, 1, SK.k - 1, SK.k, SK.window_size, SK.window_size + 1, 200],
        seed + 1,
    )
    mixed = reads + extra
    rng.shuffle(mixed)
    return mixed


class TestQueryEquivalence:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_single_end_packed_equals_legacy(self, world, seed):
        mc, genomes = world
        reads = _mixed_reads(genomes, seed, 60)
        legacy = query_database_legacy(mc.database, reads)
        packed = query_database(mc.database, PackedReads.from_reads(reads))
        _assert_query_results_equal(legacy, packed)
        # classifications (and therefore records/TSV lines) match too
        ct_a = classify_reads(mc.database, legacy.candidates)
        ct_b = classify_reads(mc.database, packed.candidates)
        assert np.array_equal(ct_a.taxon, ct_b.taxon)

    @pytest.mark.parametrize("seed", [21, 22])
    def test_paired_end_packed_equals_legacy(self, world, seed):
        mc, genomes = world
        reads = _mixed_reads(genomes, seed, 40)
        mates = _mixed_reads(genomes, seed + 100, 40)[: len(reads)]
        legacy = query_database_legacy(mc.database, reads, mates=mates)
        packed = query_database(mc.database, PackedReads.from_reads(reads, mates))
        _assert_query_results_equal(legacy, packed)

    def test_empty_batch(self, world):
        mc, _ = world
        legacy = query_database_legacy(mc.database, [])
        packed = query_database(mc.database, PackedReads.empty())
        _assert_query_results_equal(legacy, packed)
        assert packed.n_reads == 0

    def test_locations_identical_feature_stream(self, world):
        # stage boundary below candidates: identical sketches imply the
        # hash table returns identical location arrays
        mc, genomes = world
        reads = _mixed_reads(genomes, 31, 30)
        s_loop, _ = sketch_reads_loop(reads, SK)
        p = PackedReads.from_reads(reads)
        s_pack, _ = sketch_reads_packed(p.buffer, p.offsets, SK, p.read_ids)
        assert np.array_equal(s_loop, s_pack)
        feats = s_pack.reshape(-1)
        feats = feats[feats != SKETCH_PAD]
        for pid in range(mc.database.n_partitions):
            loc_a, off_a = mc.database.query_features(feats, pid)
            loc_b, off_b = mc.database.query_features(
                s_loop.reshape(-1)[s_loop.reshape(-1) != SKETCH_PAD], pid
            )
            assert np.array_equal(loc_a, loc_b)
            assert np.array_equal(off_a, off_b)

    def test_kernels_argument_validated(self, world):
        mc, _ = world
        # no kernel fork is left to select: the oracle lives in tests/
        with pytest.raises(TypeError, match="kernels"):
            query_database(mc.database, PackedReads.empty(), kernels="legacy")
        # nor a mates list: pairs are interleaved inside the batch
        with pytest.raises(TypeError, match="mates"):
            query_database(mc.database, PackedReads.empty(), mates=[])


# ------------------------------------------- workers x storage: TSV matrix


@pytest.mark.slow
class TestWorkerStorageMatrix:
    """Final-TSV byte identity across workers {1,2} x {memory, mmap},
    single-end and paired (both travel through the one file producer)."""

    @pytest.fixture(scope="class")
    def tsv_world(self, world, tmp_path_factory):
        mc, genomes = world
        tmp = tmp_path_factory.mktemp("packed_eq")
        reads = _mixed_reads(genomes, 41, 50)
        mates = _mixed_reads(genomes, 141, 50)[: len(reads)]
        headers = [f"r{i}" for i in range(len(reads))]
        read_file, mate_file = tmp / "reads.fastq", tmp / "mates.fastq"
        for path, seqs in ((read_file, reads), (mate_file, mates)):
            write_fastq(
                [
                    FastqRecord(h, decode_sequence(s), "I" * s.size)
                    for h, s in zip(headers, seqs)
                ],
                path,
            )
        # the reference TSVs come from the per-read oracle, fed
        # through the same record formatting code
        from repro.api.records import records_from_classification

        ref_bytes = {}
        for mate_path, mate_seqs in ((None, None), (mate_file, mates)):
            ref_path = tmp / "legacy.tsv"
            res = query_database_legacy(mc.database, reads, mates=mate_seqs)
            cls = classify_reads(mc.database, res.candidates)
            recs = records_from_classification(
                mc.database, headers, cls, res.read_lengths
            )
            with TsvSink(ref_path) as sink:
                for rec in recs:
                    sink.write(rec)
            ref_bytes[mate_path] = ref_path.read_bytes()
        db_dir = tmp / "db_v2"
        mc.save(db_dir, format=2)
        return mc, read_file, ref_bytes, db_dir

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("storage", ["memory", "mmap"])
    def test_tsv_byte_identical(self, tsv_world, tmp_path, workers, storage):
        mc, read_file, ref_bytes, db_dir = tsv_world
        if storage == "mmap":
            handle = MetaCache.open(db_dir, mmap=True)
        else:
            handle = mc
        try:
            out = tmp_path / f"out_{workers}_{storage}.tsv"
            with handle.session(workers=workers) as session:
                for mate_file, expected in ref_bytes.items():
                    with TsvSink(out) as sink:
                        session.classify_files(
                            read_file, mate_file, sink=sink, batch_size=16
                        )
                    assert out.read_bytes() == expected, f"mates={mate_file}"
        finally:
            if handle is not mc:
                handle.close()
