"""Split-batch equivalence: ``classify_files`` output for any core count.

The in-process consumer of :meth:`QuerySession.classify_files` splits
every batch into contiguous read slices, two per available core, and
classifies them on threads that share the one database.  The claim
is that the split changes nothing observable: sink bytes,
``RunReport.taxon_counts`` and ``n_classified`` are identical to the
one-slice run for every slice count, on single-end and paired reads,
on the build, condensed and mmap layouts, with batches smaller than
the slice count, empty inputs, all-miss reads and reads too short to
hold a window.  The core count is pinned by patching
``repro.api.session._available_cores``.

The same file covers the split's failure and lifetime contract: a
slice that raises surfaces as the typed ``PipelineError`` without
hanging the producer, a hot swap issued mid-batch defers the old
index's unmap until the batch's single ``retain()`` is released, and
the slice threads run pinned to distinct cores while the calling
thread's own affinity comes back unchanged.
"""

from __future__ import annotations

import itertools
import os
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import MetaCache, MetaCacheParams, TsvSink
from repro.api.session import QuerySession
from repro.core.query import query_database
from repro.errors import PipelineError
from repro.genomics.alphabet import decode_sequence
from repro.genomics.fastq import FastqRecord, write_fastq
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.pipeline.packed import PackedReads
from repro.taxonomy.builder import build_taxonomy_for_genomes

PARAMS = MetaCacheParams.small()  # k=8, s=4, w=24
LAYOUTS = ("build", "condensed", "mmap")
CORES = "repro.api.session._available_cores"
AFFINITY = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()

# what a read is made of: a simulated read that mostly hits, an
# all-N read (windows, no valid k-mer: every feature misses), a read
# shorter than k (no window) and the empty read
_KINDS = st.sampled_from(["sim", "sim", "miss", "short", "empty"])


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    genomes = GenomeSimulator(seed=26).simulate_collection(3, 2, 5000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    references = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]
    built = MetaCache.ephemeral(references, taxonomy, params=PARAMS)
    condensed = MetaCache.ephemeral(references, taxonomy, params=PARAMS)
    condensed.database.condense()
    saved = tmp_path_factory.mktemp("split_db") / "db"
    condensed.save(saved)
    mapped = MetaCache.open(saved, mmap=True)
    pool = list(ReadSimulator(genomes, seed=7).simulate(HISEQ, 64).sequences)
    handles = {"build": built, "condensed": condensed, "mmap": mapped}
    yield handles, pool, saved
    for handle in handles.values():
        handle.close()


def _reads(kinds: list[str], pool: list[np.ndarray], seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    out = []
    for kind in kinds:
        if kind == "sim":
            out.append(pool[int(rng.integers(len(pool)))])
        elif kind == "miss":
            out.append(np.full(int(rng.integers(30, 120)), 255, dtype=np.uint8))
        elif kind == "short":
            length = int(rng.integers(1, PARAMS.sketch.k))
            out.append(rng.integers(0, 4, length).astype(np.uint8))
        else:
            out.append(np.zeros(0, dtype=np.uint8))
    return out


def _write(path: Path, reads: list[np.ndarray]) -> Path:
    write_fastq(
        [
            FastqRecord(f"r{i}", decode_sequence(s), "I" * s.size)
            for i, s in enumerate(reads)
        ],
        path,
    )
    return path


def _classify(session, reads_path, mates_path, out: Path, cores: int, batch_size: int):
    with mock.patch(CORES, return_value=cores), TsvSink(out) as sink:
        report = session.classify_files(
            reads_path, mates_path, sink=sink, batch_size=batch_size
        )
    return out.read_bytes(), report


class TestSplitEquivalence:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @given(
        kinds=st.lists(_KINDS, max_size=14),
        seed=st.integers(0, 2**32 - 1),
        paired=st.booleans(),
        batch_size=st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_core_count_matches_one(
        self, world, layout, kinds, seed, paired, batch_size
    ):
        handles, pool, _ = world
        session = handles[layout].session()
        with tempfile.TemporaryDirectory() as tmp:
            tmp_dir = Path(tmp)
            reads_path = _write(tmp_dir / "reads.fq", _reads(kinds, pool, seed))
            mates_path = None
            if paired:
                mates_path = _write(
                    tmp_dir / "mates.fq", _reads(kinds[::-1], pool, seed + 1)
                )
            expected, ref = _classify(
                session, reads_path, mates_path, tmp_dir / "k1.tsv", 1, batch_size
            )
            for cores in (2, 3):
                got, report = _classify(
                    session, reads_path, mates_path, tmp_dir / f"k{cores}.tsv",
                    cores, batch_size,
                )
                assert got == expected, f"cores={cores}"
                assert report.taxon_counts == ref.taxon_counts
                assert report.n_classified == ref.n_classified
                assert report.n_reads == ref.n_reads == len(kinds)
                assert report.n_batches == ref.n_batches

    def test_more_threads_than_cores_under_fast_switching(self, world, tmp_path):
        # slices share one database across threads: oversubscribe the
        # host and switch threads often, so a lost or reordered slice
        # would show up as different bytes
        handles, pool, _ = world
        session = handles["mmap"].session()
        reads_path = _write(tmp_path / "reads.fq", pool * 3)
        expected, _ = _classify(session, reads_path, None, tmp_path / "a.tsv", 1, 50)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(1) as runner:
                future = runner.submit(
                    _classify, session, reads_path, None, tmp_path / "b.tsv", 6, 50
                )
                got, report = future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        assert report.n_reads == len(pool) * 3

    def test_empty_batch_finishes_as_one_empty_run(self, world):
        handles, _, _ = world
        session = handles["condensed"].session()
        with ThreadPoolExecutor(2) as pool:
            run = session._run_split([], PackedReads.empty(), session.params, pool, 3)
        assert len(run.records) == 0
        assert run.report.n_batches == 1
        assert run.report.n_reads == run.report.n_classified == 0

    def test_routed_session_keeps_one_slice(self, world, tmp_path):
        # a session with a router never hands slices to the thread pool
        handles, pool, _ = world
        session = handles["condensed"].session()
        reads_path = _write(tmp_path / "reads.fq", pool[:10])
        expected, _ = _classify(session, reads_path, None, tmp_path / "a.tsv", 1, 10)
        router = mock.Mock()
        routed = QuerySession(session.database, router=router)
        db = session.database
        router.query.side_effect = lambda packed, params: query_database(
            db, packed, params=db.params.replace(classification=params)
        )
        seen = []
        real = QuerySession._compute

        def spy(self, db, packed, cp):
            seen.append(packed.n_reads)
            return real(self, db, packed, cp)

        with mock.patch.object(QuerySession, "_compute", spy):
            got, _ = _classify(routed, reads_path, None, tmp_path / "b.tsv", 4, 10)
        assert got == expected
        assert seen == [10]


class TestSplitFailureAndLifetime:
    def test_failing_slice_raises_pipeline_error_without_hanging(self, world, tmp_path):
        handles, pool, _ = world
        session = handles["condensed"].session()
        # many small batches against a one-deep queue: a producer left
        # blocked on put() would hang the call
        reads_path = _write(tmp_path / "reads.fq", pool * 4)
        real = QuerySession._compute
        pins_at_end: list[int] = []
        calls = itertools.count()

        def flaky(self, db, packed, cp):
            # the first slice fails late, so its siblings on the other
            # pool threads run meanwhile -- under the batch's pin
            if next(calls) == 0:
                time.sleep(0.05)
                raise RuntimeError("slice exploded")
            result = real(self, db, packed, cp)
            pins_at_end.append(db._retains)
            return result

        db = session.database
        with mock.patch.object(QuerySession, "_compute", flaky):
            with mock.patch(CORES, return_value=3):
                with pytest.raises(PipelineError, match="slice exploded") as info:
                    session.classify_files(reads_path, batch_size=8, queue_depth=1)
        assert str(reads_path) in str(info.value)
        # every pool slice of the one failed batch ran under its one pin
        assert pins_at_end and set(pins_at_end) == {1}
        assert db._retains == 0  # and the batch's pin was released
        if hasattr(os, "sched_getaffinity"):
            assert os.sched_getaffinity(0) == AFFINITY  # caller unpinned again

    @pytest.mark.skipif(
        len(AFFINITY) < 2, reason="needs an affinity API and two cores"
    )
    def test_slice_threads_run_on_distinct_cores(self, world, tmp_path):
        handles, pool, _ = world
        session = handles["mmap"].session()
        reads_path = _write(tmp_path / "reads.fq", pool)
        real = QuerySession._compute
        seen: dict[int, frozenset[int]] = {}

        def spy(self, db, packed, cp):
            seen[threading.get_ident()] = frozenset(os.sched_getaffinity(0))
            return real(self, db, packed, cp)

        with mock.patch.object(QuerySession, "_compute", spy):
            _classify(session, reads_path, None, tmp_path / "out.tsv", 2, 64)
        cores = sorted(AFFINITY)
        assert seen[threading.get_ident()] == {cores[0]}  # the caller
        assert sorted(seen.values(), key=min) == [{cores[0]}, {cores[1]}]
        assert os.sched_getaffinity(0) == AFFINITY

    def test_swap_and_close_mid_batch_defers_unmap(self, world, tmp_path):
        handles, pool, saved = world
        reads_path = _write(tmp_path / "reads.fq", pool[:40])
        expected, _ = _classify(
            handles["mmap"].session(), reads_path, None, tmp_path / "ref.tsv", 1, 40
        )
        old = MetaCache.open(saved, mmap=True)
        new = MetaCache.open(saved, mmap=True)
        session = old.session()
        old_db = old.database
        seen: dict[str, object] = {}
        swapped = threading.Lock()
        real = QuerySession._compute

        def swap_once(self, db, packed, cp):
            if swapped.acquire(blocking=False):
                session.swap_database(new.database).close()
                seen["retains"] = old_db._retains
                seen["closed_inside"] = old_db.closed
            return real(self, db, packed, cp)

        try:
            with mock.patch.object(QuerySession, "_compute", swap_once):
                got, _ = _classify(
                    session, reads_path, None, tmp_path / "out.tsv", 3, 40
                )
            assert got == expected
            assert seen == {"retains": 1, "closed_inside": False}
            assert old_db.closed  # released by the batch's one release()
            assert session.database is new.database and not new.database.closed
        finally:
            new.close()
            old.close()
