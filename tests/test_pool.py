"""The process-level contract of ``WorkerPool`` and its three clients.

One parametrised suite runs over the bare :class:`WorkerPool` and each
plan built on it -- :class:`ParallelClassifier`, :class:`ParallelSketcher`,
:class:`ShardRouter` -- because they share one substrate and must share
its guarantees: a failed start -- in the child or in the parent -- is a
typed :class:`WorkerCrashError`, a
SIGKILLed worker ends in the client's documented outcome, SIGINT never
takes a worker down, ``close()`` is idempotent and also runs from the
GC finalizer, and in every case zero child processes are left behind.
"""

import errno
import gc
import os
import signal
import time
from multiprocessing.context import SpawnProcess

import numpy as np
import pytest

from repro.api import MetaCache, MetaCacheParams
from repro.core.io import load_database
from repro.core.query import query_database
from repro.errors import PipelineError, WorkerCrashError
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.parallel import ParallelClassifier, ParallelSketcher, WorkerPool
from repro.pipeline.packed import PackedReads
from repro.shard import ShardPlan, ShardRouter
from repro.taxonomy.builder import build_taxonomy_for_genomes

from reference.pool_tasks import Unloadable, start_broken, start_scaler

PARAMS = MetaCacheParams.small()


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A saved 2-partition v2 index, a read batch, its reference answer."""
    root = tmp_path_factory.mktemp("pool")
    genomes = GenomeSimulator(seed=31).simulate_collection(2, 2, 4000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    refs = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]
    with MetaCache.ephemeral(refs, taxonomy, params=PARAMS, n_partitions=2) as mc:
        mc.save(root / "v2", format=2)
    seqs = list(ReadSimulator(genomes, seed=3).simulate(HISEQ, 24).sequences)
    return {
        "dir": root / "v2",
        "codes": refs[0][1],
        "headers": [f"r{i}" for i in range(len(seqs))],
        "seqs": seqs,
        "packed": PackedReads.from_reads(seqs),
    }


class _Subject:
    """How the suite opens, drives and inspects one kind of pool."""

    name: str

    def open(self, world):
        raise NotImplementedError

    def open_broken(self, world):
        """Open so that every child fails to start."""
        raise NotImplementedError

    def pool(self, obj) -> WorkerPool:
        return obj._pool

    def work(self, obj, world) -> None:
        """One unit of work through the pool, checked against one process."""
        raise NotImplementedError


class _BarePool(_Subject):
    name = "WorkerPool"

    def open(self, world):
        return WorkerPool(start_scaler, [(2,), (3,)], ["scaler-0", "scaler-1"])

    def open_broken(self, world):
        return WorkerPool(start_broken, [(2,), (3,)], ["scaler-0", "scaler-1"])

    def pool(self, obj):
        return obj

    def work(self, obj, world):
        for index, factor in enumerate((2, 3)):
            obj.put(index, "t", (7,))
            assert obj.next_result() == (index, "t", 7 * factor)


class _Classify(_Subject):
    name = "ParallelClassifier"

    def open(self, world):
        self._db = load_database(world["dir"], mmap=True)
        return ParallelClassifier(self._db, workers=2)

    def open_broken(self, world):
        db = load_database(world["dir"], mmap=True)
        db.mmap_path = str(world["dir"]) + "-missing"
        return ParallelClassifier(db, workers=2)

    def work(self, obj, world):
        headers, seqs = world["headers"], world["seqs"]
        chunks = [(headers[i : i + 6], seqs[i : i + 6]) for i in range(0, 24, 6)]
        got = list(obj.classify_chunks(chunks))
        assert {r.worker_id for r in got} == {0, 1}
        ref = query_database(self._db, seqs)
        from repro.core.classify import classify_reads

        assert np.array_equal(
            np.concatenate([r.classification.taxon for r in got]),
            classify_reads(self._db, ref.candidates).taxon,
        )


class _Sketch(_Subject):
    name = "ParallelSketcher"

    def open(self, world):
        self._next = 0
        return ParallelSketcher(PARAMS.sketch, 2)

    def open_broken(self, world):
        # the sketch pool's init has nothing to attach; break the spawn
        return ParallelSketcher(Unloadable(), 2)

    def work(self, obj, world):
        from repro.hashing.sketch import sketch_packed_segments

        codes = world["codes"]
        offsets = np.array([0, codes.size], dtype=np.int64)
        first = self._next
        for _ in range(2):  # one job per worker (least-loaded dispatch)
            obj.submit(self._next, codes)
            self._next += 1
        expected, counts = sketch_packed_segments(codes, offsets, PARAMS.sketch)
        for k, (job, sketches, got_counts) in enumerate(obj.drain_all()):
            assert job == first + k
            assert np.array_equal(sketches, expected)
            assert np.array_equal(got_counts, counts)


class _Shards(_Subject):
    name = "ShardRouter"

    def open(self, world):
        plan = ShardPlan.from_directory(world["dir"], 2)
        return ShardRouter(plan, replicas=2, respawn_backoff=0.05)

    def open_broken(self, world):
        plan = ShardPlan.from_directory(world["dir"], 2)
        object.__setattr__(plan, "directory", str(world["dir"]) + "-missing")
        return ShardRouter(plan, replicas=1)

    def work(self, obj, world):
        with MetaCache.open(world["dir"], mmap=True) as mc:
            ref = query_database(mc.database, world["packed"])
            got = obj.query(
                world["packed"], params=mc.database.params.classification
            )
        assert np.array_equal(got.candidates.target, ref.candidates.target)
        assert np.array_equal(got.candidates.score, ref.candidates.score)


SUBJECTS = [_BarePool, _Classify, _Sketch, _Shards]


@pytest.fixture(params=SUBJECTS, ids=lambda cls: cls.name)
def subject(request):
    return request.param()


def _processes(pool: WorkerPool):
    return [slot.process for slot in pool.slots]


def _assert_no_children(procs) -> None:
    for p in procs:
        p.join(timeout=10)
    assert all(not p.is_alive() for p in procs)


def _refuse_second_start(monkeypatch) -> list:
    """The parent's second ``Process.start()`` fails with EAGAIN."""
    real_start = SpawnProcess.start
    attempts = []

    def start(process):
        attempts.append(process)
        if len(attempts) == 2:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        real_start(process)

    monkeypatch.setattr(SpawnProcess, "start", start)
    return attempts


# a start fails in the child (``init`` raises or cannot unpickle) or in
# the parent (``Process.start`` itself raises); the child ids are the
# subjects' names
FAILED_STARTS = [
    pytest.param(cls, where, id=cls.name if where == "child" else f"{cls.name}-parent")
    for where in ("child", "parent")
    for cls in SUBJECTS
]


@pytest.mark.parametrize("subject_cls, where", FAILED_STARTS)
def test_failed_start_is_typed_and_leaves_no_children(
    subject_cls, where, world, monkeypatch
):
    subject = subject_cls()
    started = []
    real_respawn = WorkerPool.respawn

    def recording_respawn(pool, index):
        real_respawn(pool, index)
        started.append(pool.slots[index].process)

    monkeypatch.setattr(WorkerPool, "respawn", recording_respawn)
    if where == "child":
        with pytest.raises(WorkerCrashError) as failure:
            subject.open_broken(world)
    else:
        attempts = _refuse_second_start(monkeypatch)
        with pytest.raises(WorkerCrashError) as failure:
            subject.open(world)
        refused_slot = attempts[1].name.rsplit("-gen", 1)[0]
        assert f"{refused_slot} failed to start" in str(failure.value)
        assert isinstance(failure.value.__cause__, OSError)
        assert failure.value.__cause__.errno == errno.EAGAIN
        assert len(started) == 1  # only the started slot holds a process
    assert started
    _assert_no_children(started)
    if where == "child" and not isinstance(subject, _Sketch):
        # init raised inside the child: its traceback travels with the error
        assert "--- worker traceback ---" in str(failure.value)
        assert "Traceback (most recent call last)" in str(failure.value)


def test_sigkill_ends_in_the_documented_outcome(subject, world):
    obj = subject.open(world)
    pool = subject.pool(obj)
    procs = _processes(pool)
    try:
        subject.work(obj, world)
        os.kill(procs[0].pid, signal.SIGKILL)
        procs[0].join(timeout=10)
        if isinstance(subject, _Shards):
            # failover now, respawn after the backoff, zero failed batches
            subject.work(obj, world)
            deadline = time.monotonic() + 30
            while obj.degraded and time.monotonic() < deadline:
                obj.maintain()
                time.sleep(0.02)
            assert not obj.degraded
            assert obj.stats()["deaths"] == 1 and obj.stats()["respawns"] == 1
            subject.work(obj, world)
            procs = procs + _processes(pool)
        else:
            with pytest.raises(WorkerCrashError, match="exit code -9"):
                subject.work(obj, world)
            if not isinstance(subject, _BarePool):
                assert obj.closed  # any crash closes the classify/sketch pool
    finally:
        obj.close()
    _assert_no_children(procs)


def test_sigint_is_ignored_and_close_exits_cleanly(subject, world):
    obj = subject.open(world)
    procs = _processes(subject.pool(obj))
    try:
        subject.work(obj, world)
        for p in procs:
            os.kill(p.pid, signal.SIGINT)
        time.sleep(0.2)  # a worker that honoured SIGINT would be dead by now
        assert all(p.is_alive() for p in procs)
        subject.work(obj, world)  # and still answers the next task
    finally:
        obj.close()
    _assert_no_children(procs)
    assert [p.exitcode for p in procs] == [0] * len(procs)


def test_close_is_idempotent_and_runs_from_the_finalizer(subject, world):
    obj = subject.open(world)
    procs = _processes(subject.pool(obj))
    obj.close()
    obj.close()
    _assert_no_children(procs)

    obj = subject.open(world)
    procs = _processes(subject.pool(obj))
    assert all(p.is_alive() for p in procs)
    del obj
    subject.__dict__.clear()  # drop the subject's own references too
    gc.collect()
    _assert_no_children(procs)


def test_task_error_keeps_the_bare_pool_serving(world):
    with WorkerPool(start_scaler, [(2,)], ["scaler-0"]) as pool:
        pool.put(0, "bad", (None,))
        with pytest.raises(PipelineError, match="cannot scale None"):
            pool.next_result()
        pool.put(0, "good", (4,))
        assert pool.next_result() == (0, "good", 8)
        assert pool.slots[0].inflight == 0


def test_respawn_starts_a_new_generation_on_fresh_queues(world):
    with WorkerPool(start_scaler, [(2,)], ["scaler-0"]) as pool:
        slot = pool.slots[0]
        first, old_tasks = slot.process, slot.tasks
        first.kill()
        first.join(timeout=10)
        assert pool.dead_slots() == [0]
        pool.respawn(0)
        assert slot.generation == 2 and slot.tasks is not old_tasks
        assert pool.dead_slots() == []
        pool.put(0, 1, (5,))
        assert pool.next_result() == (0, 1, 10)
        assert slot.ready


def test_wait_reports_an_exit_that_was_already_reaped(world):
    """A death ends one wait even when an earlier ``alive`` check reaped
    the child, leaving no sentinel to fire (close() once lost 5 s here)."""
    with WorkerPool(start_scaler, [(2,), (3,)], ["scaler-0", "scaler-1"]) as pool:
        victim = pool.slots[0].process
        victim.kill()
        victim.join(timeout=10)
        t0 = time.monotonic()
        pool.wait(5.0)
        assert time.monotonic() - t0 < 2.0
        assert pool.dead_slots() == [0]
        t0 = time.monotonic()
        pool.wait(0.3)  # reported once; now a real (timed-out) wait
        assert time.monotonic() - t0 >= 0.25


def test_abandoned_classify_generator_closes_the_pool(world):
    db = load_database(world["dir"], mmap=True)
    engine = ParallelClassifier(db, workers=2)
    procs = _processes(engine._pool)
    headers, seqs = world["headers"], world["seqs"]
    chunks = [(headers[i : i + 4], seqs[i : i + 4]) for i in range(0, 24, 4)]
    stream = engine.classify_chunks(chunks)
    next(stream)
    stream.close()  # abandoned mid-run
    assert engine.closed
    _assert_no_children(procs)
