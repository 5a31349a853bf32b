"""ServerThread shutdown ordering: no orphan processes, ever.

Regression suite for the shutdown contract: a session that owns real
worker processes (a ``session(workers=N)`` pool or a shard router)
must be closed on *every* :meth:`ServerThread.stop` exit path -- including
the drain-timeout branch, where the server raises
:class:`~repro.errors.ServerError` but still must not abandon the
process tree.  Before the fix, ``on_stop`` only ran when the drain
succeeded, so a wedged drain leaked one pool per failed shutdown.
"""

import asyncio

import pytest

from repro.api import CollectSink, MetaCache, MetaCacheParams
from repro.errors import ServerError
from repro.genomics.alphabet import decode_sequence
from repro.genomics.fastq import FastqRecord, write_fastq
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.server import ClassificationServer, ServerThread
from repro.taxonomy.builder import build_taxonomy_for_genomes

PARAMS = MetaCacheParams.small()


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A saved 2-partition v2 database and a small FASTQ read file."""
    root = tmp_path_factory.mktemp("server_shutdown")
    genomes = GenomeSimulator(seed=31).simulate_collection(2, 1, 4000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    references = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]
    mc = MetaCache.ephemeral(
        references, taxonomy, params=PARAMS, n_partitions=2
    )
    mc.save(root / "db_v2", format=2)
    mc.close()
    reads = ReadSimulator(genomes, seed=47).simulate(HISEQ, 12)
    write_fastq(
        [
            FastqRecord(f"r{i}", decode_sequence(s), "I" * s.size)
            for i, s in enumerate(reads.sequences)
        ],
        root / "reads.fastq",
    )
    return root / "db_v2", root / "reads.fastq"


def _warm_pool(session, reads_path):
    """Classify a file once so the session actually spawns its pool."""
    session.classify_files(reads_path, sink=CollectSink())
    engine = session._engine
    assert engine is not None and not engine.closed
    procs = [slot.process for slot in engine._pool.slots]
    assert procs and all(p.is_alive() for p in procs)
    return engine, procs


def _hang_batcher_close(server):
    """Replace the batcher's close with one that never finishes."""

    async def wedged_close(drain: bool = True) -> None:
        await asyncio.sleep(3600)

    server.batcher.close = wedged_close


def _assert_all_dead(procs):
    for p in procs:
        p.join(timeout=10)
    assert all(not p.is_alive() for p in procs)


class TestNormalStop:
    def test_on_stop_closes_pool_session(self, world):
        db_dir, reads_path = world
        with MetaCache.open(db_dir, mmap=True) as mc:
            session = mc.session(workers=2)
            _, procs = _warm_pool(session, reads_path)
            server = ClassificationServer(session, port=0)
            thread = ServerThread(server, on_stop=session.close)
            thread.start()
            thread.stop()
            assert session._engine is None
            _assert_all_dead(procs)

    def test_stop_without_start_is_noop(self, world):
        db_dir, _ = world
        ran = []
        with MetaCache.open(db_dir, mmap=True) as mc:
            session = mc.session()
            server = ClassificationServer(session, port=0)
            thread = ServerThread(server, on_stop=lambda: ran.append(True))
            thread.stop()  # never started: nothing to tear down
            assert ran == []


class TestDrainTimeout:
    def test_timeout_raises_but_still_closes_pool(self, world):
        """The regression: a wedged drain must raise ServerError *and*
        run ``on_stop`` so the session's worker pool is torn down."""
        db_dir, reads_path = world
        with MetaCache.open(db_dir, mmap=True) as mc:
            session = mc.session(workers=2)
            _, procs = _warm_pool(session, reads_path)
            server = ClassificationServer(session, port=0)
            _hang_batcher_close(server)
            thread = ServerThread(
                server, on_stop=session.close, drain_timeout=0.5
            )
            thread.start()
            with pytest.raises(ServerError, match="drain did not finish"):
                thread.stop()
            assert session._engine is None
            _assert_all_dead(procs)
            # a second stop is a no-op and must not re-run on_stop
            thread.stop()

    def test_timeout_still_closes_shard_router(self, world):
        db_dir, _ = world
        mc = MetaCache.open(db_dir, shards=2, replicas=1)
        try:
            session = mc.session()
            procs = [
                slot.process
                for rset in mc.router._sets
                for slot in rset.slots
            ]
            assert all(p.is_alive() for p in procs)
            server = ClassificationServer(session, port=0)
            _hang_batcher_close(server)
            thread = ServerThread(
                server,
                on_stop=mc.close,  # the serve entry point owns the handle
                drain_timeout=0.5,
            )
            thread.start()
            with pytest.raises(ServerError, match="drain did not finish"):
                thread.stop()
            assert mc.router.closed
            _assert_all_dead(procs)
        finally:
            mc.close()  # idempotent

    def test_on_stop_runs_even_when_drain_errors(self, world):
        """A drain that *fails* (rather than hangs) must also reach
        ``on_stop`` -- the exception propagates out of stop()."""
        db_dir, _ = world
        with MetaCache.open(db_dir, mmap=True) as mc:
            session = mc.session()
            server = ClassificationServer(session, port=0)

            async def broken_close(drain: bool = True) -> None:
                raise RuntimeError("drain exploded")

            server.batcher.close = broken_close
            ran = []
            thread = ServerThread(
                server, on_stop=lambda: ran.append(True)
            )
            thread.start()
            with pytest.raises(RuntimeError, match="drain exploded"):
                thread.stop()
            assert ran == [True]
