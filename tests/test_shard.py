"""Sharded serving: plan, router byte-identity, replica failover.

The acceptance bar for :mod:`repro.shard`: classification through the
shard router -- any shard count x replica count -- must be
byte-identical to single-process ``classify_files``, a replica killed
with SIGKILL mid-run must never fail a request (the batch fails over
to a sibling and the shard merely reports degraded until its respawn
lands), and tearing the router down must leave no orphan processes.
"""

import io
import json
import shutil
import signal
import threading
import time

import numpy as np
import pytest

from repro.api import MetaCache, MetaCacheParams, TsvSink
from repro.core.query import query_database
from repro.errors import DatabaseFormatError, ShardFailedError
from repro.genomics.alphabet import decode_sequence
from repro.genomics.fastq import FastqRecord, write_fastq
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.pipeline.packed import PackedReads
from repro.shard import ShardPlan, ShardRouter
from repro.taxonomy.builder import build_taxonomy_for_genomes

from reference.index_v1 import save_database_v1

PARAMS = MetaCacheParams.small()
N_READS = 48
N_PARTITIONS = 4


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A saved 4-partition v2 database, a FASTQ file, a packed batch."""
    root = tmp_path_factory.mktemp("shard")
    genomes = GenomeSimulator(seed=23).simulate_collection(3, 2, 5000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    references = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]
    mc = MetaCache.ephemeral(
        references, taxonomy, params=PARAMS, n_partitions=N_PARTITIONS
    )
    mc.save(root / "db_v2", format=2)
    mc.close()
    reads = ReadSimulator(genomes, seed=41).simulate(HISEQ, N_READS)
    records = [
        FastqRecord(f"r{i}", decode_sequence(s), "I" * s.size)
        for i, s in enumerate(reads.sequences)
    ]
    reads_path = root / "sample.fastq"
    write_fastq(records, reads_path)
    packed = PackedReads.from_reads(list(reads.sequences))
    return root / "db_v2", reads_path, packed


def _classify_tsv(handle, reads_path) -> str:
    buffer = io.StringIO()
    with handle.session() as session, TsvSink(buffer) as sink:
        session.classify_files(reads_path, sink=sink)
    return buffer.getvalue()


def _assert_same_result(got, ref):
    assert np.array_equal(got.candidates.target, ref.candidates.target)
    assert np.array_equal(got.candidates.score, ref.candidates.score)
    assert np.array_equal(got.candidates.valid, ref.candidates.valid)
    assert np.array_equal(
        got.candidates.window_first, ref.candidates.window_first
    )
    assert np.array_equal(got.candidates.window_last, ref.candidates.window_last)
    assert np.array_equal(got.read_lengths, ref.read_lengths)
    assert got.total_locations == ref.total_locations


# ------------------------------------------------------------------- plan


class TestShardPlan:
    def test_covers_partitions_disjointly(self, world):
        db_dir, _, _ = world
        plan = ShardPlan.from_directory(db_dir, 3)
        assert plan.n_shards == 3
        seen = sorted(
            p for a in plan.assignments for p in a.partition_ids
        )
        assert seen == list(range(N_PARTITIONS))

    def test_balances_by_locations(self, world):
        db_dir, _, _ = world
        plan = ShardPlan.from_directory(db_dir, 2)
        weights = [a.weight for a in plan.assignments]
        # greedy LPT: no shard may hold everything while another is empty
        assert all(w > 0 for w in weights)

    def test_deterministic(self, world):
        db_dir, _, _ = world
        a = ShardPlan.from_directory(db_dir, 2)
        b = ShardPlan.from_directory(db_dir, 2)
        assert a == b

    def test_rejects_more_shards_than_partitions(self, world):
        db_dir, _, _ = world
        with pytest.raises(ValueError, match="every shard needs"):
            ShardPlan.from_directory(db_dir, N_PARTITIONS + 1)

    def test_rejects_zero_shards(self, world):
        db_dir, _, _ = world
        with pytest.raises(ValueError, match=">= 1"):
            ShardPlan.from_directory(db_dir, 0)

    def test_rejects_missing_directory(self, tmp_path):
        with pytest.raises(DatabaseFormatError):
            ShardPlan.from_directory(tmp_path / "nope", 1)

    def test_rejects_metadata_without_a_partition_count(self, world, tmp_path):
        """The planner parses the metadata with the loader's reader."""
        db_dir, _, _ = world
        shutil.copytree(db_dir, tmp_path / "db")
        meta_path = tmp_path / "db" / "database.meta"
        meta = json.loads(meta_path.read_text())
        del meta["n_partitions"]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(DatabaseFormatError, match="incomplete metadata"):
            ShardPlan.from_directory(tmp_path / "db", 1)

    def test_rejects_v1_directory(self, tmp_path):
        genomes = GenomeSimulator(seed=5).simulate_collection(1, 1, 3000)
        taxonomy, taxa = build_taxonomy_for_genomes(genomes)
        mc = MetaCache.ephemeral(
            [(genomes[0].name, genomes[0].scaffolds[0], taxa.target_taxon[0])],
            taxonomy,
            params=PARAMS,
        )
        save_database_v1(mc.database, tmp_path / "db_v1")
        mc.close()
        with pytest.raises(DatabaseFormatError, match="metacache-repro convert"):
            ShardPlan.from_directory(tmp_path / "db_v1", 1)
        MetaCache.convert(tmp_path / "db_v1", tmp_path / "db")
        assert ShardPlan.from_directory(tmp_path / "db", 1).n_shards == 1


# --------------------------------------------------------- partition_ids


class TestQueryPartitionSubset:
    def test_subset_validation(self, world):
        db_dir, _, packed = world
        with MetaCache.open(db_dir, mmap=True) as mc:
            db = mc.database
            with pytest.raises(ValueError, match="at least one"):
                query_database(db, packed, partition_ids=[])
            with pytest.raises(ValueError, match="out of range"):
                query_database(db, packed, partition_ids=[N_PARTITIONS])
            with pytest.raises(ValueError, match="ascending"):
                query_database(db, packed, partition_ids=[1, 0])

    def test_shard_union_equals_whole(self, world):
        """Merging the two half-database runs equals the full query."""
        from repro.core.merge import merge_partition_runs

        db_dir, _, packed = world
        with MetaCache.open(db_dir, mmap=True) as mc:
            db = mc.database
            ref = query_database(db, packed)
            lo = query_database(db, packed, partition_ids=[0, 1])
            hi = query_database(db, packed, partition_ids=[2, 3])
            merged = merge_partition_runs(
                [lo.candidates, hi.candidates], m=ref.candidates.m
            )
            assert np.array_equal(merged.target, ref.candidates.target)
            assert np.array_equal(merged.score, ref.candidates.score)
            assert np.array_equal(merged.valid, ref.candidates.valid)


# ------------------------------------------------------------ byte identity


class TestRouterByteIdentity:
    @pytest.mark.slow
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("replicas", [1, 2])
    def test_router_query_matches_single_process(
        self, world, shards, replicas
    ):
        db_dir, _, packed = world
        with MetaCache.open(db_dir, mmap=True) as mc:
            ref = query_database(mc.database, packed)
            params = mc.database.params.classification
        plan = ShardPlan.from_directory(db_dir, shards)
        with ShardRouter(plan, replicas=replicas) as router:
            _assert_same_result(router.query(packed, params=params), ref)

    @pytest.mark.slow
    @pytest.mark.parametrize("shards,replicas", [(2, 1), (2, 2)])
    def test_classify_files_tsv_identical(self, world, shards, replicas):
        db_dir, reads_path, _ = world
        with MetaCache.open(db_dir, mmap=True) as plain:
            ref = _classify_tsv(plain, reads_path)
        with MetaCache.open(db_dir, shards=shards, replicas=replicas) as mc:
            assert mc.router is not None and not mc.router.degraded
            assert _classify_tsv(mc, reads_path) == ref
        assert mc.router.closed

    def test_open_validates_topology(self, world):
        db_dir, _, _ = world
        with pytest.raises(ValueError, match="replicas requires shards"):
            MetaCache.open(db_dir, replicas=2)
        with pytest.raises(ValueError, match=">= 1"):
            MetaCache.open(db_dir, shards=0)


# ----------------------------------------------------------------- failover


class TestReplicaFailover:
    def _open_router(self, db_dir, **kwargs):
        plan = ShardPlan.from_directory(db_dir, 2)
        kwargs.setdefault("replicas", 2)
        return ShardRouter(plan, **kwargs)

    def test_kill_between_batches_keeps_output_identical(self, world):
        db_dir, _, packed = world
        with MetaCache.open(db_dir, mmap=True) as mc:
            ref = query_database(mc.database, packed)
            params = mc.database.params.classification
        with self._open_router(db_dir) as router:
            router.query(packed, params=params)
            victim = router._sets[0].slots[0].process
            victim.kill()
            victim.join(timeout=10)
            got = router.query(packed, params=params)
            _assert_same_result(got, ref)
            assert router._sets[0].deaths == 1

    def test_kill_mid_batch_fails_over(self, world):
        """SIGKILL the replica *holding the in-flight batch*: the batch
        must complete byte-identically on the sibling replica and the
        failover must be counted."""
        db_dir, _, packed = world
        with MetaCache.open(db_dir, mmap=True) as mc:
            ref = query_database(mc.database, packed)
            params = mc.database.params.classification
        with self._open_router(db_dir, respawn_backoff=30.0) as router:
            # deterministic dispatch: batch 1 goes to replica 0 of each
            # shard (least-loaded ties break on the lowest replica id)
            victim = router._sets[0].slots[0].process
            killer = threading.Timer(0.0, victim.kill)
            killer.start()
            try:
                got = router.query(packed, params=params)
            finally:
                killer.cancel()
            _assert_same_result(got, ref)
            assert router._sets[0].deaths >= 1
            # the large backoff pins the shard in degraded state
            assert router.degraded
            health = router.stats()["per_shard"][0]
            assert health["degraded"] and health["live"] == 1

    def test_respawn_after_backoff_heals(self, world):
        db_dir, _, packed = world
        with MetaCache.open(db_dir, mmap=True) as mc:
            params = mc.database.params.classification
        with self._open_router(db_dir, respawn_backoff=0.1) as router:
            slot = router._sets[1].slots[1]
            gen = slot.generation
            slot.process.kill()
            slot.process.join(timeout=10)
            deadline = time.monotonic() + 30
            while router.degraded and time.monotonic() < deadline:
                router.maintain()
                time.sleep(0.05)
            assert not router.degraded
            assert slot.generation == gen + 1
            assert router._sets[1].respawns >= 1
            # the respawned replica serves traffic
            router.query(packed, params=params)

    def test_backoff_doubles_and_caps(self, world):
        db_dir, _, _ = world
        with self._open_router(
            db_dir, respawn_backoff=0.5, respawn_backoff_cap=1.5
        ) as router:
            rset = router._sets[0]
            slot = rset.slots[0]
            delays = []
            for _ in range(4):
                slot.process.kill()
                slot.process.join(timeout=10)
                now = time.monotonic()
                rset.note_death(slot, now)
                delays.append(slot.next_respawn_at - now)
                slot.spawn()
            assert delays == pytest.approx([0.5, 1.0, 1.5, 1.5])

    def test_all_replicas_dead_and_budget_exhausted_raises(self, world):
        db_dir, _, packed = world
        with MetaCache.open(db_dir, mmap=True) as mc:
            params = mc.database.params.classification
        plan = ShardPlan.from_directory(db_dir, 2)
        with ShardRouter(plan, replicas=1, max_respawns=0) as router:
            rset = router._sets[0]
            rset.slots[0].process.kill()
            rset.slots[0].process.join(timeout=10)
            # burn the (zero) respawn budget
            rset.slots[0].respawn_attempts = 1
            with pytest.raises(ShardFailedError, match="shard 0"):
                router.query(packed, params=params)

    def test_no_orphans_after_close(self, world):
        db_dir, _, packed = world
        with MetaCache.open(db_dir, mmap=True) as mc:
            params = mc.database.params.classification
        router = self._open_router(db_dir)
        router.query(packed, params=params)
        procs = [
            slot.process for rset in router._sets for slot in rset.slots
        ]
        assert all(p.is_alive() for p in procs)
        router.close()
        for p in procs:
            p.join(timeout=10)
        assert all(not p.is_alive() for p in procs)
        router.close()  # idempotent


# ------------------------------------------------------------------ server


@pytest.mark.slow
class TestShardedServer:
    def test_healthz_reports_degraded_and_stats_expose_shards(self, world):
        import http.client
        import json

        from repro.server import ClassificationServer, ServerThread

        db_dir, reads_path, _ = world
        with MetaCache.open(db_dir, shards=2, replicas=2) as mc:
            # huge backoff: the killed replica stays down for the probe
            for rset in mc.router._sets:
                rset.respawn_backoff = 60.0
            session = mc.session()
            server = ClassificationServer(session, port=0)
            with ServerThread(server, on_stop=session.close):

                def get(path):
                    conn = http.client.HTTPConnection(
                        server.host, server.port, timeout=30
                    )
                    try:
                        conn.request("GET", path)
                        resp = conn.getresponse()
                        return resp.status, json.loads(resp.read())
                    finally:
                        conn.close()

                status, body = get("/healthz")
                assert status == 200 and body["status"] == "ok"
                assert body["shards"]["degraded"] is False

                victim = mc.router._sets[0].slots[0].process
                victim.kill()
                victim.join(timeout=10)

                status, body = get("/healthz")
                assert status == 200  # degraded, NOT failed
                assert body["status"] == "degraded"
                assert body["shards"]["live"][0] == 1

                status, body = get("/stats")
                assert status == 200
                shards = body["shards"]
                assert shards["shards"] == 2 and shards["replicas"] == 2
                assert shards["degraded"] is True
                assert shards["per_shard"][0]["live"] == 1

                # classification keeps working while degraded
                conn = http.client.HTTPConnection(
                    server.host, server.port, timeout=60
                )
                try:
                    conn.request(
                        "POST", "/classify", body=reads_path.read_bytes()
                    )
                    resp = conn.getresponse()
                    assert resp.status == 200
                    resp.read()
                finally:
                    conn.close()
