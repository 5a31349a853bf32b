"""Hot-swap reload tests: crash-atomic saves, explicit mmap lifetimes,
and zero-downtime index swaps.

Covers the reload subsystem end to end:

- ``save_database`` staging + atomic publish: a process killed in the
  middle of a save leaves the target untouched (and its debris is
  swept by the next save), exceptions leave no temp directories, and
  non-database targets are refused rather than clobbered;
- the versioned publish helpers (``publish_database`` /
  ``version_directories`` / ``latest_version``) that back ``serve
  --watch``;
- the ``Database`` retain/release/close lifetime: deferred unmap
  while batches are in flight, deterministic fd release, and a flat
  fd count across repeated open/close cycles;
- ``QuerySession.swap_database`` / ``MetaCache.reload`` semantics,
  including the sharded refusal at every surface;
- the HTTP surface: ``POST /admin/reload`` (directory swap and
  extend-rebuild), ``--watch`` polling, and the differential
  acceptance test -- a client classifies continuously through >= 10
  consecutive swaps with zero failed requests while the answers track
  the served generation and the process fd count stays flat.
"""

import dataclasses
import http.client
import json
import os
import shutil
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

import repro.api.session as session_module
from repro.api import (
    DatabaseFormatError,
    MetaCache,
    MetaCacheParams,
    QuerySession,
    ReloadError,
)
from repro.cli import main as cli_main
from repro.core import mapping
from repro.core.database import Database
from repro.core.io import (
    latest_version,
    load_database,
    publish_database,
    save_database,
    version_directories,
)
from repro.genomics.alphabet import decode_sequence
from repro.genomics.fasta import write_fasta
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.server import ClassificationServer, ServerThread
from repro.shard.router import ShardRouter
from repro.taxonomy.builder import build_taxonomy_for_genomes

PARAMS = MetaCacheParams.small()


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


def _settled_fd_count(deadline_seconds: float = 10.0) -> int:
    """The fd count once it stops moving (socket teardown is async)."""
    last = _fd_count()
    stable_since = time.monotonic()
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        time.sleep(0.05)
        current = _fd_count()
        if current != last:
            last = current
            stable_since = time.monotonic()
        elif time.monotonic() - stable_since > 0.4:
            break
    return last


def _rss_kib() -> int:
    for line in open("/proc/self/status"):
        if line.startswith("VmRSS:"):
            return int(line.split()[1])
    raise RuntimeError("no VmRSS in /proc/self/status")


def _fasta(sequences) -> bytes:
    return "".join(
        f">q{i}\n{s}\n" for i, s in enumerate(sequences)
    ).encode()


def request(host, port, method, path, body=None, headers=None, timeout=30):
    """One HTTP request; returns (status, headers dict, body bytes)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, dict(resp.getheaders()), data
    finally:
        conn.close()


def _reload_to(host, port, directory):
    status, _, data = request(
        host, port, "POST", "/admin/reload",
        body=json.dumps({"directory": str(directory)}),
        headers={"Content-Type": "application/json"},
    )
    return status, json.loads(data)


@pytest.fixture(scope="module")
def worlds(tmp_path_factory):
    """Two saved v2 databases (B = A + one extra genome) + probes.

    Reads simulated from the extra genome distinguish the
    generations: they classify differently against A than against B,
    so a swap is observable from the outside.
    """
    root = tmp_path_factory.mktemp("reload")
    genomes = GenomeSimulator(seed=77).simulate_collection(3, 2, 5000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    refs = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]
    db_a = Database.build(refs[:2], taxonomy, params=PARAMS)
    db_b = Database.build(refs, taxonomy, params=PARAMS)
    dir_a, dir_b = root / "a", root / "b"
    save_database(db_a, dir_a, format=2)
    save_database(db_b, dir_b, format=2)
    fasta3 = root / "genome2.fasta"
    write_fasta(genomes[2].to_fasta_records(), fasta3)
    probe = [
        decode_sequence(s)
        for s in ReadSimulator([genomes[2]], seed=9).simulate(HISEQ, 6).sequences
    ]
    common = [
        decode_sequence(s)
        for s in ReadSimulator(genomes[:2], seed=5).simulate(HISEQ, 10).sequences
    ]
    return SimpleNamespace(
        dir_a=dir_a,
        dir_b=dir_b,
        fasta3=fasta3,
        mapping={genomes[2].accession: int(taxa.target_taxon[2])},
        probe=probe,
        common=common,
    )


@pytest.fixture()
def served(worlds):
    """A server hot over database A, opened mmap-backed via the facade."""
    mc = MetaCache.open(worlds.dir_a, mmap=True)
    thread = mc.serve(port=0, block=False)
    try:
        yield mc, thread.server.host, thread.server.port
    finally:
        thread.stop()
        mc.close()


# ------------------------------------------------------- crash-atomic save


class TestCrashAtomicSave:
    def test_kill_mid_save_leaves_target_untouched_and_debris_swept(
        self, worlds, tmp_path
    ):
        db = load_database(worlds.dir_a)
        target = tmp_path / "victim"
        save_database(db, target, format=2)
        before = {p.name: p.read_bytes() for p in target.iterdir()}

        pid = os.fork()
        if pid == 0:  # child: die mid-way through the staging write
            import repro.core.io as io_mod

            def dying_writer(db, directory, fmt):
                (directory / "database.meta").write_text("{")  # partial
                os._exit(3)

            try:
                io_mod._write_database = dying_writer
                save_database(db, target, format=2)
            finally:
                os._exit(7)  # must not be reached
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 3

        # the target is byte-for-byte what it was before the crash...
        after = {p.name: p.read_bytes() for p in target.iterdir()}
        assert after == before
        # ...the dead save left exactly its staging directory behind...
        stale = [
            p for p in tmp_path.iterdir()
            if p.name.startswith(".victim.saving-")
        ]
        assert len(stale) == 1
        # ...and the next save sweeps it and publishes normally
        save_database(db, target, format=2)
        assert [p for p in tmp_path.iterdir() if p.name.startswith(".")] == []
        load_database(target, mmap=True, verify=True).close()

    def test_exception_mid_save_leaves_no_debris(
        self, worlds, tmp_path, monkeypatch
    ):
        import repro.core.io as io_mod

        db = load_database(worlds.dir_a)
        target = tmp_path / "victim"

        def failing_writer(db, directory, fmt):
            (directory / "database.meta").write_text("partial")
            raise RuntimeError("disk full")

        monkeypatch.setattr(io_mod, "_write_database", failing_writer)
        with pytest.raises(RuntimeError, match="disk full"):
            save_database(db, target, format=2)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_replaces_existing_database_atomically(self, worlds, tmp_path):
        target = tmp_path / "db"
        save_database(load_database(worlds.dir_a), target, format=2)
        save_database(load_database(worlds.dir_b), target, format=2)
        ref = {p.name: p.read_bytes() for p in worlds.dir_b.iterdir()}
        got = {p.name: p.read_bytes() for p in target.iterdir()}
        assert got == ref
        assert [p for p in tmp_path.iterdir() if p.name.startswith(".")] == []

    def test_refuses_existing_non_database_directory(self, worlds, tmp_path):
        target = tmp_path / "precious"
        target.mkdir()
        (target / "keep.txt").write_text("data")
        with pytest.raises(DatabaseFormatError, match="non-database"):
            save_database(load_database(worlds.dir_a), target, format=2)
        assert (target / "keep.txt").read_text() == "data"

    def test_empty_existing_directory_is_publishable(self, worlds, tmp_path):
        target = tmp_path / "empty"
        target.mkdir()
        save_database(load_database(worlds.dir_a), target, format=2)
        load_database(target, verify=True)


# ----------------------------------------------------- versioned publishing


class TestVersionedPublish:
    def test_publish_numbers_versions_and_skips_debris(self, worlds, tmp_path):
        db = load_database(worlds.dir_a)
        root = tmp_path / "versions"
        assert latest_version(root) is None  # absent root: no versions
        assert publish_database(db, root).name == "v1"
        assert publish_database(db, root).name == "v2"
        # incomplete debris (no database.meta) is invisible to readers
        (root / "v5").mkdir()
        assert [n for n, _ in version_directories(root)] == [1, 2]
        assert latest_version(root) == root / "v2"
        # ...but still counts when numbering, so it can never be
        # half-overwritten by the next publish
        assert publish_database(db, root).name == "v6"
        assert latest_version(root) == root / "v6"
        load_database(root / "v6", mmap=True, verify=True).close()


# ------------------------------------------------------- database lifetime


class TestDatabaseLifetime:
    def test_close_is_idempotent(self, worlds):
        db = load_database(worlds.dir_a)
        assert not db.closed
        db.close()
        assert db.closed
        db.close()  # no-op, no raise

    def test_retain_defers_close_until_release(self, worlds):
        db = load_database(worlds.dir_a)
        assert db.retain() is db
        db.close()
        assert not db.closed  # an in-flight batch still pins it
        db.release()
        assert db.closed

    def test_retain_after_close_and_unbalanced_release_raise(self, worlds):
        db = load_database(worlds.dir_a)
        db.close()
        with pytest.raises(RuntimeError, match="closed"):
            db.retain()
        db2 = load_database(worlds.dir_a)
        with pytest.raises(RuntimeError, match="matching retain"):
            db2.release()
        db2.close()

    def test_mmap_close_releases_file_descriptors(self, worlds):
        before = _fd_count()
        db = load_database(worlds.dir_a, mmap=True)
        assert _fd_count() > before  # live maps hold the files open
        db.close()
        assert _fd_count() == before

    def test_close_unmaps_every_mapped_array(self, worlds):
        """Every array the two-column index maps -- both columns, the
        offsets and the multi locations -- is unmapped by close."""
        db = load_database(worlds.dir_a, mmap=True)
        arrays = [a for p in db.partitions for a in p.condensed.arrays().values()]
        maps = [a._mmap for a in arrays if isinstance(a, np.memmap)]
        assert len(maps) == 5 * db.n_partitions  # all but the target maps
        assert not any(mm.closed for mm in maps)
        db.close()
        assert all(mm.closed for mm in maps)

    def test_open_close_cycles_keep_fd_count_flat(self, worlds):
        with MetaCache.open(worlds.dir_a, mmap=True) as mc:
            mc.classify(worlds.probe[:1])  # warm lazy imports first
        before = _fd_count()
        for _ in range(10):
            with MetaCache.open(worlds.dir_a, mmap=True) as mc:
                mc.classify(worlds.probe[:1])
        assert _fd_count() == before


# ------------------------------------------------------- swap protocol (API)


class TestSwapProtocol:
    def test_facade_reload_swaps_live_sessions(self, worlds):
        mc = MetaCache.open(worlds.dir_a, mmap=True)
        try:
            session = mc.session()
            a_taxa = [r.taxon_id for r in session.classify(worlds.probe)]
            old_db = mc.database
            mc.reload(worlds.dir_b)
            assert old_db.closed  # fds released deterministically
            assert str(mc.database.mmap_path) == str(worlds.dir_b)
            assert mc.source_path == str(worlds.dir_b)
            b_taxa = [r.taxon_id for r in session.classify(worlds.probe)]
            assert a_taxa != b_taxa  # the extra genome is now known
        finally:
            mc.close()

    def test_map_pins_the_index_through_a_reload(
        self, worlds, tmp_path, monkeypatch
    ):
        """A reload landing inside ``session.map`` must not close the
        index under it: the old database stays mapped until the call
        is done, and the mapping equals the one from before."""
        copy = tmp_path / "a_copy"
        shutil.copytree(worlds.dir_a, copy)
        mc = MetaCache.open(worlds.dir_a, mmap=True)
        try:
            session = mc.session()
            before = session.map(worlds.common)
            old_db = mc.database

            def reload_then_map(db, *args, **kwargs):
                mc.reload(copy)  # the swap lands mid-call
                return mapping.map_reads(db, *args, **kwargs)

            monkeypatch.setattr(session_module, "map_reads", reload_then_map)
            during = session.map(worlds.common)
            assert old_db.closed  # the deferred close ran on release
            for field in dataclasses.fields(during):
                assert np.array_equal(
                    getattr(during, field.name), getattr(before, field.name)
                ), field.name
        finally:
            mc.close()

    def test_reload_missing_directory_keeps_serving(self, worlds, tmp_path):
        mc = MetaCache.open(worlds.dir_a, mmap=True)
        try:
            with pytest.raises(DatabaseFormatError):
                mc.reload(tmp_path / "absent")
            assert not mc.database.closed
            assert str(mc.database.mmap_path) == str(worlds.dir_a)
            assert [r.taxon_id for r in mc.classify(worlds.common[:2])]
        finally:
            mc.close()

    def test_sharded_surfaces_refuse(self, worlds):
        # the session-level guard
        db = load_database(worlds.dir_a)
        session = QuerySession(db, router=object())
        with pytest.raises(ReloadError, match="shard plan"):
            session.swap_database(db)
        db.close()
        # the facade-level guard (router faked: spawning real shard
        # processes is test_shard.py's business)
        mc = MetaCache.open(worlds.dir_a)
        try:
            mc._router = object()
            with pytest.raises(ReloadError, match="restart"):
                mc.reload(worlds.dir_b)
            with pytest.raises(ReloadError, match="watch"):
                mc.serve(port=0, block=False, watch=worlds.dir_a.parent)
        finally:
            mc._router = None
            mc.close()
        # the router's own documented refusal
        router = ShardRouter.__new__(ShardRouter)
        with pytest.raises(ReloadError, match="pinned"):
            router.reload(worlds.dir_b)


# --------------------------------------------------------- HTTP admin swap


class TestAdminReload:
    def test_directory_swap_flips_answers(self, served, worlds):
        _, host, port = served
        probe_body = _fasta(worlds.probe)
        _, _, resp_a = request(host, port, "POST", "/classify", body=probe_body)
        status, result = _reload_to(host, port, worlds.dir_b)
        assert status == 200
        assert result["reloaded"] == str(worlds.dir_b)
        assert result["reload_count"] == 1
        assert result["swap_seconds"] >= 0
        assert result["targets"]["old"] == 2
        assert result["targets"]["new"] == 6
        _, _, resp_b = request(host, port, "POST", "/classify", body=probe_body)
        assert resp_b != resp_a  # generation B answers differently
        status, _, data = request(host, port, "GET", "/stats")
        reload_stats = json.loads(data)["reload"]
        assert reload_stats["count"] == 1
        assert reload_stats["directory"] == str(worlds.dir_b)
        assert reload_stats["last_error"] is None
        # swap back: the old generation's answers return
        status, result = _reload_to(host, port, worlds.dir_a)
        assert status == 200 and result["reload_count"] == 2
        _, _, resp = request(host, port, "POST", "/classify", body=probe_body)
        assert resp == resp_a

    def test_bad_bodies_answer_400(self, served, worlds, tmp_path):
        _, host, port = served
        cases = [
            b"not json",
            json.dumps(["directory"]).encode(),
            json.dumps({}).encode(),
            json.dumps({"directory": ""}).encode(),
            json.dumps({"refs": [], "mapping": {}, "out": "x"}).encode(),
            json.dumps({"refs": ["a.fa"], "mapping": 7, "out": "x"}).encode(),
            # no "out" and the server watches nothing
            json.dumps({"refs": ["a.fa"], "mapping": {"a": 1}}).encode(),
        ]
        for body in cases:
            status, _, _ = request(
                host, port, "POST", "/admin/reload", body=body,
                headers={"Content-Type": "application/json"},
            )
            assert status == 400, body
        status, _, _ = request(host, port, "GET", "/admin/reload")
        assert status == 405
        # a missing directory is a 400 and the old index keeps serving
        status, _ = _reload_to(host, port, tmp_path / "absent")
        assert status == 400
        status, _, _ = request(
            host, port, "POST", "/classify", body=_fasta(worlds.common[:2])
        )
        assert status == 200

    def test_rebuild_and_reload_extends_current_index(
        self, served, worlds, tmp_path
    ):
        _, host, port = served
        probe_body = _fasta(worlds.probe)
        _, _, resp_a = request(host, port, "POST", "/classify", body=probe_body)
        out = tmp_path / "extended"
        status, _, data = request(
            host, port, "POST", "/admin/reload",
            body=json.dumps({
                "refs": [str(worlds.fasta3)],
                "mapping": worlds.mapping,
                "out": str(out),
            }),
            headers={"Content-Type": "application/json"},
        )
        assert status == 200, data
        result = json.loads(data)
        assert result["built"] == str(out)
        assert result["targets"]["old"] == 2
        assert result["targets"]["new"] > 2
        _, _, resp_ext = request(host, port, "POST", "/classify", body=probe_body)
        assert resp_ext != resp_a  # the new genome is now classifiable
        load_database(out, verify=True)  # published crash-atomically

    def test_sharded_session_answers_409(self):
        class _Db:
            mmap_path = None

        class RoutedStub:
            router = object()
            database = _Db()

            def classify_batch(self, headers, sequences):
                return [f"cls:{h}" for h in headers]

        srv = ClassificationServer(RoutedStub(), port=0)
        thread = ServerThread(srv)
        host, port = thread.start()
        try:
            status, result = _reload_to(host, port, "/nowhere")
            assert status == 409
            assert "ReloadError" in result["error"]
        finally:
            thread.stop()


# ------------------------------------------------------------- watch mode


class TestWatchMode:
    def test_watcher_swaps_to_published_version(self, worlds, tmp_path):
        watch_root = tmp_path / "versions"
        mc = MetaCache.open(worlds.dir_a, mmap=True)
        thread = mc.serve(
            port=0, block=False,
            watch=watch_root, watch_interval=0.05,
        )
        host, port = thread.server.host, thread.server.port
        probe_body = _fasta(worlds.probe)
        try:
            _, _, resp_a = request(
                host, port, "POST", "/classify", body=probe_body
            )
            published = publish_database(
                load_database(worlds.dir_b), watch_root
            )
            deadline = time.monotonic() + 30
            reload_stats = {}
            while time.monotonic() < deadline:
                _, _, data = request(host, port, "GET", "/stats")
                reload_stats = json.loads(data)["reload"]
                if reload_stats["count"] >= 1:
                    break
                time.sleep(0.05)
            assert reload_stats["count"] == 1
            assert reload_stats["directory"] == str(published)
            assert reload_stats["watch"] == str(watch_root)
            _, _, resp_b = request(
                host, port, "POST", "/classify", body=probe_body
            )
            assert resp_b != resp_a
        finally:
            thread.stop()
            mc.close()

    def test_cli_watch_flag_validation(self, tmp_path, capsys):
        # --watch excludes --shards (sharded plans cannot hot-swap)
        assert cli_main(
            ["serve", "--watch", str(tmp_path), "--shards", "2"]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err
        # --watch with no published version and no --db cannot start
        assert cli_main(["serve", "--watch", str(tmp_path)]) == 2
        assert "no complete" in capsys.readouterr().err
        # neither --db nor --watch: nothing to serve
        assert cli_main(["serve"]) == 2
        assert "--db is required" in capsys.readouterr().err


# -------------------------------------------- differential acceptance test


class TestDifferentialSwap:
    def test_ten_consecutive_swaps_zero_failures(self, served, worlds):
        """Clients classify continuously through >= 10 hot swaps.

        Zero failed requests; the distinguishing probe's answer
        matches the served generation after every swap; afterwards
        (client traffic drained) further swaps keep the process fd
        count exactly flat and RSS essentially flat.
        """
        _, host, port = served
        probe_body = _fasta(worlds.probe)
        common_body = _fasta(worlds.common)

        # expected answers per generation, observed through the server
        _, _, expected_a = request(
            host, port, "POST", "/classify", body=probe_body
        )
        status, _ = _reload_to(host, port, worlds.dir_b)
        assert status == 200
        _, _, expected_b = request(
            host, port, "POST", "/classify", body=probe_body
        )
        assert expected_b != expected_a
        status, _ = _reload_to(host, port, worlds.dir_a)
        assert status == 200

        stop = threading.Event()
        failures: list = []
        served_ok = [0]

        def hammer():
            while not stop.is_set():
                try:
                    st, _, body = request(
                        host, port, "POST", "/classify", body=common_body
                    )
                except Exception as exc:  # noqa: BLE001 - recorded below
                    failures.append(repr(exc))
                    return
                if st != 200:
                    failures.append((st, body[:200]))
                    return
                served_ok[0] += 1

        client = threading.Thread(target=hammer)
        client.start()
        try:
            for i in range(1, 11):
                new_dir, expected = (
                    (worlds.dir_b, expected_b)
                    if i % 2
                    else (worlds.dir_a, expected_a)
                )
                status, result = _reload_to(host, port, new_dir)
                assert status == 200, result
                st, _, resp = request(
                    host, port, "POST", "/classify", body=probe_body
                )
                assert st == 200
                assert resp == expected, f"swap {i}: wrong generation answered"
        finally:
            stop.set()
            client.join(timeout=30)

        assert failures == []
        assert served_ok[0] > 0  # traffic really flowed throughout

        # fd + RSS hygiene: with client connections drained (wait for
        # async socket teardown to settle), further swaps must not grow
        # the process -- maps are closed as the retain pins drain
        rss_before = _rss_kib()
        fd_before = _settled_fd_count()
        for _ in range(3):
            status, _ = _reload_to(host, port, worlds.dir_b)
            assert status == 200
            status, _ = _reload_to(host, port, worlds.dir_a)
            assert status == 200
        assert _settled_fd_count() == fd_before
        assert _rss_kib() - rss_before < 64 * 1024  # < 64 MiB drift

        status, _, data = request(host, port, "GET", "/stats")
        assert json.loads(data)["reload"]["count"] == 18
