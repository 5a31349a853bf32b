"""Tests of the serving layer: micro-batcher semantics + HTTP surface.

The batcher is tested directly (coalescing, splitting, ordering,
admission control, drain/abort) against a stub session so every
scheduling property is deterministic; the HTTP layer is tested
against a real :class:`~repro.server.ClassificationServer` running
in-process on a background loop, including the overload (503 +
``Retry-After``) and graceful-shutdown-drains contracts from the
acceptance criteria.  Byte-level equivalence with one-shot
classification lives in ``test_server_differential.py``.
"""

import asyncio
import http.client
import json
import socket
import threading
import time

import pytest

from repro.api import (
    MetaCache,
    MetaCacheParams,
    OverloadedError,
    ServerError,
)
from repro.genomics.alphabet import decode_sequence, encode_sequence
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.pipeline.packed import PackedReads
from repro.server import ClassificationServer, MicroBatcher, ServerThread
from repro.server.stats import BatchSizeHistogram, LatencyWindow
from repro.taxonomy.builder import build_taxonomy_for_genomes

from reference import segments

PARAMS = MetaCacheParams.small()


# ------------------------------------------------------------------ helpers


def packed(*sequences: str) -> PackedReads:
    """The packed form a request's reads enter the batcher in."""
    return PackedReads.from_reads([encode_sequence(s) for s in sequences])


class StubSession:
    """Duck-typed QuerySession: records its batches, optional blocking."""

    def __init__(self, gate: threading.Event | None = None, fail_on=()):
        self.batch_sizes: list[int] = []
        self.batches: list[PackedReads] = []
        self.gate = gate
        self.entered = threading.Event()  # set once a batch is in flight
        self.fail_on = set(fail_on)  # batch indices that raise

    def classify_batch(self, headers, sequences):
        index = len(self.batch_sizes)
        self.batch_sizes.append(len(sequences))
        self.batches.append(sequences)
        self.entered.set()
        if self.gate is not None:
            self.gate.wait(timeout=30)
        if index in self.fail_on:
            raise ValueError(f"injected failure on batch {index}")
        return [f"cls:{h}" for h in headers]


def run_async(coro):
    """Run one coroutine on a fresh loop (tests stay dependency-free)."""
    return asyncio.run(coro)


def request(
    host,
    port,
    method,
    path,
    body=None,
    headers=None,
    timeout=30,
):
    """One HTTP request; returns (status, headers dict, body bytes)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, dict(resp.getheaders()), data
    finally:
        conn.close()


@pytest.fixture(scope="module")
def world():
    genomes = GenomeSimulator(seed=11).simulate_collection(3, 2, 5000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    references = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]
    mc = MetaCache.ephemeral(references, taxonomy, params=PARAMS)
    reads = ReadSimulator(genomes, seed=5).simulate(HISEQ, 40)
    sequences = [decode_sequence(s) for s in reads.sequences]
    yield mc, sequences
    mc.close()


@pytest.fixture()
def server(world):
    mc, _ = world
    session = mc.session()
    srv = ClassificationServer(session, port=0)
    thread = ServerThread(srv)
    host, port = thread.start()
    yield srv, host, port
    thread.stop()
    session.close()


# ------------------------------------------------------------ batcher unit


class TestMicroBatcher:
    @pytest.mark.parametrize("n_requests", [4, 32])
    def test_coalesces_concurrent_requests(self, n_requests):
        stub = StubSession()

        async def main():
            batcher = MicroBatcher(stub)
            await batcher.start()
            results = await asyncio.gather(
                *(
                    batcher.submit([f"h{i}"], packed("ACGT"))
                    for i in range(n_requests)
                )
            )
            await batcher.close()
            return results

        results = run_async(main())
        if n_requests == 4:
            assert stub.batch_sizes == [4]  # one coalesced dispatch
        assert len(stub.batch_sizes) < n_requests  # requests share dispatches
        assert sum(stub.batch_sizes) == n_requests
        assert [r[0] for r in results] == [f"cls:h{i}" for i in range(n_requests)]

    def test_splits_oversized_request_across_batches(self):
        stub = StubSession()

        async def main():
            batcher = MicroBatcher(stub, max_batch_reads=3)
            await batcher.start()
            records = await batcher.submit(
                [f"h{i}" for i in range(8)], packed(*["ACGT"] * 8)
            )
            await batcher.close()
            return records

        records = run_async(main())
        assert records == [f"cls:h{i}" for i in range(8)]  # request order
        assert stub.batch_sizes == [3, 3, 2]
        assert max(stub.batch_sizes) <= 3  # the bound holds

    def test_results_demultiplex_to_their_requests(self):
        stub = StubSession()

        async def main():
            batcher = MicroBatcher(stub, max_batch_reads=4)
            await batcher.start()
            sizes = [1, 5, 2, 3]
            results = await asyncio.gather(
                *(
                    batcher.submit(
                        [f"r{k}_{i}" for i in range(n)],
                        packed(*["ACGT"] * n),
                    )
                    for k, n in enumerate(sizes)
                )
            )
            await batcher.close()
            return sizes, results

        sizes, results = run_async(main())
        for k, (n, records) in enumerate(zip(sizes, results)):
            assert records == [f"cls:r{k}_{i}" for i in range(n)]

    def test_empty_request_short_circuits(self):
        stub = StubSession()

        async def main():
            batcher = MicroBatcher(stub)
            await batcher.start()
            records = await batcher.submit([], packed())
            await batcher.close()
            return records

        assert run_async(main()) == []
        assert stub.batch_sizes == []  # nothing dispatched

    def test_overload_rejects_with_retry_after(self):
        gate = threading.Event()
        stub = StubSession(gate=gate)

        async def main():
            batcher = MicroBatcher(
                stub, max_queued_reads=2
            )
            await batcher.start()
            first = asyncio.ensure_future(batcher.submit(["a"], packed("ACGT")))
            await asyncio.sleep(0.05)  # dispatched; executor blocked on gate
            second = asyncio.ensure_future(
                batcher.submit(["b", "c"], packed("ACGT", "ACGT"))
            )
            await asyncio.sleep(0.05)  # queued (2 reads = the bound)
            with pytest.raises(OverloadedError) as excinfo:
                await batcher.submit(["d"], packed("ACGT"))
            assert excinfo.value.retry_after_seconds >= 1
            gate.set()
            results = await asyncio.gather(first, second)
            await batcher.close()
            return results

        first, second = run_async(main())
        assert first == ["cls:a"] and second == ["cls:b", "cls:c"]
        assert stub.batch_sizes == [1, 2]

    def test_oversized_request_admitted_when_queue_empty(self):
        stub = StubSession()

        async def main():
            batcher = MicroBatcher(
                stub, max_batch_reads=2, max_queued_reads=3
            )
            await batcher.start()
            records = await batcher.submit(
                [f"h{i}" for i in range(10)], packed(*["ACGT"] * 10)
            )
            await batcher.close()
            return records

        assert len(run_async(main())) == 10

    def test_lone_request_dispatched_at_once_and_arrivals_form_the_next_batch(self):
        # work-conserving: an idle dispatcher takes what is queued now
        # (one request, passed through as it came), and what arrives
        # while that batch is in flight goes out together afterwards
        gate = threading.Event()
        stub = StubSession(gate=gate)

        async def main():
            batcher = MicroBatcher(stub)
            await batcher.start()
            loop = asyncio.get_running_loop()
            reads = packed("ACGT", "GGCC")
            lone = asyncio.ensure_future(batcher.submit(["a", "b"], reads))
            assert await loop.run_in_executor(None, stub.entered.wait, 30)
            assert stub.batch_sizes == [2] and stub.batches[0] is reads
            later = [
                asyncio.ensure_future(batcher.submit([f"h{i}"], packed(seq)))
                for i, seq in enumerate(["AAAA", "CC", "GTGTGT"])
            ]
            while batcher.queued_reads < 3:
                await asyncio.sleep(0)
            assert stub.batch_sizes == [2]  # still only the lone batch
            gate.set()
            results = await asyncio.gather(lone, *later)
            await batcher.close()
            return results

        results = run_async(main())
        assert results == [["cls:a", "cls:b"], ["cls:h0"], ["cls:h1"], ["cls:h2"]]
        assert stub.batch_sizes == [2, 3]
        coalesced = stub.batches[1]
        assert [decode_sequence(seg) for seg in segments(coalesced)] == [
            "AAAA", "CC", "GTGTGT"
        ]
        assert coalesced.read_ids.tolist() == [0, 1, 2]

    def test_split_request_reassembles_packed_slices_in_order(self):
        stub = StubSession()
        sequences = ["A" * (i + 1) for i in range(8)]

        async def main():
            batcher = MicroBatcher(stub, max_batch_reads=3)
            await batcher.start()
            records = await batcher.submit(
                [f"h{i}" for i in range(8)], packed(*sequences)
            )
            await batcher.close()
            return records

        assert run_async(main()) == [f"cls:h{i}" for i in range(8)]
        assert stub.batch_sizes == [3, 3, 2]
        seen = [
            decode_sequence(seg) for batch in stub.batches for seg in segments(batch)
        ]
        assert seen == sequences

    def test_drain_close_finishes_queued_work(self):
        gate = threading.Event()
        stub = StubSession(gate=gate)

        async def main():
            batcher = MicroBatcher(stub)
            await batcher.start()
            pending = [
                asyncio.ensure_future(batcher.submit(["h0"], packed("ACGT")))
            ]
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, stub.entered.wait, 30)
            pending += [
                asyncio.ensure_future(batcher.submit([f"h{i}"], packed("ACGT")))
                for i in (1, 2)
            ]
            while batcher.queued_reads < 2:  # admitted, behind the gated batch
                await asyncio.sleep(0)
            closer = asyncio.ensure_future(batcher.close(drain=True))
            await asyncio.sleep(0)  # close has begun: new work is refused
            with pytest.raises(ServerError):
                await batcher.submit(["x"], packed("ACGT"))
            gate.set()
            results = await asyncio.gather(*pending)
            await closer
            return results

        results = run_async(main())
        assert [r[0] for r in results] == ["cls:h0", "cls:h1", "cls:h2"]
        assert stub.batch_sizes == [1, 2]

    def test_abort_close_fails_queued_work(self):
        gate = threading.Event()
        stub = StubSession(gate=gate)

        async def main():
            batcher = MicroBatcher(stub)
            await batcher.start()
            blocked = asyncio.ensure_future(batcher.submit(["a"], packed("ACGT")))
            await asyncio.sleep(0.05)  # now in the executor, gated
            queued = asyncio.ensure_future(batcher.submit(["b"], packed("ACGT")))
            await asyncio.sleep(0.05)
            gate.set()
            await batcher.close(drain=False)
            return await blocked, await asyncio.gather(
                queued, return_exceptions=True
            )

        blocked, (queued,) = run_async(main())
        assert blocked == ["cls:a"]  # in-flight batch still completes
        assert isinstance(queued, ServerError)

    def test_classify_failure_routes_to_callers_and_recovers(self):
        stub = StubSession(fail_on={0})

        async def main():
            batcher = MicroBatcher(stub)
            await batcher.start()
            with pytest.raises(ValueError, match="injected failure"):
                await batcher.submit(["a"], packed("ACGT"))
            ok = await batcher.submit(["b"], packed("ACGT"))  # batcher still alive
            await batcher.close()
            return ok, batcher.stats

        ok, stats = run_async(main())
        assert ok == ["cls:b"]
        assert stats.requests_failed == 1
        assert stats.requests_served == 1

    def test_record_count_mismatch_fails_loudly_and_recovers(self):
        # a classifier returning the wrong number of records must fail
        # the batch (never leave callers hanging on a short demux)
        class ShortStub(StubSession):
            def classify_batch(self, headers, sequences):
                records = super().classify_batch(headers, sequences)
                return records[:-1] if len(self.batch_sizes) == 1 else records

        stub = ShortStub()

        async def main():
            batcher = MicroBatcher(stub)
            await batcher.start()
            with pytest.raises(ServerError, match="returned 0 records"):
                await batcher.submit(["a"], packed("ACGT"))
            ok = await batcher.submit(["b"], packed("ACGT"))  # dispatcher survives
            await batcher.close()
            return ok, batcher.stats

        ok, stats = run_async(main())
        assert ok == ["cls:b"]
        assert stats.requests_failed == 1
        assert stats.requests_served == 1

    def test_dispatcher_crash_fails_pending_not_hangs(self):
        # a bug outside the guarded classify call (here: stats
        # recording) must fail queued requests and poison the batcher,
        # not kill the dispatcher task silently while submit() keeps
        # admitting work that can never complete
        stub = StubSession()

        async def main():
            batcher = MicroBatcher(stub)

            def boom(_size):
                raise RuntimeError("injected dispatcher bug")

            batcher.stats.batches.record = boom
            await batcher.start()
            with pytest.raises(ServerError, match="dispatcher failed"):
                await asyncio.wait_for(batcher.submit(["a"], packed("ACGT")), 10)
            with pytest.raises(ServerError, match="injected dispatcher bug"):
                await batcher.submit(["b"], packed("ACGT"))
            await batcher.close()
            return batcher.stats

        stats = run_async(main())
        # one entry failed by the crash, one rejected-at-crashed counted
        assert stats.requests_failed == 2
        assert stub.batch_sizes == []  # never reached classification

    def test_crash_inside_take_batch_does_not_orphan_entries(self):
        # entries popped off the queue before batch assembly raises
        # must still be failed by the crash handler, never left
        # hanging (guarded by wait_for: a hang fails the test)
        stub = StubSession()

        async def main():
            batcher = MicroBatcher(stub)
            orig = batcher._take_batch

            def bad(slices):
                orig(slices)
                raise RuntimeError("injected batch-assembly bug")

            batcher._take_batch = bad
            await batcher.start()
            with pytest.raises(ServerError, match="dispatcher failed"):
                await asyncio.wait_for(batcher.submit(["a"], packed("ACGT")), 10)
            await batcher.close()
            return batcher

        batcher = run_async(main())
        assert batcher.crashed
        assert batcher.stats.requests_failed == 1

    def test_crash_after_partial_demux_does_not_double_count(self):
        # entries already served before the crash stay served; the
        # crash handler must not also count them as failed
        stub = StubSession()

        async def main():
            batcher = MicroBatcher(stub)
            await batcher.start()

            def boom(_seconds):
                raise RuntimeError("injected latency-recording bug")

            batcher.stats.latency.record = boom
            first = asyncio.ensure_future(batcher.submit(["a"], packed("ACGT")))
            second = asyncio.ensure_future(batcher.submit(["b"], packed("ACGT")))
            results = await asyncio.gather(
                first, second, return_exceptions=True
            )
            await batcher.close()
            return results, batcher

        (first, second), batcher = run_async(main())
        assert batcher.crashed
        # the first entry demuxed (served) before the crash; the
        # second is failed by the crash handler
        assert first == ["cls:a"]
        assert isinstance(second, ServerError)
        assert batcher.stats.requests_served == 1
        assert batcher.stats.requests_failed == 1


class TestFailureAccounting:
    def test_batcher_failure_counted_once_through_dispatch(self):
        """A classify-stage MetaCacheError is counted by the batcher
        only; parse-stage errors (never reach the batcher) are counted
        by the dispatch layer."""
        from repro.errors import InvalidReadError
        from repro.server.http import HttpRequest

        class BadReadStub(StubSession):
            def classify_batch(self, headers, sequences):
                super().classify_batch(headers, sequences)
                raise InvalidReadError("injected bad read in batch")

        server = ClassificationServer(
            BadReadStub(), port=0
        )

        def classify_request(reads):
            return HttpRequest(
                method="POST",
                path="/classify",
                query={},
                headers={"content-type": "application/json"},
                body=json.dumps({"reads": reads}).encode(),
            )

        async def main():
            await server.batcher.start()
            # classify-stage failure: batcher counts it, dispatch must not
            first = await server._dispatch(classify_request(["ACGT"]))
            counted_after_first = server.stats.requests_failed
            # parse-stage failure (non-ASCII read): dispatch counts it
            second = await server._dispatch(classify_request(["ÅCGT"]))
            await server.batcher.close()
            return first, counted_after_first, second

        first, counted_after_first, second = run_async(main())
        assert first.status == 400
        assert counted_after_first == 1  # not 2 (no double count)
        assert second.status == 400
        assert server.stats.requests_failed == 2

    def test_healthz_goes_red_when_dispatcher_crashes(self):
        """A poisoned batcher must turn /healthz into a 503 so load
        balancers take the instance out of rotation."""
        from repro.server.http import HttpRequest

        server = ClassificationServer(StubSession(), port=0)

        def health_request():
            return HttpRequest(
                method="GET", path="/healthz", query={}, headers={}, body=b""
            )

        async def main():
            await server.batcher.start()
            healthy = await server._dispatch(health_request())

            def boom(_size):
                raise RuntimeError("injected dispatcher bug")

            server.batcher.stats.batches.record = boom
            classify = await server._dispatch(
                HttpRequest(
                    method="POST",
                    path="/classify",
                    query={},
                    headers={"content-type": "application/json"},
                    body=json.dumps({"reads": ["ACGT"]}).encode(),
                )
            )
            unhealthy = await server._dispatch(health_request())
            await server.batcher.close()
            return healthy, classify, unhealthy

        healthy, classify, unhealthy = run_async(main())
        assert healthy.status == 200
        assert json.loads(healthy.body)["status"] == "ok"
        assert classify.status == 503  # the crash surfaced as ServerError
        # permanent failure: no Retry-After inviting a retry loop
        assert "Retry-After" not in classify.headers
        assert unhealthy.status == 503
        assert json.loads(unhealthy.body)["status"] == "failed"


# -------------------------------------------------------------- stats unit


class TestStats:
    def test_latency_percentiles(self):
        window = LatencyWindow(capacity=100)
        for ms in range(1, 101):
            window.record(ms / 1000.0)
        assert window.percentile(50) == pytest.approx(0.050)
        assert window.percentile(99) == pytest.approx(0.099)
        snap = window.snapshot()
        assert snap["count"] == 100 and snap["p99_ms"] == 99.0

    def test_latency_window_is_bounded(self):
        window = LatencyWindow(capacity=4)
        for i in range(100):
            window.record(float(i))
        assert window.count == 100
        assert len(window._ring) == 4

    def test_batch_histogram_buckets(self):
        hist = BatchSizeHistogram()
        for size in (1, 1, 2, 3, 4, 7, 8, 1000):
            hist.record(size)
        snap = hist.snapshot()
        assert snap["n_batches"] == 8
        assert snap["buckets"]["1"] == 2  # sizes 1, 1
        assert snap["buckets"]["2"] == 2  # sizes 2, 3
        assert snap["buckets"]["4"] == 2  # sizes 4, 7
        assert snap["buckets"]["8"] == 1
        assert snap["buckets"]["512"] == 1  # 512 <= 1000 < 1024
        assert snap["max_batch_reads"] == 1000


# ---------------------------------------------------------------- HTTP API


class TestHttpEndpoints:
    def test_healthz(self, server):
        _, host, port = server
        status, _, body = request(host, port, "GET", "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["queued_reads"] == 0

    def test_classify_json_and_stats(self, server, world):
        srv, host, port = server
        _, sequences = world
        body = json.dumps(
            {"reads": [[f"r{i}", s] for i, s in enumerate(sequences[:10])]}
        )
        status, headers, data = request(
            host, port, "POST", "/classify",
            body=body, headers={"Content-Type": "application/json"},
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/tab-separated-values")
        lines = data.decode().splitlines()
        assert lines[0].startswith("read\t")
        assert len(lines) == 11  # header + 10 reads
        assert lines[1].startswith("r0\t")

        status, _, data = request(host, port, "GET", "/stats")
        assert status == 200
        stats = json.loads(data)
        assert stats["requests"]["reads_served"] >= 10
        assert stats["requests"]["batches"]["n_batches"] >= 1
        assert stats["database"]["n_targets"] == 6
        assert stats["batching"]["max_batch_reads"] == 4096

    def test_classify_fasta_fastq_gzip_bodies(self, server, world):
        import gzip

        _, host, port = server
        _, sequences = world
        fasta = "".join(
            f">q{i}\n{s}\n" for i, s in enumerate(sequences[:5])
        ).encode()
        fastq = "".join(
            f"@q{i}\n{s}\n+\n{'I' * len(s)}\n"
            for i, s in enumerate(sequences[:5])
        ).encode()
        for body in (fasta, fastq, gzip.compress(fasta)):
            status, _, data = request(host, port, "POST", "/classify", body=body)
            assert status == 200
            assert len(data.decode().splitlines()) == 6

    def test_classify_formats(self, server, world):
        _, host, port = server
        _, sequences = world
        fasta = f">q0\n{sequences[0]}\n".encode()
        status, headers, data = request(
            host, port, "POST", "/classify?format=jsonl", body=fasta
        )
        assert status == 200
        assert headers["Content-Type"].startswith("application/x-ndjson")
        assert json.loads(data)["read"] == "q0"
        status, _, data = request(
            host, port, "POST", "/classify?format=kraken", body=fasta
        )
        assert status == 200
        assert data.decode()[0] in "CU"
        status, _, _ = request(
            host, port, "POST", "/classify?format=nope", body=fasta
        )
        assert status == 400

    def test_classify_json_plain_strings(self, server, world):
        _, host, port = server
        _, sequences = world
        body = json.dumps({"reads": [sequences[0]]})
        status, _, data = request(
            host, port, "POST", "/classify",
            body=body, headers={"Content-Type": "application/json"},
        )
        assert status == 200
        assert data.decode().splitlines()[1].startswith("read_0\t")

    def test_empty_body_yields_header_only(self, server):
        _, host, port = server
        status, _, data = request(host, port, "POST", "/classify", body=b"")
        assert status == 200
        assert data.decode().splitlines() == [
            "read\ttaxon_id\ttaxon_name\trank\tscore\ttarget\twindow_range"
        ]

    def test_zero_length_read_in_batch(self, server, world):
        _, host, port = server
        _, sequences = world
        body = json.dumps({"reads": [["a", sequences[0]], ["empty", ""]]})
        status, _, data = request(
            host, port, "POST", "/classify",
            body=body, headers={"Content-Type": "application/json"},
        )
        assert status == 200
        lines = data.decode().splitlines()
        assert len(lines) == 3
        assert lines[2].startswith("empty\t0\tunclassified")

    def test_malformed_bodies_answer_400(self, server):
        _, host, port = server
        cases = [
            (b"\xffgarbage", {}),
            (b"not json", {"Content-Type": "application/json"}),
            (b'{"nope": 1}', {"Content-Type": "application/json"}),
            (b'{"reads": [42]}', {"Content-Type": "application/json"}),
            (b"@r1\nACGT\n+\nII", {}),  # truncated FASTQ record
        ]
        for body, headers in cases:
            status, _, data = request(
                host, port, "POST", "/classify", body=body, headers=headers
            )
            assert status == 400, (body, data)
            assert "error" in json.loads(data)

    def test_unknown_path_and_wrong_method(self, server):
        _, host, port = server
        assert request(host, port, "GET", "/nope")[0] == 404
        assert request(host, port, "GET", "/classify")[0] == 405
        assert request(host, port, "POST", "/healthz")[0] == 405

    def test_oversized_body_answers_413(self, world):
        mc, _ = world
        session = mc.session()
        srv = ClassificationServer(session, port=0, max_body_bytes=64)
        with ServerThread(srv):
            status, _, _ = request(
                srv.host, srv.port, "POST", "/classify", body=b"A" * 200
            )
        session.close()
        assert status == 413

    def test_gzip_bomb_body_answers_400(self, world):
        import gzip

        mc, _ = world
        session = mc.session()
        srv = ClassificationServer(session, port=0, max_body_bytes=65536)
        bomb = gzip.compress(b">b\n" + b"A" * 10_000_000)
        assert len(bomb) < 65536  # passes the compressed-size check...
        with ServerThread(srv):
            status, _, data = request(
                srv.host, srv.port, "POST", "/classify", body=bomb
            )
        session.close()
        assert status == 400  # ...but the decompression bound rejects it
        assert "inflates past" in json.loads(data)["error"]

    def test_malformed_request_line_answers_400(self, server):
        _, host, port = server
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"NOT A REQUEST\r\n\r\n")
            data = sock.recv(4096)
        assert b"400" in data.split(b"\r\n", 1)[0]

    def test_keep_alive_connection_reuse(self, server, world):
        _, host, port = server
        _, sequences = world
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for i in range(3):
                conn.request(
                    "POST", "/classify", body=f">q{i}\n{sequences[i]}\n"
                )
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
        finally:
            conn.close()


# ------------------------------------------------------ overload & shutdown


class TestOverloadAndShutdown:
    def _gated_server(self, world, monkeypatch, **kwargs):
        """A server whose classification blocks until the gate opens."""
        mc, _ = world
        session = mc.session()
        gate = threading.Event()
        real = session.classify_batch

        def gated(headers, sequences, **kw):
            gate.wait(timeout=30)
            return real(headers, sequences, **kw)

        monkeypatch.setattr(session, "classify_batch", gated)
        srv = ClassificationServer(session, port=0, **kwargs)
        thread = ServerThread(srv)
        thread.start()
        return srv, thread, session, gate

    def test_http_overload_returns_503_with_retry_after(
        self, world, monkeypatch
    ):
        srv, thread, session, gate = self._gated_server(
            world, monkeypatch, max_queued_reads=2
        )
        _, sequences = world
        results = {}

        def client(name, n_reads):
            body = json.dumps({"reads": sequences[:n_reads]})
            results[name] = request(
                srv.host, srv.port, "POST", "/classify",
                body=body, headers={"Content-Type": "application/json"},
            )

        try:
            t1 = threading.Thread(target=client, args=("first", 1))
            t1.start()
            time.sleep(0.3)  # first dispatched, classification gated
            t2 = threading.Thread(target=client, args=("second", 2))
            t2.start()
            time.sleep(0.3)  # second queued: bound reached
            client("rejected", 1)
            gate.set()
            t1.join()
            t2.join()
        finally:
            gate.set()
            thread.stop()
            session.close()

        status, headers, body = results["rejected"]
        assert status == 503
        assert int(headers["Retry-After"]) >= 1
        assert "admission queue full" in json.loads(body)["error"]
        assert results["first"][0] == 200
        assert results["second"][0] == 200
        assert srv.stats.requests_rejected == 1

    def test_graceful_shutdown_drains_in_flight_batches(
        self, world, monkeypatch
    ):
        srv, thread, session, gate = self._gated_server(world, monkeypatch)
        _, sequences = world
        results = {}

        def client(name, reads):
            body = json.dumps({"reads": reads})
            results[name] = request(
                srv.host, srv.port, "POST", "/classify",
                body=body, headers={"Content-Type": "application/json"},
            )

        try:
            t1 = threading.Thread(
                target=client, args=("inflight", sequences[:3])
            )
            t1.start()
            time.sleep(0.3)  # dispatched, gated in the executor
            t2 = threading.Thread(
                target=client, args=("queued", sequences[3:5])
            )
            t2.start()
            time.sleep(0.3)  # admitted, waiting in the queue

            stopper = threading.Thread(target=thread.stop)
            stopper.start()
            time.sleep(0.3)
            assert stopper.is_alive()  # stop() is waiting on the drain
            gate.set()
            stopper.join(timeout=60)
            assert not stopper.is_alive()
            t1.join()
            t2.join()
        finally:
            gate.set()
            session.close()

        # both accepted requests were answered with real results
        for name in ("inflight", "queued"):
            status, _, body = results[name]
            assert status == 200, (name, body)
            assert len(body.decode().splitlines()) >= 2
        # and the server is genuinely down afterwards
        with pytest.raises(OSError):
            request(srv.host, srv.port, "GET", "/healthz", timeout=2)

    def test_stopped_server_refuses_new_connections(self, world):
        mc, _ = world
        session = mc.session()
        srv = ClassificationServer(session, port=0)
        thread = ServerThread(srv)
        thread.start()
        assert request(srv.host, srv.port, "GET", "/healthz")[0] == 200
        thread.stop()
        session.close()
        with pytest.raises(OSError):
            request(srv.host, srv.port, "GET", "/healthz", timeout=2)


class TestFacadeServe:
    @pytest.mark.parametrize("error", [RuntimeError("no thread"), KeyboardInterrupt()])
    def test_failed_thread_start_closes_session_and_propagates(
        self, world, monkeypatch, error
    ):
        from repro.api.session import QuerySession
        from repro.server import ServerThread

        mc, _ = world
        closed = []
        close = QuerySession.close

        def failing_start(self):
            raise error

        def counting_close(self):
            closed.append(self)
            close(self)

        monkeypatch.setattr(ServerThread, "start", failing_start)
        monkeypatch.setattr(QuerySession, "close", counting_close)
        with pytest.raises(type(error)) as caught:
            mc.serve(port=0, block=False)
        assert caught.value is error  # unchanged, not wrapped
        assert len(closed) == 1

    def test_nonblocking_serve_reports_port_and_closes_session(self, world):
        mc, sequences = world
        seen = []
        thread = mc.serve(port=0, block=False, on_started=seen.append)
        try:
            assert seen and seen[0].port != 0  # real bound port reported
            session = thread.server.session
            body = json.dumps({"reads": sequences[:4]})
            status, _, _ = request(
                thread.server.host, thread.server.port, "POST", "/classify",
                body=body, headers={"Content-Type": "application/json"},
            )
            assert status == 200
            # served batches are classified in process: no pool starts
            assert session._engine is None
        finally:
            thread.stop()
        # stop() runs the dedicated session's close
        assert thread.on_stop == thread.server.session.close
