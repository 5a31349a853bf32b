"""The classification server: HTTP endpoints over the micro-batcher.

Request flow (the serving analogue of the paper's build/query
pipelines)::

    client --> POST /classify --> parse body --> MicroBatcher.submit
                                                     |  coalesce
                                                     v
                                        QuerySession.classify_batch
                                         (in process, or shard router)
                                                     |  demux
    client <-- TSV/JSONL/Kraken body <-- sink <------+

Endpoints:

- ``POST /classify`` -- reads as a FASTA/FASTQ body (plain or gzip)
  or JSON ``{"reads": [...]}``; per-read results in any registered
  sink format (``?format=tsv|jsonl|kraken``, TSV default);
- ``POST /admin/reload`` -- hot-swap the served index with zero
  downtime: ``{"directory": ...}`` swaps to an already-saved
  database, ``{"refs": [...], "mapping": ..., "out": ...}``
  background-builds an extension of the current index first
  (``DatabaseBuilder.from_database`` + atomic v2 publish).  The swap
  itself runs on the micro-batcher's dispatch thread, i.e. *between*
  batches: in-flight work finishes on the old index (pinned via the
  database retain/release protocol), every later batch sees the new
  one, and the old index's mmap handles are closed when its last
  batch drains.  Sharded sessions answer 409;
- ``GET /healthz``   -- liveness + queue depth;
- ``GET /stats``     -- reads served, latency p50/p99, batch-size
  histogram, database/batching configuration, and the reload block
  (count, current directory, last swap seconds, watch state).

``watch_dir`` (the ``serve --watch`` mode) polls a directory of
``v<N>`` version directories and reloads whenever a newer complete
version appears -- publish with
:func:`repro.core.io.publish_database` and the swap happens within
``watch_interval`` seconds, no request needed.

Overload answers 503 with ``Retry-After`` (the admission queue is
bounded); shutdown first stops accepting connections, then drains
every admitted request through the batcher before returning, so no
accepted work is dropped.
"""

from __future__ import annotations

import asyncio
import dataclasses
import io
import json
import os
import threading
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import TYPE_CHECKING

from repro.api.sinks import open_sink, sink_formats, write_records
from repro.errors import (
    DatabaseFormatError,
    InvalidReadError,
    MetaCacheError,
    OverloadedError,
    PipelineError,
    ReloadError,
    ServerError,
)
from repro.genomics.io import read_sequence_lines_bytes
from repro.pipeline.packed import PackedReads
from repro.server.batcher import MicroBatcher
from repro.server.http import (
    HttpError,
    HttpRequest,
    HttpResponse,
    read_request,
    write_response,
)
from repro.server.stats import ServerStats

if TYPE_CHECKING:
    from repro.api.session import QuerySession

__all__ = ["ClassificationServer", "ServerThread"]

_CONTENT_TYPES = {
    "tsv": "text/tab-separated-values",
    "jsonl": "application/x-ndjson",
    "kraken": "text/plain",
}

DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024

# bodies/results past these sizes are parsed/rendered on the default
# executor instead of the event loop (a max-size upload takes whole
# seconds of CPU; a lone micro-request takes microseconds and would
# only pay for the thread handoff).  Gzip bodies always offload: a
# tiny compressed body can inflate to max_decompressed_bytes, so its
# wire size says nothing about the parse cost.
_OFFLOAD_BODY_BYTES = 64 * 1024
_OFFLOAD_RENDER_RECORDS = 1024
_GZIP_MAGIC = b"\x1f\x8b"

# at most this many offloaded body parses run at once: each can hold
# the decompressed plaintext plus string and array copies (hundreds
# of MiB at the default bounds), so unbounded concurrency would let a
# handful of tiny gzip uploads pin gigabytes
_MAX_CONCURRENT_PARSES = 2


class _Connection:
    """Book-keeping for one open client connection."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.busy = False  # True while a request is being served


class ClassificationServer:
    """Async HTTP server multiplexing requests over one warm session.

    Parameters
    ----------
    session:
        the warm :class:`~repro.api.session.QuerySession` all traffic
        classifies through.  The server does *not* close it -- the
        caller that opened the database owns its lifetime
        (:meth:`repro.api.MetaCache.serve` wraps both).
    host / port:
        bind address; port 0 picks a free port (read :attr:`port`
        after :meth:`start`).
    max_batch_reads / max_queued_reads:
        micro-batching bounds, passed to
        :class:`~repro.server.batcher.MicroBatcher`.
    max_body_bytes:
        request-body bound; larger uploads answer 413.
    source_dir:
        the directory the served database came from, when known --
        seeds the ``/stats`` reload block and lets the watcher skip
        the version already being served.
    watch_dir / watch_interval:
        when ``watch_dir`` is set, poll it every ``watch_interval``
        seconds for new complete ``v<N>`` version directories and
        hot-swap to the newest automatically (see module docs).

    Use :meth:`start` / :meth:`stop` on an event loop you own (the
    test and benchmark harness :class:`ServerThread` does this on a
    background thread), or the blocking :meth:`run` from a CLI.
    """

    def __init__(
        self,
        session: "QuerySession",
        *,
        host: str = "127.0.0.1",
        port: int = 8765,
        max_batch_reads: int = 4096,
        max_queued_reads: int = 65536,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        source_dir: "str | os.PathLike | None" = None,
        watch_dir: "str | os.PathLike | None" = None,
        watch_interval: float = 2.0,
    ) -> None:
        if watch_interval <= 0:
            raise ServerError("watch_interval must be > 0")
        self.session = session
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self.watch_dir = str(watch_dir) if watch_dir is not None else None
        self.watch_interval = watch_interval
        self.stats = ServerStats()
        self.batcher = MicroBatcher(
            session,
            max_batch_reads=max_batch_reads,
            max_queued_reads=max_queued_reads,
            stats=self.stats,
        )
        self._server: asyncio.AbstractServer | None = None
        self._conns: set[_Connection] = set()
        self._stopping = False
        self._started_at = 0.0
        self._parse_gate: asyncio.Semaphore | None = None
        # hot-swap state: reloads are serialized by _reload_lock; the
        # served directory starts at source_dir (or the mmap backing
        # path) so the watcher can tell "newer version" from "current"
        self.reloads = 0
        self._reload_lock: asyncio.Lock | None = None
        self._watch_task: asyncio.Task | None = None
        self._last_swap_seconds: float | None = None
        self._last_reload_error: str | None = None
        if source_dir is not None:
            self._current_dir: str | None = str(source_dir)
        else:
            # duck-typed: test stubs may not carry a database at all
            mmap_path = getattr(
                getattr(session, "database", None), "mmap_path", None
            )
            self._current_dir = (
                str(mmap_path) if mmap_path is not None else None
            )

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind the listening socket and start the batcher (+ watcher)."""
        self._stopping = False
        self._parse_gate = asyncio.Semaphore(_MAX_CONCURRENT_PARSES)
        self._reload_lock = asyncio.Lock()
        await self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        if self.watch_dir is not None:
            if getattr(self.session, "router", None) is not None:
                raise ReloadError(
                    "watch mode is unavailable on a sharded session: the "
                    "shard plan cannot be hot-swapped"
                )
            self._watch_task = asyncio.ensure_future(self._watch_loop())

    async def stop(self, *, drain: bool = True, grace_seconds: float = 10.0) -> None:
        """Graceful shutdown: stop accepting, then drain, then close.

        Ordering matters: the listener closes first (no new work), the
        batcher then finishes (``drain=True``) or fails
        (``drain=False``) every admitted request, and finally open
        connections get up to ``grace_seconds`` to flush their last
        response before being closed forcibly.  Idle keep-alive
        connections are closed immediately -- they hold no work.
        """
        self._stopping = True
        if self._watch_task is not None:
            self._watch_task.cancel()
            try:
                await self._watch_task
            except asyncio.CancelledError:
                pass
            self._watch_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.close(drain=drain)
        deadline = time.monotonic() + grace_seconds
        while self._conns and time.monotonic() < deadline:
            for conn in list(self._conns):
                if not conn.busy:
                    conn.writer.close()
            if any(conn.busy for conn in self._conns):
                await asyncio.sleep(0.02)
            else:
                break
        for conn in list(self._conns):
            conn.writer.close()

    def run(self, *, on_started=None) -> None:
        """Blocking serve loop for the CLI: run until SIGINT/SIGTERM.

        Installs signal handlers where the platform allows, serves
        until one fires (or ``KeyboardInterrupt``), then performs the
        draining shutdown.  ``on_started`` (optional callable taking
        this server) fires after the socket is bound -- the moment
        :attr:`port` holds the real port when 0 was requested.
        """
        import signal

        async def _main() -> None:
            await self.start()
            if on_started is not None:
                on_started(self)
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, stop.set)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # non-Unix event loop: fall back to KeyboardInterrupt
            try:
                await stop.wait()
            except (KeyboardInterrupt, asyncio.CancelledError):
                pass
            finally:
                await self.stop(drain=True)

        asyncio.run(_main())

    # ------------------------------------------------------------ connection

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection (keep-alive loop)."""
        conn = _Connection(writer)
        self._conns.add(conn)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.max_body_bytes
                    )
                except HttpError as exc:
                    conn.busy = True
                    try:
                        await write_response(
                            writer,
                            self._error_response(exc),
                            keep_alive=False,
                        )
                    except (ConnectionError, OSError):
                        pass  # malformed request, then peer vanished
                    break
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    break  # peer vanished mid-request
                if request is None:
                    break  # clean EOF between requests
                conn.busy = True
                response = await self._dispatch(request)
                keep = request.keep_alive and not self._stopping
                try:
                    await write_response(writer, response, keep_alive=keep)
                except (ConnectionError, OSError):
                    break
                conn.busy = False
                if not keep:
                    break
        finally:
            self._conns.discard(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    # --------------------------------------------------------------- routing

    async def _dispatch(self, request: HttpRequest) -> HttpResponse:
        """Route one request; every failure becomes a typed HTTP answer."""
        try:
            if request.path == "/healthz":
                self._require_method(request, "GET")
                return self._healthz()
            if request.path == "/stats":
                self._require_method(request, "GET")
                return self._stats()
            if request.path == "/classify":
                self._require_method(request, "POST")
                return await self._classify(request)
            if request.path == "/admin/reload":
                self._require_method(request, "POST")
                return await self._admin_reload(request)
            raise HttpError(404, f"no such endpoint: {request.path}")
        except HttpError as exc:
            return self._error_response(exc)
        except ReloadError as exc:
            # the handle's topology conflicts with the request (sharded
            # sessions cannot hot-swap): 409, not a client syntax error
            return self._error_response(
                HttpError(409, f"{type(exc).__name__}: {exc}")
            )
        except OverloadedError as exc:
            return self._error_response(
                HttpError(
                    503,
                    str(exc),
                    headers={"Retry-After": str(exc.retry_after_seconds)},
                )
            )
        except ServerError as exc:
            # shutdown is transient (retry elsewhere soon); a crashed
            # dispatcher is permanent, so no Retry-After -- clients
            # should fail over, not hammer a dead instance
            headers = {} if self.batcher.crashed else {"Retry-After": "1"}
            return self._error_response(
                HttpError(503, str(exc), headers=headers)
            )
        except PipelineError as exc:
            # classification infrastructure failed (worker crash, broken
            # pool) -- the server's fault, not the request's, so 500; the
            # batcher already counted the failure when it failed the entry
            return self._error_response(
                HttpError(500, f"{type(exc).__name__}: {exc}")
            )
        except MetaCacheError as exc:
            # parse-stage errors never reach the batcher, so they are
            # counted here; errors raised out of submit() carry the
            # batcher's already-counted marker
            if not getattr(exc, "batcher_counted", False):
                self.stats.requests_failed += 1
            return self._error_response(
                HttpError(400, f"{type(exc).__name__}: {exc}")
            )
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            return self._error_response(
                HttpError(500, f"internal error: {type(exc).__name__}: {exc}")
            )

    @staticmethod
    def _require_method(request: HttpRequest, method: str) -> None:
        """405 unless the request uses the endpoint's one method."""
        if request.method != method:
            raise HttpError(
                405, f"{request.path} accepts {method}, not {request.method}"
            )

    @staticmethod
    def _error_response(exc: HttpError) -> HttpResponse:
        """Uniform JSON error body carrying the status and message."""
        return HttpResponse.json(
            {"error": str(exc), "status": exc.status},
            status=exc.status,
            headers=exc.headers,
        )

    # ------------------------------------------------------------- endpoints

    def _healthz(self) -> HttpResponse:
        """Liveness: cheap, allocation-free, never touches the index.

        A crashed batch dispatcher makes every ``/classify`` a 503
        forever, so health must go red too -- otherwise a load
        balancer keeps routing traffic to a dead instance.

        A sharded session (``--shards N``) adds a *degraded* middle
        state: some shard has fewer live replicas than configured
        (a crash waiting out its respawn backoff), but every shard
        still answers, so the instance keeps serving -- status stays
        HTTP 200 and the body says ``degraded`` with per-shard live
        counts.  Probing also advances the router's maintenance
        (respawns due after backoff), so a health-checked server
        heals without traffic.
        """
        crashed = self.batcher.crashed
        router = getattr(self.session, "router", None)
        payload: dict = {
            "status": "failed" if crashed else "ok",
            "uptime_seconds": round(
                time.monotonic() - self._started_at, 3
            ),
            "queued_reads": self.batcher.queued_reads,
        }
        if router is not None and not router.closed:
            router.maintain()
            if router.degraded and not crashed:
                payload["status"] = "degraded"
            payload["shards"] = {
                "degraded": router.degraded,
                "live": [s["live"] for s in router.health()],
            }
        return HttpResponse.json(payload, status=503 if crashed else 200)

    def _stats(self) -> HttpResponse:
        """Counters, latency quantiles, batch histogram, database info."""
        db = self.session.database
        info = {
            "n_targets": db.n_targets,
            "n_partitions": db.n_partitions,
            "total_windows": db.total_windows,
            "mmap": db.mmap_path is not None,
        }
        payload = {
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "batching": {
                "max_batch_reads": self.batcher.max_batch_reads,
                "max_queued_reads": self.batcher.max_queued_reads,
                "queued_reads": self.batcher.queued_reads,
                "crashed": self.batcher.crashed,
            },
            "database": info,
            "requests": self.stats.snapshot(),
            "reload": {
                "count": self.reloads,
                "directory": self._current_dir,
                "last_swap_seconds": self._last_swap_seconds,
                "watch": self.watch_dir,
                "last_error": self._last_reload_error,
            },
        }
        router = getattr(self.session, "router", None)
        if router is not None and not router.closed:
            router.maintain()
            payload["shards"] = router.stats()
        return HttpResponse.json(payload)

    # --------------------------------------------------------------- reload

    async def _admin_reload(self, request: HttpRequest) -> HttpResponse:
        """Hot-swap the served index (``POST /admin/reload``).

        Body (JSON): ``{"directory": path}`` to swap to an existing
        database directory, or ``{"refs": [fasta, ...], "mapping":
        {accession: taxid} | tsv-path, "out": dir}`` to first extend
        the *current* index with those references in the background
        (classification keeps running) and publish the result
        crash-atomically, then swap to it.  With a ``--watch``
        directory configured, ``out`` may be omitted -- the rebuild
        publishes the next ``v<N>`` version there.  Reloads are
        serialized; each response reports the swap latency and the
        old/new target counts.
        """
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "reload body must be a JSON object")
        assert self._reload_lock is not None  # start() ran
        async with self._reload_lock:
            if "directory" in payload:
                directory = payload["directory"]
                if not isinstance(directory, str) or not directory:
                    raise HttpError(400, '"directory" must be a path string')
                result = await self._reload_from_directory(directory)
            elif "refs" in payload:
                result = await self._rebuild_and_reload(payload)
            else:
                raise HttpError(
                    400,
                    'reload body must carry "directory" (swap to a saved '
                    'database) or "refs" (extend the current index first)',
                )
        return HttpResponse.json(result)

    async def _reload_from_directory(self, directory: str) -> dict:
        """Load ``directory`` and swap the serving session onto it.

        The new database is opened on the default executor (mmap
        matching the current index, so an mmap-served instance stays
        mmap-served), the swap runs between micro-batches on the
        batcher's dispatch thread, and the old database is closed --
        its memory maps are released as soon as the last in-flight
        batch drops its retain pin.  Zero requests fail across the
        swap: there is no pause window, only a barrier.
        """
        session = self.session
        if getattr(session, "router", None) is not None:
            raise ReloadError(
                "sharded sessions cannot hot-swap their index; restart "
                "the service on the new directory instead"
            )
        use_mmap = session.database.mmap_path is not None
        loop = asyncio.get_running_loop()

        def _load():
            from repro.core.io import load_database

            try:
                return load_database(directory, mmap=use_mmap)
            except FileNotFoundError as exc:
                raise DatabaseFormatError(
                    f"no database at {directory} ({exc})"
                ) from exc
            except json.JSONDecodeError as exc:
                raise DatabaseFormatError(
                    f"{directory}: corrupt metadata ({exc})"
                ) from exc

        new_db = await loop.run_in_executor(None, _load)
        swap_started = time.monotonic()
        try:
            old = await self.batcher.run_between_batches(
                lambda: session.swap_database(new_db)
            )
        except BaseException:
            new_db.close()
            raise
        swap_seconds = time.monotonic() - swap_started
        old_targets = old.n_targets
        if old is not new_db:
            old.close()
        self.reloads += 1
        self._last_swap_seconds = swap_seconds
        self._last_reload_error = None
        self._current_dir = directory
        return {
            "reloaded": directory,
            "swap_seconds": round(swap_seconds, 6),
            "targets": {"old": old_targets, "new": new_db.n_targets},
            "reload_count": self.reloads,
        }

    async def _rebuild_and_reload(self, payload: dict) -> dict:
        """Extend the served index from FASTAs, publish, then swap."""
        refs = payload.get("refs")
        mapping = payload.get("mapping")
        out = payload.get("out")
        if (
            not isinstance(refs, list)
            or not refs
            or not all(isinstance(r, str) for r in refs)
        ):
            raise HttpError(
                400, '"refs" must be a non-empty list of FASTA paths'
            )
        if isinstance(mapping, dict):
            try:
                mapping = {str(k): int(v) for k, v in mapping.items()}
            except (TypeError, ValueError):
                raise HttpError(
                    400, '"mapping" values must be integer taxon ids'
                ) from None
        elif not isinstance(mapping, str) or not mapping:
            raise HttpError(
                400,
                '"mapping" must be an {accession: taxid} object or the '
                "path of an accession2taxid TSV",
            )
        if out is not None and (not isinstance(out, str) or not out):
            raise HttpError(400, '"out" must be a path string')
        if out is None and self.watch_dir is None:
            raise HttpError(
                400,
                '"out" is required unless the server watches a version '
                "directory (serve --watch), which then receives the next "
                "v<N>",
            )
        session = self.session
        if getattr(session, "router", None) is not None:
            raise ReloadError(
                "sharded sessions cannot hot-swap their index; restart "
                "the service on the new directory instead"
            )
        watch_dir = self.watch_dir

        def _build() -> str:
            from repro.api.facade import load_accession_mapping
            from repro.core.builder import DatabaseBuilder
            from repro.core.io import publish_database, save_database

            accession_map = (
                load_accession_mapping(mapping)
                if isinstance(mapping, str)
                else mapping
            )
            # pin the served index while the builder reads its content;
            # classification continues concurrently -- both only read
            source = session.database.retain()
            try:
                with DatabaseBuilder.from_database(source) as builder:
                    builder.add_fasta(list(refs), dict(accession_map))
                    extended = builder.finalize(condense=True)
            finally:
                source.release()
            if out is None:
                return str(publish_database(extended, watch_dir))
            save_database(extended, out)
            return out

        loop = asyncio.get_running_loop()
        destination = await loop.run_in_executor(None, _build)
        result = await self._reload_from_directory(destination)
        result["built"] = destination
        return result

    async def _watch_loop(self) -> None:
        """Poll the watch directory; swap to any newer complete version.

        Failures (a corrupt version, a transient fs error) are
        remembered in the ``/stats`` reload block and retried on the
        next tick -- a bad publish must not kill the watcher or the
        server.
        """
        from repro.core.io import latest_version

        while not self._stopping:
            await asyncio.sleep(self.watch_interval)
            if self._stopping:
                return
            try:
                latest = latest_version(self.watch_dir)
            except OSError as exc:  # pragma: no cover - fs races
                self._last_reload_error = f"{type(exc).__name__}: {exc}"
                continue
            if latest is None or str(latest) == self._current_dir:
                continue
            assert self._reload_lock is not None
            try:
                async with self._reload_lock:
                    if str(latest) == self._current_dir:
                        continue  # an admin reload won the race
                    await self._reload_from_directory(str(latest))
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - keep watching
                self._last_reload_error = f"{type(exc).__name__}: {exc}"

    async def _classify(self, request: HttpRequest) -> HttpResponse:
        """Parse reads out of the body, batch-classify, render the sink.

        Parsing (gunzip + ASCII decode + record split + encode) and
        sink rendering are CPU work proportional to the body size --
        up to ``max_body_bytes`` -- so for large inputs both run on
        the default executor, never the event loop: one big upload
        must not stall every other connection (including
        ``/healthz``, which load balancers probe).  Small requests
        (the micro-batching hot path) stay inline -- two thread
        handoffs would cost more than the microseconds of work they
        protect against.
        """
        fmt = request.query.get("format", "tsv")
        if fmt.lower() not in sink_formats():
            raise HttpError(
                400,
                f"unknown format {fmt!r} "
                f"(choose from {', '.join(sink_formats())})",
            )
        loop = asyncio.get_running_loop()
        if (
            len(request.body) > _OFFLOAD_BODY_BYTES
            or request.body[:2] == _GZIP_MAGIC
        ) and self._parse_gate is not None:
            async with self._parse_gate:
                headers, reads = await loop.run_in_executor(
                    None, self._parse_reads, request
                )
        else:
            headers, reads = self._parse_reads(request)
        records = await self.batcher.submit(headers, reads)

        def render() -> str:
            buffer = io.StringIO()
            with open_sink(fmt, buffer) as sink:
                write_records(sink, records)
            return buffer.getvalue()

        if len(records) > _OFFLOAD_RENDER_RECORDS:
            body = await loop.run_in_executor(None, render)
        else:
            body = render()
        return HttpResponse.text(
            body,
            content_type=_CONTENT_TYPES.get(fmt.lower(), "text/plain"),
        )

    def _parse_reads(self, request: HttpRequest) -> tuple[list[str], PackedReads]:
        """Accept JSON ``{"reads": [...]}`` or raw FASTA/FASTQ bytes.

        Either way the reads leave packed: the sequences of a request
        are joined and encoded once, never one array per read.
        """
        content_type = (
            request.headers.get("content-type", "")
            .split(";")[0]
            .strip()
            .lower()
        )
        if content_type == "application/json":
            payload = request.json()
            if not isinstance(payload, dict) or not isinstance(
                payload.get("reads"), list
            ):
                raise HttpError(
                    400, 'JSON body must be {"reads": [...]} with a list'
                )
            headers: list[str] = []
            sequences: list[bytes] = []
            for i, item in enumerate(payload["reads"]):
                if isinstance(item, str):
                    header, seq = f"read_{i}", item
                elif (
                    isinstance(item, list)
                    and len(item) == 2
                    and all(isinstance(part, str) for part in item)
                ):
                    header, seq = item
                else:
                    raise HttpError(
                        400,
                        f"reads[{i}] must be a sequence string or a "
                        "[header, sequence] pair",
                    )
                try:
                    sequences.append(seq.encode("ascii"))
                except UnicodeEncodeError as exc:
                    raise InvalidReadError(
                        f"reads[{i}]: not a nucleotide sequence ({exc})"
                    ) from exc
                headers.append(header)
            return headers, PackedReads.from_ascii(sequences)
        headers, lines = read_sequence_lines_bytes(
            request.body,
            name="request body",
            # a size-limited *compressed* body could still inflate
            # into gigabytes; cap the plaintext at the same bound
            max_decompressed_bytes=self.max_body_bytes,
        )
        return headers, PackedReads.from_lines(lines)


class ServerThread:
    """Run a :class:`ClassificationServer` on a background event loop.

    The in-process harness the differential tests and the serving
    benchmark use: ``start()`` returns the bound ``(host, port)``
    once the listener is up, ``stop()`` performs the draining
    shutdown from the calling thread.  Also usable as a context
    manager.  Not the production entry point -- that is
    :meth:`repro.api.MetaCache.serve`, which blocks on the foreground
    loop.

    ``on_stop`` (optional zero-argument callable) runs after the
    server has stopped -- on *every* :meth:`stop` path, including a
    failed drain; :meth:`repro.api.MetaCache.serve` uses it to close
    the dedicated session it opened.  ``drain_timeout`` bounds
    how long :meth:`stop` waits for the draining shutdown before
    declaring it failed (tests shrink it to exercise that branch).
    """

    def __init__(
        self,
        server: ClassificationServer,
        *,
        on_stop=None,
        drain_timeout: float = 60.0,
    ) -> None:
        self.server = server
        self.on_stop = on_stop
        self.drain_timeout = drain_timeout
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        """Start the loop thread and the server; returns (host, port)."""
        if self._thread is not None:
            raise ServerError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, name="metacache-server", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self.server.host, self.server.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: BLE001 - reported to start()
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    def stop(self, *, drain: bool = True) -> None:
        """Drain and stop the server, then join the loop thread.

        If the drain does not finish within ``drain_timeout`` seconds
        the loop is stopped anyway and
        :class:`~repro.errors.ServerError` is raised -- a leaked live
        loop thread would keep serving while ``on_stop`` closes the
        session underneath it.  ``on_stop`` runs on *every* path,
        timeout included: the session owns real processes (a worker
        pool, a shard router), and a stuck drain abandoning them
        would leak a process tree per failed shutdown.  The loop has
        been stopped and its thread joined (or abandoned as a daemon)
        by then, and the pools' own teardown escalates
        join/terminate/kill, so closing under a wedged classification
        is still bounded.
        """
        if self._thread is None or self._loop is None:
            return
        timed_out = False
        try:
            if self._thread.is_alive():
                future = asyncio.run_coroutine_threadsafe(
                    self.server.stop(drain=drain), self._loop
                )
                try:
                    future.result(timeout=self.drain_timeout)
                except FuturesTimeoutError:
                    timed_out = True
                    future.cancel()
                finally:
                    # runs even on timeout: the loop must stop either way
                    self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=60)
            self._thread = None
            self._loop = None
            if timed_out:
                raise ServerError(
                    f"shutdown drain did not finish within "
                    f"{self.drain_timeout:.0f} seconds"
                )
        finally:
            if self.on_stop is not None:
                self.on_stop()

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
