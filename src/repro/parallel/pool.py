"""The one worker substrate: N spawned processes behind per-slot queues.

MetaCache-GPU scales one way -- an index resident once per device,
packed batches streamed to every device, results merged in order --
and every multi-process surface of this repo is that idea over
:class:`WorkerPool`: the classify engine
(:class:`~repro.parallel.engine.ParallelClassifier`) and the shard
router (:class:`~repro.shard.router.ShardRouter`) are *plans* over it
and own no process machinery themselves, as is the sketch pool
(:class:`~repro.parallel.sketch.ParallelSketcher`), which no build
path calls.

A pool is a fixed list of :class:`WorkerSlot` positions on the
``spawn`` start method.  Each slot runs one child at a time (a
*generation*) on a task queue and a result queue created fresh for
that generation: a process killed with SIGKILL can die holding a
queue's internal pipe lock or leave a truncated message behind, so no
queue is ever shared between slots or reused after
:meth:`WorkerPool.respawn`, and the result queue of a signal-killed
writer is never read again.

Every child runs the same loop around a picklable ``init(*args) ->
handle_task`` pair and speaks one protocol (child -> parent tuples):

- ``("ready", slot)`` -- ``init`` returned, the slot is serving;
- ``("init_error", slot, message, traceback_text)`` -- ``init``
  raised, the child is exiting (cleanly);
- ``("ok", slot, tag, result)`` -- ``handle_task(*args)`` returned;
- ``("error", slot, tag, type_name, message, traceback_text)`` --
  it raised (the child keeps serving).

Parent -> child queues carry ``(tag, args)`` pairs and ``None`` as
the shutdown sentinel.  ``tag`` is the caller's task identity (chunk,
job or batch id) echoed on the answer, so a client can discard stale
answers after a failover.  Children ignore SIGINT: a terminal Ctrl-C
signals the whole foreground process group, and shutdown is the
parent's job (sentinel, then terminate, then kill).
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import queue as queue_mod
import signal
import time
import traceback
import weakref
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Sequence

from repro.errors import PipelineError, WorkerCrashError

__all__ = ["WorkerPool", "WorkerSlot", "reap_processes"]

#: seconds every slot gets to finish ``init`` at pool start
START_TIMEOUT = 120.0
#: cap on one blocking wait; messages and deaths wake it earlier
IDLE_WAIT = 1.0
#: seconds children get to exit after the sentinel before terminate
CLOSE_GRACE = 5.0


def reap_processes(procs: Sequence[Any], grace: float = CLOSE_GRACE) -> None:
    """Join worker processes, escalating to terminate then kill.

    Each process gets up to ``grace`` seconds *collectively* to exit
    after its shutdown sentinel, stragglers are terminated, and
    anything still alive after a short post-terminate join is killed.
    Never raises -- teardown must succeed even mid-crash (a process
    whose ``start()`` itself failed is skipped: it cannot be joined).
    """
    procs = [p for p in procs if p.is_alive() or p.exitcode is not None]
    deadline = time.monotonic() + grace
    for p in procs:
        p.join(timeout=max(0.0, deadline - time.monotonic()))
    for p in procs:
        if p.is_alive():
            p.terminate()
    for p in procs:
        if p.is_alive():
            p.join(timeout=2.0)
        if p.is_alive():  # pragma: no cover - terminate() nearly always lands
            p.kill()
            p.join(timeout=1.0)


def _child_main(
    slot: int,
    init: Callable[..., Callable[..., Any]],
    args: tuple,
    tasks: Any,
    results: Any,
) -> None:
    """The loop every pool child runs until the sentinel arrives.

    Never raises: every failure is reported on ``results`` and the
    child either keeps serving (task errors) or exits (``init``
    failure, sentinel).
    """
    with contextlib.suppress(OSError, ValueError):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        handle_task = init(*args)
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        results.put(("init_error", slot, repr(exc), traceback.format_exc()))
        return
    results.put(("ready", slot))
    while True:
        task = tasks.get()
        if task is None:
            return
        tag, args = task
        try:
            results.put(("ok", slot, tag, handle_task(*args)))
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            results.put(
                (
                    "error",
                    slot,
                    tag,
                    type(exc).__name__,
                    str(exc),
                    traceback.format_exc(),
                )
            )


class WorkerSlot:
    """One pool position: the current process generation and its queues.

    ``inflight`` counts tasks put on this generation and not yet
    answered -- the load figure least-loaded dispatch reads.
    """

    def __init__(self, index: int, name: str, args: tuple) -> None:
        self.index = index
        self.name = name
        self.args = args
        self.tasks: Any = None
        self.results: Any = None
        self.process: Any = None
        self.generation = 0
        self.ready = False
        self.inflight = 0
        self.exit_seen = False  # has a wait() reported this generation's exit

    @property
    def alive(self) -> bool:
        """True while the current generation is running.

        A child exits only on the sentinel, so *any* exit code --
        including 0 after an ``init`` failure -- means the slot is out
        of service.
        """
        return self.process is not None and self.process.exitcode is None

    @property
    def readable(self) -> bool:
        """True when it is safe to read this slot's result queue.

        Safe means the writer is alive, or exited *cleanly*
        (``exitcode >= 0``: its feeder thread flushed, so a queued
        ``init_error`` is complete).  A signal death may have left a
        truncated message in the pipe; reading it would block forever.
        """
        return self.process is not None and (
            self.process.exitcode is None or self.process.exitcode >= 0
        )

    def release_queues(self) -> None:
        """Drop this generation's queues without draining them."""
        for q in (self.tasks, self.results):
            if q is not None:
                with contextlib.suppress(OSError, ValueError):
                    q.cancel_join_thread()
                    q.close()
        self.tasks = self.results = None


def _take_messages(slots: Sequence[WorkerSlot]) -> list[tuple]:
    """Drain every safely-readable result queue (non-blocking)."""
    msgs: list[tuple] = []
    for slot in slots:
        if slot.results is None or not slot.readable:
            continue
        while True:
            try:
                msg = slot.results.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                break
            if msg[0] == "ready":
                slot.ready = True
            elif msg[0] in ("ok", "error"):
                slot.inflight = max(0, slot.inflight - 1)
            msgs.append(msg)
    return msgs


def _wait(slots: Sequence[WorkerSlot], timeout: float) -> None:
    """Block until a result pipe is readable or a child exits.

    Each death ends exactly one wait: either its sentinel fires here,
    or -- when an ``alive`` check elsewhere already reaped the child,
    so no sentinel is left to fire -- the next call returns at once.
    """
    waitables: list[Any] = []
    exiting: dict[int, WorkerSlot] = {}
    for slot in slots:
        if slot.process is None:
            continue
        if slot.alive:
            exiting[slot.process.sentinel] = slot
        elif not slot.exit_seen:
            slot.exit_seen = True
            return
        if slot.results is not None and slot.readable:
            waitables.append(slot.results._reader)
    if not waitables and not exiting:
        time.sleep(timeout)
        return
    try:
        ready = mp_connection.wait(waitables + list(exiting), timeout=timeout)
    except OSError:  # a queue was torn down mid-wait
        time.sleep(min(timeout, 0.05))
        return
    for sentinel, slot in exiting.items():
        if sentinel in ready:
            # the child closed its end: reap it with a blocking join, or
            # the next wait would spin on the still-readable sentinel
            slot.process.join()
            slot.exit_seen = True


def _close_pool(state: dict, slots: Sequence[WorkerSlot]) -> None:
    """Idempotent teardown shared by ``close()`` and the GC finalizer.

    Sentinels every live child, keeps draining (and discarding) their
    answers while they exit -- a child cannot finish while its feeder
    thread is blocked on a full result pipe -- escalates to
    terminate/kill on stragglers, then releases the queues.  Never
    raises: teardown must succeed even mid-crash.
    """
    if state["closed"]:
        return
    state["closed"] = True
    for slot in slots:
        if slot.alive:
            with contextlib.suppress(OSError, ValueError):
                slot.tasks.put(None)
    deadline = time.monotonic() + CLOSE_GRACE
    while any(s.alive for s in slots) and time.monotonic() < deadline:
        _take_messages(slots)
        _wait(slots, max(0.0, deadline - time.monotonic()))
    reap_processes([s.process for s in slots if s.process is not None], grace=0.0)
    for slot in slots:
        slot.release_queues()


class WorkerPool:
    """N worker slots around one ``init(*args) -> handle_task`` pair.

    Parameters
    ----------
    init:
        module-level (picklable) callable run once in each child with
        that slot's ``args``; it returns the ``handle_task(*args)``
        callable the child then serves tasks with.
    slot_args:
        one argument tuple per slot (this fixes the slot count).
    names:
        one process name per slot; the generation is appended.

    The constructor spawns every slot and blocks until each has
    answered ``ready``.  The pool is a context manager; :meth:`close`
    (idempotent, also run by a ``weakref.finalize`` safety net) leaves
    zero child processes behind.

    Raises
    ------
    WorkerCrashError
        when a child's ``init`` raises (the message carries the child
        traceback), a child dies while starting, the parent cannot
        start a child (the message names the slot), or the handshake
        exceeds :data:`START_TIMEOUT`.  The pool is closed first.
    """

    def __init__(
        self,
        init: Callable[..., Callable[..., Any]],
        slot_args: Sequence[tuple],
        names: Sequence[str],
    ) -> None:
        self._init = init
        self._ctx = mp.get_context("spawn")
        self.slots = tuple(
            WorkerSlot(i, name, args)
            for i, (name, args) in enumerate(zip(names, slot_args))
        )
        self._backlog: deque[tuple] = deque()
        self._state = {"closed": False}
        self._finalizer = weakref.finalize(
            self, _close_pool, self._state, self.slots
        )
        try:
            for slot in self.slots:
                self.respawn(slot.index)
            self._await_ready()
        except BaseException:
            self.close()
            raise

    def _await_ready(self) -> None:
        """Wait for every slot's ``ready`` handshake (or fail fast)."""
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            for msg in self.take_messages():
                if msg[0] == "init_error":
                    _, index, message, tb = msg
                    raise WorkerCrashError(
                        f"{self.slots[index].name} failed to start: "
                        f"{message}\n--- worker traceback ---\n{tb}"
                    )
            if all(slot.ready for slot in self.slots):
                return
            self.check_alive()
            if time.monotonic() > deadline:
                n_ready = sum(slot.ready for slot in self.slots)
                raise WorkerCrashError(
                    f"only {n_ready}/{len(self.slots)} workers ready "
                    f"after {START_TIMEOUT:.0f}s"
                )
            self.wait()

    # ------------------------------------------------------------ transport

    def respawn(self, index: int) -> None:
        """Start a new process generation of one slot on fresh queues.

        The slot takes the new process only once it has started.

        Raises
        ------
        WorkerCrashError
            when the process cannot be started (chained from the
            ``OSError``); the slot keeps its previous generation, if
            any, and no queue is read.
        """
        slot = self.slots[index]
        slot.release_queues()
        slot.tasks = self._ctx.Queue()
        slot.results = self._ctx.Queue()
        process = self._ctx.Process(
            target=_child_main,
            args=(index, self._init, slot.args, slot.tasks, slot.results),
            daemon=True,
            name=f"{slot.name}-gen{slot.generation + 1}",
        )
        try:
            process.start()
        except OSError as exc:
            slot.release_queues()
            raise WorkerCrashError(f"{slot.name} failed to start: {exc}") from exc
        slot.process = process
        slot.generation += 1
        slot.ready = False
        slot.inflight = 0
        slot.exit_seen = False

    def put(self, index: int, tag: Any, args: tuple) -> None:
        """Queue one task -- ``handle_task(*args)``, answered as ``tag``."""
        slot = self.slots[index]
        slot.tasks.put((tag, args))
        slot.inflight += 1

    def take_messages(self) -> list[tuple]:
        """Every message that has arrived, without blocking.

        Skips the result queue of a signal-killed child (see
        :attr:`WorkerSlot.readable`).
        """
        return _take_messages(self.slots)

    def wait(self, timeout: float = IDLE_WAIT) -> None:
        """Block until a message arrives, a child exits, or ``timeout``.

        Event-driven (``multiprocessing.connection.wait`` over the
        result pipes and the process sentinels), not a sleep poll.
        """
        _wait(self.slots, timeout)

    def next_result(self) -> tuple[int, Any, Any]:
        """Block for one answer: ``(slot, tag, result)``.

        The collection step of pools where any failure is fatal.

        Raises
        ------
        PipelineError
            a task raised inside a child (its traceback in the message).
        WorkerCrashError
            a child died and no answer is left to deliver.
        """
        while True:
            if not self._backlog:
                self._backlog.extend(self.take_messages())
            if not self._backlog:
                self.check_alive()
                self.wait()
                continue
            msg = self._backlog.popleft()
            if msg[0] == "ok":
                return msg[1], msg[2], msg[3]
            if msg[0] == "error":
                raise self.task_error(msg)

    # --------------------------------------------------------------- health

    def dead_slots(self) -> list[int]:
        """Indices of slots whose current generation has exited."""
        return [
            s.index for s in self.slots if s.process is not None and not s.alive
        ]

    def check_alive(self) -> None:
        """Raise :class:`WorkerCrashError` naming every dead child."""
        dead = [self.slots[i] for i in self.dead_slots()]
        if dead:
            names = ", ".join(
                f"{s.process.name} (exit code {s.process.exitcode})" for s in dead
            )
            raise WorkerCrashError(f"worker process died: {names}")

    def task_error(self, msg: tuple) -> PipelineError:
        """The typed error for one ``("error", ...)`` message."""
        _, index, tag, type_name, message, tb = msg
        return PipelineError(
            f"{self.slots[index].name} failed on task {tag}: "
            f"{type_name}: {message}\n--- worker traceback ---\n{tb}"
        )

    # ------------------------------------------------------------ lifecycle

    @property
    def closed(self) -> bool:
        """True once the pool is torn down (no longer usable)."""
        return bool(self._state["closed"])

    def close(self) -> None:
        """Stop every child and release the queues (idempotent)."""
        _close_pool(self._state, self.slots)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"WorkerPool({len(self.slots)} slots, {state})"
