"""Producer/consumer orchestration.

Runs producer callables and consumer callables against a shared
queue, mirroring the two-stage scheme of Fig. 2: in the multi-GPU
build "we spawn as many consumer threads as there are GPUs, each
thread scheduling work on a distinct GPU".  Exceptions from any
thread are re-raised in the caller so failures are never silent.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

from repro.pipeline.queues import ClosableQueue

__all__ = ["run_producer_consumer"]


def run_producer_consumer(
    producers: Sequence[Callable[[ClosableQueue], object]],
    consumers: Sequence[Callable[[ClosableQueue], object]],
    queue_size: int = 8,
) -> list[object]:
    """Run producers and consumers to completion; returns consumer results.

    Each producer callable receives the queue and must call
    ``close_producer()`` when done (the helpers in
    :mod:`repro.pipeline.producer` do).  Registration happens here so
    the end-of-stream fires only after *all* producers finish.

    The first consumer runs on the calling thread; producers and any
    further consumers get threads of their own.  Consumers allocate
    the large per-batch temporaries, and the allocator keeps a
    separate arena per thread: a consumer on a fresh thread per call
    grew the process's peak RSS with every call (130 -> 190 MiB over
    four paired classify passes), on the calling thread it stays flat.
    """
    if not producers or not consumers:
        raise ValueError("need at least one producer and one consumer")
    q = ClosableQueue(maxsize=queue_size)
    for _ in producers:
        q.register_producer()
    errors: list[BaseException] = []
    results: list[object] = [None] * len(consumers)

    def wrap_producer(fn: Callable[[ClosableQueue], object]):
        def run():
            try:
                fn(q)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                errors.append(exc)
                # Producer callables close the queue in their own
                # `finally` (all helpers in producer.py do), so no
                # close here -- double-closing would corrupt the
                # producer refcount.

        return run

    def wrap_consumer(i: int, fn: Callable[[ClosableQueue], object]):
        def run():
            try:
                results[i] = fn(q)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        return run

    threads = [threading.Thread(target=wrap_producer(p)) for p in producers]
    threads += [
        threading.Thread(target=wrap_consumer(i, c))
        for i, c in enumerate(consumers[1:], start=1)
    ]
    for t in threads:
        t.start()
    wrap_consumer(0, consumers[0])()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results
