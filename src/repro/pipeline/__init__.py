"""Host-side producer pipeline (Sections 4.1 / 4.2, Fig. 2).

MetaCache overlaps file parsing with device work through concurrent
queues: producer threads parse FASTA/FASTQ into batches of sequences,
consumer threads pull batches and feed them to the hash tables (one
consumer per GPU in the multi-GPU build).  This package keeps the
overlap with one producer thread per call: :func:`prefetched` runs a
parsing generator (:func:`reference_blocks` for the build,
:func:`read_batches` for queries) ahead of the caller through a
bounded queue, and the caller consumes on its own thread.  NumPy
releases the GIL for the heavy array work, so the overlap is real;
the fan-out past one consumer is the slice threads of
:meth:`repro.api.QuerySession.classify_files` or its worker pool, not
a scheduler here.
"""

from repro.pipeline.producer import prefetched, read_batches, reference_blocks

__all__ = [
    "prefetched",
    "read_batches",
    "reference_blocks",
]
