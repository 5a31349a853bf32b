"""Host-side producer/consumer pipeline (Sections 4.1 / 4.2, Fig. 2).

MetaCache overlaps file parsing with device work through concurrent
queues: producer threads parse FASTA/FASTQ into batches of sequences,
consumer threads pull batches and feed them to the hash tables (one
consumer per GPU in the multi-GPU build).  This package reproduces
that structure with Python threads -- NumPy releases the GIL for the
heavy array work, so the overlap is real, and the structure gives the
file-based build/query paths the same shape as the paper's.
"""

from repro.pipeline.queues import ClosableQueue
from repro.pipeline.producer import SequenceBatch, fasta_producer, read_file_producer
from repro.pipeline.scheduler import run_producer_consumer

__all__ = [
    "SequenceBatch",
    "ClosableQueue",
    "fasta_producer",
    "read_file_producer",
    "run_producer_consumer",
]
