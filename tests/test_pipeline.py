"""Tests for the producer/consumer pipeline."""

import threading

import numpy as np
import pytest

from repro.errors import InvalidReadError
from repro.genomics.fasta import write_fasta
from repro.genomics.fastq import FastqRecord, write_fastq
from repro.pipeline.producer import SequenceBatch, fasta_producer, read_file_producer
from repro.pipeline.queues import ClosableQueue
from repro.pipeline.scheduler import run_producer_consumer


class TestClosableQueue:
    def test_single_producer_consumer(self):
        q = ClosableQueue()
        q.register_producer()
        q.put(1)
        q.put(2)
        q.close_producer()
        assert list(q) == [1, 2]

    def test_multiple_producers(self):
        q = ClosableQueue()
        q.register_producer()
        q.register_producer()
        q.put("a")
        q.close_producer()
        q.put("b")
        q.close_producer()
        assert sorted(list(q)) == ["a", "b"]

    def test_multiple_consumers_share(self):
        q = ClosableQueue(maxsize=100)
        q.register_producer()
        for i in range(50):
            q.put(i)
        q.close_producer()
        seen: list[int] = []
        lock = threading.Lock()

        def consume():
            for item in q:
                with lock:
                    seen.append(item)

        threads = [threading.Thread(target=consume) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(seen) == list(range(50))

    def test_unbalanced_close_raises(self):
        q = ClosableQueue()
        with pytest.raises(RuntimeError):
            q.close_producer()

    def test_register_after_close_raises(self):
        q = ClosableQueue()
        q.register_producer()
        q.close_producer()
        with pytest.raises(RuntimeError):
            q.register_producer()


class TestBatch:
    def test_append_and_stats(self):
        b = SequenceBatch()
        b.append("h1", np.zeros(10, dtype=np.uint8), 0)
        b.append("h2", np.zeros(5, dtype=np.uint8), 1)
        assert len(b) == 2
        assert b.total_bases == 15
        assert b.ids == [0, 1]


class TestProducers:
    def test_fasta_producer(self, tmp_path):
        path = tmp_path / "refs.fasta"
        write_fasta([("g1", "ACGT" * 10), ("g2", "TTTT" * 5)], path)
        q = ClosableQueue()
        q.register_producer()
        n = fasta_producer([path], q, batch_size=1)
        assert n == 2
        batches = list(q)
        assert len(batches) == 2
        assert batches[0].headers == ["g1"]
        assert batches[0].sequences[0].size == 40

    def test_fastq_producer(self, tmp_path):
        # the query-side producer: FASTQ reads, optionally with mates
        path = tmp_path / "reads.fastq"
        write_fastq(
            [FastqRecord(f"r{i}", "ACGT", "IIII") for i in range(5)], path
        )
        mates = tmp_path / "mates.fasta"
        write_fasta([(f"m{i}", "GG") for i in range(5)], mates)
        for mates_path, bases_per_read in ((None, 4), (mates, 6)):
            q = ClosableQueue()
            q.register_producer()
            n = read_file_producer(path, q, 2, mates_path)
            assert n == 5
            items = list(q)
            assert [len(packed) for _, packed in items] == [2, 2, 1]
            assert [h for headers, _ in items for h in headers] == [
                f"r{i}" for i in range(5)
            ]
            assert all(
                packed.paired == (mates_path is not None)
                and packed.total_bases == bases_per_read * len(headers)
                for headers, packed in items
            )

    @pytest.mark.parametrize("n_mates", [3, 4, 5])
    def test_read_file_producer_rejects_unequal_pairs(self, tmp_path, n_mates):
        # 4 reads at batch size 2: the mates file ends inside a batch,
        # or runs past the reads file's last (full) batch
        path = tmp_path / "reads.fasta"
        write_fasta([(f"r{i}", "ACGT") for i in range(4)], path)
        mates = tmp_path / "mates.fasta"
        write_fasta([(f"m{i}", "ACGT") for i in range(n_mates)], mates)
        q = ClosableQueue()
        q.register_producer()
        if n_mates == 4:
            assert read_file_producer(path, q, 2, mates) == 4
        else:
            with pytest.raises(InvalidReadError, match="differ in length"):
                read_file_producer(path, q, 2, mates)
        list(q)  # closed either way: iteration terminates

    def test_producer_closes_on_error(self, tmp_path):
        q = ClosableQueue()
        q.register_producer()
        with pytest.raises(FileNotFoundError):
            fasta_producer([tmp_path / "missing.fasta"], q)
        # queue must be closed: iteration terminates
        assert list(q) == []


class TestScheduler:
    def test_producer_consumer_roundtrip(self, tmp_path):
        paths = []
        for i in range(3):
            p = tmp_path / f"f{i}.fasta"
            write_fasta([(f"g{i}_{j}", "ACGTACGT") for j in range(4)], p)
            paths.append(p)

        def consumer(q):
            total = 0
            for batch in q:
                total += len(batch)
            return total

        results = run_producer_consumer(
            producers=[lambda q, p=p: fasta_producer([p], q) for p in paths],
            consumers=[consumer, consumer],
        )
        assert sum(results) == 12

    def test_consumer_error_propagates(self):
        def bad_consumer(q):
            for _ in q:
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            run_producer_consumer(
                producers=[lambda q: (q.put("item"), q.close_producer())],
                consumers=[bad_consumer],
            )

    def test_no_producers_rejected(self):
        with pytest.raises(ValueError):
            run_producer_consumer(producers=[], consumers=[lambda q: None])
