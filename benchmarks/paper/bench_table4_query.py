"""Table 4: query performance against different databases.

Paper (RefSeq202, speeds in Mreads/min): Kraken2 130/87/74 for
HiSeq/MiSeq/KAL_D; MC CPU 53/19/81; MC 8 GPUs 305/215/435.  On
AFS31+RefSeq202 the CPU version collapses (5.6/1.3/13) while the GPU
version barely changes (298/199/249) and Kraken2 *speeds up* -- the
shape this bench checks at mini scale and projects at paper scale.
"""

from paper.bench.runners import run_query_comparison
from paper.bench.tables import format_seconds, render_table
from paper.bench.workloads import (
    PAPER_AFS,
    PAPER_REFSEQ,
    afs_plus_mini,
    hiseq_mini,
    kald_mini,
    miseq_mini,
    refseq_mini,
)
from paper.gpu.costmodel import DGX1_COST_MODEL


def _projection_table(paper_name):
    m = DGX1_COST_MODEL
    rows = []
    for ds in (hiseq_mini(), miseq_mini(), kald_mini()):
        shape = ds.paper_shapes[paper_name]
        t_k2 = m.query_time_kraken2(shape)
        t_cpu = m.query_time_cpu(shape)
        t_g4 = m.query_time_gpu(shape, 4)
        t_g8 = m.query_time_gpu(shape, 8)
        for method, t in (
            ("Kraken2", t_k2),
            ("MC CPU", t_cpu),
            ("MC 4 GPUs", t_g4),
            ("MC 8 GPUs", t_g8),
        ):
            speed = shape.n_reads / t / 1e6 * 60
            rows.append([method, ds.name, format_seconds(t), f"{speed:.0f}"])
    return render_table(
        f"Table 4b (projected, {paper_name} @ DGX-1): query speed",
        ["Method", "Dataset", "Time", "Mreads/min"],
        rows,
    )


def _measured(refset, datasets):
    return run_query_comparison(refset, datasets, partition_counts=(1, 2, 4))


def test_table4_query_refseq(benchmark, report):
    refset = refseq_mini()
    datasets = [hiseq_mini(), miseq_mini()]
    rows = benchmark.pedantic(
        _measured, args=(refset, datasets), rounds=1, iterations=1
    )
    table = [
        [r.method, r.dataset, format_seconds(r.seconds),
         f"{r.reads_per_minute / 1e3:.0f}k"]
        for r in rows
    ]
    text = render_table(
        f"Table 4a (measured, {refset.name}): query performance",
        ["Method", "Dataset", "Time", "reads/min"],
        table,
    )
    text += "\n" + _projection_table(PAPER_REFSEQ.name)
    report(text)
    by = {(r.method, r.dataset): r for r in rows}
    for ds in ("HiSeq", "MiSeq"):
        # the batched (GPU-path) query beats the serialized CPU path
        assert by[("MC 1 GPUs", ds)].seconds < by[("MC CPU", ds)].seconds


def test_table4_query_afs(benchmark, report):
    refset = afs_plus_mini()
    datasets = [kald_mini()]
    rows = benchmark.pedantic(
        _measured, args=(refset, datasets), rounds=1, iterations=1
    )
    table = [
        [r.method, r.dataset, format_seconds(r.seconds),
         f"{r.reads_per_minute / 1e3:.0f}k"]
        for r in rows
    ]
    text = render_table(
        f"Table 4a (measured, {refset.name}): query performance",
        ["Method", "Dataset", "Time", "reads/min"],
        table,
    )
    text += "\n" + _projection_table(PAPER_AFS.name)
    report(text)
    by = {(r.method, r.dataset): r for r in rows}
    assert by[("MC 1 GPUs", "KAL_D")].seconds < by[("MC CPU", "KAL_D")].seconds
