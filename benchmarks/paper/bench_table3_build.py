"""Table 3: build performance for different databases.

Paper (RefSeq202): Kraken2 total 72 min / 40 GB; MC CPU 67 min build,
69 min total / 51 GB; MC 4 GPUs 10.4 s build / 88 GB; MC 8 GPUs 9.7 s
build / 97 GB.  AFS31+RefSeq202: 256 min / 201 min / 42.7 s (8 GPUs).

Measured mini-scale runs check the *orderings* (batched GPU-path
build fastest; the partitioned index growing with the partition
count); the calibrated cost model projects the paper scale, where the
Kraken2 DB is the smallest.
"""

from paper.bench.runners import run_build_comparison
from paper.bench.tables import format_bytes, format_seconds, render_table
from paper.bench.workloads import PAPER_AFS, PAPER_REFSEQ, afs_plus_mini, refseq_mini
from paper.gpu.costmodel import DGX1_COST_MODEL


def _measured_rows(refset):
    rows = run_build_comparison(refset, partition_counts=(1, 2, 4))
    table = [
        [r.method, format_seconds(r.build_seconds), format_seconds(r.total_seconds),
         format_bytes(r.db_bytes)]
        for r in rows
    ]
    return rows, table


def _projection_rows(paper):
    m = DGX1_COST_MODEL
    B, T = paper.total_bases, paper.n_targets
    out = []
    k2 = m.build_time_kraken2(B, T)
    out.append(["Kraken2", "-", format_seconds(k2), format_bytes(m.db_bytes_kraken2(B))])
    cpu = m.build_time_cpu(B, T)
    cpu_total = cpu + m.write_time(m.db_bytes_cpu(B))
    out.append(
        ["MC CPU", format_seconds(cpu), format_seconds(cpu_total),
         format_bytes(m.db_bytes_cpu(B))]
    )
    for n in (4, 8):
        g = m.build_time_gpu(B, n, T)
        db = m.db_bytes_gpu(B, n)
        out.append(
            [f"MC {n} GPUs", format_seconds(g),
             format_seconds(g + m.write_time(db)), format_bytes(db)]
        )
    return out


def test_table3_build_refseq(benchmark, report):
    refset = refseq_mini()
    rows, table = benchmark.pedantic(
        _measured_rows, args=(refset,), rounds=1, iterations=1
    )
    text = render_table(
        f"Table 3a (measured, {refset.name}): build performance",
        ["Method", "Build time", "Total time", "DB size"],
        table,
    )
    text += "\n" + render_table(
        "Table 3b (projected, RefSeq 202 @ DGX-1 scale)",
        ["Method", "Build time", "Total time", "DB size"],
        _projection_rows(PAPER_REFSEQ),
    )
    report(text)
    by_method = {r.method: r for r in rows}
    # the structural ordering the repo reproduces: batched insertion
    # beats the serialized CPU consumer.  (The Kraken2* stand-in's
    # *measured* build is a vectorized approximation and not timing
    # representative -- real Kraken2 takes hours at paper scale; its
    # projected cost comes from the calibrated model in Table 3b.)
    assert by_method["MC 1 GPUs"].build_seconds < by_method["MC CPU"].build_seconds
    # Kraken2's database is the smallest at paper scale: that is a claim
    # about the paper's own layout, so it is checked on the projected
    # sizes of Table 3b.  The measured index is smaller than the Kraken2*
    # stand-in's since location words and sorted pointers halved it.
    m, bases = DGX1_COST_MODEL, PAPER_REFSEQ.total_bases
    assert m.db_bytes_kraken2(bases) < m.db_bytes_gpu(bases, 4)
    # what the measured rows do show: each partition stores its own
    # copy of a shared feature, so the index grows with the partition
    # count (Section 6.5)
    sizes = [by_method[f"MC {n} GPUs"].db_bytes for n in (1, 2, 4)]
    assert sizes == sorted(set(sizes)), sizes


def test_table3_build_afs(benchmark, report):
    refset = afs_plus_mini()
    rows, table = benchmark.pedantic(
        _measured_rows, args=(refset,), rounds=1, iterations=1
    )
    text = render_table(
        f"Table 3a (measured, {refset.name}): build performance",
        ["Method", "Build time", "Total time", "DB size"],
        table,
    )
    text += "\n" + render_table(
        "Table 3b (projected, AFS 31 + RefSeq 202 @ DGX-1 scale)",
        ["Method", "Build time", "Total time", "DB size"],
        _projection_rows(PAPER_AFS),
    )
    report(text)
    by_method = {r.method: r for r in rows}
    assert by_method["MC 1 GPUs"].build_seconds < by_method["MC CPU"].build_seconds
