"""Table 5: time-to-query with on-the-fly mode.

Paper (RefSeq202): Kraken2 72 min build + 23 s load = 73 min TTQ;
MC CPU OTF 67 min; MC 4 GPUs OTF 10.4 s (420x); MC 8 GPUs OTF 9.7 s
(450x).  The OTF database needs no load phase at all -- that is the
entire point of the mode.
"""

from paper.bench.runners import run_ttq_comparison
from paper.bench.tables import format_seconds, render_table
from paper.bench.workloads import PAPER_AFS, PAPER_REFSEQ, refseq_mini
from paper.gpu.costmodel import DGX1_COST_MODEL


def _projection_rows(paper):
    m = DGX1_COST_MODEL
    B, T = paper.total_bases, paper.n_targets
    k2_build = m.build_time_kraken2(B, T)
    k2_load = m.db_bytes_kraken2(B) / m.kraken2_load_rate
    k2_ttq = k2_build + k2_load
    rows = [
        ["Kraken2", format_seconds(k2_build), format_seconds(k2_load),
         format_seconds(k2_ttq), "1.0"],
        ["MC CPU OTF", format_seconds(m.build_time_cpu(B, T)), "-",
         format_seconds(m.time_to_query_cpu_otf(B, T)),
         f"{k2_ttq / m.time_to_query_cpu_otf(B, T):.1f}"],
    ]
    for n in (4, 8):
        ttq = m.time_to_query_gpu_otf(B, n, T)
        rows.append(
            [f"MC {n} GPUs OTF", format_seconds(m.build_time_gpu(B, n, T)), "-",
             format_seconds(ttq), f"{k2_ttq / ttq:.0f}"]
        )
    return rows


def test_table5_time_to_query(benchmark, report):
    refset = refseq_mini()
    rows = benchmark.pedantic(
        run_ttq_comparison, args=(refset,), kwargs={"partition_counts": (1, 2, 4)},
        rounds=1, iterations=1,
    )
    base = rows[0].ttq_seconds  # Kraken2*
    table = [
        [r.method, format_seconds(r.build_seconds),
         format_seconds(r.load_seconds) if r.load_seconds else "-",
         format_seconds(r.ttq_seconds), f"{base / r.ttq_seconds:.1f}"]
        for r in rows
    ]
    text = render_table(
        f"Table 5a (measured, {refset.name}): time-to-query",
        ["Method", "Build", "Load", "TTQ", "Speedup"],
        table,
    )
    text += "\n" + render_table(
        "Table 5b (projected, RefSeq 202 @ DGX-1): time-to-query",
        ["Method", "Build", "Load", "TTQ", "Speedup"],
        _projection_rows(PAPER_REFSEQ),
    )
    text += "\n" + render_table(
        "Table 5c (projected, AFS 31 + RefSeq 202 @ DGX-1): time-to-query",
        ["Method", "Build", "Load", "TTQ", "Speedup"],
        _projection_rows(PAPER_AFS),
    )
    report(text)
    by = {r.method: r for r in rows}
    # OTF databases are query-ready strictly before the write+load flow
    assert by["MC 1 GPUs OTF"].ttq_seconds < by["Kraken2*"].ttq_seconds
    assert by["MC 1 GPUs OTF"].load_seconds == 0.0
    # projected speedup reproduces the paper's two-orders-of-magnitude
    m = DGX1_COST_MODEL
    speedup = m.time_to_query_kraken2(
        PAPER_REFSEQ.total_bases, PAPER_REFSEQ.n_targets
    ) / m.time_to_query_gpu_otf(PAPER_REFSEQ.total_bases, 8, PAPER_REFSEQ.n_targets)
    assert 300 < speedup < 700  # paper: 450
