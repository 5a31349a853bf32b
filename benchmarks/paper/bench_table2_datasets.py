"""Table 2: metagenomic read datasets.

Paper values: HiSeq 10M single FASTA reads (19/101/92.3 min/max/avg),
MiSeq 10M single (19/251/156.8), KAL_D 26.1M paired FASTQ (101 fixed).
The mini datasets reproduce the length regimes; the checks pin the
properties the query pipeline depends on (MiSeq reads span two
windows, KAL_D is fixed-length paired).
"""

from repro.genomics.windows import WindowLayout

from paper.bench.tables import render_table
from paper.bench.workloads import hiseq_mini, kald_mini, miseq_mini


def test_table2_read_datasets(benchmark, report):
    def build():
        return hiseq_mini(), miseq_mini(), kald_mini()

    hs, ms, kd = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = []
    for ds, paper_desc in (
        (hs, "10,000,000 single, 19/101/92.3"),
        (ms, "10,000,000 single, 19/251/156.8"),
        (kd, "26,114,376 paired, 101/101/101"),
    ):
        mn, mx, avg = ds.reads.length_stats()
        fmt = "paired" if ds.reads.paired else "single"
        rows.append(
            [ds.name, f"{len(ds.reads):,} {fmt}", mn, mx, f"{avg:.1f}", paper_desc]
        )
    report(
        render_table(
            "Table 2: read datasets (mini-scale | paper-scale)",
            ["Dataset", "Sequences", "Min", "Max", "Avg", "Paper"],
            rows,
        )
    )
    layout = WindowLayout(k=16, window_size=127)
    hs_min, hs_max, hs_avg = hs.reads.length_stats()
    ms_min, ms_max, ms_avg = ms.reads.length_stats()
    kd_min, kd_max, kd_avg = kd.reads.length_stats()
    # HiSeq reads fit one window; average MiSeq reads span two
    assert layout.covered_windows(hs_max) == 1
    assert layout.covered_windows(int(ms_avg)) >= 2
    assert kd.reads.paired and kd_min == kd_max == 101
    assert hs_max <= 101 and ms_max <= 251
