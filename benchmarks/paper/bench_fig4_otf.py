"""Figure 4: on-the-fly mode vs separate build+query (W+L).

Paper: for the GPU version "most of the time in the build phase is
actually spent writing the database to the file system.  Loading the
database takes almost the same time as building it from scratch."
OTF removes both the write and the load, so the full OTF session
(build + query) finishes far before the write+load flow even starts
querying.
"""

import tempfile
from pathlib import Path

from repro.core.classify import classify_reads
from repro.core.io import load_database, save_database
from repro.core.query import query_database
from repro.pipeline.packed import PackedReads
from repro.util.timer import Timer

from paper.bench.runners import build_gpu_database
from paper.bench.tables import render_bars
from paper.bench.workloads import PAPER_REFSEQ, hiseq_mini, refseq_mini
from paper.gpu.costmodel import DGX1_COST_MODEL


def _run_phases():
    refset = refseq_mini()
    reads = hiseq_mini().reads
    phases: dict[str, float] = {}
    with tempfile.TemporaryDirectory() as tmp:
        with Timer() as t:
            db = build_gpu_database(refset, 2)
        phases["build"] = t.elapsed
        with Timer() as t:
            save_database(db, Path(tmp) / "db")
        phases["write"] = t.elapsed
        with Timer() as t:
            db2 = load_database(Path(tmp) / "db")
        phases["load"] = t.elapsed
        with Timer() as t:  # query the loaded (condensed) database
            res = query_database(db2, PackedReads.from_reads(reads.sequences))
            classify_reads(db2, res.candidates)
        phases["query(loaded)"] = t.elapsed
        with Timer() as t:  # OTF query on the database as built
            res = query_database(db, PackedReads.from_reads(reads.sequences))
            classify_reads(db, res.candidates)
        phases["query(otf)"] = t.elapsed
    return phases


def test_fig4_otf_vs_write_load(benchmark, report):
    phases = benchmark.pedantic(_run_phases, rounds=1, iterations=1)
    otf_total = phases["build"] + phases["query(otf)"]
    wl_total = (
        phases["build"] + phases["write"] + phases["load"] + phases["query(loaded)"]
    )
    text = render_bars(
        "Figure 4a (measured, refseq-mini): OTF vs write+load phases",
        [
            ("OTF: build", phases["build"]),
            ("OTF: query", phases["query(otf)"]),
            ("OTF total", otf_total),
            ("W+L: build", phases["build"]),
            ("W+L: write", phases["write"]),
            ("W+L: load", phases["load"]),
            ("W+L: query", phases["query(loaded)"]),
            ("W+L total", wl_total),
        ],
    )
    # paper-scale projection
    m = DGX1_COST_MODEL
    B, T = PAPER_REFSEQ.total_bases, PAPER_REFSEQ.n_targets
    db_bytes = m.db_bytes_gpu(B, 8)
    from paper.bench.workloads import hiseq_mini as _hs

    shape = _hs().paper_shapes[PAPER_REFSEQ.name]
    text += "\n" + render_bars(
        "Figure 4b (projected, RefSeq 202 @ DGX-1, 8 GPUs, KAL_D-style query)",
        [
            ("OTF: build", m.build_time_gpu(B, 8, T)),
            ("OTF: query", m.query_time_gpu(shape, 8, on_the_fly=True)),
            ("W+L: build", m.build_time_gpu(B, 8, T)),
            ("W+L: write", m.write_time(db_bytes)),
            ("W+L: load", m.load_time(db_bytes)),
            ("W+L: query", m.query_time_gpu(shape, 8)),
        ],
    )
    report(text)
    # the OTF session completes before the W+L flow finishes loading
    assert otf_total < wl_total
    # The built and the loaded database hold the same sorted layout, so
    # both query at about the same speed; the bound only guards against
    # a timing artefact.  The paper's ~20% OTF penalty (Section 6.3,
    # its GPU build layout) lives in the cost model's on_the_fly=True
    # projection above.
    assert phases["query(otf)"] >= 0.85 * phases["query(loaded)"]
    # projected: write+load dominates the projected GPU build
    proj_write_load = m.write_time(db_bytes) + m.load_time(db_bytes)
    assert proj_write_load > 2 * m.build_time_gpu(B, 8, T)
