"""Table 1: reference genome sets used for databases.

Paper values: RefSeq 202 = 15,461 species / 74 GB; AFS 31 + RefSeq 202
= 15,492 species / 151 GB.  The bench reports the mini-scale stand-ins
alongside the paper-scale descriptors the projections use, and checks
the structural properties that matter (AFS adds few species but many
scaffold targets and a large share of bases).
"""

from paper.bench.tables import format_bytes, render_table
from paper.bench.workloads import afs_plus_mini, refseq_mini


def test_table1_reference_sets(benchmark, report):
    def build_sets():
        return refseq_mini(), afs_plus_mini()

    rs, ap = benchmark.pedantic(build_sets, rounds=1, iterations=1)
    rows = [
        [
            "refseq-mini (RefSeq 202)",
            rs.n_species,
            rs.n_targets,
            format_bytes(rs.total_bases),
            f"{rs.paper.species:,}",
            "74 GB",
        ],
        [
            "afs-plus-mini (AFS31+RefSeq202)",
            ap.n_species,
            ap.n_targets,
            format_bytes(ap.total_bases),
            f"{ap.paper.species:,}",
            "151 GB",
        ],
    ]
    report(
        render_table(
            "Table 1: reference genome sets (mini-scale | paper-scale)",
            ["Database", "Species", "Targets", "Size", "Paper species", "Paper size"],
            rows,
        )
    )
    # structural checks mirroring the paper's Table 1
    assert ap.n_species - rs.n_species <= 31  # AFS adds few species...
    assert ap.n_targets > 3 * rs.n_targets  # ...but many scaffold targets
    assert ap.total_bases > 1.3 * rs.total_bases  # ...and much sequence
