"""Golden-file regression: classification output bytes are pinned.

Builds a database from the committed corpus under
``tests/data/golden/`` and asserts that classifying the committed
reads produces *exactly* the committed TSV -- through the API's
``classify_files``, through the CLI's ``query`` subcommand, and
through the HTTP server.  The three legs share one expectation, so
any byte drift (hashing, candidate ranking, tie-breaks, sink
formatting) fails here with a message pointing at the regeneration
tool rather than surfacing weeks later as a silent accuracy change.
"""

import http.client
import io
from pathlib import Path

import pytest

from repro.api import MetaCache, MetaCacheParams, SketchParams, TsvSink
from repro.cli import main
from repro.server import ClassificationServer, ServerThread

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

# Must match tools/regen_golden.py (and the CLI flags used below).
PARAMS = MetaCacheParams(
    sketch=SketchParams(k=8, sketch_size=4, window_size=24)
)

REGEN_HINT = (
    "golden output drifted from tests/data/golden/expected.tsv -- if this "
    "change is intentional, regenerate the fixtures with "
    "`PYTHONPATH=src python tools/regen_golden.py` and commit them with "
    "your change"
)


def _assert_golden(actual: str) -> None:
    expected = (GOLDEN_DIR / "expected.tsv").read_text()
    if actual != expected:
        actual_lines = actual.splitlines()
        expected_lines = expected.splitlines()
        diffs = [
            f"  line {i}: expected {e!r}, got {a!r}"
            for i, (e, a) in enumerate(zip(expected_lines, actual_lines))
            if e != a
        ][:5]
        if len(actual_lines) != len(expected_lines):
            diffs.append(
                f"  line count: expected {len(expected_lines)}, "
                f"got {len(actual_lines)}"
            )
        pytest.fail(REGEN_HINT + "\nfirst differences:\n" + "\n".join(diffs))


@pytest.fixture(scope="module")
def golden_db():
    mc = MetaCache.build(
        [GOLDEN_DIR / "refs.fasta"],
        taxonomy=GOLDEN_DIR,
        mapping=GOLDEN_DIR / "acc2tax.tsv",
        params=PARAMS,
    )
    yield mc
    mc.close()


def test_fixture_files_are_present():
    for name in (
        "refs.fasta",
        "nodes.dmp",
        "names.dmp",
        "acc2tax.tsv",
        "reads.fastq",
        "expected.tsv",
    ):
        assert (GOLDEN_DIR / name).is_file(), f"missing golden file {name}"


def test_api_output_matches_golden(golden_db):
    buffer = io.StringIO()
    session = golden_db.session()
    try:
        with TsvSink(buffer) as sink:
            session.classify_files(GOLDEN_DIR / "reads.fastq", sink=sink)
    finally:
        session.close()
    _assert_golden(buffer.getvalue())


def test_cli_output_matches_golden(tmp_path):
    db_dir = tmp_path / "db"
    assert (
        main(
            [
                "build",
                str(GOLDEN_DIR / "refs.fasta"),
                "--taxonomy", str(GOLDEN_DIR),
                "--mapping", str(GOLDEN_DIR / "acc2tax.tsv"),
                "--out", str(db_dir),
                "--kmer-length", "8",
                "--sketch-size", "4",
                "--window-size", "24",
            ]
        )
        == 0
    )
    out_path = tmp_path / "out.tsv"
    assert (
        main(
            [
                "query",
                "--db", str(db_dir),
                "--reads", str(GOLDEN_DIR / "reads.fastq"),
                "--out", str(out_path),
            ]
        )
        == 0
    )
    _assert_golden(out_path.read_text())


def test_server_output_matches_golden(golden_db):
    session = golden_db.session()
    server = ClassificationServer(session, port=0)
    try:
        with ServerThread(server):
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=60
            )
            try:
                conn.request(
                    "POST",
                    "/classify",
                    body=(GOLDEN_DIR / "reads.fastq").read_bytes(),
                )
                resp = conn.getresponse()
                body = resp.read().decode()
                assert resp.status == 200, body
            finally:
                conn.close()
    finally:
        session.close()
    _assert_golden(body)
