"""repro-lint framework and rule tests.

Per rule RL000-RL007: one known-bad fixture that must fire (true
positive) and one known-good fixture that must stay silent (true
negative), plus suppression-comment handling, baseline matching with
stale-entry detection, a regression test pinning the committed
baseline, and the CLI exit codes.

Fixtures are written under ``tmp_path`` mirroring the repo layout
(``src/repro/...``) because rules scope themselves by repo-relative
path; ``root=tmp_path`` makes the relative paths line up.
"""

import json
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.repro_lint import Linter, Module, all_rules, get_rule  # noqa: E402
from tools.repro_lint.cli import main as lint_main  # noqa: E402
from tools.repro_lint.core import BaselineEntry, load_baseline  # noqa: E402


def run_rule(rule_id, tmp_path, relpath, source):
    """Write one fixture file and run a single rule over it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    rule = get_rule(rule_id)
    module = Module.parse(path, tmp_path)
    assert rule.applies(module), f"{rule_id} should apply to {relpath}"
    return [f for f in rule.check(module)]


def lint_tree(tmp_path, select=None, baseline=()):
    """Run the full Linter over a fixture tree."""
    return Linter(tmp_path, select=select, baseline=baseline).lint([tmp_path])


# ---------------------------------------------------------------- registry


def test_all_rules_registered():
    ids = [r.rule_id for r in all_rules()]
    assert ids == [f"RL00{i}" for i in range(8)]
    for rule in all_rules():
        assert rule.name and rule.rationale


def test_unknown_rule_select_rejected(tmp_path):
    with pytest.raises(KeyError):
        Linter(tmp_path, select=["RL999"])


# ------------------------------------------------------------------- RL000


def test_rl000_fires_on_missing_docstrings(tmp_path):
    findings = run_rule(
        "RL000",
        tmp_path,
        "src/repro/api/thing.py",
        '''
        """Module documented."""

        def undocumented():
            pass
        ''',
    )
    assert len(findings) == 1
    assert findings[0].symbol == "undocumented"


def test_rl000_silent_on_documented_module(tmp_path):
    findings = run_rule(
        "RL000",
        tmp_path,
        "src/repro/api/thing.py",
        '''
        """Module documented."""

        def fn():
            """Documented."""

        def _helper():
            pass

        class Proto:
            """Documented."""

            def stub(self) -> None: ...
        ''',
    )
    assert findings == []


# ------------------------------------------------------------------- RL001


RL001_BAD = '''
"""Kernel module."""

def sketch_batch(reads):
    """Per-read loop: banned."""
    out = []
    for read in reads:
        out.append(read.sum())
    return out

def sketch_reads_loop(reads):
    """No name buys an exemption: oracles live in tests/reference/."""
    for read in reads:
        read.sum()
'''

RL001_GOOD = '''
"""Kernel module."""
import numpy as np

def sketch_batch(buf, offsets):
    """Batched: fine."""
    return np.add.reduceat(buf, offsets[:-1])

def from_reads(reads):
    """Comprehensions at the batch boundary are allowed."""
    return [len(read) for read in reads]
'''


def test_rl001_fires_on_per_read_loop(tmp_path):
    findings = run_rule("RL001", tmp_path, "src/repro/hashing/kern.py", RL001_BAD)
    assert [f.symbol for f in findings] == ["sketch_batch", "sketch_reads_loop"]


def test_rl001_silent_on_kernels_and_comprehensions(tmp_path):
    findings = run_rule("RL001", tmp_path, "src/repro/hashing/kern.py", RL001_GOOD)
    assert findings == []


@pytest.mark.parametrize(
    "relpath", ["src/repro/sort/segmented.py", "src/repro/core/candidates.py"]
)
def test_rl001_covers_the_query_tail(tmp_path, relpath):
    findings = run_rule("RL001", tmp_path, relpath, RL001_BAD)
    assert len(findings) == 2


RL001_BIT_LOOP = '''
"""Packer module."""

def pack(bases, k):
    """The loop walks the binary digits of k, not positions: allowed."""
    kmers = bases
    for digit in bin(k)[3:]:
        kmers = kmers << 2
    return kmers
'''


@pytest.mark.parametrize(
    "relpath", ["src/repro/genomics/kmers.py", "src/repro/genomics/windows.py"]
)
def test_rl001_covers_the_kmer_packer_and_window_layout(tmp_path, relpath):
    assert len(run_rule("RL001", tmp_path, relpath, RL001_BAD)) == 2
    assert run_rule("RL001", tmp_path, relpath, RL001_BIT_LOOP) == []


RL001_BLOCK_LOOP = '''
"""Host-side module."""

def parse(handle, batch_size):
    """The loop walks blocks of lines, not reads: allowed."""
    blocks = iter(handle)
    for block in blocks:
        yield [line[1:] for line in block]

def render(columns):
    """One comprehension and one join per batch: allowed."""
    return "\\n".join([str(row) for row in zip(*columns)])
'''


@pytest.mark.parametrize(
    "relpath",
    [
        "src/repro/genomics/fastq.py",
        "src/repro/pipeline/producer.py",
        "src/repro/api/records.py",
        "src/repro/api/sinks.py",
    ],
)
def test_rl001_covers_the_host_side_from_file_to_sink(tmp_path, relpath):
    assert len(run_rule("RL001", tmp_path, relpath, RL001_BAD)) == 2
    assert run_rule("RL001", tmp_path, relpath, RL001_BLOCK_LOOP) == []


RL001_STEP_LOOP = '''
"""Table / batcher module."""

def walk(table_keys, probing, live):
    """The loop walks probe steps, each a whole tile of walks: allowed."""
    rnd = 0
    while live.size and rnd < probing.max_probe_rounds:
        rnd += 1

def take(pending, slices):
    """The loops walk queued requests and a batch's slices: allowed."""
    while pending:
        slices.append(pending.popleft())
    for entry, count in slices:
        entry.taken += count
'''


@pytest.mark.parametrize(
    "relpath",
    [
        "src/repro/warpcore/base.py",
        "src/repro/warpcore/single_value.py",
        "src/repro/server/batcher.py",
    ],
)
def test_rl001_covers_the_tables_and_the_micro_batcher(tmp_path, relpath):
    assert len(run_rule("RL001", tmp_path, relpath, RL001_BAD)) == 2
    assert run_rule("RL001", tmp_path, relpath, RL001_STEP_LOOP) == []


RL001_KEY_LOOP = '''
"""Table module."""

class Table:
    """A multi-bucket table."""

    def condensed_content(self):
        """One probe walk per key: what the slot-array scan replaced."""
        chunks = []
        for key in self.occupied_keys():
            chunks.append(self.retrieve(key)[0])
        for feature, n in zip(self.features, self.lengths):
            chunks.append(n)
        return chunks

    def insert(self, key32, n_fit):
        """Round loops and the bucket-bounded column loop: allowed."""
        while key32.size:
            for j in range(int(n_fit.max())):
                key32 = key32[n_fit > j]
'''


def test_rl001_flags_a_per_key_loop_in_the_condense_scan(tmp_path):
    relpath = "src/repro/warpcore/multi_bucket.py"
    findings = run_rule("RL001", tmp_path, relpath, RL001_KEY_LOOP)
    assert [f.symbol for f in findings] == ["condensed_content"] * 2
    # the bucket-list baseline walks its chains per key by design
    assert run_rule("RL001", tmp_path, "src/repro/warpcore/bucket_list.py", RL001_KEY_LOOP) == []


def test_rl001_out_of_scope_module_not_checked(tmp_path):
    path = tmp_path / "src/repro/util/misc.py"
    path.parent.mkdir(parents=True)
    path.write_text(RL001_BAD)
    module = Module.parse(path, tmp_path)
    assert not get_rule("RL001").applies(module)


# ------------------------------------------------------------------- RL002


def test_rl002_fires_on_weighted_bincount_and_float_cumsum(tmp_path):
    findings = run_rule(
        "RL002",
        tmp_path,
        "src/repro/core/votes.py",
        '''
        """Vote counting."""
        import numpy as np

        def tally(targets, weights):
            """Float accumulation: banned."""
            counts = np.bincount(targets, weights=weights)
            scores = np.cumsum(counts, dtype=np.float64)
            return counts, scores
        ''',
    )
    assert len(findings) == 2
    assert "bincount" in findings[0].message
    assert "cumsum" in findings[1].message


def test_rl002_silent_on_int64_scatter_add(tmp_path):
    findings = run_rule(
        "RL002",
        tmp_path,
        "src/repro/core/votes.py",
        '''
        """Vote counting."""
        import numpy as np

        def tally(targets, n):
            """Exact int64 scatter-add (the PR 3 idiom)."""
            counts = np.zeros(n, dtype=np.int64)
            np.add.at(counts, targets, 1)
            offsets = np.cumsum(lengths, dtype=np.int64)
            means = np.cumsum(samples, dtype=np.float64)  # not a counter
            return counts, offsets
        ''',
    )
    assert findings == []


# ------------------------------------------------------------------- RL003


def test_rl003_fires_on_bare_valueerror_and_stdlib_reraise(tmp_path):
    findings = run_rule(
        "RL003",
        tmp_path,
        "src/repro/api/surface.py",
        '''
        """Public surface."""

        def parse(data):
            """Raises untyped: banned."""
            if not data:
                raise ValueError("empty")
            try:
                return int(data)
            except KeyError:
                raise
        ''',
    )
    assert len(findings) == 2
    assert "bare ValueError" in findings[0].message
    assert "re-raise" in findings[1].message


def test_rl003_silent_on_typed_private_and_nested(tmp_path):
    findings = run_rule(
        "RL003",
        tmp_path,
        "src/repro/api/surface.py",
        '''
        """Public surface."""
        from repro.errors import InvalidReadError

        def parse(data):
            """Typed raise + non-stdlib re-raise: fine."""
            if not data:
                raise InvalidReadError("empty")
            try:
                return int(data)
            except InvalidReadError:
                raise

        def _internal(data):
            raise ValueError("private helpers are out of scope")

        def outer():
            """Nested defs are internal until they escape."""
            def inner():
                raise ValueError("nested")
            return inner

        def stop():
            """NotImplementedError is excluded by design."""
            raise NotImplementedError
        ''',
    )
    assert findings == []


# ------------------------------------------------------------------- RL004


def test_rl004_fires_on_fork_and_lambda_payload(tmp_path):
    findings = run_rule(
        "RL004",
        tmp_path,
        "src/repro/parallel/jobs.py",
        '''
        """Job dispatch."""
        import multiprocessing as mp

        SHARED = {}

        def dispatch(queue, chunk):
            """Unsafe payloads: banned."""
            ctx = mp.get_context("fork")
            queue.put((chunk, lambda x: x + 1))
            queue.put(SHARED)

        def start(WorkerPool, handle):
            """A pool's init is the child entry: same rule."""
            return WorkerPool(lambda h: h.attach, [(handle,)], ["w"])
        ''',
    )
    kinds = [f.message for f in findings]
    assert len(findings) == 4
    assert sum("lambda" in m for m in kinds) == 2
    assert any("fork" in m for m in kinds)
    assert any("lambda" in m for m in kinds)
    assert any("SHARED" in m for m in kinds)


def test_rl004_silent_on_spawn_and_plain_tuples(tmp_path):
    findings = run_rule(
        "RL004",
        tmp_path,
        "src/repro/parallel/jobs.py",
        '''
        """Job dispatch."""
        import multiprocessing as mp

        def dispatch(queue, chunk_id, headers, arrays):
            """Plain picklable tuples under spawn: fine."""
            ctx = mp.get_context("spawn")
            queue.put((chunk_id, headers, arrays))
        ''',
    )
    assert findings == []


# ------------------------------------------------------------------- RL005


def test_rl005_fires_on_blocking_calls_in_coroutine(tmp_path):
    findings = run_rule(
        "RL005",
        tmp_path,
        "src/repro/server/handlers.py",
        '''
        """Handlers."""
        import gzip
        import time

        async def handle(body, session):
            """Blocking inside async def: banned."""
            time.sleep(0.1)
            data = gzip.decompress(body)
            return session.classify(data)
        ''',
    )
    assert len(findings) == 3
    assert "time.sleep" in findings[0].message
    assert "gzip.decompress" in findings[1].message
    assert "classify" in findings[2].message


def test_rl005_silent_on_offload_and_sync_defs(tmp_path):
    findings = run_rule(
        "RL005",
        tmp_path,
        "src/repro/server/handlers.py",
        '''
        """Handlers."""
        import asyncio
        import gzip

        async def handle(body, session):
            """The sanctioned pattern: offload to the executor."""
            loop = asyncio.get_running_loop()

            def work():
                return session.classify(gzip.decompress(body))

            result = await loop.run_in_executor(None, work)
            await asyncio.sleep(0.01)
            return result

        def sync_helper(session, data):
            """Sync functions may block freely."""
            return session.classify(data)
        ''',
    )
    assert findings == []


# ------------------------------------------------------------------- RL006


def test_rl006_fires_on_leaked_shared_memory(tmp_path):
    findings = run_rule(
        "RL006",
        tmp_path,
        "src/repro/core/shm.py",
        '''
        """Shared memory."""
        from multiprocessing.shared_memory import SharedMemory

        def probe():
            """Acquired, never released, never escapes: leak."""
            block = SharedMemory(create=True, size=16)
            return block.size > 0
        ''',
    )
    assert len(findings) == 1
    assert findings[0].symbol == "probe"


def test_rl006_silent_on_with_finally_and_escape(tmp_path):
    findings = run_rule(
        "RL006",
        tmp_path,
        "src/repro/core/shm.py",
        '''
        """Shared memory."""
        import mmap
        from multiprocessing.shared_memory import SharedMemory

        def with_block(path):
            """Context manager: fine."""
            with mmap.mmap(-1, 16) as m:
                return bytes(m[:4])

        def finally_paired():
            """close/unlink in finally: fine."""
            block = SharedMemory(create=True, size=16)
            try:
                return bytes(block.buf[:4])
            finally:
                block.close()
                block.unlink()

        def escapes():
            """Returned handle: the caller owns the lifetime."""
            return SharedMemory(create=True, size=16)

        def stored(registry):
            """Handle passed on: the owner closes it."""
            block = SharedMemory(create=True, size=16)
            registry.track(block)
            return block.name
        ''',
    )
    assert findings == []


def test_rl006_fires_on_leaked_mmap_database(tmp_path):
    findings = run_rule(
        "RL006",
        tmp_path,
        "src/repro/core/loader.py",
        '''
        """Database loading."""
        from repro.core.io import load_database

        def count_targets(path):
            """mmap-backed Database dropped without close(): leak."""
            db = load_database(path, mmap=True)
            return db.n_targets
        ''',
    )
    assert len(findings) == 1
    assert findings[0].symbol == "count_targets"


def test_rl006_silent_on_closed_or_escaping_mmap_database(tmp_path):
    findings = run_rule(
        "RL006",
        tmp_path,
        "src/repro/core/loader.py",
        '''
        """Database loading."""
        from repro.core.io import load_database

        def count_targets(path):
            """Database.close() in a finally pairs the lifetime."""
            db = load_database(path, mmap=True)
            try:
                return db.n_targets
            finally:
                db.close()

        def open_db(path, use_mmap):
            """Returned handle: the caller owns the lifetime."""
            return load_database(path, mmap=use_mmap)

        def rebuild_only(path):
            """mmap=False owns no mappings: nothing to release."""
            db = load_database(path, mmap=False)
            return db.n_targets

        def deferred(path):
            """A lambda's body escapes to whoever calls the lambda."""
            loader = lambda: load_database(path, mmap=True)
            return loader
        ''',
    )
    assert findings == []


# ------------------------------------------------------------------- RL007


def test_rl007_fires_on_upward_imports(tmp_path):
    findings = run_rule(
        "RL007",
        tmp_path,
        "src/repro/core/query.py",
        '''
        """Core module reaching up."""
        from typing import TYPE_CHECKING

        import paper
        from paper.gpu.topology import MultiGpuNode

        if TYPE_CHECKING:
            from repro import server

        def query():
            """Lazy imports count too."""
            from repro.api.records import RunReport
        ''',
    )
    assert sorted(f.message.split(":")[0] for f in findings) == [
        "imports paper",
        "imports paper.gpu.topology",
        "imports repro.api.records",
        "imports repro.server",
    ]
    assert findings[-1].symbol == "query"


def test_rl007_silent_on_downward_and_wrapper_imports(tmp_path):
    for relpath, source in [
        # the facade layer and entry points sit on top
        ("src/repro/server/app.py", "from repro.api import QuerySession\n"),
        ("src/repro/api/facade.py", "from repro.server import ServerThread\n"),
        ("src/repro/cli.py", "from repro.api import MetaCache\n"),
        # lookalike names and third-party modules are not the layers
        ("src/repro/core/io.py", "import paperwork\nfrom repro.apiary import x\n"),
    ]:
        source = '"""Module."""\n' + source
        assert run_rule("RL007", tmp_path, relpath, source) == [], relpath


def test_rl007_fires_on_legacy_readers_outside_convert(tmp_path):
    for relpath, source, name in [
        # the open path, at top level and lazily
        ("src/repro/core/io.py", "from repro.core.legacy import convert_database\n",
         "repro.core.legacy"),
        ("src/repro/core/io.py",
         "def load():\n    \"\"\"Lazy.\"\"\"\n    from repro.core import legacy\n",
         "repro.core.legacy"),
        ("src/repro/shard/plan.py", "import repro.core.legacy\n", "repro.core.legacy"),
        # the facade package is allowed only through facade.py
        ("src/repro/api/session.py", "from repro.core.legacy import _load_any\n",
         "repro.core.legacy"),
    ]:
        findings = run_rule("RL007", tmp_path, relpath, '"""Module."""\n' + source)
        assert [f.message.split(":")[0] for f in findings] == [f"imports {name}"], relpath
        assert "convert" in findings[0].message


def test_rl007_silent_on_legacy_readers_behind_convert(tmp_path):
    for relpath, source in [
        ("src/repro/api/facade.py", "from repro.core.legacy import convert_database\n"),
        ("src/repro/cli.py", "from repro.core import legacy\n"),
        # the legacy module's own imports of the open path point down
        ("src/repro/core/legacy.py", "from repro.core.io import load_database\n"),
        # lookalike names are not the legacy module
        ("src/repro/core/io.py", "from repro.core import legacy_names\n"),
    ]:
        source = '"""Module."""\n' + source
        assert run_rule("RL007", tmp_path, relpath, source) == [], relpath


def test_rl007_fires_on_parsers_outside_genomics(tmp_path):
    for relpath, source, name in [
        ("src/repro/pipeline/producer.py",
         "from repro.genomics.fastq import read_fastq_blocks\n",
         "repro.genomics.fastq"),
        ("src/repro/pipeline/producer.py",
         "def produce():\n    \"\"\"Lazy.\"\"\"\n    from repro.genomics import fasta\n",
         "repro.genomics.fasta"),
        ("src/repro/server/app.py", "import repro.genomics.fasta\n",
         "repro.genomics.fasta"),
        ("src/repro/server/app.py",
         "from repro.genomics.fastq import FastqRecord\n",
         "repro.genomics.fastq"),
    ]:
        findings = run_rule("RL007", tmp_path, relpath, '"""Module."""\n' + source)
        assert [f.message.split(":")[0] for f in findings] == [f"imports {name}"], relpath
        assert "genomics/io.py" in findings[0].message


def test_rl007_silent_on_parsers_inside_genomics(tmp_path):
    for relpath, source in [
        ("src/repro/genomics/io.py",
         "from repro.genomics.fasta import read_fasta_blocks\n"
         "from repro.genomics.fastq import read_fastq_blocks\n"),
        ("src/repro/genomics/__init__.py",
         "from repro.genomics.fasta import read_fasta, write_fasta\n"
         "from repro.genomics.fastq import write_fastq, FastqRecord\n"),
        # the sniffing reader and the package's re-exports are open to all
        ("src/repro/pipeline/producer.py",
         "from repro.genomics.io import iter_sequence_blocks\n"
         "from repro.genomics import read_fasta\n"),
    ]:
        source = '"""Module."""\n' + source
        assert run_rule("RL007", tmp_path, relpath, source) == [], relpath


# ------------------------------------------------------------- suppressions


def test_inline_suppression_and_justified_trailer(tmp_path):
    path = tmp_path / "src/repro/api/s.py"
    path.parent.mkdir(parents=True)
    path.write_text(
        textwrap.dedent(
            '''
            """Module."""

            def precondition(n):
                """Suppressed trailer and preceding-line forms."""
                if n < 1:
                    raise ValueError("n")  # repro-lint: disable=RL003 -- config precondition
                # repro-lint: disable=RL003 -- second form
                raise ValueError("other")
            '''
        )
    )
    result = lint_tree(tmp_path, select=["RL003"])
    assert result.findings == []


def test_suppression_is_rule_specific(tmp_path):
    path = tmp_path / "src/repro/api/s.py"
    path.parent.mkdir(parents=True)
    path.write_text(
        textwrap.dedent(
            '''
            """Module."""

            def precondition(n):
                """Suppressing the wrong rule does not help."""
                raise ValueError("n")  # repro-lint: disable=RL005
            '''
        )
    )
    result = lint_tree(tmp_path, select=["RL003"])
    assert len(result.findings) == 1


# ----------------------------------------------------------------- baseline


def test_baseline_suppresses_and_detects_stale(tmp_path):
    path = tmp_path / "src/repro/api/s.py"
    path.parent.mkdir(parents=True)
    path.write_text(
        textwrap.dedent(
            '''
            """Module."""

            def precondition(n):
                """Known, accepted finding."""
                raise ValueError("n")
            '''
        )
    )
    result = lint_tree(tmp_path, select=["RL003"])
    assert len(result.findings) == 1
    accepted = result.findings[0]

    entry = BaselineEntry(
        rule=accepted.rule,
        path=accepted.path,
        symbol=accepted.symbol,
        message=accepted.message,
        justification="test fixture",
        line=accepted.line + 40,  # baseline matching ignores line drift
    )
    result = lint_tree(tmp_path, select=["RL003"], baseline=[entry])
    assert result.findings == [] and result.ok
    assert len(result.baselined) == 1

    stale = BaselineEntry(
        rule="RL003",
        path="src/repro/api/gone.py",
        symbol="removed",
        message="no longer exists",
        justification="stale",
    )
    result = lint_tree(tmp_path, select=["RL003"], baseline=[entry, stale])
    assert not result.ok
    assert result.stale_baseline == [stale]


def test_partial_runs_do_not_mark_out_of_scope_entries_stale(tmp_path):
    """--select / sub-path runs can't re-find every entry; only entries
    for selected rules under the requested paths may go stale."""
    api = tmp_path / "src/repro/api"
    server = tmp_path / "src/repro/server"
    api.mkdir(parents=True)
    server.mkdir(parents=True)
    (api / "a.py").write_text('"""Module."""\n')
    (server / "b.py").write_text('"""Module."""\n')
    server_entry = BaselineEntry(
        rule="RL003",
        path="src/repro/server/b.py",
        symbol="gone",
        message="removed finding",
        justification="x",
    )
    # Out-of-scope path: not stale.
    result = Linter(tmp_path, select=["RL003"], baseline=[server_entry]).lint([api])
    assert result.ok and result.stale_baseline == []
    # Unselected rule: not stale.
    result = Linter(tmp_path, select=["RL001"], baseline=[server_entry]).lint(
        [tmp_path]
    )
    assert result.ok and result.stale_baseline == []
    # Full-scope run with the rule selected: stale.
    result = Linter(tmp_path, select=["RL003"], baseline=[server_entry]).lint(
        [tmp_path]
    )
    assert not result.ok and result.stale_baseline == [server_entry]


def test_committed_baseline_matches_current_tree():
    """Pin the checked-in baseline: the real src/ tree must lint clean
    against it, every entry must still match (no stale rot), and every
    entry must carry a human justification."""
    baseline_path = REPO_ROOT / "tools" / "repro_lint" / "baseline.json"
    baseline = load_baseline(baseline_path)
    for entry in baseline:
        assert entry.justification and "TODO" not in entry.justification, (
            f"baseline entry {entry.rule} {entry.path} [{entry.symbol}] "
            "needs a real justification"
        )
    result = Linter(REPO_ROOT, baseline=baseline).lint([REPO_ROOT / "src"])
    diff = "\n".join(
        [f"NEW: {f.render()}" for f in result.findings]
        + [
            f"STALE: {e.rule} {e.path} [{e.symbol}] {e.message}"
            for e in result.stale_baseline
        ]
        + [f"ERROR: {e}" for e in result.errors]
    )
    assert result.ok, f"src/ no longer matches the committed baseline:\n{diff}"


def test_committed_baseline_is_empty():
    """Argument preconditions raise ``ConfigError`` and serve() closes its
    session in a ``finally``, so the baseline holds nothing; growing it
    is a deliberate act that must show up in review."""
    baseline = load_baseline(REPO_ROOT / "tools" / "repro_lint" / "baseline.json")
    assert list(baseline) == []


# ---------------------------------------------------------------------- CLI


def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    path = tmp_path / "src/repro/api/ok.py"
    path.parent.mkdir(parents=True)
    path.write_text('"""Module."""\n')
    code = lint_main([str(tmp_path), "--root", str(tmp_path), "--no-baseline"])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_cli_violation_exits_one_with_location(tmp_path, capsys):
    path = tmp_path / "src/repro/api/bad.py"
    path.parent.mkdir(parents=True)
    path.write_text('"""Module."""\n\ndef f():\n    pass\n')
    code = lint_main([str(tmp_path), "--root", str(tmp_path), "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 1
    assert "src/repro/api/bad.py:3" in out and "RL000" in out


def test_cli_repo_src_is_clean():
    code = lint_main([str(REPO_ROOT / "src"), "--root", str(REPO_ROOT)])
    assert code == 0
