"""Command line interface mirroring the MetaCache binary's modes.

Subcommands:

- ``build``  -- reference FASTA files + NCBI taxonomy dumps +
  accession->taxid mapping -> saved database (Section 4.1).
- ``add``    -- stream additional reference FASTA files into an
  existing database and re-save it, byte-identical to a from-scratch
  build of the full collection; the existing references are never
  re-parsed or re-sketched (their index content is re-inserted).
- ``query``  -- saved database + read files (FASTA/FASTQ, plain or
  gzip'd, optionally paired) -> per-read classification in any
  registered sink format, optional abundance table (Section 4.2);
  ``--workers N`` fans classification out over N processes sharing
  the loaded database zero-copy (byte-identical output).
- ``serve``   -- long-lived HTTP service over a warm database:
  concurrent ``POST /classify`` requests are micro-batched through
  one hot index in the serving process (``--shards N --replicas R``
  serves through the shard router of :mod:`repro.shard` with
  automatic replica failover instead), with ``/healthz`` and
  ``/stats`` for operations.  ``POST /admin/reload`` hot-swaps the
  served index between micro-batches with zero dropped requests;
  ``--watch DIR`` polls for new ``v<N>`` version directories and
  swaps to the newest automatically (unsharded only -- the shard
  plan is pinned).
- ``info``    -- database summary (targets, windows, sizes).
- ``merge``   -- combine per-partition candidate runs (Section 4.3).
- ``convert`` -- rewrite a legacy format-v1 database directory in the
  one format this package writes, enabling ``query --mmap``'s
  zero-rebuild, page-cache-shared cold open.

The CLI is a thin client of :mod:`repro.api`: every command is a few
calls against the :class:`~repro.api.MetaCache` facade, so anything
the CLI can do, a program importing ``repro.api`` can do identically.
Every subcommand is a plain function taking parsed arguments, so the
test suite drives them in-process via :func:`main`.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

from repro.api import (
    DEFAULT_BATCH_SIZE,
    MetaCache,
    MetaCacheParams,
    SketchParams,
    estimate_abundances_from_counts,
    merge_partition_runs,
    open_sink,
    save_candidates,
    sink_formats,
)
from repro.taxonomy.ranks import Rank

__all__ = ["main"]


def _cmd_build(args: argparse.Namespace) -> int:
    params = MetaCacheParams(
        sketch=SketchParams(
            k=args.kmer_length, sketch_size=args.sketch_size,
            window_size=args.window_size,
        ),
        max_locations_per_feature=args.max_locations,
    )
    mc = MetaCache.build(
        args.refs,
        taxonomy=args.taxonomy,
        mapping=args.mapping,
        params=params,
        n_partitions=args.partitions,
    )
    files = mc.save(args.out)
    print(
        f"built {mc.n_targets} targets ({mc.total_windows:,} windows) into "
        f"{mc.n_partitions} partition(s); wrote {len(files)} files to {args.out}"
    )
    return 0


def _cmd_add(args: argparse.Namespace) -> int:
    mc = MetaCache.open(args.db)
    before = mc.n_targets
    mc.extend(args.refs, mapping=args.mapping)
    out = args.out if args.out else args.db
    files = mc.save(out)
    print(
        f"added {mc.n_targets - before} targets to {args.db} "
        f"(now {mc.n_targets} targets, {mc.total_windows:,} windows); "
        f"wrote {len(files)} files to {out}"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    mc = MetaCache.open(args.db, mmap=args.mmap)
    # Route every override through one replace() call: flags left at
    # None keep the database's own stored defaults instead of being
    # silently reset to CLI constants.
    overrides = {
        name: value
        for name, value in (
            ("min_hits", args.min_hits),
            ("max_candidates", args.max_cands),
            ("lca_trigger_fraction", args.lca_fraction),
        )
        if value is not None
    }
    session = mc.session(
        mc.params.classification.replace(**overrides), workers=args.workers
    )

    sink = open_sink(args.format, args.out if args.out else sys.stdout)
    try:
        with sink:
            report = session.classify_files(
                args.reads,
                args.mates,
                sink=sink,
                batch_size=args.batch_size,
            )
    finally:
        mc.close()  # shut down the worker pool, if one was started
    print(
        f"classified {report.n_classified}/{report.n_reads} reads",
        file=sys.stderr,
    )
    if args.abundance:
        rank = Rank.from_name(args.abundance)
        abundances = estimate_abundances_from_counts(
            mc.taxonomy, report.taxon_counts, rank
        )
        print(f"abundance estimate at rank {rank.name.lower()}:", file=sys.stderr)
        for taxon, frac in sorted(abundances.items(), key=lambda kv: -kv[1]):
            print(
                f"  {mc.taxonomy.name_of(taxon)}\t{frac:.2%}", file=sys.stderr
            )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    db_dir = args.db
    if args.watch is not None:
        if args.shards is not None:
            print(
                "serve: --watch and --shards are mutually exclusive (the "
                "shard plan cannot be hot-swapped; restart the sharded "
                "service on new directories instead)",
                file=sys.stderr,
            )
            return 2
        if db_dir is None:
            # no explicit --db: start from the newest published version
            from repro.core.io import latest_version

            db_dir = latest_version(args.watch)
            if db_dir is None:
                print(
                    f"serve: --watch {args.watch} holds no complete v<N> "
                    "database version yet (publish one, or pass --db)",
                    file=sys.stderr,
                )
                return 2
    elif db_dir is None:
        print("serve: --db is required (unless --watch is given)",
              file=sys.stderr)
        return 2
    mc = MetaCache.open(
        db_dir, mmap=args.mmap, shards=args.shards, replicas=args.replicas
    )

    # printed only after bind, so `--port 0` reports the real port
    def banner(server):
        topology = ""
        if mc.router is not None:
            topology = f"shards={args.shards}, replicas={args.replicas}, "
        watching = (
            f", watching {args.watch} every {args.watch_interval:g}s"
            if args.watch is not None
            else ""
        )
        print(
            f"serving {mc.n_targets} targets on "
            f"http://{server.host}:{server.port} "
            f"({topology}"
            f"max_batch_reads={args.max_batch_reads}{watching}); "
            "Ctrl-C to drain and stop",
            file=sys.stderr,
            flush=True,
        )

    try:
        mc.serve(
            args.host,
            args.port,
            max_batch_reads=args.max_batch_reads,
            max_queued_reads=args.max_queued_reads,
            watch=args.watch,
            watch_interval=args.watch_interval,
            on_started=banner,
        )
    finally:
        mc.close()
    print("server stopped (in-flight requests drained)", file=sys.stderr)
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    info = MetaCache.open(args.db).info()
    print(f"database: {args.db}")
    print(
        f"  parameters: k={info.k} s={info.sketch_size} "
        f"w={info.window_size} (stride {info.window_stride}), "
        f"max locations {info.max_locations_per_feature}"
    )
    print(f"  taxonomy: {info.n_taxa} nodes")
    print(f"  targets: {info.n_targets} ({info.total_windows:,} windows)")
    print(f"  partitions: {info.n_partitions}, index bytes {info.index_bytes:,}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    files = MetaCache.convert(args.db, args.out, verify=not args.no_verify)
    print(f"converted {args.db} -> {args.out} (format v2, {len(files)} files)")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    merged = merge_partition_runs(args.runs, m=args.top)
    save_candidates(merged, args.out)
    n_valid = int(merged.valid[:, 0].sum())
    print(
        f"merged {len(args.runs)} runs covering {merged.n_reads} reads "
        f"({n_valid} with candidates) -> {args.out}"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # tools/ lives in the repository checkout, not in the installed
    # package: locate it relative to this file, falling back to the
    # current working directory for `pip install -e`-less layouts.
    candidates = [
        Path(__file__).resolve().parent.parent.parent,  # src/repro/cli.py -> repo
        Path.cwd(),
    ]
    for root in candidates:
        if (root / "tools" / "repro_lint" / "__init__.py").exists():
            if str(root) not in sys.path:
                sys.path.insert(0, str(root))
            from tools.repro_lint.cli import main as lint_main

            argv = [str(p) for p in args.paths]
            for rule in args.select or []:
                argv += ["--select", rule]
            if args.list_rules:
                argv.append("--list-rules")
            argv += ["--root", str(root)]
            return lint_main(argv)
    print(
        "metacache-repro lint needs a repository checkout (tools/repro_lint "
        "not found relative to the package or the working directory)",
        file=sys.stderr,
    )
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metacache-repro",
        description="MetaCache-GPU reproduction: minhash metagenomic classifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a database from reference FASTA files")
    b.add_argument("refs", nargs="+", help="reference FASTA file(s)")
    b.add_argument("--taxonomy", required=True,
                   help="directory containing nodes.dmp and names.dmp")
    b.add_argument("--mapping", required=True,
                   help="TSV mapping accession -> taxid")
    b.add_argument("--out", required=True, help="output database directory")
    b.add_argument("--partitions", type=int, default=1)
    b.add_argument("--kmer-length", type=int, default=16)
    b.add_argument("--sketch-size", type=int, default=16)
    b.add_argument("--window-size", type=int, default=127)
    b.add_argument("--max-locations", type=int, default=254)
    b.set_defaults(func=_cmd_build)

    a = sub.add_parser(
        "add", help="add reference sequences to an existing database"
    )
    a.add_argument("refs", nargs="+", help="reference FASTA file(s) to add")
    a.add_argument("--db", required=True, help="existing database directory")
    a.add_argument("--mapping", required=True,
                   help="TSV mapping accession -> taxid for the new refs")
    a.add_argument("--out",
                   help="output directory (default: rewrite --db in place)")
    a.set_defaults(func=_cmd_add)

    q = sub.add_parser("query", help="classify reads against a database")
    q.add_argument("--db", required=True, help="database directory")
    q.add_argument("--reads", required=True,
                   help="FASTA/FASTQ read file (plain or gzip'd)")
    q.add_argument("--mates", help="optional mate file for paired-end reads")
    q.add_argument("--out", help="output file (default stdout)")
    q.add_argument("--format", default="tsv", choices=sink_formats(),
                   help="output format (default tsv)")
    q.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
                   help="reads per streamed batch (bounds peak memory)")
    q.add_argument("--workers", type=int, default=1,
                   help="classification worker processes memory-mapping one "
                        "copy of the database (default 1 = in-process)")
    q.add_argument("--mmap", action="store_true",
                   help="memory-map a format-v2 database instead of loading "
                        "it: near-instant open, index shared across workers "
                        "through the page cache")
    q.add_argument("--min-hits", type=int, default=None,
                   help="min sketch hits to classify (default: database setting)")
    q.add_argument("--max-cands", type=int, default=None,
                   help="top-hit list length m (default: database setting)")
    q.add_argument("--lca-fraction", type=float, default=None,
                   help="LCA trigger fraction (default: database setting)")
    q.add_argument("--abundance", help="also print abundances at this rank")
    q.set_defaults(func=_cmd_query)

    s = sub.add_parser(
        "serve", help="serve classification over HTTP from a warm database"
    )
    s.add_argument("--db", default=None,
                   help="database directory (with --watch, defaults to "
                        "the newest complete v<N> version under the "
                        "watched directory)")
    s.add_argument("--host", default="127.0.0.1", help="bind address")
    s.add_argument("--port", type=int, default=8765,
                   help="bind port (0 picks a free port)")
    s.add_argument("--mmap", action="store_true",
                   help="memory-map a format-v2 database (near-instant "
                        "start, index shared through the page cache)")
    s.add_argument("--shards", type=int, default=None,
                   help="serve through the shard router: split the "
                        "database's partitions over N shard processes "
                        "(format-v2 only, implies --mmap); output is "
                        "byte-identical")
    s.add_argument("--replicas", type=int, default=1,
                   help="replica processes per shard; a crashed replica "
                        "fails over to a sibling and respawns with "
                        "backoff instead of failing requests")
    s.add_argument("--max-batch-reads", type=int, default=4096,
                   help="reads per coalesced classification batch")
    s.add_argument("--max-queued-reads", type=int, default=65536,
                   help="admission bound; beyond it requests get 503 + "
                        "Retry-After")
    s.add_argument("--watch", default=None, metavar="DIR",
                   help="poll DIR for new v<N> database versions and "
                        "hot-swap to the newest between micro-batches "
                        "(incompatible with --shards)")
    s.add_argument("--watch-interval", type=float, default=2.0,
                   metavar="SECONDS",
                   help="poll period for --watch (default 2.0)")
    s.set_defaults(func=_cmd_serve)

    i = sub.add_parser("info", help="print database summary")
    i.add_argument("--db", required=True)
    i.set_defaults(func=_cmd_info)

    c = sub.add_parser(
        "convert", help="upgrade a legacy format-v1 database directory"
    )
    c.add_argument("--db", required=True, help="source database directory")
    c.add_argument("--out", required=True, help="destination directory")
    c.add_argument("--no-verify", action="store_true",
                   help="skip source checksum verification")
    c.set_defaults(func=_cmd_convert)

    m = sub.add_parser("merge", help="merge per-partition candidate runs")
    m.add_argument("runs", nargs="+", help="candidate NPZ files")
    m.add_argument("--out", required=True)
    m.add_argument("--top", type=int, default=None)
    m.set_defaults(func=_cmd_merge)

    lnt = sub.add_parser(
        "lint",
        help="run repro-lint (the repo's AST contract checker) over src/",
    )
    lnt.add_argument("paths", nargs="*",
                     help="files or directories (default: src/)")
    lnt.add_argument("--select", action="append", metavar="RULE",
                     help="run only these rule ids (repeatable)")
    lnt.add_argument("--list-rules", action="store_true",
                     help="print the rule catalog and exit")
    lnt.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout consumer went away mid-stream (e.g. `... | head`);
        # die quietly with the conventional SIGPIPE exit status.
        import os

        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError, io.UnsupportedOperation):
            pass
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
