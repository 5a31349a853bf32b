"""RL001: no per-read Python loops inside kernel modules.

The packed hot path (PR 7) exists because iterating reads one at a
time in Python is 10-100x slower than the batched NumPy kernels the
paper's GPU design maps onto.  This rule flags ``for``/``while``
statements that iterate read-shaped data inside the designated kernel
modules.  The per-read oracles the equivalence harness compares
kernels against live in ``tests/reference/``, outside this rule's
scope.

Comprehensions are deliberately *not* flagged: thin adapters such as
``PackedReads.from_reads`` legitimately use one comprehension at the
batch boundary; the contract bans loop *statements* in kernel code.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from tools.repro_lint.core import Finding, Module
from tools.repro_lint.registry import register

KERNEL_SCOPES = (
    "src/repro/hashing/",
    "src/repro/pipeline/packed.py",
    "src/repro/core/query.py",
    # the query tail: its only loops walk bit-budget groups of reads
    # (normally one group per batch), never the reads themselves
    "src/repro/sort/",
    "src/repro/core/candidates.py",
    # the sketch kernel's substrate: the k-mer packer's only loop walks
    # the binary digits of k, never positions or reads
    "src/repro/genomics/kmers.py",
    "src/repro/genomics/windows.py",
    # the host side, file to sink: the FASTQ parser and the producer
    # walk blocks of reads (and the parser's repair path the runs of
    # blank lines between them), records and sinks whole batches
    "src/repro/genomics/fastq.py",
    "src/repro/pipeline/producer.py",
    "src/repro/api/records.py",
    "src/repro/api/sinks.py",
    # the tables' loops walk probe steps (each a whole tile of walks),
    # the micro-batcher's the queued requests and a batch's slices
    "src/repro/warpcore/",
    "src/repro/server/batcher.py",
)

# In the slot-array tables a ``for`` over keys or features is the same
# mistake one level down -- one probe walk, or one slice, per key where
# a scan of the slot arrays serves all of them.  Only ``for`` counts:
# the lock-step round loops are ``while key32.size``.  bucket_list.py,
# the baseline whose chain walk is host-side per key by design, is out.
KEY_LOOP_SCOPES = (
    "src/repro/warpcore/base.py",
    "src/repro/warpcore/multi_bucket.py",
    "src/repro/warpcore/multi_value.py",
    "src/repro/warpcore/single_value.py",
)

_READ_NAME = re.compile(r"(read|seq|window|mate|record|sketch)", re.IGNORECASE)
_KEY_NAME = re.compile(r"(key|feature)", re.IGNORECASE)


def _names(node: ast.AST | None) -> Iterator[str]:
    if node is None:
        return
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _iterates_reads(node: ast.For | ast.AsyncFor | ast.While, keyed: bool) -> bool:
    if isinstance(node, ast.While):
        return any(_READ_NAME.search(name) for name in _names(node.test))
    names = (*_names(node.target), *_names(node.iter))
    return any(
        _READ_NAME.search(name) or (keyed and _KEY_NAME.search(name)) for name in names
    )


@register
class HotPathLoop:
    """Flag read-iterating loop statements in kernel modules."""

    rule_id = "RL001"
    name = "hot-path-loop"
    rationale = (
        "PR 7 banned per-read Python loops from the packed kernels; batched "
        "array ops are the whole point of the MetaCache-GPU design."
    )

    def applies(self, module: Module) -> bool:
        """Only the designated kernel modules are in scope."""
        return module.relpath.startswith(KERNEL_SCOPES)

    def check(self, module: Module) -> Iterator[Finding]:
        """Walk each scope, tracking the enclosing symbol down the tree."""
        for node in module.tree.body:
            yield from self._visit(module, node, symbol="<module>")

    def _visit(self, module: Module, node: ast.AST, symbol: str) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            symbol = node.name
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            if _iterates_reads(node, module.relpath.startswith(KEY_LOOP_SCOPES)):
                yield Finding(
                    rule=self.rule_id,
                    path=module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        "per-read loop statement in a kernel module; use the "
                        "batched array kernels"
                    ),
                    symbol=symbol,
                )
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.ExceptHandler)):
                yield from self._visit(module, child, symbol)
