"""Input generation: every file the program is handed, from ``--seed``.

Runs as its own process (``python gen.py --workload W --seed N --out
DIR``) so the measured child never pays for, or keeps the memory of,
making its own inputs.  Pure numpy + stdlib on purpose: it imports
nothing from ``repro``, so a change to the program's simulators cannot
silently change the benchmark's inputs.

A directory holds::

    refs.fa                  one record per reference target
    taxonomy/nodes.dmp       NCBI dump: root > domain > genus > species > target
    taxonomy/names.dmp
    mapping.tsv              accession <tab> target taxid
    reads.fq [mates.fq]      FASTQ, headers r0, r1, ...
    first.fq [first_mates.fq]  the first 4096 of them
    truth.npy                int64 species index of each read's source
    meta.json                counts + SHA-256 of refs.fa / reads.fq
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from workloads import FIRST_BATCH_READS, WORKLOADS, Workload

__all__ = ["generate", "species_of_taxon", "GENUS_BASE", "SPECIES_BASE", "TARGET_BASE"]

ROOT_ID, DOMAIN_ID = 1, 2
GENUS_BASE, SPECIES_BASE, TARGET_BASE = 1_000, 100_000, 10_000_000

_ALPHABET = np.frombuffer(b"ACGT", dtype=np.uint8)
_GC = 0.45
_INDEL_RATE = 0.0005
_READ_ERROR_RATE = 0.004
_MAX_READ, _MIN_READ = 101, 19
_HISEQ_FULL_SHARE = 0.85  # HiSeq profile: most reads at machine length
_FRAGMENT_MEAN, _FRAGMENT_SD = 350, 40


def species_of_taxon(taxon_ids: np.ndarray) -> np.ndarray:
    """Species index of each assigned taxon id; -1 above species rank.

    With one target per species (every workload here), target ``t``
    and species ``t`` coincide, so both id ranges map by subtraction.
    """
    taxon_ids = np.asarray(taxon_ids, dtype=np.int64)
    species = np.full(taxon_ids.shape, -1, dtype=np.int64)
    is_target = taxon_ids >= TARGET_BASE
    is_species = (taxon_ids >= SPECIES_BASE) & ~is_target
    species[is_target] = taxon_ids[is_target] - TARGET_BASE
    species[is_species] = taxon_ids[is_species] - SPECIES_BASE
    return species


def _random_codes(rng: np.random.Generator, length: int) -> np.ndarray:
    p_gc, p_at = _GC / 2.0, (1.0 - _GC) / 2.0
    return rng.choice(4, size=length, p=[p_at, p_gc, p_gc, p_at]).astype(np.uint8)


def _substitute(rng: np.random.Generator, codes: np.ndarray, rate: float) -> np.ndarray:
    """Substitutions that always change the base, so rate = divergence."""
    out = codes.copy()
    hits = np.flatnonzero(rng.random(out.size) < rate)
    out[hits] = (out[hits] + rng.integers(1, 4, size=hits.size, dtype=np.uint8)) % 4
    return out


def _mutate(rng: np.random.Generator, codes: np.ndarray, rate: float) -> np.ndarray:
    """Substitutions plus rare single-base indels (they shift k-mer frames)."""
    out = _substitute(rng, codes, rate)
    out = out[rng.random(out.size) >= _INDEL_RATE / 2.0]
    sites = np.flatnonzero(rng.random(out.size) < _INDEL_RATE / 2.0)
    return np.insert(out, sites, rng.integers(0, 4, size=sites.size, dtype=np.uint8))


def _revcomp_rows(rows: np.ndarray, lengths: np.ndarray, flip: np.ndarray) -> None:
    """Reverse-complement the first ``lengths[i]`` codes of flagged rows."""
    full = flip & (lengths == rows.shape[1])
    rows[full] = 3 - rows[full][:, ::-1]
    for i in np.flatnonzero(flip & ~full):
        n = lengths[i]
        rows[i, :n] = 3 - rows[i, :n][::-1]


def _write_fastq(path: Path, rows: np.ndarray, lengths: np.ndarray) -> None:
    letters = _ALPHABET[rows].tobytes()
    width = rows.shape[1]
    quality = b"I" * width
    with open(path, "wb") as fh:
        for i, n in enumerate(lengths.tolist()):
            seq = letters[i * width : i * width + n]
            fh.write(b"@r%d\n%b\n+\n%b\n" % (i, seq, quality[:n]))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_references(out: Path, w: Workload, rng: np.random.Generator) -> list[np.ndarray]:
    """refs.fa + taxonomy + mapping; returns the target code arrays."""
    targets: list[np.ndarray] = []
    nodes = [(ROOT_ID, ROOT_ID, "no rank", "root"),
             (DOMAIN_ID, ROOT_ID, "superkingdom", "synthetic domain")]
    mapping: list[str] = []
    with open(out / "refs.fa", "wb") as fa:
        for g in range(w.n_genera):
            ancestor = _random_codes(rng, w.genome_length)
            nodes.append((GENUS_BASE + g, DOMAIN_ID, "genus", f"genus {g}"))
            for s in range(w.species_per_genus):
                t = len(targets)
                codes = _mutate(rng, ancestor, w.species_divergence)
                targets.append(codes)
                accession = f"BEN_{g:03d}_{s:03d}"
                name = f"BEN genus{g} species{s}"
                nodes.append((SPECIES_BASE + t, GENUS_BASE + g, "species", f"species {t}"))
                nodes.append((TARGET_BASE + t, SPECIES_BASE + t, "no rank", name))
                mapping.append(f"{accession}\t{TARGET_BASE + t}\n")
                fa.write(f">{accession} {name}\n".encode())
                letters = _ALPHABET[codes].tobytes()
                for i in range(0, len(letters), 80):
                    fa.write(letters[i : i + 80] + b"\n")
    (out / "taxonomy").mkdir()
    with open(out / "taxonomy" / "nodes.dmp", "w") as nf, \
            open(out / "taxonomy" / "names.dmp", "w") as mf:
        for tid, parent, rank, name in nodes:
            nf.write(f"{tid}\t|\t{parent}\t|\t{rank}\t|\n")
            mf.write(f"{tid}\t|\t{name}\t|\t\t|\tscientific name\t|\n")
    (out / "mapping.tsv").write_text("".join(mapping))
    return targets


def _write_reads(out: Path, w: Workload, rng: np.random.Generator,
                 targets: list[np.ndarray]) -> None:
    """reads.fq [+ mates.fq] + truth.npy from strains of member species."""
    members = rng.choice(len(targets), size=min(w.n_members, len(targets)), replace=False)
    strains = [_mutate(rng, targets[t], w.strain_divergence) for t in members]
    starts_of = np.cumsum([0] + [s.size for s in strains])
    pool = np.concatenate(strains)
    n = w.n_reads
    pick = rng.integers(0, len(strains), size=n)
    strain_len = np.array([s.size for s in strains])[pick]
    if w.paired:
        lengths = np.full(n, _MAX_READ, dtype=np.int64)
        span = np.clip(rng.normal(_FRAGMENT_MEAN, _FRAGMENT_SD, size=n).astype(np.int64),
                       _MAX_READ, strain_len)
    else:
        lengths = rng.integers(_MIN_READ, _MAX_READ + 1, size=n)
        lengths[rng.random(n) < _HISEQ_FULL_SHARE] = _MAX_READ
        span = lengths
    begin = starts_of[pick] + (rng.random(n) * (strain_len - span + 1)).astype(np.int64)
    cols = np.arange(_MAX_READ)
    flip = rng.random(n) < 0.5

    def rows_at(first: np.ndarray) -> np.ndarray:
        # reads shorter than the row are padded from the pool and
        # truncated on write; clip keeps the gather inside the pool
        rows = pool[np.minimum(first[:, None] + cols[None, :], pool.size - 1)]
        return _substitute(rng, rows.ravel(), _READ_ERROR_RATE).reshape(rows.shape)

    forward = rows_at(begin)
    if w.paired:
        # mate 2 is the reverse complement of the fragment's far end;
        # a flipped pair swaps which mate is forward
        reverse = rows_at(begin + span - _MAX_READ)
        _revcomp_rows(reverse, lengths, np.ones(n, dtype=bool))
        first = np.where(flip[:, None], reverse, forward)
        second = np.where(flip[:, None], forward, reverse)
        files = {"reads.fq": first, "mates.fq": second}
    else:
        _revcomp_rows(forward, lengths, flip)
        files = {"reads.fq": forward}
    # first*.fq: the head of the read set, the "first batch" that ends
    # a time-to-query pass
    head = min(FIRST_BATCH_READS, n)
    for name, rows in files.items():
        _write_fastq(out / name, rows, lengths)
        _write_fastq(out / name.replace("reads", "first").replace("mates", "first_mates"),
                     rows[:head], lengths[:head])
    np.save(out / "truth.npy", members[pick].astype(np.int64))


def generate(w: Workload, seed: int, out: Path) -> dict:
    """Write one workload's inputs into ``out`` (created; must not exist)."""
    started = time.perf_counter()
    out.mkdir(parents=True)
    # the workload's *shape* seeds too, so sparse-se and dense-pe never
    # share genomes
    rng = np.random.default_rng([seed, w.n_genera, w.species_per_genus, w.genome_length])
    targets = _write_references(out, w, rng)
    _write_reads(out, w, rng, targets)
    meta = {
        "workload": w.name,
        "seed": seed,
        "ref_bases": int(sum(t.size for t in targets)),
        "n_targets": len(targets),
        "n_reads": w.n_reads,
        "paired": w.paired,
        "sha256": {name: _sha256(out / name) for name in ("refs.fa", "reads.fq")},
        "generate_s": time.perf_counter() - started,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=1))
    return meta


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if (args.out / "meta.json").exists():
        return 0
    # build beside the destination, then rename: a killed generator
    # never leaves a half-written directory that looks complete
    tmp = args.out.with_name(f"{args.out.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    generate(WORKLOADS[args.workload].scaled(args.scale), args.seed, tmp)
    shutil.rmtree(args.out, ignore_errors=True)
    tmp.rename(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
