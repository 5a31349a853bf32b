"""Genomics substrate: sequences, k-mers, file formats, simulators.

This package provides everything the classifier consumes:

- :mod:`repro.genomics.alphabet` -- nucleotide codes and string
  conversion (A=0, C=1, G=2, T=3; anything else is an ambiguous base).
- :mod:`repro.genomics.kmers` -- vectorized canonical k-mer extraction
  from encoded sequences, with validity masking of ambiguous bases.
- :mod:`repro.genomics.windows` -- the window partitioning used by
  MetaCache (length ``w``, overlap ``k-1``).
- :mod:`repro.genomics.fasta` / :mod:`repro.genomics.fastq` -- the
  block parsers (a block is ``(headers, ASCII sequences)``) and the
  writers of the common text formats.
- :mod:`repro.genomics.io` -- the format-sniffing reader over both
  (plain or gzip'd), used by the CLI, :mod:`repro.api`, the pipeline
  and the server; the rest of :mod:`repro` imports no parser module
  directly.
- :mod:`repro.genomics.simulate` -- synthetic reference genomes with a
  phylogeny-shaped mutation structure (the RefSeq / AFS stand-ins).
- :mod:`repro.genomics.reads` -- Illumina-like read simulation
  (HiSeq / MiSeq / paired-end profiles) with ground-truth labels.
- :mod:`repro.genomics.community` -- mock communities and food-matrix
  mixtures used by the accuracy and abundance experiments.
"""

from repro.genomics.alphabet import (
    encode_sequence,
    decode_sequence,
    complement_codes,
    reverse_complement_str,
    A,
    C,
    G,
    T,
    AMBIG,
)
from repro.genomics.kmers import (
    canonical_kmers,
    valid_canonical_kmers,
)
from repro.genomics.windows import WindowLayout, num_windows, window_slices
from repro.genomics.fasta import read_fasta, write_fasta, FastaRecord
from repro.genomics.fastq import write_fastq, FastqRecord
from repro.genomics.io import (
    iter_sequence_records,
    open_sequence_file,
    read_sequences,
)
from repro.genomics.simulate import GenomeSimulator, SimulatedGenome
from repro.genomics.reads import ReadSimulator, ReadProfile, SimulatedReads
from repro.genomics.community import MockCommunity, CommunityMember

__all__ = [
    "encode_sequence",
    "decode_sequence",
    "complement_codes",
    "reverse_complement_str",
    "A",
    "C",
    "G",
    "T",
    "AMBIG",
    "canonical_kmers",
    "valid_canonical_kmers",
    "WindowLayout",
    "num_windows",
    "window_slices",
    "read_fasta",
    "write_fasta",
    "FastaRecord",
    "write_fastq",
    "FastqRecord",
    "iter_sequence_records",
    "open_sequence_file",
    "read_sequences",
    "GenomeSimulator",
    "SimulatedGenome",
    "ReadSimulator",
    "ReadProfile",
    "SimulatedReads",
    "MockCommunity",
    "CommunityMember",
]
