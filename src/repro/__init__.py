"""MetaCache-GPU reproduction.

A full-system Python reproduction of *MetaCache-GPU: Ultra-Fast
Metagenomic Classification* (Kobus, Mueller, Juenger, Hundt, Schmidt --
ICPP 2021, arXiv:2106.08150): a minhash-sketch k-mer classifier over
a novel multi-bucket hash table, with multi-GPU database partitioning
and on-the-fly (build-then-query-immediately) operation.

Package map (details in README.md / DESIGN.md):

- :mod:`repro.api`       -- the stable public surface: the
  :class:`~repro.api.MetaCache` facade, query sessions, streaming
  classification, typed results, pluggable output sinks, errors
- :mod:`repro.core`      -- the classifier itself (the paper's contribution)
- :mod:`repro.warpcore`  -- the hash-table family incl. the multi-bucket layout
- :mod:`repro.hashing`   -- h1/h2 hashes and minhash sketching
- :mod:`repro.genomics`  -- sequences, k-mers, IO, simulators
- :mod:`repro.taxonomy`  -- tree, lineages, O(1) LCA, NCBI dumps
- :mod:`repro.sort`      -- single-key segmented sort, compaction
- :mod:`repro.pipeline`  -- packed batches and the prefetching producer thread
- :mod:`repro.cli`       -- ``metacache-repro build|query|info|merge``
  (a thin client of :mod:`repro.api`; also ``python -m repro``)

The simulated CUDA substrate, the DGX-1 cost model, the Kraken2-style
and MetaCache-CPU baselines and the paper-table harness are not part
of this package: they live in ``benchmarks/paper/`` (importable as
``paper``) and wrap it from outside.
"""

__version__ = "1.1.0"
