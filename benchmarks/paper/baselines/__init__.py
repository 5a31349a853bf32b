"""Baseline classifiers the paper compares against.

- :mod:`paper.baselines.kraken2` -- a Kraken2-style classifier:
  minimizers mapped to LCA taxa, root-to-leaf path scoring.  Captures
  the two properties the evaluation turns on: query time scales with
  read bases only (no location lists -> insensitive to database
  size), and k-mers shared between references collapse to ancestor
  taxa at *build* time (-> strong genus-level, weaker species-level
  resolution, and no mapping locations for downstream analysis).
- :mod:`paper.baselines.metacache_cpu` -- the CPU MetaCache mode:
  one unpartitioned database with the global 254-locations cap and a
  serialized (single-consumer) hash table, the configuration whose
  accuracy and build-throughput gaps to the GPU version Tables 3/6
  quantify.
"""

from paper.baselines.kraken2 import Kraken2Classifier, Kraken2Params
from paper.baselines.metacache_cpu import MetaCacheCpu

__all__ = ["Kraken2Classifier", "Kraken2Params", "MetaCacheCpu"]
