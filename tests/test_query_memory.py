"""Working memory of the query tail, per location.

Between lookup and top-``m`` a batch's locations live in flat arrays:
the gathered keys, the gather index, the segmented sort's read
numbers and the window-count temporaries.  Their bytes per location
decide how many reads fit one pass (peak RSS of a classify run is
two such slices at once).  ``tracemalloc`` traces NumPy's buffers, so
the traced peak of one ``query_database`` call over its location count
is that cost, independent of the allocator and of other threads.

The world is dense on purpose: near-identical genomes and small
sketch parameters, so every feature hits most targets and the
per-location arrays dwarf the per-read and per-feature ones.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.config import MetaCacheParams
from repro.core.database import Database
from repro.core.query import query_database
from repro.genomics.reads import KAL_D, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.pipeline.packed import PackedReads
from repro.taxonomy.builder import build_taxonomy_for_genomes

#: traced bytes a location may cost at the query's peak: the tail
#: holds about 23 on this world (the gather's index and output, then
#: the keys with top-m's in-place temporaries); a whole-index arange
#: beside the gather index and top-m's full per-entry columns made
#: about 41
MAX_BYTES_PER_LOCATION = 36


@pytest.fixture(scope="module")
def dense_world():
    genomes = GenomeSimulator(seed=3, species_divergence=0.005).simulate_collection(
        1, 32, 4000
    )
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    refs = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i]) for i, g in enumerate(genomes)
    ]
    db = Database.build(refs, taxonomy, params=MetaCacheParams.small())
    reads = ReadSimulator(genomes, seed=4).simulate(KAL_D, 256)
    return db, PackedReads.from_reads(reads.sequences, reads.mates)


def traced_peak(db, packed):
    """``(peak traced bytes, locations)`` of one warm query."""
    query_database(db, packed)  # first-call allocations stay out
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = query_database(db, packed)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak, result.total_locations


def test_world_is_dense(dense_world):
    db, packed = dense_world
    locations = query_database(db, packed).total_locations
    # hundreds of locations per pair: per-location arrays dominate
    assert locations > 500 * packed.n_reads


def test_peak_bytes_per_location(dense_world):
    peak, locations = traced_peak(*dense_world)
    per_location = peak / locations
    assert per_location <= MAX_BYTES_PER_LOCATION, (
        f"query peak {per_location:.1f} B/location over {locations} locations"
    )
