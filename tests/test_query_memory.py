"""Working memory of the query, per location.

Between lookup and top-``m`` the query tail holds flat arrays per
location: the gathered keys, the gather index, the segmented sort's
read numbers and the window-count temporaries.  It builds them for
one read chunk at a time (at most ``CHUNK_LOCATIONS`` locations,
``repro.core.candidates``), so their bytes stop growing with a batch;
what still grows with it is per occurrence or per distinct list (the
pointers, the distinct lists' keys, the sketches).  ``tracemalloc``
traces NumPy's buffers, so the traced peak of one ``query_database``
call over its location count is that cost, independent of the
allocator and of other threads; at four times the locations it falls.

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

#: traced bytes a location may cost at the query's peak, 256 pairs
#: (314,868 locations): about 11 with the chunked tail; a tail holding
#: every location of the batch at once (the gather's index and output,
#: then the keys with top-m's in-place temporaries) made about 23
MAX_BYTES_PER_LOCATION = 16

#: the same at 1024 pairs (1,269,367 locations): about 4.2 chunked,
#: so the tail's part does not grow with the batch; the whole-batch
#: tail stayed at about 23
MAX_BYTES_PER_LOCATION_4X = 6


@pytest.fixture(scope="module")
def dense_genomes():
    genomes = GenomeSimulator(seed=3, species_divergence=0.005).simulate_collection(
        1, 32, 4000
    )
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    refs = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i]) for i, g in enumerate(genomes)
    ]
    return genomes, Database.build(refs, taxonomy, params=MetaCacheParams.small())


def _pairs(genomes, n):
    reads = ReadSimulator(genomes, seed=4).simulate(KAL_D, n)
    return PackedReads.from_reads(reads.sequences, reads.mates)


@pytest.fixture(scope="module")
def dense_world(dense_genomes):
    genomes, db = dense_genomes
    return db, _pairs(genomes, 256)


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


def test_peak_bytes_per_location_at_four_times_the_pairs(dense_genomes):
    genomes, db = dense_genomes
    peak, locations = traced_peak(db, _pairs(genomes, 1024))
    per_location = peak / locations
    assert locations > 1_000_000
    assert per_location <= MAX_BYTES_PER_LOCATION_4X, (
        f"query peak {per_location:.1f} B/location over {locations} locations"
    )
