"""Per-read reference implementations the kernels are tested against."""


def segments(packed):
    """Every segment of a ``PackedReads`` batch, as a view of its buffer."""
    return [packed.buffer[a:b] for a, b in zip(packed.offsets[:-1], packed.offsets[1:])]
