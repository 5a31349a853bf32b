"""Per-read reference implementations the kernels are tested against."""
