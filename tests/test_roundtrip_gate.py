"""The index round-trip gate (``tools/check_roundtrip.py``) as a test.

Ten ways to open and serve one saved index -- eager, mmap, worker
processes, shards, the extend path, converted uint64 legacy words and
a hot-swap reload -- must write byte-identical TSV, and the unconverted
uint64 directory must be refused.
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.check_roundtrip import main  # noqa: E402


@pytest.mark.slow
def test_ten_configurations_byte_identical():
    assert main() == 0
