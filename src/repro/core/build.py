"""Header -> accession resolution for file-based builds.

The build pipeline itself lives in
:class:`repro.core.builder.DatabaseBuilder`; this module holds
:func:`accession_of`, the role NCBI's ``accession2taxid`` files play
for real MetaCache.
"""

from __future__ import annotations

__all__ = ["accession_of"]


def accession_of(header: str) -> str:
    """Accession = first token of the header, scaffold suffix stripped.

    ``SYN_001_002.3 some description`` -> ``SYN_001_002`` (every
    scaffold of an assembly maps to the same taxon, as with NCBI
    assembly accessions).  Empty and all-whitespace headers resolve
    to the empty accession; only a purely numeric suffix after the
    last dot is treated as a scaffold index.
    """
    parts = header.split(None, 1)
    if not parts:
        return ""
    token = parts[0]
    if "." in token:
        base, _, suffix = token.rpartition(".")
        if suffix.isdigit():
            return base
    return token
