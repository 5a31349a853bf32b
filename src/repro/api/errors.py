"""Re-export of the exception hierarchy under the public API namespace.

The classes live in :mod:`repro.errors` so low-level modules can raise
them without importing the facade; ``repro.api.errors`` is the
documented import location.
"""

from repro.errors import (
    BuildError,
    ConfigError,
    DatabaseFormatError,
    InvalidMappingError,
    InvalidReadError,
    MetaCacheError,
    OverloadedError,
    PipelineError,
    ReloadError,
    ServerError,
    UnknownFormatError,
    WorkerCrashError,
)

__all__ = [
    "MetaCacheError",
    "ConfigError",
    "BuildError",
    "DatabaseFormatError",
    "InvalidReadError",
    "InvalidMappingError",
    "UnknownFormatError",
    "PipelineError",
    "WorkerCrashError",
    "ServerError",
    "OverloadedError",
    "ReloadError",
]
