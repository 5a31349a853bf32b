"""The exception hierarchy of the public API.

Every error the package raises on bad *input* (as opposed to bugs)
derives from :class:`MetaCacheError`, so callers can catch one base
class at the top of a serving loop.  The concrete classes also derive
from :class:`ValueError` because that is what the pre-API code raised
-- existing ``except ValueError`` call sites keep working.

Defined here (not inside :mod:`repro.api`) so that low-level modules
like :mod:`repro.core.io` and :mod:`repro.genomics.io` can raise them
without importing the facade they sit underneath; :mod:`repro.api`
re-exports the whole hierarchy.
"""

from __future__ import annotations

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
    "ShardFailedError",
    "ReloadError",
    "ServerError",
    "OverloadedError",
]


class MetaCacheError(Exception):
    """Base class for every error raised by the public API."""


class ConfigError(MetaCacheError, ValueError):
    """An argument or parameter value violates its documented precondition.

    Raised before any I/O or work happens: a worker/shard/replica count
    below 1, an argument combination that makes no sense, sketch
    parameters outside their range.  Derives from ``ValueError``
    because that is the documented contract for invalid arguments.
    """


class BuildError(MetaCacheError, KeyError):
    """Reference input cannot be turned into database content.

    Raised during database construction for an accession with no
    entry in the accession -> taxid mapping or a reference whose
    taxon id is absent from the taxonomy.  Derives from ``KeyError``
    because that is what the pre-builder code raised -- existing
    ``except KeyError`` call sites keep working.  The message always
    names the offending file/header/taxon; the structured fields are
    also carried as attributes for programmatic handling.

    Attributes
    ----------
    file:
        the reference file being ingested (``None`` for in-memory
        references).
    header:
        the sequence header (or target name) that failed.
    taxon_id:
        the unknown taxon id (``None`` for mapping failures).
    """

    def __init__(
        self,
        message: str,
        *,
        file: "str | None" = None,
        header: "str | None" = None,
        taxon_id: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.file = file
        self.header = header
        self.taxon_id = taxon_id

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its argument; restore plain text so
        # the file/header/taxon context reads naturally in tracebacks.
        return self.args[0] if self.args else ""


class DatabaseFormatError(MetaCacheError, ValueError):
    """A saved database is missing, truncated, or has the wrong format."""


class InvalidReadError(MetaCacheError, ValueError):
    """Read input could not be understood (file format or in-memory type)."""


class InvalidMappingError(MetaCacheError, ValueError):
    """An accession->taxid mapping file is malformed."""


class UnknownFormatError(MetaCacheError, ValueError):
    """An output format name does not match any registered sink."""


class PipelineError(MetaCacheError, RuntimeError):
    """A streaming classification run failed mid-flight.

    Raised by :meth:`repro.api.QuerySession.classify_files` when a
    producer or worker fails for a reason that is not already a typed
    :class:`MetaCacheError`; the message always names the read file
    being classified so multi-file batch jobs can report which input
    broke.  The original exception is chained as ``__cause__``.
    """


class WorkerCrashError(PipelineError):
    """A classification worker process died without reporting a result.

    Also raised when a worker fails to start (the child traceback is
    in the message).  Carries the process name and exit code; the
    pool is shut down before raising, so no orphan processes or
    spill directories are left behind.
    """


class ShardFailedError(WorkerCrashError):
    """Every replica of an index shard is dead and cannot be respawned.

    Raised by :meth:`repro.shard.ShardRouter.query` when a shard's
    last live replica died mid-batch and the bounded respawn budget is
    exhausted, so the batch cannot fail over anywhere.  Single-replica
    crashes never surface as this error -- they are retried on a
    sibling replica and only degrade the shard's health report.
    """


class ReloadError(MetaCacheError, RuntimeError):
    """A hot-swap reload cannot be performed on this handle.

    Raised by :meth:`repro.api.MetaCache.reload` and
    :meth:`repro.api.QuerySession.swap_database` when the handle is
    sharded (``shards=N``): shard plans pin partition ids to the saved
    directory they were computed over, so a new index cannot be
    attached under a running router.  Restart the service on the new
    directory instead.  The HTTP admin endpoint maps this onto a 409.
    """


class ServerError(MetaCacheError, RuntimeError):
    """A request cannot be served by the classification server.

    Base class of every serving-layer failure that is the *request's*
    (or the server state's) fault rather than a bug: submitting to a
    server that is shutting down, exceeding the request-body bound,
    and the admission-control rejections below.  The HTTP layer maps
    these onto 4xx/5xx responses; in-process callers of
    :class:`repro.server.MicroBatcher` catch them directly.
    """


class OverloadedError(ServerError):
    """The server's bounded admission queue is full.

    Raised by :meth:`repro.server.MicroBatcher.submit` when accepting
    the request would push the queued-read count past the configured
    bound.  The HTTP layer answers 503 with a ``Retry-After`` header
    taken from :attr:`retry_after_seconds`; clients should back off
    and retry rather than treat this as a hard failure.

    Attributes
    ----------
    retry_after_seconds:
        suggested client back-off, derived from the server's batch
        delay (always >= 1 second so the header stays integral).
    """

    def __init__(self, message: str, *, retry_after_seconds: int = 1) -> None:
        super().__init__(message)
        self.retry_after_seconds = max(1, int(retry_after_seconds))
