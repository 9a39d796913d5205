"""Exception hierarchy shared across the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one base class at an API boundary
instead of enumerating failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphFormatError(ReproError):
    """An edge list or graph file could not be parsed or validated."""


class BudgetError(ReproError):
    """A size budget is invalid (non-positive, or impossible to satisfy)."""


class PartitionError(ReproError):
    """A node partition is malformed (missing nodes, empty parts, ...)."""


class QueryError(ReproError):
    """A graph query was issued with invalid arguments (e.g. unknown node)."""


class ServingError(ReproError):
    """The async serving layer rejected a request or hit a lifecycle error.

    Raised on admission-control rejection (bounded queue full), on
    submitting to a server that is not running, and on attempts to serve
    an unsupported source type.
    """


class StreamingError(ReproError):
    """The streaming layer was misused (bad refresh target, bad threshold)."""


class DeadlineExceeded(ServingError):
    """A request's deadline budget ran out before an answer was produced.

    Raised client-side when the per-request budget expires locally, and
    shipped server-side as a typed error frame when expired work is shed
    from a dispatch batch instead of being computed.
    """


class Overloaded(ServingError):
    """A tenant was explicitly shed because it keeps burning its deadline
    budget (per-tenant breaker open).  Carries a ``retry_after_ms`` hint;
    the client should back off at least that long before retrying.
    """

    def __init__(self, message: str = "tenant overloaded", *, retry_after_ms: float = 0.0):
        super().__init__(message)
        self.retry_after_ms = float(retry_after_ms)


class RecoveryError(ReproError):
    """A persisted serving state dir could not be recovered (missing or
    corrupt manifest, checksum mismatch, or an unreplayable delta log)."""


class ProtocolError(ReproError):
    """A network peer violated the serving wire protocol.

    Base class for every failure the framing/codec layer reports; raw
    ``struct`` / ``json`` exceptions never escape it.
    """


class FrameError(ProtocolError):
    """A length-prefixed frame was malformed (truncated header, zero or
    oversized length, bytes left over where a header was expected)."""


class CodecError(ProtocolError):
    """A complete frame's payload could not be decoded into a message
    (invalid JSON, wrong top-level type, malformed array field)."""


class TenantError(ServingError):
    """A multi-tenant request named an unknown tenant, re-registered an
    existing one, or exceeded its tenant's admission quota."""
