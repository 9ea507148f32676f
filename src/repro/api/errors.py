"""The wire-format contract: version tag and the uniform error envelope.

Two small pieces every process speaking the :class:`repro.api.ResultSet`
wire format shares -- the in-process facade, the CLI ``--json`` paths,
the HTTP server (:mod:`repro.server`) and the client SDK
(:mod:`repro.client`):

* **Versioning** -- every spec and every ``ResultSet`` JSON carries a
  ``"version"`` field (:data:`WIRE_VERSION`).  A missing field means
  version 1 (the pre-versioning wire format); an unknown version fails
  with the uniform selector-style error, so the envelope can evolve
  without old payloads being silently misread.

* **Errors** -- every failure surfaces as one :class:`ApiError` subclass
  and serializes to the one envelope shape::

      {"error": {"type": "<slug>", "message": "<human text>"}}

  :class:`ValidationError` subclasses :class:`ValueError` too, so every
  pre-existing ``except ValueError`` caller keeps working; each class
  carries the HTTP status the server answers with, and
  :func:`error_from_envelope` rebuilds the typed exception client-side
  so remote and in-process failures are caught the same way.

This module imports nothing from the rest of the package (it sits below
:mod:`repro.api.registry`), so any layer can raise typed errors without
import cycles.
"""

from __future__ import annotations

__all__ = [
    "ApiError",
    "AuthError",
    "CorruptSnapshotError",
    "DeadlineExceededError",
    "MethodNotAllowedError",
    "NotFoundError",
    "OverloadedError",
    "ServerError",
    "ServiceUnavailableError",
    "ValidationError",
    "WalReplayError",
    "WIRE_VERSION",
    "error_envelope",
    "error_from_envelope",
    "take_wire_version",
]

#: The wire-format version this build writes (and the newest it reads).
#: Version 2 added the optional ``deadline_ms`` spec field (PR 8); the
#: reader still accepts version-1 payloads unchanged.
WIRE_VERSION = 2

#: Every version this build can read.
SUPPORTED_WIRE_VERSIONS = (1, 2)


class ApiError(Exception):
    """Base of the typed error hierarchy behind the uniform envelope.

    Attributes
    ----------
    type:
        The machine-readable slug in the envelope's ``error.type``.
    status:
        The HTTP status the server answers with for this class.
    """

    type = "api_error"
    status = 400

    def to_envelope(self) -> dict:
        """The uniform JSON error envelope for this exception."""
        return {"error": {"type": self.type, "message": str(self)}}


class ValidationError(ApiError, ValueError):
    """Malformed request: bad spec JSON, unknown selector, bad shapes.

    Also a :class:`ValueError`, so callers that predate the typed
    hierarchy (``except ValueError``) keep catching it.
    """

    type = "validation"
    status = 400


class AuthError(ApiError):
    """Missing or invalid bearer token."""

    type = "auth"
    status = 401


class NotFoundError(ApiError):
    """No such route/resource."""

    type = "not_found"
    status = 404


class MethodNotAllowedError(ApiError):
    """The route exists but not under this HTTP method."""

    type = "method_not_allowed"
    status = 405


class ServerError(ApiError):
    """An unexpected failure while executing an otherwise valid request."""

    type = "internal"
    status = 500


class ServiceUnavailableError(ApiError):
    """The service could not be reached (client-side: retries exhausted)."""

    type = "unavailable"
    status = 503


class OverloadedError(ApiError):
    """Load shed: the admission gate is full and the queue is at its bound.

    Carries a ``retry_after`` hint (seconds) that the HTTP layer also
    sends as a ``Retry-After`` header; the client SDK honors it as the
    backoff before its next attempt.
    """

    type = "overloaded"
    status = 503

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after

    def to_envelope(self) -> dict:
        envelope = super().to_envelope()
        envelope["error"]["retry_after"] = self.retry_after
        return envelope


class DeadlineExceededError(ApiError):
    """The request's ``deadline_ms`` budget ran out; work was abandoned.

    A 504-class answer; *not* retryable by the client -- the deadline
    that expired server-side has expired for the caller too.
    """

    type = "deadline_exceeded"
    status = 504


class CorruptSnapshotError(ApiError):
    """A durable index snapshot failed validation (magic, version, CRC).

    Raised by :mod:`repro.store` when a snapshot file cannot be trusted:
    truncated header, wrong magic, unsupported format version, a section
    checksum mismatch, or internally inconsistent sections.  Callers
    holding the source corpus degrade to a full rebuild
    (:meth:`repro.shard.ShardedSnapshotStore.open`); callers without one get
    the typed failure instead of wrong results.
    """

    type = "corrupt_snapshot"
    status = 500


class WalReplayError(ApiError):
    """The write-ahead append log could not be replayed.

    A *torn tail* (a crash mid-append leaving a partial last record) is
    not an error -- replay truncates it and continues.  This exception
    marks real corruption: a damaged record in the middle of the log, a
    record whose base offset does not chain onto the snapshot, or an
    unreadable header.  Like :class:`CorruptSnapshotError`, it degrades
    to a full rebuild when a source corpus is available.
    """

    type = "wal_replay"
    status = 500


_ERROR_TYPES = {
    cls.type: cls
    for cls in (
        ApiError,
        ValidationError,
        AuthError,
        NotFoundError,
        MethodNotAllowedError,
        ServerError,
        ServiceUnavailableError,
        OverloadedError,
        DeadlineExceededError,
        CorruptSnapshotError,
        WalReplayError,
    )
}


def error_envelope(exc: BaseException) -> dict:
    """The uniform envelope for *any* exception.

    :class:`ApiError` instances render themselves; anything else is
    wrapped as an ``internal`` error (class name + message, never a
    traceback) -- what the server emits for unexpected 500s.
    """
    if isinstance(exc, ApiError):
        return exc.to_envelope()
    return {
        "error": {
            "type": ServerError.type,
            "message": f"{type(exc).__name__}: {exc}",
        }
    }


def error_from_envelope(payload, status: int | None = None) -> ApiError:
    """Rebuild the typed exception from a (possibly malformed) envelope.

    The client SDK calls this on every non-2xx response: a well-formed
    envelope maps back onto its :class:`ApiError` subclass; anything
    else (a proxy's HTML error page, a truncated body) degrades to a
    generic :class:`ServerError`/:class:`ApiError` keyed on ``status``.
    """
    error = payload.get("error") if isinstance(payload, dict) else None
    if not isinstance(error, dict):
        error = {"message": f"malformed error response: {payload!r}"}
    message = str(error.get("message", "unknown error"))
    cls = _ERROR_TYPES.get(error.get("type"))
    if cls is None:
        cls = ServerError if (status or 0) >= 500 else ApiError
    if cls is OverloadedError:
        exc: ApiError = OverloadedError(
            message, retry_after=float(error.get("retry_after", 1.0))
        )
    else:
        exc = cls(message)
    if status is not None:
        exc.status = status
    return exc


def take_wire_version(payload: dict, what: str = "payload") -> int:
    """Pop and validate the ``"version"`` field of a wire payload.

    Missing means version 1 (payloads written before versioning);
    anything not in :data:`SUPPORTED_WIRE_VERSIONS` raises the uniform
    selector-style error.

    Examples
    --------
    >>> take_wire_version({"version": 1, "type": "join"})
    1
    >>> take_wire_version({"type": "join"})
    1
    >>> take_wire_version({"version": 99})
    Traceback (most recent call last):
        ...
    repro.api.errors.ValidationError: unknown payload wire format version 99; choose from [1, 2]
    """
    version = payload.pop("version", SUPPORTED_WIRE_VERSIONS[0])
    if version not in SUPPORTED_WIRE_VERSIONS:
        listed = ", ".join(str(v) for v in SUPPORTED_WIRE_VERSIONS)
        raise ValidationError(
            f"unknown {what} wire format version {version!r}; "
            f"choose from [{listed}]"
        )
    return version
