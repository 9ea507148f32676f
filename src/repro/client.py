"""The client SDK: remote similarity requests, in-process semantics.

:class:`ServiceClient` speaks to a :mod:`repro.server` instance (or
anything answering the same wire format) and returns deserialized
:class:`repro.api.ResultSet` objects, so remote and in-process calls
are interchangeable::

    client = ServiceClient("http://127.0.0.1:8765", token="s3cret")
    remote = client.run(spec)          # == Session.run(spec), over HTTP
    local = Session(names).run(spec)   # same pairs/counters/seconds

Stdlib only (:mod:`http.client`).  The client holds one keep-alive
connection per instance, sends the static bearer token on every
request, and retries with full-jitter exponential backoff on connection
errors and 5xx answers -- the classes of failure a retry can fix.  4xx
answers never retry: they are rebuilt into the typed
:class:`repro.api.errors.ApiError` hierarchy from the uniform error
envelope, so a remote validation failure raises the same
``ValidationError`` the in-process facade would.

Retries respect the caller's time, not just an attempt count: a shed
request's ``Retry-After`` hint replaces the computed backoff, a
``max_elapsed`` cap (and any spec ``deadline_ms``) bounds the total
attempts+sleeps window, and a 504 ``deadline_exceeded`` answer is never
retried -- the budget that expired server-side has expired for the
caller too.

Instances are not thread-safe (one connection, one in-flight request);
give each worker thread its own client -- they are cheap.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Callable, Mapping, Sequence
from urllib.parse import urlsplit

from repro.api.errors import (
    ApiError,
    ServiceUnavailableError,
    error_from_envelope,
)
from repro.api.result import ResultSet
from repro.api.specs import JoinSpec, TopKSpec, WithinSpec
from repro.faults import fault_point

__all__ = ["ServiceClient"]

#: Transport failures worth retrying: the connection dropped, timed out,
#: or never came up.  HTTP-level protocol errors count too (a dying
#: server mid-response looks like a BadStatusLine).
_RETRYABLE = (OSError, http.client.HTTPException)


class ServiceClient:
    """A retrying HTTP client for the repro similarity service.

    Parameters
    ----------
    base_url:
        ``http://host:port`` (https works too).  Paths are appended
        verbatim, so a reverse-proxy prefix can ride along.
    token:
        Static bearer token; sent as ``Authorization: Bearer <token>``
        on every request.  ``None`` sends no auth header.
    timeout:
        Per-attempt socket timeout in seconds.
    retries:
        How many *extra* attempts after the first (``retries=3`` means
        up to four requests) on connection errors and 5xx answers.
    backoff:
        Base retry delay in seconds.  The actual delay before attempt
        ``n`` is full-jitter exponential: ``backoff * 2**(n-1) * rng()``
        -- jitter decorrelates a thundering herd of shed clients.  A
        server ``Retry-After`` hint (a 503 shed) replaces the computed
        delay for that attempt.
    max_elapsed:
        Total seconds the request (attempts + sleeps) may take; a retry
        whose delay would overrun the cap is abandoned and the last
        error raised instead.  A spec ``deadline_ms`` tightens the cap
        further -- sleeping past the request's own deadline helps nobody.
        ``None`` (default) bounds by attempt count only.
    sleep / rng / connection_factory:
        Injection points for tests: the backoff sleeper, the jitter
        source (a ``() -> float in [0, 1]``; pass ``lambda: 1.0`` for
        deterministic full-length delays) and the
        ``(host, port, timeout) -> connection`` constructor.
    """

    def __init__(
        self,
        base_url: str,
        *,
        token: str | None = None,
        timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.1,
        max_elapsed: float | None = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Callable[[], float] = random.random,
        connection_factory: Callable | None = None,
    ) -> None:
        parts = urlsplit(base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(
                f"base_url must look like http://host:port, got {base_url!r}"
            )
        self._host = parts.hostname
        self._port = parts.port or (443 if parts.scheme == "https" else 80)
        self._prefix = parts.path.rstrip("/")
        self.token = token
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_elapsed = max_elapsed
        self._sleep = sleep
        self._rng = rng
        if connection_factory is None:
            connection_factory = (
                http.client.HTTPSConnection
                if parts.scheme == "https"
                else http.client.HTTPConnection
            )
        self._connection_factory = connection_factory
        self._connection = None

    # -- the public surface -----------------------------------------------------

    def run(self, spec) -> ResultSet:
        """Execute any spec remotely: ``POST /v1/run`` -> ``ResultSet``.

        Accepts a spec object (anything with ``to_dict()``) or an
        already-JSON-shaped mapping.
        """
        payload = spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
        return ResultSet.from_dict(self._request("POST", "/v1/run", payload))

    def join(
        self,
        names: Sequence[str] | None = None,
        *,
        algorithm: str = "tsj",
        threshold: float = 0.1,
        backend: str | None = None,
        engine: str | None = None,
        params: Mapping | None = None,
        deadline_ms: float | None = None,
    ) -> ResultSet:
        """Self-join under any registered algorithm (``POST /v1/join``).

        ``names=None`` joins the server session's resident default
        corpus.  The spec is built client-side, so selector typos fail
        locally with the same uniform error the server would answer.
        ``deadline_ms`` rides the spec to the server (a 504 on expiry)
        and caps this client's retry window too.
        """
        spec = JoinSpec(
            algorithm=algorithm,
            threshold=threshold,
            names=names,
            backend=backend,
            engine=engine,
            params=dict(params or {}),
            deadline_ms=deadline_ms,
        )
        return ResultSet.from_dict(
            self._request("POST", "/v1/join", spec.to_dict())
        )

    def search(
        self,
        queries: Sequence[str] | str,
        *,
        k: int = 5,
        radius: float | None = None,
        method: str = "similarity_index",
        names: Sequence[str] | None = None,
        backend: str | None = None,
        processes: int | None = None,
        deadline_ms: float | None = None,
    ) -> ResultSet:
        """Top-k (default) or range queries (``POST /v1/search``).

        ``radius`` switches to range mode, mirroring the CLI ``search``
        subcommand.
        """
        if radius is not None:
            spec: TopKSpec | WithinSpec = WithinSpec(
                queries=queries,
                radius=radius,
                method=method,
                names=names,
                backend=backend,
                processes=processes,
                deadline_ms=deadline_ms,
            )
        else:
            spec = TopKSpec(
                queries=queries,
                k=k,
                method=method,
                names=names,
                backend=backend,
                processes=processes,
                deadline_ms=deadline_ms,
            )
        return ResultSet.from_dict(
            self._request("POST", "/v1/search", spec.to_dict())
        )

    def knn(
        self,
        queries: Sequence[str] | str,
        *,
        k: int = 5,
        names: Sequence[str] | None = None,
        backend: str | None = None,
    ) -> ResultSet:
        """Nearest neighbours (``POST /v1/knn``): the exact NSLD top-k
        in the CLI ``knn`` shape, the same matches as :meth:`search`."""
        spec = TopKSpec(queries=queries, k=k, names=names, backend=backend)
        return ResultSet.from_dict(self._request("POST", "/v1/knn", spec.to_dict()))

    def append(self, names: Sequence[str], base: int | None = None) -> dict:
        """Grow the server's durable corpus (``POST /v1/append``).

        Returns ``{"records": <total>, "appended": <count>}``.  On a
        store-backed server a 200 answer means the append was write-ahead
        logged and fsynced -- it survives a server crash and restart.

        Delivery is **at-least-once by default**: a retry after a dropped
        connection may re-apply an append the server already logged.
        Passing ``base`` -- the ``records`` total from the last
        acknowledged call (or a fresh ``health``/``search`` view) -- makes
        the append **idempotent**: the server treats an exact replay of an
        already-applied append as a no-op, and rejects a conflicting one
        with a 400 instead of corrupting the corpus, so retries become
        effectively exactly-once.
        """
        from repro.api.errors import WIRE_VERSION

        payload = {"version": WIRE_VERSION, "names": list(names)}
        if base is not None:
            payload["base"] = base
        return self._request("POST", "/v1/append", payload)

    def health(self) -> dict:
        """Liveness probe (``GET /v1/health``; no auth required)."""
        return self._request("GET", "/v1/health")

    def metrics(self) -> dict:
        """The server's counters and gauges (``GET /v1/metrics``)."""
        return self._request("GET", "/v1/metrics")

    # -- transport --------------------------------------------------------------

    def _request(self, method: str, path: str, payload: dict | None = None):
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        budget = self._time_budget(payload)
        started = time.monotonic()
        last_error: ApiError | None = None
        retry_after: float | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                # A server Retry-After hint beats the computed backoff;
                # otherwise full-jitter exponential.
                delay = (
                    retry_after
                    if retry_after is not None
                    else self.backoff * 2 ** (attempt - 1) * self._rng()
                )
                if (
                    budget is not None
                    and time.monotonic() - started + delay > budget
                ):
                    break  # sleeping past the caller's budget helps nobody
                self._sleep(delay)
            retry_after = None
            try:
                status, data = self._send(method, path, body)
            except _RETRYABLE as exc:
                self._drop_connection()
                last_error = ServiceUnavailableError(
                    f"{method} {path} failed after {attempt + 1} attempt(s): "
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            if status >= 500:
                # The server answered but could not serve; its envelope
                # (when well-formed) names the failure.  Retryable --
                # except an expired deadline, which a retry can only
                # expire again (the budget was the request's own).
                error = error_from_envelope(_parse_json(data), status)
                if error.type == "deadline_exceeded":
                    raise error
                retry_after = getattr(error, "retry_after", None)
                last_error = error
                continue
            if status >= 400:
                raise error_from_envelope(_parse_json(data), status)
            return _parse_json(data)
        assert last_error is not None
        raise last_error

    def _time_budget(self, payload: dict | None) -> float | None:
        """Seconds the whole retry loop may take: ``max_elapsed``
        tightened by the spec's own ``deadline_ms`` when present."""
        budget = self.max_elapsed
        deadline_ms = (payload or {}).get("deadline_ms")
        if isinstance(deadline_ms, (int, float)) and deadline_ms > 0:
            deadline_seconds = deadline_ms / 1000.0
            budget = (
                deadline_seconds
                if budget is None
                else min(budget, deadline_seconds)
            )
        return budget

    def _send(self, method: str, path: str, body: bytes | None):
        connection = self._connection
        if connection is None:
            connection = self._connection_factory(
                self._host, self._port, timeout=self.timeout
            )
            self._connection = connection
        headers = {"Content-Type": "application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        try:
            fault_point("client.send")  # chaos tests: sever the connection
            connection.request(method, self._prefix + path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        except _RETRYABLE:
            # Drop the (possibly half-dead) keep-alive connection so the
            # retrying caller reconnects fresh -- covers the server
            # closing an idle persistent connection between requests.
            self._drop_connection()
            raise

    def _drop_connection(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            except Exception:
                pass
            self._connection = None

    def close(self) -> None:
        """Close the keep-alive connection (idempotent)."""
        self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _parse_json(data: bytes):
    """Decode a response body; malformed bodies degrade to a dict the
    envelope rebuilder can still describe."""
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return {"raw": data[:200].decode("utf-8", "replace")}
