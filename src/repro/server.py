"""The network front door: ``repro.server`` speaks the ResultSet wire format.

The engine meets a socket here.  One process-wide
:class:`repro.api.Session` (resident corpora, built-once indexes, LRU
result caches) serves HTTP requests carrying the exact JSON wire format
the declarative front door already defined (PR 5): POST a spec, get the
:class:`repro.api.ResultSet` envelope back.  Stdlib only --
:class:`http.server.ThreadingHTTPServer` plus the facade; no new hard
dependencies.

Endpoints (all JSON, all answers carry the wire ``"version"`` tag):

========================  =====================================================
``POST /v1/join``         a :class:`~repro.api.JoinSpec` payload (``"type"``
                          optional, must be ``"join"`` when present)
``POST /v1/search``       a ``topk`` or ``within`` spec (default ``topk``)
``POST /v1/knn``          a ``topk`` spec (the CLI ``knn`` shape)
``POST /v1/run``          any spec with an explicit ``"type"`` tag -- the
                          fully declarative endpoint
``POST /v1/append``       ``{"names": [...], "base": <int, optional>}`` --
                          grow the durable corpus; with a ``--store``
                          directory the append is write-ahead logged and
                          fsynced before memory mutates, so it survives a
                          crash/restart.  ``base`` (the record count the
                          client last saw) makes the append idempotent
                          under retries: an exact replay of an
                          acknowledged append is a no-op
``GET  /v1/health``       liveness (unauthenticated): status, uptime, version
``GET  /v1/metrics``      request counts per route/status, the latency
                          histogram, and the session's resident-corpus and
                          result-cache gauges
========================  =====================================================

Failures -- malformed JSON, unknown spec types/fields/versions, bad
parameter shapes, missing auth, unknown routes -- answer with the
uniform error envelope ``{"error": {"type", "message"}}`` and the
:class:`repro.api.errors.ApiError` status; unexpected exceptions
become enveloped 500s, never tracebacks on the wire.

Overload has an answer (PR 8): an :class:`AdmissionGate` bounds the
POST routes' in-flight requests (``max_inflight``) and the queue of
requests waiting for a slot (``max_queue``); overflow is **shed** with
the uniform 503 ``overloaded`` envelope plus a ``Retry-After`` header,
which :class:`repro.client.ServiceClient` honors before retrying.  A
spec's ``deadline_ms`` expires as a 504 ``deadline_exceeded`` envelope.
``/v1/metrics`` surfaces the gate (inflight gauge, shed counts) and the
runtime's crash-recovery counters; ``/v1/health`` reports degraded
modes (pool rebuilt / in-process fallback / durable store rebuilt from
corpus) without ever shedding -- probes must always answer.  With a
durable store (``serve(store_dir=...)`` / CLI ``--store``), health also
carries a ``store`` block (``{loaded, wal_records, last_compaction}``)
and ``/v1/metrics`` the full ``store.status()`` (WAL records, last
compaction, torn-tail truncation, rebuilds).  When serving sharded
(``serve(shards=N)`` / CLI ``--shards``), both carry a ``shards`` block:
per-shard sizes, the placement, and the router's
``shards_probed``/``shards_pruned`` tallies.

Auth is a static bearer token (``Authorization: Bearer <token>``),
compared constant-time; ``token=None`` disables auth.  ``/v1/health``
is always open so load balancers can probe without credentials.

The transport-free request logic lives in :class:`SimilarityService`
(``handle(method, path, body, authorization) -> (status, payload)``), so
tests can exercise routing/auth/errors without sockets and an asyncio
transport can reuse it unchanged; :class:`ReproServer` is the threaded
socket front end (``start()``/``close()`` for in-process embedding,
``serve_forever()`` for the CLI ``serve`` subcommand).
"""

from __future__ import annotations

import hmac
import json
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.api.errors import (
    WIRE_VERSION,
    ApiError,
    AuthError,
    MethodNotAllowedError,
    NotFoundError,
    OverloadedError,
    ValidationError,
    error_envelope,
    take_wire_version,
)
from repro.api.session import Session
from repro.api.specs import spec_from_json
from repro.faults import fault_point
from repro.runtime.pool import runtime_counters

__all__ = [
    "AdmissionGate",
    "LATENCY_BUCKETS_MS",
    "ReproServer",
    "ServiceMetrics",
    "SimilarityService",
    "serve",
]

#: Upper bounds (milliseconds) of the latency histogram buckets; one
#: overflow bucket (``"+inf"``) catches everything beyond the last bound.
LATENCY_BUCKETS_MS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)


class ServiceMetrics:
    """Thread-safe request counters and one latency histogram.

    ``observe()`` is called once per handled request (any status, any
    route -- unknown routes included, they cost cycles too);
    ``snapshot()`` renders the JSON the ``/v1/metrics`` endpoint
    answers with.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        #: route -> {str(status): count}
        self._requests: dict[str, dict[str, int]] = {}
        self._bucket_counts = [0] * (len(LATENCY_BUCKETS_MS) + 1)
        self._latency_sum = 0.0
        self._observations = 0

    def observe(self, route: str, status: int, seconds: float) -> None:
        millis = seconds * 1000.0
        slot = len(LATENCY_BUCKETS_MS)
        for position, bound in enumerate(LATENCY_BUCKETS_MS):
            if millis <= bound:
                slot = position
                break
        with self._lock:
            by_status = self._requests.setdefault(route, {})
            key = str(status)
            by_status[key] = by_status.get(key, 0) + 1
            self._bucket_counts[slot] += 1
            self._latency_sum += millis
            self._observations += 1

    def snapshot(self) -> dict:
        with self._lock:
            requests = {
                route: dict(by_status) for route, by_status in self._requests.items()
            }
            buckets = dict(
                zip(
                    [f"<={bound:g}ms" for bound in LATENCY_BUCKETS_MS] + ["+inf"],
                    self._bucket_counts,
                )
            )
            return {
                "uptime_seconds": time.monotonic() - self._started,
                "requests_total": sum(
                    count
                    for by_status in requests.values()
                    for count in by_status.values()
                ),
                "requests": requests,
                "latency_ms": {
                    "count": self._observations,
                    "sum": self._latency_sum,
                    "buckets": buckets,
                },
            }


class AdmissionGate:
    """Bounded admission for the POST routes: shed instead of queue forever.

    ``max_inflight`` bounds requests executing concurrently;
    ``max_queue`` bounds requests *waiting* for an execution slot.  A
    request arriving past both bounds is shed immediately with the
    typed :class:`~repro.api.errors.OverloadedError` (HTTP 503 +
    ``Retry-After``) -- under sustained overload a bounded queue and a
    fast 503 beat an unbounded backlog of requests whose callers have
    long given up.  ``max_inflight=None`` disables the gate (the
    embedded/test default; the CLI ``serve`` subcommand exposes
    ``--max-inflight``/``--max-queue``).
    """

    def __init__(
        self, max_inflight: int | None = None, max_queue: int = 8
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValidationError("max_inflight must be positive (or None)")
        if max_queue < 0:
            raise ValidationError("max_queue must be non-negative")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self._cond = threading.Condition()
        self._inflight = 0
        self._queued = 0
        self._shed_total = 0

    @contextmanager
    def admit(self, retry_after: float = 1.0):
        """Hold one execution slot for the block, or shed with a 503."""
        if self.max_inflight is None:
            yield
            return
        with self._cond:
            if (
                self._inflight >= self.max_inflight
                and self._queued >= self.max_queue
            ):
                self._shed_total += 1
                raise OverloadedError(
                    f"server is at capacity ({self._inflight} in flight, "
                    f"{self._queued} queued); retry later",
                    retry_after=retry_after,
                )
            self._queued += 1
            try:
                while self._inflight >= self.max_inflight:
                    self._cond.wait()
            finally:
                self._queued -= 1
            self._inflight += 1
        try:
            yield
        finally:
            with self._cond:
                self._inflight -= 1
                self._cond.notify()

    def stats(self) -> dict:
        """The gauges ``/v1/metrics`` reports for the gate."""
        with self._cond:
            return {
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "inflight": self._inflight,
                "queued": self._queued,
                "shed_total": self._shed_total,
            }


#: POST route -> accepted ``"type"`` tags, the first being the default.
#: ``/v1/run`` accepts every tag but requires one explicitly.
_POST_ROUTES: dict[str, tuple[str, ...]] = {
    "/v1/join": ("join",),
    "/v1/search": ("topk", "within"),
    "/v1/knn": ("topk",),
    "/v1/run": (),
}

_GET_ROUTES = ("/v1/health", "/v1/metrics")


def _json_object(body: bytes | None, shape: str) -> dict:
    """Decode a POST body that must be one JSON object; ``shape`` says
    what to POST in the error messages."""
    if not body:
        raise ValidationError(f"request body is empty; POST {shape}")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError(
            f"request body must be a JSON object ({shape}), got "
            f"{type(payload).__name__}"
        )
    return payload


class SimilarityService:
    """Transport-free request handling over one process-wide session.

    ``handle()`` maps ``(method, path, body, authorization)`` to
    ``(status, JSON-able payload)`` and never raises: every failure --
    typed or unexpected -- lands in the uniform error envelope.  The
    session is shared across requests (that is the point: resident
    corpora and caches amortize), so ``Session.run`` executes under a
    lock; metrics are updated for every request, including rejected
    ones.
    """

    def __init__(
        self,
        session: Session | None = None,
        *,
        token: str | None = None,
        max_inflight: int | None = None,
        max_queue: int = 8,
    ) -> None:
        self.session = session if session is not None else Session()
        self.token = token
        self.metrics = ServiceMetrics()
        self.gate = AdmissionGate(max_inflight, max_queue)
        self._run_lock = threading.Lock()

    # -- request plumbing -------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        authorization: str | None = None,
    ) -> tuple[int, dict]:
        """Route one request; returns ``(http status, response payload)``."""
        route = path.split("?", 1)[0].rstrip("/") or "/"
        start = time.perf_counter()
        try:
            payload = self._dispatch(method, route, body, authorization)
            status = 200
        except ApiError as exc:
            status, payload = exc.status, exc.to_envelope()
        except Exception as exc:  # noqa: BLE001 -- envelope, never a traceback
            status, payload = 500, error_envelope(exc)
        self.metrics.observe(route, status, time.perf_counter() - start)
        return status, payload

    def _dispatch(self, method, route, body, authorization) -> dict:
        if route in _POST_ROUTES:
            if method != "POST":
                raise MethodNotAllowedError(f"{route} accepts POST only")
            self._authorize(authorization)
            return self._run_spec(route, body)
        if route == "/v1/append":
            if method != "POST":
                raise MethodNotAllowedError(f"{route} accepts POST only")
            self._authorize(authorization)
            return self._append(body)
        if route in _GET_ROUTES:
            if method != "GET":
                raise MethodNotAllowedError(f"{route} accepts GET only")
            if route == "/v1/health":
                return self._health()
            self._authorize(authorization)
            return self._metrics()
        known = ", ".join(
            sorted([*_POST_ROUTES, "/v1/append"]) + list(_GET_ROUTES)
        )
        raise NotFoundError(f"no route {route!r}; choose from [{known}]")

    def _authorize(self, authorization: str | None) -> None:
        if self.token is None:
            return
        expected = f"Bearer {self.token}"
        if not authorization or not hmac.compare_digest(authorization, expected):
            raise AuthError("missing or invalid bearer token")

    # -- endpoints --------------------------------------------------------------

    def _execute(self, call, *args, **kwargs):
        """Run one session call the way every POST route does: admission-
        gated, past the ``server.run`` fault site, under the run lock."""
        with self.gate.admit(retry_after=self._retry_after()):
            fault_point("server.run")
            with self._run_lock:
                return call(*args, **kwargs)

    def _run_spec(self, route: str, body: bytes | None) -> dict:
        spec = self._parse_spec(route, body)
        return self._execute(self.session.run, spec).to_dict()

    def _append(self, body: bytes | None) -> dict:
        """``POST /v1/append``: grow the session's durable corpus.

        With a store-backed session the record is WAL-logged and fsynced
        before memory mutates -- a 200 answer means the append survives
        a crash.  Admission-gated and serialized like every other
        mutating route.
        """
        payload = _json_object(body, '{"names": [...]}')
        take_wire_version(payload, "append request")
        names = payload.pop("names", None)
        base = payload.pop("base", None)
        if payload:
            raise ValidationError(
                f"unknown append field(s) {sorted(payload)}; "
                'the fields are "names" and optionally "base"'
            )
        if not isinstance(names, list) or not all(
            isinstance(name, str) for name in names
        ):
            raise ValidationError('"names" must be a list of strings')
        if base is not None and (not isinstance(base, int) or base < 0):
            raise ValidationError('"base" must be a non-negative integer')
        total = self._execute(self.session.append, names, base=base)
        return {
            "version": WIRE_VERSION,
            "records": total,
            "appended": len(names),
        }

    def _retry_after(self) -> float:
        """The ``Retry-After`` hint for shed requests: the observed mean
        request latency, clamped to [0.1s, 5s] (1s before any data)."""
        latency = self.metrics.snapshot()["latency_ms"]
        if not latency["count"]:
            return 1.0
        mean_seconds = latency["sum"] / latency["count"] / 1000.0
        return min(5.0, max(0.1, mean_seconds))

    def _parse_spec(self, route: str, body: bytes | None):
        payload = _json_object(body, "a JSON spec")
        accepted = _POST_ROUTES[route]
        if accepted:
            payload.setdefault("type", accepted[0])
            if payload["type"] not in accepted:
                listed = ", ".join(repr(tag) for tag in accepted)
                raise ValidationError(
                    f"{route} serves [{listed}] specs, got "
                    f"{payload['type']!r}; POST it to /v1/run instead"
                )
        elif "type" not in payload:
            raise ValidationError(
                '/v1/run requires an explicit "type" tag '
                '("join", "topk", "within" or "compare")'
            )
        try:
            return spec_from_json(payload)
        except ApiError:
            raise
        except (TypeError, ValueError) as exc:
            # Bad field shapes (e.g. a scalar where a list belongs) are
            # the client's fault: a 400, not an internal error.
            raise ValidationError(f"invalid spec: {exc}") from exc

    def _health(self) -> dict:
        counters = runtime_counters()
        degraded = {
            # The pool broke and was replaced at least once (recovered).
            "pool_rebuilt": counters["pool_rebuilds"] > 0,
            # Retries ran out; work fell back to in-process execution.
            "pool_fallback_in_process": counters["pool_degraded"] > 0,
            # A durable index failed validation and was rebuilt from the
            # boot corpus (appends that lived only in the store are gone).
            "store_rebuilt": counters["store_rebuilds"] > 0,
        }
        payload = {
            "status": "degraded" if any(degraded.values()) else "ok",
            "version": WIRE_VERSION,
            "uptime_seconds": self.metrics.snapshot()["uptime_seconds"],
            "degraded": degraded,
        }
        store = self.session.store_status()
        if store is not None:
            payload["store"] = {
                "loaded": store["loaded"],
                "wal_records": store["wal_records"],
                "last_compaction": store["last_compaction"],
            }
        shards = self.session.shard_status()
        if shards is not None:
            payload["shards"] = shards
        return payload

    def _metrics(self) -> dict:
        payload = self.metrics.snapshot()
        payload["version"] = WIRE_VERSION
        payload["session"] = self.session.stats()
        payload["admission"] = self.gate.stats()
        payload["runtime"] = runtime_counters()
        store = self.session.store_status()
        if store is not None:
            payload["store"] = store  # the full status(), health shows a subset
        shards = self.session.shard_status()
        if shards is not None:
            payload["shards"] = shards
        return payload


class _Handler(BaseHTTPRequestHandler):
    """The socket-facing shim: bytes in, ``SimilarityService`` out."""

    protocol_version = "HTTP/1.1"  # keep-alive: one connection, many requests
    server_version = f"repro-server/{WIRE_VERSION}"

    def log_message(self, format, *args):  # noqa: A002 -- stdlib signature
        pass  # request logging is the metrics endpoint's job

    def do_GET(self) -> None:
        self._respond(*self.server.service.handle("GET", self.path, None, self._auth()))

    def do_POST(self) -> None:
        try:
            body = self._read_body()
        except ValidationError as exc:
            # The body's framing is unknown: answer, then drop the
            # connection rather than parse its bytes as the next request.
            self.close_connection = True
            self._respond(exc.status, exc.to_envelope())
            return
        self._respond(
            *self.server.service.handle("POST", self.path, body, self._auth())
        )

    def _auth(self) -> str | None:
        return self.headers.get("Authorization")

    def _read_body(self) -> bytes:
        length = self.headers.get("Content-Length")
        if length is None:
            return b""
        try:
            size = int(length)
        except ValueError:
            size = -1
        if size < 0:
            # A negative size would make ``read`` wait for EOF (-1) or
            # raise inside the handler (< -1).
            raise ValidationError(f"invalid Content-Length {length!r}")
        return self.rfile.read(size)

    def _respond(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        # A shed request's envelope carries the retry hint; surface it
        # as the standard header too so plain HTTP clients see it.
        error = payload.get("error")
        if isinstance(error, dict) and "retry_after" in error:
            self.send_header("Retry-After", f"{error['retry_after']:g}")
        self.end_headers()
        self.wfile.write(data)


class ReproServer:
    """The threaded HTTP front end around one :class:`SimilarityService`.

    ``port=0`` binds an ephemeral port (the resolved one is in
    :attr:`port`/:attr:`url`).  ``start()`` serves from a daemon thread
    for in-process embedding (tests, benches, examples);
    ``serve_forever()`` blocks (the CLI).  Context-manager use closes
    the socket on exit.

    Examples
    --------
    ::

        with ReproServer(session=Session(names), token="s3cret") as server:
            client = ServiceClient(server.url, token="s3cret")
            result = client.search(["jon smiht"], k=3)
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        session: Session | None = None,
        token: str | None = None,
        max_inflight: int | None = None,
        max_queue: int = 8,
    ) -> None:
        self.service = SimilarityService(
            session, token=token, max_inflight=max_inflight, max_queue=max_queue
        )
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self.service
        self._thread: threading.Thread | None = None
        self._started = False
        self._closed = False
        self._close_lock = threading.Lock()

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReproServer":
        """Serve from a background daemon thread; returns ``self``."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-server",
                daemon=True,
            )
            self._started = True
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI path)."""
        self._started = True
        self._httpd.serve_forever()

    def close(self, join_timeout: float = 5.0) -> None:
        """Stop serving and release the listening socket.

        Idempotent under concurrent callers: exactly one caller performs
        the teardown, the rest return immediately.  The listening socket
        is force-closed even when the serving thread is wedged; a thread
        still alive after ``join_timeout`` raises a clear
        :class:`RuntimeError` instead of silently leaking a zombie
        (in-flight handler threads are daemonic and die with the
        process, but a wedged *serving* thread must be loud).
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self._started:
            # shutdown() waits on serve_forever()'s exit handshake and
            # would block forever on a server that never served.
            self._httpd.shutdown()
        # Always release the port, even when the thread is stuck: a
        # leaked listening socket blocks rebinding far longer than a
        # leaked thread lives.
        self._httpd.server_close()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=join_timeout)
            if thread.is_alive():
                raise RuntimeError(
                    f"repro-server thread did not exit within "
                    f"{join_timeout:g}s; the listening socket was closed "
                    "but the serving thread is leaked (daemonic, dies "
                    "with the process)"
                )

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve(
    names=None,
    *,
    host: str = "127.0.0.1",
    port: int = 8765,
    token: str | None = None,
    backend: str = "auto",
    engine: str = "auto",
    cache_size: int = 256,
    max_inflight: int | None = None,
    max_queue: int = 8,
    shards: int = 1,
    placement: str = "length",
    store_dir: str | None = None,
) -> ReproServer:
    """Build a server around a fresh session (not yet started).

    ``names`` preloads the session's default corpus, so specs without
    inline ``names`` run against it -- the resident-serving shape the
    benches and the CLI ``serve`` subcommand use.  ``max_inflight`` /
    ``max_queue`` bound the admission gate (``None`` = no shedding).
    ``store_dir`` makes the session durable: boot warm-restarts from
    the snapshot + WAL (degrading to a rebuild from ``names`` when
    damaged) and ``/v1/append`` survives crashes.  ``shards > 1``
    serves every resident corpus through an N-shard
    :class:`repro.shard.ShardedIndex` (same results and counters by
    contract; per-shard persistence when combined with ``store_dir``).
    """
    session = Session(
        names,
        backend=backend,
        engine=engine,
        cache_size=cache_size,
        shards=shards,
        placement=placement,
        store_dir=store_dir,
    )
    return ReproServer(
        host,
        port,
        session=session,
        token=token,
        max_inflight=max_inflight,
        max_queue=max_queue,
    )
