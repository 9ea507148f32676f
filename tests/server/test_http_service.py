"""The HTTP service end to end: a live server, the SDK, the wire format.

The acceptance property of this layer: for every registered join
algorithm and every search method, ``ServiceClient.run(spec)`` against a
live server returns a :class:`repro.api.ResultSet` equal -- pairs,
clusters, counters, simulated seconds -- to in-process
``Session.run(spec)``; only the wall-clock split may differ.  On top of
that: auth, the uniform error envelope on every 4xx/5xx (never a
traceback), and the metrics endpoint.
"""

from __future__ import annotations

import http.client
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import JoinSpec, ResultSet, Session, TopKSpec, WithinSpec
from repro.api.errors import (
    WIRE_VERSION,
    ApiError,
    AuthError,
    NotFoundError,
    ValidationError,
)
from repro.api.registry import join_algorithms, search_methods
from repro.client import ServiceClient
from repro.data import evaluation_corpus
from repro.server import ReproServer

pytestmark = pytest.mark.tier1

TOKEN = "test-token"

NAMES, _ = evaluation_corpus(30, ring_fraction=0.4, ring_size=4, seed=7)

#: Native thresholds per threshold kind (mirrors the registry-
#: completeness oracle): NSLD for the fuzzy joins, integer edit distance
#: for the LD family, Jaccard similarity for the set joins.
THRESHOLDS = {"nsld": 0.15, "nld": 0.15, "ld": 2, "jaccard": 0.5}


@pytest.fixture(scope="module")
def server():
    with ReproServer(token=TOKEN) as live:
        yield live


@pytest.fixture(scope="module")
def client(server):
    with ServiceClient(server.url, token=TOKEN) as sdk:
        yield sdk


def wire_equal(remote: ResultSet, local: ResultSet) -> bool:
    """Envelope equality up to the wall-clock split (the only fields a
    network hop may legitimately change)."""
    remote_dict, local_dict = remote.to_dict(), local.to_dict()
    for volatile in ("build_seconds", "query_seconds"):
        remote_dict.pop(volatile)
        local_dict.pop(volatile)
    return remote_dict == local_dict


def raw_request(server, method, path, body=None, token=TOKEN, headers=None):
    """A raw HTTP exchange, bypassing the SDK's conveniences."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        sent = dict(headers or {})
        if token is not None:
            sent["Authorization"] = f"Bearer {token}"
        connection.request(method, path, body=body, headers=sent)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class TestHealthAndAuth:
    def test_health_open_and_versioned(self, server):
        # No token on purpose: load balancers probe unauthenticated.
        status, body = raw_request(server, "GET", "/v1/health", token=None)
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["version"] == WIRE_VERSION

    def test_data_endpoints_require_token(self, server):
        unauthenticated = ServiceClient(server.url)
        with pytest.raises(AuthError):
            unauthenticated.metrics()
        with pytest.raises(AuthError):
            unauthenticated.run(JoinSpec(names=("a", "b")))

    def test_wrong_token_rejected(self, server):
        status, body = raw_request(
            server, "GET", "/v1/metrics", token="wrong-token"
        )
        assert status == 401
        assert json.loads(body)["error"]["type"] == "auth"


class TestJoinEquivalence:
    @pytest.mark.parametrize("algorithm", join_algorithms())
    def test_remote_equals_in_process(self, client, algorithm):
        from repro.api.registry import resolve_join

        threshold = THRESHOLDS[resolve_join(algorithm).threshold_kind]
        spec = JoinSpec(algorithm=algorithm, threshold=threshold, names=NAMES)
        remote = client.run(spec)
        local = Session().run(spec)
        assert wire_equal(remote, local)
        assert remote.request == spec.to_dict()

    def test_join_endpoint_defaults_the_type(self, client):
        # /v1/join accepts a tag-less JoinSpec payload.
        spec = JoinSpec(threshold=0.2, names=NAMES)
        remote = client.join(NAMES, threshold=0.2)
        assert wire_equal(remote, Session().run(spec))


class TestSearchEquivalence:
    @pytest.mark.parametrize("method", search_methods(include_aliases=True))
    def test_topk_remote_equals_in_process(self, client, method):
        # A corpus unique per method: the server session is shared, and
        # cache counters must match a fresh in-process session's.
        names = tuple(f"{name} {method}" for name in NAMES)
        spec = TopKSpec(queries=(names[0], "zz zz"), k=3, method=method, names=names)
        assert wire_equal(client.run(spec), Session().run(spec))

    @pytest.mark.parametrize("method", search_methods(include_aliases=True))
    def test_within_remote_equals_in_process(self, client, method):
        names = tuple(f"{name} {method} w" for name in NAMES)
        spec = WithinSpec(
            queries=(names[1], names[2]), radius=0.3, method=method, names=names
        )
        assert wire_equal(client.run(spec), Session().run(spec))

    def test_knn_endpoint(self, server, client):
        names = tuple(f"{name} knn" for name in NAMES)
        local = Session().run(TopKSpec(queries=(names[0],), k=2, names=names))
        assert wire_equal(client.knn((names[0],), k=2, names=names), local)
        # Older SDKs pin ``method: "vptree"`` on /v1/knn; the alias must
        # still answer with the cascade's matches.
        legacy = {"queries": [names[0]], "k": 2, "method": "vptree", "names": names}
        status, raw = raw_request(
            server, "POST", "/v1/knn", body=json.dumps(legacy).encode()
        )
        assert status == 200
        assert json.loads(raw)["matches"] == local.matches

    def test_compare_via_run(self, client):
        spec_payload = {"type": "compare", "name_a": "jon", "name_b": "john"}
        remote = client.run(spec_payload)
        local = Session().run(
            __import__("repro").CompareSpec(name_a="jon", name_b="john")
        )
        assert remote.value == local.value


@settings(max_examples=8, deadline=None)
@given(
    names=st.lists(
        st.text(alphabet="ab ", min_size=1, max_size=8).filter(str.strip),
        min_size=2,
        max_size=8,
        unique=True,
    ),
    threshold=st.sampled_from([0.1, 0.25, 0.5]),
    k=st.integers(min_value=1, max_value=3),
)
def test_property_remote_equals_in_process(live_service, names, threshold, k):
    """run(spec) over HTTP == Session.run(spec), property-tested."""
    client, _ = live_service
    join = JoinSpec(
        algorithm="naive", threshold=threshold, names=names, params={}
    )
    assert wire_equal(client.run(join), Session().run(join))
    topk = TopKSpec(queries=(names[0],), k=k, names=names)
    assert wire_equal(client.run(topk), Session().run(topk))


@pytest.fixture(scope="module")
def live_service():
    # hypothesis forbids function-scoped fixtures; share one server.
    with ReproServer(token=TOKEN) as live:
        with ServiceClient(live.url, token=TOKEN) as sdk:
            yield sdk, live


class TestMalformedPayloads:
    """Every bad request answers the envelope -- never a traceback."""

    def assert_error(
        self, server, body, *, expect_type="validation", path="/v1/run", headers=None
    ):
        status, raw = raw_request(server, "POST", path, body=body, headers=headers)
        payload = json.loads(raw)
        assert status == 400, payload
        assert set(payload) == {"error"}
        assert payload["error"]["type"] == expect_type
        assert "message" in payload["error"]
        return payload["error"]["message"]

    def test_invalid_json(self, server):
        message = self.assert_error(server, b"{not json")
        assert "not valid JSON" in message

    def test_empty_body(self, server):
        self.assert_error(server, b"")

    def test_non_object_body(self, server):
        message = self.assert_error(server, b"[1, 2, 3]")
        assert "JSON object" in message

    def test_run_requires_type(self, server):
        message = self.assert_error(server, b"{}")
        assert '"type"' in message

    def test_unknown_type(self, server):
        message = self.assert_error(server, b'{"type": "sort"}')
        assert "unknown spec type" in message

    def test_unknown_field(self, server):
        self.assert_error(server, b'{"type": "join", "thresold": 0.1}')

    def test_unknown_version(self, server):
        message = self.assert_error(server, b'{"type": "join", "version": 99}')
        assert "wire format version 99" in message

    def test_bad_param_shape(self, server):
        self.assert_error(server, b'{"type": "join", "names": 42}')

    @pytest.mark.parametrize("length", ["abc", "-1", "-5"])
    def test_bad_content_length(self, server, length):
        message = self.assert_error(server, b"", headers={"Content-Length": length})
        assert "Content-Length" in message

    @pytest.mark.parametrize("method", ["bktree", "fuzzymatch"])
    @pytest.mark.parametrize("path", ["/v1/search", "/v1/knn"])
    def test_retired_search_methods(self, server, method, path):
        body = json.dumps({"queries": ["x"], "method": method}).encode()
        message = self.assert_error(server, body, path=path)
        assert f"unknown search method {method!r}; choose from" in message

    def test_endpoint_type_mismatch(self, server):
        message = self.assert_error(
            server, b'{"type": "compare"}', path="/v1/join"
        )
        assert "/v1/run" in message

    def test_unknown_route_404(self, server):
        status, raw = raw_request(server, "POST", "/v2/join", body=b"{}")
        assert status == 404
        assert json.loads(raw)["error"]["type"] == "not_found"

    def test_wrong_method_405(self, server):
        status, raw = raw_request(server, "GET", "/v1/join")
        assert status == 405
        assert json.loads(raw)["error"]["type"] == "method_not_allowed"

    def test_internal_errors_are_enveloped_500s(self, server):
        # A well-formed spec whose params the algorithm rejects: the
        # failure happens inside the runner, past validation.
        body = json.dumps(
            {"type": "join", "names": list(NAMES), "params": {"bogus_kw": 1}}
        ).encode()
        status, raw = raw_request(server, "POST", "/v1/run", body=body)
        payload = json.loads(raw)
        assert status == 500
        assert payload["error"]["type"] == "internal"
        assert "Traceback" not in raw.decode()

    def test_typed_errors_cross_the_wire(self, client):
        with pytest.raises(ValidationError, match="unknown spec type"):
            client.run({"type": "sort"})
        with pytest.raises(NotFoundError):
            client._request("POST", "/v2/nope", {})
        with pytest.raises(ApiError):
            client.run({"type": "join"})  # no corpus resident server-side


class TestMetrics:
    def test_counters_and_gauges(self, server, client):
        client.health()
        client.search(("metrics probe",), k=1, names=("metrics one", "metrics two"))
        metrics = client.metrics()
        assert metrics["version"] == WIRE_VERSION
        assert metrics["requests_total"] >= 2
        assert metrics["requests"]["/v1/search"]["200"] >= 1
        latency = metrics["latency_ms"]
        assert latency["count"] == metrics["requests_total"]
        assert sum(latency["buckets"].values()) == latency["count"]
        session = metrics["session"]
        assert session["resident_corpora"] >= 1
        assert set(session["result_cache"]) == {"hits", "misses", "resident"}
        assert session["result_cache"]["misses"] >= 1
