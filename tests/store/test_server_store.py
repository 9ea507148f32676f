"""The serving layer over a durable store: ``/v1/append``, health, warm restart.

In-process (`SimilarityService.handle`) so the tests exercise routing,
auth, validation and the health store block without sockets; the
socket-level warm restart (SIGKILL and all) lives in
``examples/http_service.py`` and the CI live smoke.
"""

from __future__ import annotations

import json

import pytest

from repro.api import Session, TopKSpec
from repro.server import SimilarityService

pytestmark = pytest.mark.tier1

NAMES = ["barak obama", "borak obama", "john smith", "jon smiht", "ann lee"]
TOKEN = "secret"
AUTH = f"Bearer {TOKEN}"


def post_append(service, names, auth=AUTH):
    body = json.dumps({"names": names}).encode("utf-8")
    return service.handle("POST", "/v1/append", body, auth)


@pytest.fixture()
def store_dir(tmp_path):
    return str(tmp_path / "store")


@pytest.fixture()
def service(store_dir):
    return SimilarityService(
        Session(NAMES, store_dir=store_dir), token=TOKEN
    )


class TestAppendRoute:
    def test_append_acknowledges_totals(self, service):
        status, payload = post_append(service, ["veronika dahl"])
        assert status == 200
        assert payload["records"] == len(NAMES) + 1
        assert payload["appended"] == 1

    def test_appended_record_is_served(self, service):
        post_append(service, ["veronika dahl"])
        spec = TopKSpec(queries=("veronika dhal",), k=1)
        status, payload = service.handle(
            "POST", "/v1/search", json.dumps(spec.to_dict()).encode(), AUTH
        )
        assert status == 200
        assert payload["matches"][0][0][0] == "veronika dahl"

    def test_append_requires_auth(self, service):
        status, payload = post_append(service, ["x"], auth=None)
        assert status == 401
        assert payload["error"]["type"] == "auth"

    def test_append_requires_post(self, service):
        status, payload = service.handle("GET", "/v1/append", None, AUTH)
        assert status == 405

    def test_append_rejects_non_list_names(self, service):
        status, payload = post_append(service, "not a list")
        assert status == 400
        assert payload["error"]["type"] == "validation"

    def test_append_rejects_unknown_fields(self, service):
        body = json.dumps({"names": ["x"], "nmaes": ["y"]}).encode()
        status, payload = service.handle("POST", "/v1/append", body, AUTH)
        assert status == 400

    def test_append_survives_service_restart(self, service, store_dir):
        post_append(service, ["veronika dahl"])
        reborn = SimilarityService(Session(store_dir=store_dir), token=TOKEN)
        spec = TopKSpec(queries=("veronika dhal",), k=1)
        status, payload = reborn.handle(
            "POST", "/v1/search", json.dumps(spec.to_dict()).encode(), AUTH
        )
        assert status == 200
        assert payload["matches"][0][0][0] == "veronika dahl"


class TestHealthStoreBlock:
    def test_no_store_no_block(self):
        service = SimilarityService(Session(NAMES))
        status, payload = service.handle("GET", "/v1/health")
        assert status == 200
        assert "store" not in payload
        assert payload["degraded"]["store_rebuilt"] is False

    def test_store_block_reports_wal_depth(self, service, store_dir):
        post_append(service, ["veronika dahl"])
        reborn = SimilarityService(Session(store_dir=store_dir), token=TOKEN)
        status, payload = reborn.handle("GET", "/v1/health")
        assert payload["status"] == "ok"
        assert payload["store"]["loaded"] is True
        assert payload["store"]["wal_records"] == 1
        assert payload["store"]["last_compaction"] is not None

    def test_degraded_after_store_rebuild(self, store_dir):
        store = Session(NAMES, store_dir=store_dir)._store
        snapshot_path = store._shard_path(0, store._generation)
        with open(snapshot_path, "r+b") as handle:
            handle.seek(40)
            byte = handle.read(1)
            handle.seek(40)
            handle.write(bytes([byte[0] ^ 0xFF]))
        # boot with the corpus: the damaged store degrades to a rebuild
        service = SimilarityService(
            Session(NAMES, store_dir=store_dir), token=TOKEN
        )
        status, payload = service.handle("GET", "/v1/health")
        assert payload["status"] == "degraded"
        assert payload["degraded"]["store_rebuilt"] is True
        # ... but the service answers queries from the rebuilt index
        spec = TopKSpec(queries=("barak obana",), k=1)
        status, payload = service.handle(
            "POST", "/v1/search", json.dumps(spec.to_dict()).encode(), AUTH
        )
        assert status == 200
        assert payload["matches"][0][0][0] == "barak obama"


class TestHealthShardBlock:
    def test_unsharded_service_reports_one_shard(self):
        service = SimilarityService(Session(NAMES))
        _, health = service.handle("GET", "/v1/health")
        assert health["shards"] is None  # no index resident yet
        spec = TopKSpec(queries=("barak obana",), k=1)
        service.handle("POST", "/v1/search", json.dumps(spec.to_dict()).encode())
        for route in ("/v1/health", "/v1/metrics"):
            _, payload = service.handle("GET", route)
            assert payload["shards"]["shards"] == 1
            assert payload["shards"]["sizes"] == [len(NAMES)]

    def test_store_backed_service_reports_its_layout(self, service):
        _, health = service.handle("GET", "/v1/health")
        assert health["shards"]["shards"] == 1
        assert health["shards"]["placement"]["kind"] == "length"
