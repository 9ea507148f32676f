"""``Session(store_dir=...)``: durability behind the façade.

The session layer owns the ordering that makes appends durable (WAL
record fsynced *before* the in-memory index mutates) and the corpus
bookkeeping that keeps a store-backed session consistent with its
sibling on-demand corpora.
"""

from __future__ import annotations

import pytest

from repro.api import JoinSpec, Session, TopKSpec
from repro.api.errors import ValidationError

pytestmark = pytest.mark.tier1

NAMES = ["barak obama", "borak obama", "john smith", "jon smiht", "ann lee"]


@pytest.fixture()
def store_dir(tmp_path):
    return str(tmp_path / "store")


class TestStoreBackedSession:
    def test_first_boot_serves_the_corpus(self, store_dir):
        session = Session(NAMES, store_dir=store_dir)
        result = session.run(TopKSpec(queries=("barak obana",), k=1))
        assert result.matches[0][0][0] == "barak obama"

    def test_append_returns_total_and_serves(self, store_dir):
        session = Session(NAMES, store_dir=store_dir)
        assert session.append(["veronika dahl"]) == len(NAMES) + 1
        result = session.run(TopKSpec(queries=("veronika dhal",), k=1))
        assert result.matches[0][0][0] == "veronika dahl"

    def test_append_survives_restart(self, store_dir):
        Session(NAMES, store_dir=store_dir).append(["veronika dahl"])
        reborn = Session(store_dir=store_dir)
        assert reborn.store_status()["loaded"] is True
        result = reborn.run(TopKSpec(queries=("veronika dhal",), k=1))
        assert result.matches[0][0][0] == "veronika dahl"

    def test_append_without_store_or_corpus_fails(self):
        with pytest.raises(ValidationError):
            Session().append(["x"])

    def test_append_without_store_grows_the_default_corpus(self):
        session = Session(NAMES)
        assert session.append(["veronika dahl"]) == len(NAMES) + 1
        result = session.run(TopKSpec(queries=("veronika dhal",), k=1))
        assert result.matches[0][0][0] == "veronika dahl"

    def test_store_status_without_store_is_none(self):
        assert Session(NAMES).store_status() is None

    def test_joins_see_appends(self, store_dir):
        session = Session(NAMES, store_dir=store_dir)
        session.append(["jon smith"])
        pairs = session.run(JoinSpec(threshold=0.3)).pairs
        assert any("jon smith" in pair for pair in pairs)

    def test_explicit_names_still_work(self, store_dir):
        session = Session(NAMES, store_dir=store_dir)
        result = session.run(
            TopKSpec(queries=("zz",), k=1, names=("zz top", "ac dc"))
        )
        assert result.matches[0][0][0] == "zz top"

    def test_appends_are_compacted_past_threshold(self, store_dir):
        session = Session(NAMES, store_dir=store_dir)
        session._store.compact_after_records = 3
        for i in range(4):
            session.append([f"name {i}"])
        assert session.store_status()["wal_records"] < 4
        reborn = Session(store_dir=store_dir)
        assert "name 3" in reborn._default_names


class TestSaveLoad:
    def test_save_load_without_store(self, tmp_path):
        path = str(tmp_path / "x.snap")
        Session(NAMES).save(path)
        loaded = Session.load(path)
        want = Session(NAMES).run(TopKSpec(queries=("ann lee",), k=2)).matches
        got = loaded.run(TopKSpec(queries=("ann lee",), k=2)).matches
        assert got == want

    def test_save_empty_session_fails(self, tmp_path):
        with pytest.raises(ValidationError):
            Session().save(str(tmp_path / "x.snap"))

    def test_save_store_backed_session(self, store_dir, tmp_path):
        session = Session(NAMES, store_dir=store_dir)
        session.append(["veronika dahl"])
        path = str(tmp_path / "export.snap")
        session.save(path)
        loaded = Session.load(path)
        result = loaded.run(TopKSpec(queries=("veronika dhal",), k=1))
        assert result.matches[0][0][0] == "veronika dahl"

    def test_load_rejects_corrupt_file(self, tmp_path):
        from repro.api.errors import CorruptSnapshotError

        path = str(tmp_path / "x.snap")
        Session(NAMES).save(path)
        with open(path, "r+b") as handle:
            handle.seek(50)
            byte = handle.read(1)
            handle.seek(50)
            handle.write(bytes([byte[0] ^ 0xFF]))
        # Session.load is the strict path: no corpus to rebuild from,
        # so the typed error propagates instead of degrading
        with pytest.raises(CorruptSnapshotError):
            Session.load(path)


class TestSaveLoadLayouts:
    def test_sharded_save_keeps_the_session_sharded(self, tmp_path):
        session = Session(NAMES, shards=3)
        path = str(tmp_path / "export")
        session.save(path)
        assert session.shard_status()["shards"] == 3
        result = session.run(TopKSpec(queries=("barak obana",), k=2))
        assert result.matches == Session(NAMES).run(
            TopKSpec(queries=("barak obana",), k=2)
        ).matches
        assert session.shard_status()["shards"] == 3

    def test_sharded_save_loads_as_the_same_layout(self, tmp_path):
        path = str(tmp_path / "export")
        Session(NAMES, shards=3, placement="hash").save(path)
        loaded = Session.load(path)
        assert loaded.shards == 3 and loaded.placement == "hash"
        assert loaded.shard_status()["shards"] == 3
        spec = TopKSpec(queries=("jon smith",), k=3)
        assert loaded.run(spec).matches == Session(NAMES).run(spec).matches

    def test_flat_export_is_the_flat_single_index_file(self, tmp_path):
        from repro.service import SimilarityIndex
        from repro.store import index_to_sections, write_snapshot_file

        ours, flat = str(tmp_path / "ours.snap"), str(tmp_path / "flat.snap")
        Session(NAMES, cache_size=64).save(ours)
        write_snapshot_file(
            flat, index_to_sections(SimilarityIndex(NAMES, cache_size=64))
        )
        assert open(ours, "rb").read() == open(flat, "rb").read()

    def test_flat_file_loads_as_a_one_shard_router(self, tmp_path):
        from repro.shard import ShardedIndex

        path = str(tmp_path / "x.snap")
        Session(NAMES, cache_size=64).save(path)
        loaded = Session.load(path)
        index = loaded._durable_index
        assert isinstance(index, ShardedIndex) and len(index.shards) == 1
        assert index.result_cache.capacity == loaded.cache_size == 64
