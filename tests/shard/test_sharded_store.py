"""The sharded store: per-shard snapshots, one global WAL, migrations.

The recovery matrix (boot, warm restart, degraded rebuild, crash
mid-save) runs at one and three shards in
``tests/store/test_store_recovery.py``; this file pins what only the
layout has: generation-flip publication, lossless flat migration,
reshard-on-boot and manifest damage, plus a WAL replay and the
sharded status block.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api.errors import CorruptSnapshotError
from repro.service import SimilarityIndex
from repro.shard import ShardedIndex, ShardedSnapshotStore
from repro.store import SnapshotStore
from repro.store.format import read_snapshot_file, write_snapshot_file

pytestmark = pytest.mark.tier1

NAMES = [
    "barak obama",
    "borak obama",
    "john smith",
    "jon smiht",
    "ann lee",
    "a much longer multi token name here",
]


@pytest.fixture()
def store_dir(tmp_path):
    return str(tmp_path / "store")


class TestRoundTrip:
    def test_save_load_serves_identically(self, store_dir):
        index = ShardedIndex(NAMES, n_shards=3)
        store = ShardedSnapshotStore(store_dir)
        store.save(index)
        assert os.path.exists(store.manifest_path)
        reborn = ShardedSnapshotStore(store_dir).load()
        assert reborn.names == list(NAMES)
        assert reborn.topk(["barak obana"], k=2) == index.topk(
            ["barak obana"], k=2
        )
        assert len(reborn.shards) == 3

    def test_wal_replay_restores_appends(self, store_dir):
        store = ShardedSnapshotStore(store_dir)
        index = store.open(NAMES, n_shards=2)
        store.log_append(["veronika dahl"], base=len(index))
        index.append(["veronika dahl"])
        reborn = ShardedSnapshotStore(store_dir)
        loaded = reborn.open(n_shards=2)
        assert loaded.names == list(NAMES) + ["veronika dahl"]
        assert reborn.loaded_from_snapshot is True
        assert reborn.status()["wal_records"] == 1

    def test_generation_flip_sweeps_old_snapshots(self, store_dir):
        store = ShardedSnapshotStore(store_dir)
        index = store.open(NAMES, n_shards=2)
        store.save(index)
        store.save(index)
        snaps = [
            entry
            for entry in os.listdir(store_dir)
            if entry.startswith("shard-") and entry.endswith(".snap")
        ]
        assert len(snaps) == 2  # only the current generation's files
        assert all(f"-g{store._generation}.snap" in entry for entry in snaps)


class TestMigrations:
    def test_unsharded_directory_migrates_losslessly(self, store_dir):
        flat_store = SnapshotStore(store_dir)
        flat_store.save(SimilarityIndex(NAMES))
        flat_store.log_append(["veronika dahl"], base=len(NAMES))
        store = ShardedSnapshotStore(store_dir)
        index = store.open(n_shards=2)
        assert index.names == list(NAMES) + ["veronika dahl"]
        assert store.resharded is True
        assert store.rebuilds == 0
        assert not os.path.exists(os.path.join(store_dir, "index.snap"))
        assert os.path.exists(store.manifest_path)

    def test_reshard_on_boot_with_different_layout(self, store_dir):
        ShardedSnapshotStore(store_dir).open(NAMES, n_shards=2)
        store = ShardedSnapshotStore(store_dir)
        index = store.open(n_shards=4, placement="hash")
        assert len(index.shards) == 4
        assert index.placement.kind == "hash"
        assert index.names == list(NAMES)
        assert store.resharded is True
        assert store.rebuilds == 0

    def test_matching_layout_does_not_reshard(self, store_dir):
        ShardedSnapshotStore(store_dir).open(NAMES, n_shards=2)
        store = ShardedSnapshotStore(store_dir)
        store.open(n_shards=2)
        assert store.resharded is False

    def test_wal_is_byte_identical_to_unsharded(self, tmp_path):
        """Same append history -> the same WAL bytes either layout."""
        flat_dir, shard_dir = str(tmp_path / "flat"), str(tmp_path / "shard")
        flat = SnapshotStore(flat_dir)
        flat.save(SimilarityIndex(NAMES))
        sharded = ShardedSnapshotStore(shard_dir)
        sharded.open(NAMES, n_shards=3)
        for batch in (["veronika dahl"], ["x", "y"]):
            base = len(NAMES)
            flat.log_append(batch, base=base)
            sharded.log_append(batch, base=base)
        with open(flat.wal.path, "rb") as handle:
            flat_bytes = handle.read()
        with open(sharded.wal.path, "rb") as handle:
            shard_bytes = handle.read()
        assert flat_bytes == shard_bytes


class TestDamage:
    def test_corrupt_manifest_rebuilds_counted(self, store_dir):
        store = ShardedSnapshotStore(store_dir)
        store.open(NAMES, n_shards=2)
        with open(store.manifest_path, "r+b") as handle:
            handle.seek(30)
            handle.write(b"\xff\xff\xff")
        reborn = ShardedSnapshotStore(store_dir)
        index = reborn.open(NAMES, n_shards=2)
        assert index.names == list(NAMES)
        assert reborn.rebuilds == 1
        assert reborn.status()["loaded"] is False

    @pytest.mark.parametrize(
        "damage",
        [
            {"placement": {"kind": "length", "n_shards": 2, "boundaries": []}},
            {"placement": {"kind": "nope", "n_shards": 2}},
            {"placement": {"kind": "length", "n_shards": 2, "boundaries": ["x"]}},
            {"shard_ids": [[0, 1, 2, 3, "a"], [5]]},
            {"shard_ids": [[0, 1, 2, 3, 4.0], [5]]},
        ],
        ids=[
            "boundary-count",
            "unknown-kind",
            "non-int-boundary",
            "str-shard-id",
            "float-shard-id",
        ],
    )
    def test_malformed_manifest_field_rebuilds_counted(self, store_dir, damage):
        # A CRC-valid manifest with a malformed field is corruption like
        # any other: typed on load, a counted rebuild on open.
        store = ShardedSnapshotStore(store_dir)
        store.open(NAMES, n_shards=2)
        manifest = json.loads(read_snapshot_file(store.manifest_path)["manifest"])
        assert [len(ids) for ids in manifest["shard_ids"]] == [5, 1]
        manifest.update(damage)
        write_snapshot_file(
            store.manifest_path, {"manifest": json.dumps(manifest).encode("utf-8")}
        )
        with pytest.raises(CorruptSnapshotError):
            ShardedSnapshotStore(store_dir).load()
        reborn = ShardedSnapshotStore(store_dir)
        index = reborn.open(NAMES, n_shards=2)
        assert reborn.rebuilds == 1
        assert index.names == list(NAMES)
        index.append(["jon smith"])  # the rebuilt placement routes appends
        assert index.topk(["jon smith"], k=1) == [[("jon smith", 0.0)]]

    def test_missing_shard_snapshot_is_typed(self, store_dir):
        store = ShardedSnapshotStore(store_dir)
        store.open(NAMES, n_shards=2)
        os.remove(store._shard_path(1, store._generation))
        with pytest.raises(CorruptSnapshotError):
            ShardedSnapshotStore(store_dir).load()


class TestStatus:
    def test_status_reports_shard_block(self, store_dir):
        store = ShardedSnapshotStore(store_dir)
        store.open(NAMES, n_shards=2)
        status = store.status()
        assert status["sharded"] is True
        assert status["generation"] >= 1
        assert status["rebuilds"] == 0
        assert status["torn_tail_truncated"] is False

