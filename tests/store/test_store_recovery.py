"""The store lifecycle: boot, warm restart, degrade, compact.

Every store directory opens through :class:`ShardedSnapshotStore`, for
any shard count.  ``open()`` is the serving contract: an intact store
loads, a flat ``index.snap`` directory migrates, a damaged store of
either layout rebuilds from the boot corpus (counted, observable), and
either way the process comes up serving.  ``load()`` is the strict
contract the fuzz suite leans on: damage raises typed errors, never
garbage.

Each class runs at one shard; its ``...ThreeShards`` subclass reruns
every test at three.
"""

from __future__ import annotations

import os

import pytest

from repro import faults
from repro.api.errors import CorruptSnapshotError, WalReplayError
from repro.runtime.pool import runtime_counters
from repro.service import SimilarityIndex
from repro.shard import ShardedSnapshotStore
from repro.shard.store import MANIFEST_NAME
from repro.store import SnapshotStore
from repro.store.store import SNAPSHOT_NAME, WAL_NAME

pytestmark = pytest.mark.tier1

NAMES = ["ann lee", "bob stone", "cara díaz", "dan wu"]


def flip_byte(path: str, offset: int = 40) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def published(store, n_shards: int) -> dict[str, bytes]:
    """The manifest and the shard snapshots it names, as bytes."""
    paths = [store.manifest_path] + [
        store._shard_path(shard, store._generation) for shard in range(n_shards)
    ]
    return {path: open(path, "rb").read() for path in paths}


class Layout:
    n_shards = 1

    def open(self, directory, names=None, **options):
        """A fresh store on ``directory``, opened at this layout."""
        store = ShardedSnapshotStore(str(directory), **options)
        return store, store.open(names=names, n_shards=self.n_shards)


class TestBoot(Layout):
    def test_first_boot_builds_and_publishes(self, tmp_path):
        store, index = self.open(tmp_path, NAMES)
        assert index.names == list(NAMES)
        assert len(index.shards) == self.n_shards
        assert os.path.exists(store.manifest_path)
        assert not store.loaded_from_snapshot  # built, not loaded
        assert store.rebuilds == 0  # a first boot is not a degradation

    def test_first_boot_without_corpus_is_empty(self, tmp_path):
        _, index = self.open(tmp_path)
        assert len(index) == 0

    def test_second_boot_loads(self, tmp_path):
        self.open(tmp_path, NAMES)
        store, index = self.open(tmp_path, NAMES)
        assert store.loaded_from_snapshot
        assert store.resharded is False
        assert index.names == list(NAMES)

    def test_load_without_snapshot_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardedSnapshotStore(str(tmp_path)).load()


class TestWarmRestart(Layout):
    def test_appends_survive_restart(self, tmp_path):
        store, index = self.open(tmp_path, NAMES)
        store.log_append(["eve adams"], base=len(index))
        index.append(["eve adams"])

        _, reborn = self.open(tmp_path, NAMES)
        assert reborn.names == [*NAMES, "eve adams"]

    def test_status_reports_wal_depth(self, tmp_path):
        store, index = self.open(tmp_path, NAMES)
        store.log_append(["eve adams"], base=len(index))
        index.append(["eve adams"])

        restarted, reborn = self.open(tmp_path, NAMES)
        assert reborn.names == [*NAMES, "eve adams"]
        status = restarted.status()
        assert status["loaded"] is True
        assert status["wal_records"] == 1
        assert status["rebuilds"] == 0
        assert status["last_compaction"] is not None
        assert status["torn_tail_truncated"] is False
        assert status["sharded"] is True
        assert status["generation"] >= 1

    def test_compaction_crash_window_is_idempotent(self, tmp_path, monkeypatch):
        # save() publishes the snapshot, then resets the WAL.  A crash
        # between the two leaves WAL records the snapshot already
        # covers; replay must skip them by base offset.
        store, index = self.open(tmp_path, NAMES)
        store.log_append(["eve adams"], base=len(index))
        index.append(["eve adams"])
        # simulate the crash window: snapshot written, WAL *not* reset
        monkeypatch.setattr(store.wal, "reset", lambda: None)
        store.save(index)
        _, reborn = self.open(tmp_path, NAMES)
        assert reborn.names == [*NAMES, "eve adams"]  # not doubled

    def test_wal_gap_is_corruption(self, tmp_path):
        store, _ = self.open(tmp_path, NAMES)
        store.log_append(["eve adams"], base=len(NAMES) + 5)  # a gap
        with pytest.raises(WalReplayError, match="gap"):
            ShardedSnapshotStore(str(tmp_path)).load()

    def test_maybe_compact_resets_the_wal(self, tmp_path):
        store, index = self.open(tmp_path, NAMES, compact_after_records=2)
        for name in ("eve adams", "fay chen"):
            store.log_append([name], base=len(index))
            index.append([name])
            store.maybe_compact(index)
        assert store.wal.size_bytes() == 0
        assert store.status()["wal_records"] == 0
        _, reborn = self.open(tmp_path, NAMES)
        assert reborn.names == [*NAMES, "eve adams", "fay chen"]


class TestDegradedRebuild(Layout):
    def test_corrupt_snapshot_rebuilds_and_counts(self, tmp_path):
        first, _ = self.open(tmp_path, NAMES)
        flip_byte(first._shard_path(0, first._generation))
        store, index = self.open(tmp_path, NAMES)
        assert index.names == list(NAMES)
        assert store.rebuilds == 1
        assert runtime_counters()["store_rebuilds"] == 1
        assert not store.loaded_from_snapshot
        # the rebuild republished a clean snapshot: next boot loads
        reborn, _ = self.open(tmp_path, NAMES)
        assert reborn.loaded_from_snapshot
        assert reborn.rebuilds == 0

    def test_corrupt_snapshot_without_corpus_raises(self, tmp_path):
        first, _ = self.open(tmp_path, NAMES)
        flip_byte(first._shard_path(0, first._generation))
        with pytest.raises(CorruptSnapshotError):
            self.open(tmp_path)

    def test_wal_without_snapshot_rebuilds(self, tmp_path):
        store, index = self.open(tmp_path, NAMES)
        store.log_append(["eve adams"], base=len(index))
        os.remove(store.manifest_path)
        reborn, rebuilt = self.open(tmp_path, NAMES)
        # the appended record lived only in the store: gone by definition
        assert rebuilt.names == list(NAMES)
        assert reborn.rebuilds == 1

    def test_corrupt_wal_rebuilds(self, tmp_path):
        store, index = self.open(tmp_path, NAMES)
        store.log_append(["eve adams"], base=len(index))
        with open(os.path.join(str(tmp_path), WAL_NAME), "r+b") as handle:
            handle.seek(1)
            handle.write(b"\xff")
        _, rebuilt = self.open(tmp_path, NAMES)
        assert rebuilt.names == list(NAMES)
        assert runtime_counters()["store_rebuilds"] == 1

    def test_replay_fault_degrades_deterministically(self, tmp_path):
        store, index = self.open(tmp_path, NAMES)
        store.log_append(["eve adams"], base=len(index))
        faults.inject("store.replay", "raise", push_to_pool=False)
        reborn, rebuilt = self.open(tmp_path, NAMES)
        assert rebuilt.names == list(NAMES)
        assert reborn.rebuilds == 1

    def test_damaged_flat_snapshot_rebuilds_and_counts(self, tmp_path):
        flat = SnapshotStore(str(tmp_path))
        flat.save(SimilarityIndex(NAMES))
        flip_byte(flat.snapshot_path)
        store, index = self.open(tmp_path, NAMES)
        assert index.names == list(NAMES)
        assert store.rebuilds == 1
        assert runtime_counters()["store_rebuilds"] == 1
        assert not os.path.exists(flat.snapshot_path)  # retired
        reborn, _ = self.open(tmp_path, NAMES)
        assert reborn.loaded_from_snapshot
        assert reborn.rebuilds == 0

    def test_gapped_flat_wal_rebuilds_and_counts(self, tmp_path):
        flat = SnapshotStore(str(tmp_path))
        flat.save(SimilarityIndex(NAMES))
        flat.log_append(["eve adams"], base=len(NAMES) + 5)  # a gap
        store, index = self.open(tmp_path, NAMES)
        assert index.names == list(NAMES)
        assert store.rebuilds == 1
        assert not os.path.exists(flat.snapshot_path)
        assert store.wal.size_bytes() == 0  # the rebuild's save reset it


class TestCrashMidSave(Layout):
    @pytest.mark.parametrize("site", ["store.write", "store.fsync"])
    def test_previous_snapshot_survives(self, tmp_path, site):
        store, index = self.open(tmp_path, NAMES)
        before = published(store, self.n_shards)
        index.append(["eve adams"])
        faults.inject(site, "raise", push_to_pool=False)
        with pytest.raises(faults.FaultInjected):
            store.save(index)
        assert published(store, self.n_shards) == before
        # and the directory still boots (to the pre-append state)
        _, reborn = self.open(tmp_path, NAMES)
        assert reborn.names == list(NAMES)

    def test_torn_wal_append_truncates_on_restart(self, tmp_path):
        store, index = self.open(tmp_path, NAMES)
        store.log_append(["eve adams"], base=len(index))
        index.append(["eve adams"])
        with open(os.path.join(str(tmp_path), WAL_NAME), "ab") as handle:
            handle.write(b"RWL1\x09\x00")  # a crash mid-append
        reborn, rebuilt = self.open(tmp_path, NAMES)
        assert rebuilt.names == [*NAMES, "eve adams"]
        assert reborn.status()["torn_tail_truncated"] is True
        assert reborn.rebuilds == 0  # a torn tail is not a degradation

    def test_snapshot_name_constants(self, tmp_path):
        self.open(tmp_path, NAMES)
        shards = [f"shard-{shard:02d}-g1.snap" for shard in range(self.n_shards)]
        assert sorted(os.listdir(tmp_path)) == sorted(
            [MANIFEST_NAME, WAL_NAME, *shards]
        )
        assert SNAPSHOT_NAME not in os.listdir(tmp_path)


class TestBootThreeShards(TestBoot):
    n_shards = 3


class TestWarmRestartThreeShards(TestWarmRestart):
    n_shards = 3


class TestDegradedRebuildThreeShards(TestDegradedRebuild):
    n_shards = 3


class TestCrashMidSaveThreeShards(TestCrashMidSave):
    n_shards = 3
