"""The write-ahead log: replay, torn tails, mid-file corruption, and
the directory entry of a newly created log.

The framing relies on the prefix property of torn writes, so the tests
split cleanly: any *prefix* of the file replays the intact records and
truncates the rest (a crash mid-append), while a complete-but-damaged
record raises the typed :class:`WalReplayError` (real corruption).
"""

from __future__ import annotations

import os

import pytest

import repro.store.format
import repro.store.wal
from repro.api.errors import WalReplayError
from repro.shard import ShardedSnapshotStore
from repro.store.wal import WalRecord, WriteAheadLog, _encode_record

pytestmark = pytest.mark.tier1


@pytest.fixture()
def wal(tmp_path):
    return WriteAheadLog(str(tmp_path / "index.wal"))


def write_raw(wal, data: bytes) -> None:
    with open(wal.path, "wb") as handle:
        handle.write(data)


@pytest.fixture()
def directory_fsyncs(monkeypatch):
    """Record each directory fsync as ``(directory, index.wal exists)``."""
    calls = []
    real = repro.store.format._fsync_directory

    def record(directory):
        wal_path = os.path.join(directory, "index.wal")
        calls.append((os.path.abspath(directory), os.path.exists(wal_path)))
        real(directory)

    for module in (repro.store.format, repro.store.wal):
        monkeypatch.setattr(module, "_fsync_directory", record, raising=False)
    return calls


class TestCreationIsDurable:
    """Creating the log adds a directory entry; until the directory is
    fsynced, a crash can lose the file and every fsynced append in it."""

    def test_fresh_store_fsyncs_directory_after_creating_the_log(
        self, tmp_path, directory_fsyncs
    ):
        store_dir = str(tmp_path / "store")
        store = ShardedSnapshotStore(store_dir)
        store.open(["ann lee", "bob stone"])
        assert os.path.exists(store.wal.path)
        assert (os.path.abspath(store_dir), True) in directory_fsyncs

    @pytest.mark.parametrize("operation", ["append", "reset"])
    def test_creating_the_log_fsyncs_its_directory(
        self, wal, directory_fsyncs, operation
    ):
        if operation == "append":
            wal.append(["x"], base=0)
        else:
            wal.reset()
        directory = os.path.dirname(os.path.abspath(wal.path))
        assert directory_fsyncs == [(directory, True)]
        # An existing log is not a new directory entry.
        wal.append(["y"], base=1)
        wal.reset()
        assert directory_fsyncs == [(directory, True)]


class TestAppendReplay:
    def test_missing_file_replays_empty(self, wal):
        assert wal.replay() == []
        assert wal.record_count() == 0
        assert wal.size_bytes() == 0

    def test_round_trip_preserves_order_and_bases(self, wal):
        wal.append(["ann lee"], base=3)
        wal.append(["bob stone", "cara díaz"], base=4)
        assert wal.replay() == [
            WalRecord(3, ("ann lee",)),
            WalRecord(4, ("bob stone", "cara díaz")),
        ]
        assert not wal.torn_tail_truncated

    def test_reset_empties(self, wal):
        wal.append(["x"], base=0)
        wal.reset()
        assert wal.replay() == []
        assert wal.size_bytes() == 0

    def test_record_count_without_truncation(self, wal):
        wal.append(["x"], base=0)
        data = open(wal.path, "rb").read()
        write_raw(wal, data + data[: len(data) // 2])
        assert wal.record_count() == 1
        # record_count peeks; the torn tail is still on disk
        assert wal.size_bytes() > len(data)


class TestTornTail:
    """Every proper prefix of a valid log replays its intact records."""

    def test_every_prefix_replays_cleanly(self, tmp_path):
        records = [
            WalRecord(0, ("ann lee",)),
            WalRecord(1, ("bob stone", "cara díaz")),
            WalRecord(3, ()),
        ]
        full = b"".join(_encode_record(record) for record in records)
        boundaries = []
        offset = 0
        for record in records:
            offset += len(_encode_record(record))
            boundaries.append(offset)
        for cut in range(len(full) + 1):
            wal = WriteAheadLog(str(tmp_path / f"cut{cut}.wal"))
            write_raw(wal, full[:cut])
            survivors = wal.replay()
            intact = sum(1 for boundary in boundaries if boundary <= cut)
            assert [r.base for r in survivors] == [
                r.base for r in records[:intact]
            ], f"cut at {cut}"
            assert wal.torn_tail_truncated == (cut not in (0, *boundaries))

    def test_tail_is_physically_truncated(self, wal):
        wal.append(["ann lee"], base=0)
        clean_size = wal.size_bytes()
        with open(wal.path, "ab") as handle:
            handle.write(b"RWL1\x05")  # partial header: a torn append
        assert len(wal.replay()) == 1
        assert wal.torn_tail_truncated
        assert wal.size_bytes() == clean_size
        # the next append lands on a clean boundary
        wal.append(["bob stone"], base=1)
        wal2 = WriteAheadLog(wal.path)
        assert [r.base for r in wal2.replay()] == [0, 1]
        assert not wal2.torn_tail_truncated


class TestCorruption:
    def test_mid_file_bad_header_raises(self, wal):
        record = _encode_record(WalRecord(0, ("ann lee",)))
        damaged = bytearray(record)
        damaged[0] ^= 0xFF  # complete record, wrong magic
        write_raw(wal, bytes(damaged) + record)
        with pytest.raises(WalReplayError, match="bad record header"):
            wal.replay()

    def test_flipped_payload_byte_raises(self, wal):
        wal.append(["ann lee"], base=0)
        data = bytearray(open(wal.path, "rb").read())
        data[-6] ^= 0x01  # inside the JSON payload, trailer intact
        write_raw(wal, bytes(data))
        with pytest.raises(WalReplayError, match="checksum|bad record"):
            wal.replay()

    def test_absurd_length_field_is_corruption_not_allocation(self, wal):
        import struct
        import zlib

        length = 1 << 31
        header_crc = zlib.crc32(b"RWL1" + struct.pack("<I", length))
        write_raw(wal, struct.pack("<4sII", b"RWL1", length, header_crc))
        with pytest.raises(WalReplayError, match="bad record header"):
            wal.replay()

    def test_valid_frame_bad_json_raises(self, wal):
        import struct
        import zlib

        payload = b"not json at all"
        header_crc = zlib.crc32(b"RWL1" + struct.pack("<I", len(payload)))
        frame = (
            struct.pack("<4sII", b"RWL1", len(payload), header_crc)
            + payload
            + struct.pack("<I", zlib.crc32(payload))
        )
        write_raw(wal, frame)
        with pytest.raises(WalReplayError, match="undecodable"):
            wal.replay()

    def test_valid_json_wrong_shape_raises(self, wal):
        import json
        import struct
        import zlib

        payload = json.dumps({"base": -1, "names": ["x"]}).encode()
        header_crc = zlib.crc32(b"RWL1" + struct.pack("<I", len(payload)))
        frame = (
            struct.pack("<4sII", b"RWL1", len(payload), header_crc)
            + payload
            + struct.pack("<I", zlib.crc32(payload))
        )
        write_raw(wal, frame)
        with pytest.raises(WalReplayError, match="malformed"):
            wal.replay()

    def test_corruption_does_not_truncate(self, wal):
        record = _encode_record(WalRecord(0, ("ann lee",)))
        damaged = bytearray(record)
        damaged[0] ^= 0xFF
        write_raw(wal, bytes(damaged))
        size = os.path.getsize(wal.path)
        with pytest.raises(WalReplayError):
            wal.replay()
        # the evidence stays on disk for post-mortems; recovery happens
        # a layer up (rebuild + save resets the log)
        assert os.path.getsize(wal.path) == size
