"""The write-ahead append log: fsync first, mutate memory second.

``Session.append`` (and the server's ``/v1/append`` route) must not lose
records across a crash, but cutting a full snapshot per append would
make appends O(index).  The classic answer is a WAL: each append writes
one durable record *before* the in-memory index mutates, so on restart
``snapshot + replay(WAL)`` reconstructs exactly the state every
acknowledged append saw.  Compaction (a fresh snapshot, then
:meth:`WriteAheadLog.reset`) bounds replay work.

Record framing (all integers little-endian)::

    RWL1 (4) | payload length u32 | header crc32 u32 | payload
    | payload crc32 u32

where the payload is a JSON object ``{"base": <records before the
append>, "names": [...]}``.  The framing distinguishes the two failure
shapes replay must treat differently, relying on the *prefix property*
of torn writes (a crash mid-append leaves a prefix of the record, never
scrambled middles -- the same assumption every journaling system makes):

* **torn tail** -- the file ends inside a record: fewer bytes than a
  header, or a valid header whose payload/trailer runs past EOF.  Only
  a crash mid-append produces this, so replay *truncates* the partial
  record and carries on; nothing acknowledged is ever behind the tear.
* **corruption** -- a complete record that fails its CRC, or a complete
  header that fails *its* CRC mid-file.  No torn write produces these,
  so replay raises the typed
  :class:`~repro.api.errors.WalReplayError` (degrading to a full
  rebuild one layer up) rather than guessing.

The ``base`` offset makes replay idempotent across the compaction crash
window: a fresh snapshot that crashed before :meth:`reset` leaves WAL
records describing appends the snapshot already contains -- replay skips
any record whose ``base`` is below the index's current length, and flags
a ``base`` *above* it (a gap: lost acknowledged data) as corruption.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

from repro.api.errors import WalReplayError
from repro.faults import fault_point
from repro.store.format import _fsync_directory

__all__ = ["WAL_MAGIC", "WalRecord", "WriteAheadLog"]

#: Per-record magic; version-bumped with the snapshot format.
WAL_MAGIC = b"RWL1"

_HEADER = struct.Struct("<4sII")  # magic, payload length, header crc
_TRAILER = struct.Struct("<I")  # payload crc

#: Sanity bound on one record's payload (a batch of appended names);
#: anything larger than this in a length field is corruption, not data.
_MAX_PAYLOAD = 1 << 30


class WalRecord:
    """One replayable append: the names added and the index size before."""

    __slots__ = ("base", "names")

    def __init__(self, base: int, names: tuple[str, ...]) -> None:
        self.base = base
        self.names = tuple(names)

    def __repr__(self) -> str:
        return f"WalRecord(base={self.base}, names={len(self.names)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WalRecord):
            return NotImplemented
        return self.base == other.base and self.names == other.names


def _encode_record(record: WalRecord) -> bytes:
    payload = json.dumps(
        {"base": record.base, "names": list(record.names)},
        ensure_ascii=False,
    ).encode("utf-8")
    header_crc = zlib.crc32(WAL_MAGIC + struct.pack("<I", len(payload)))
    return (
        _HEADER.pack(WAL_MAGIC, len(payload), header_crc)
        + payload
        + _TRAILER.pack(zlib.crc32(payload))
    )


class WriteAheadLog:
    """An append-only log of durable :class:`WalRecord` entries.

    ``append()`` is the durability barrier: it returns only after the
    record bytes are written *and fsynced*, so a crash at any later
    point (including before the in-memory index mutates) replays the
    append on the next boot.  ``replay()`` yields the surviving records
    in order, truncating a torn tail in place; ``reset()`` empties the
    log after a compaction snapshot has been published.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        #: Set by the last :meth:`replay`: whether a torn tail was cut.
        self.torn_tail_truncated = False

    # -- writing ----------------------------------------------------------------

    def append(self, names, base: int) -> WalRecord:
        """Durably log one append (names added atop ``base`` records)."""
        record = WalRecord(base, tuple(names))
        data = _encode_record(record)
        handle = self._open(os.O_APPEND | os.O_WRONLY)
        try:
            fault_point("store.write")
            os.write(handle, data)
            fault_point("store.fsync")
            os.fsync(handle)
        finally:
            os.close(handle)
        return record

    def reset(self) -> None:
        """Empty the log (the snapshot now covers everything in it)."""
        handle = self._open(os.O_TRUNC | os.O_WRONLY)
        try:
            os.fsync(handle)
        finally:
            os.close(handle)

    def _open(self, flags: int) -> int:
        """Open the log, creating it if missing; a creation is fsynced
        into the directory, so the file an fsynced append wrote to
        survives a crash (as :func:`~repro.store.format.write_snapshot_file`
        does for its rename)."""
        created = not os.path.exists(self.path)
        handle = os.open(self.path, os.O_CREAT | flags, 0o644)
        if created:
            _fsync_directory(os.path.dirname(os.path.abspath(self.path)))
        return handle

    # -- reading ----------------------------------------------------------------

    def record_count(self) -> int:
        """How many intact records the log currently holds (no truncation)."""
        try:
            data = self._read()
        except FileNotFoundError:
            return 0
        records, _ = self._parse(data)
        return len(records)

    def size_bytes(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def replay(self) -> list[WalRecord]:
        """The surviving records, oldest first; truncates a torn tail.

        A missing log file replays as empty.  A torn tail (see the module
        docstring) is cut off the file -- physically, so later appends
        start on a clean boundary -- and noted in
        :attr:`torn_tail_truncated`.  Mid-file corruption raises
        :class:`~repro.api.errors.WalReplayError`.
        """
        self.torn_tail_truncated = False
        try:
            data = self._read()
        except FileNotFoundError:
            return []
        records, good_end = self._parse(data)
        if good_end < len(data):
            self._truncate(good_end)
            self.torn_tail_truncated = True
        return records

    def _read(self) -> bytes:
        with open(self.path, "rb") as handle:
            return handle.read()

    def _parse(self, data: bytes) -> tuple[list[WalRecord], int]:
        """Decode records until EOF or a tear; corruption raises.

        Returns ``(records, offset of the first torn byte)`` -- the
        offset equals ``len(data)`` when the file ends cleanly.
        """
        records: list[WalRecord] = []
        offset = 0
        while offset < len(data):
            remaining = len(data) - offset
            if remaining < _HEADER.size:
                return records, offset  # torn: partial header at EOF
            magic, length, header_crc = _HEADER.unpack_from(data, offset)
            expected = zlib.crc32(magic + struct.pack("<I", length))
            if magic != WAL_MAGIC or header_crc != expected or length > _MAX_PAYLOAD:
                # A torn write cannot produce a *complete* bad header --
                # it produces a short one, handled above.
                raise WalReplayError(
                    f"corrupt append log {self.path!r}: bad record header "
                    f"at offset {offset}"
                )
            end = offset + _HEADER.size + length + _TRAILER.size
            if end > len(data):
                return records, offset  # torn: payload/trailer ran past EOF
            payload = data[offset + _HEADER.size : offset + _HEADER.size + length]
            (payload_crc,) = _TRAILER.unpack_from(data, offset + _HEADER.size + length)
            if zlib.crc32(payload) != payload_crc:
                raise WalReplayError(
                    f"corrupt append log {self.path!r}: payload checksum "
                    f"mismatch at offset {offset}"
                )
            records.append(self._decode_payload(payload, offset))
            offset = end
        return records, offset

    def _decode_payload(self, payload: bytes, offset: int) -> WalRecord:
        try:
            entry = json.loads(payload.decode("utf-8"))
            base = entry["base"]
            names = entry["names"]
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise WalReplayError(
                f"corrupt append log {self.path!r}: undecodable record "
                f"at offset {offset}: {exc}"
            ) from exc
        if (
            not isinstance(base, int)
            or base < 0
            or not isinstance(names, list)
            or not all(isinstance(name, str) for name in names)
        ):
            raise WalReplayError(
                f"corrupt append log {self.path!r}: malformed record "
                f"at offset {offset}"
            )
        return WalRecord(base, tuple(names))

    def _truncate(self, size: int) -> None:
        handle = os.open(self.path, os.O_WRONLY)
        try:
            os.ftruncate(handle, size)
            os.fsync(handle)
        finally:
            os.close(handle)
