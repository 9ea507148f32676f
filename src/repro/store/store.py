""":class:`SnapshotStore`: the flat single-file layout of a durable index.

The store composes the container (:mod:`repro.store.format`), the
section codec (:mod:`repro.store.snapshot`) and the append log
(:mod:`repro.store.wal`) for one one-shard
:class:`~repro.service.SimilarityIndex`::

    store/
        index.snap   the latest atomic snapshot (previous one until the
                     publishing rename -- never a partial file)
        index.wal    appends acknowledged since that snapshot

* :meth:`save` publishes a snapshot atomically, then empties the WAL
  (order matters: a crash between the two leaves WAL records the
  snapshot already covers, which replay skips via their ``base``
  offsets -- never double-applies).
* :meth:`load` is the strict path: snapshot + WAL replay, raising the
  typed :class:`~repro.api.errors.CorruptSnapshotError` /
  :class:`~repro.api.errors.WalReplayError` on damage.
* :meth:`log_append` + :meth:`maybe_compact` are the write path: WAL
  first (fsynced), memory second, snapshot when the log grows past its
  thresholds.

Serving does not open this layout directly: every store directory goes
through :class:`repro.shard.ShardedSnapshotStore`, which borrows the
write path and the replay rule above, migrates a flat ``index.snap`` on
first open, and owns the degrade-to-rebuild path and the health block.
This class stays the flat file codec that migration, the one-shot
``Session.save`` export and the benchmarks use; it saves and loads a
one-shard index (saving a multi-shard one raises).

Chaos hooks: the container's writer passes ``store.write`` /
``store.fsync`` fault points (shared with :meth:`WriteAheadLog.append`),
and every replayed WAL record passes ``store.replay`` -- an injected fault
there surfaces as :class:`WalReplayError`, driving the degraded path
deterministically.
"""

from __future__ import annotations

import os

from repro.api.errors import WalReplayError
from repro.faults import FaultInjected, fault_point
from repro.store.format import read_snapshot_file, write_snapshot_file
from repro.store.snapshot import index_from_sections, index_to_sections
from repro.store.wal import WriteAheadLog

__all__ = ["SnapshotStore"]

SNAPSHOT_NAME = "index.snap"
WAL_NAME = "index.wal"


class SnapshotStore:
    """Flat snapshot + WAL files for one one-shard ``SimilarityIndex``.

    Parameters
    ----------
    directory:
        The store directory (created if missing).
    compact_after_records / compact_after_bytes:
        WAL growth thresholds past which :meth:`maybe_compact` cuts a
        fresh snapshot; either triggers.
    """

    def __init__(
        self,
        directory: str,
        *,
        compact_after_records: int = 256,
        compact_after_bytes: int = 1 << 20,
    ) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.snapshot_path = os.path.join(directory, SNAPSHOT_NAME)
        self.wal = WriteAheadLog(os.path.join(directory, WAL_NAME))
        self.compact_after_records = compact_after_records
        self.compact_after_bytes = compact_after_bytes
        self._wal_records = 0

    # -- the write path ---------------------------------------------------------

    def save(self, index) -> int:
        """Atomically publish a snapshot of ``index``; returns its size.

        The WAL empties only *after* the snapshot rename: a crash
        between the two leaves records the snapshot already covers,
        which replay skips by their ``base`` offsets.
        """
        written = write_snapshot_file(
            self.snapshot_path, index_to_sections(index)
        )
        self.wal.reset()
        self._wal_records = 0
        return written

    def log_append(self, names, base: int):
        """Durably log one append *before* the in-memory mutation."""
        record = self.wal.append(names, base)
        self._wal_records += 1
        return record

    def maybe_compact(self, index) -> bool:
        """Cut a fresh snapshot when the WAL outgrows its thresholds."""
        if (
            self._wal_records >= self.compact_after_records
            or self.wal.size_bytes() >= self.compact_after_bytes
        ):
            self.save(index)
            return True
        return False

    # -- the read path ----------------------------------------------------------

    def load(self):
        """The strict load: snapshot + WAL replay, typed errors on damage.

        Raises :class:`FileNotFoundError` when no snapshot exists,
        :class:`~repro.api.errors.CorruptSnapshotError` /
        :class:`~repro.api.errors.WalReplayError` when the store cannot
        be trusted.  A torn WAL tail is not damage: it is truncated and
        the intact prefix served.
        """
        index = index_from_sections(read_snapshot_file(self.snapshot_path))
        return self._replay_into(index, len(index))

    def _replay_into(self, index, snapshot_records: int):
        """Apply the WAL past a snapshot of ``snapshot_records`` records.

        The replay rule both store layouts share: a record whose
        ``base`` the snapshot already covers is skipped, one that does
        not continue the replayed prefix exactly is a gap
        (:class:`WalReplayError`), and an injected ``store.replay``
        fault surfaces as the same typed error.
        """
        records = self.wal.replay()
        pending: list[str] = []
        try:
            for record in records:
                fault_point("store.replay")
                if record.base < snapshot_records:
                    continue  # the snapshot already covers this append
                if record.base != snapshot_records + len(pending):
                    raise WalReplayError(
                        f"append log {self.wal.path!r} has a gap: record "
                        f"expects {record.base} records, snapshot+replay "
                        f"holds {snapshot_records + len(pending)}"
                    )
                pending.extend(record.names)
        except FaultInjected as exc:
            raise WalReplayError(f"replay failed: {exc}") from exc
        if pending:
            # One batched append: one length-partition sort for the whole
            # tail, not one per logged record.
            index.append(pending)
        self._wal_records = len(records)
        return index
