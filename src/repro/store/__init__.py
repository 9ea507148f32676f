"""Durable indexes: crash-safe snapshots, a write-ahead log, warm restart.

The persistence layer under ``Session(store_dir=...)``, ``Session.save``
/ ``Session.load`` and the CLI ``repro index save/load`` + ``repro serve
--store``:

* :mod:`repro.store.format` -- the versioned, checksummed, atomically
  published container file;
* :mod:`repro.store.snapshot` -- one-shard ``SimilarityIndex`` (or one
  shard kernel) <-> sections;
* :mod:`repro.store.wal` -- the fsync-before-mutate append log with
  torn-tail tolerance;
* :mod:`repro.store.store` -- :class:`SnapshotStore`, composing them
  into the flat layout's save / load / compact semantics (serving opens
  every directory through :class:`repro.shard.ShardedSnapshotStore`).
"""

from repro.store.format import (
    FORMAT_VERSION,
    MAGIC,
    read_snapshot_file,
    write_snapshot_file,
)
from repro.store.snapshot import index_from_sections, index_to_sections
from repro.store.store import SnapshotStore
from repro.store.wal import WalRecord, WriteAheadLog

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "SnapshotStore",
    "WalRecord",
    "WriteAheadLog",
    "index_from_sections",
    "index_to_sections",
    "read_snapshot_file",
    "write_snapshot_file",
]
