""":class:`ShardedSnapshotStore`: the durable store -- one directory, N
shard snapshots, one WAL.

Every store directory the serving stack opens goes through this class,
for any shard count N >= 1; it holds a
:class:`repro.service.SimilarityIndex` (``repro.ShardedIndex`` is the
same class) durable under one recovery contract::

    store/
        shards.manifest       layout: placement, shard -> global ids,
                              generation, snapshot record count
        shard-00-g3.snap      one atomic snapshot per shard kernel
        shard-01-g3.snap      (the ordinary section codec, reused)
        index.wal             appends acknowledged since the manifest

Two deliberate choices keep the flat layout's guarantees intact:

* **One global WAL, global ``base`` offsets.**  Appends log exactly the
  bytes the flat :class:`repro.store.SnapshotStore` would log (the
  index owns global record ids), so the WAL is byte-identical for the
  same append history, replay reuses the same skip/gap rules -- and
  migrating a flat directory never reinterprets the log.
* **Generation-suffixed shard snapshots, manifest-flip publication.**
  A snapshot of N shards is N files; writing them under the *next*
  generation's names and then atomically publishing the manifest (the
  same temp+fsync+rename container write, one section of JSON) means a
  crash anywhere mid-save leaves the previous generation complete and
  the manifest still pointing at it.  Old-generation files are removed
  only after the flip; orphans from a crashed save are swept on the
  next one.

:meth:`open` is the serving path.  A directory still holding a flat
``index.snap`` is migrated (same WAL file, same replay, then saved
sharded), and a manifest whose shard count or placement kind differs
from what the boot requested is resharded from the loaded records; both
preserve every acknowledged append.  Actual damage in either layout --
the typed :class:`~repro.api.errors.CorruptSnapshotError` /
:class:`~repro.api.errors.WalReplayError` -- **degrades to a full
rebuild** from the boot corpus, counted in
``runtime_counters()["store_rebuilds"]`` and in :meth:`status`, the same
observable-degradation pattern as the pool's crash recovery.  Records
that lived only in a damaged store are gone by definition; the corpus
the process was booted with is the recovery floor.
"""

from __future__ import annotations

import json
import os

from repro.api.errors import CorruptSnapshotError, ValidationError, WalReplayError
from repro.service import SimilarityIndex
from repro.shard.placement import placement_from_manifest
from repro.store.format import read_snapshot_file, write_snapshot_file
from repro.store.snapshot import (
    index_from_sections,
    shard_from_sections,
    shard_to_sections,
)
from repro.store.store import SNAPSHOT_NAME, WAL_NAME, SnapshotStore
from repro.store.wal import WriteAheadLog
from repro.tokenize import Tokenizer

__all__ = ["ShardedSnapshotStore"]

MANIFEST_NAME = "shards.manifest"

#: The manifest layout this build writes (inside the container's own
#: versioned framing); bump on any key change.
MANIFEST_VERSION = 1


class ShardedSnapshotStore:
    """Durable snapshot + WAL lifecycle for one :class:`SimilarityIndex`
    of any shard count (the session's ``store_dir``): ``open`` /
    ``load`` to read, ``log_append`` / ``maybe_compact`` / ``save`` to
    write, ``status`` for the health block."""

    def __init__(
        self,
        directory: str,
        *,
        compact_after_records: int = 256,
        compact_after_bytes: int = 1 << 20,
    ) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.manifest_path = os.path.join(directory, MANIFEST_NAME)
        self.flat_path = os.path.join(directory, SNAPSHOT_NAME)
        self.wal = WriteAheadLog(os.path.join(directory, WAL_NAME))
        self.compact_after_records = compact_after_records
        self.compact_after_bytes = compact_after_bytes
        self.rebuilds = 0
        self.loaded_from_snapshot = False
        #: Whether the last :meth:`open` changed the shard layout (a
        #: flat migration or an N/placement reshard) -- data
        #: preserved, so distinct from :attr:`rebuilds`.
        self.resharded = False
        self._wal_records = 0
        self._generation = 0

    def _shard_path(self, shard_index: int, generation: int) -> str:
        return os.path.join(
            self.directory, f"shard-{shard_index:02d}-g{generation}.snap"
        )

    # -- the write path ---------------------------------------------------------

    def save(self, index: SimilarityIndex) -> int:
        """Atomically publish a full sharded snapshot; returns bytes written.

        Per-shard snapshots (each recording ``cache_size`` 0: the index
        owns the one cache) land under the next generation's filenames
        first; the manifest flip is the publication point; the WAL
        empties and the previous generation is swept only after it.
        """
        generation = self._generation + 1
        written = 0
        for shard_index, shard in enumerate(index.shards):
            written += write_snapshot_file(
                self._shard_path(shard_index, generation),
                shard_to_sections(shard, index.tokenizer, index.backend, 0),
            )
        manifest = {
            "version": MANIFEST_VERSION,
            "generation": generation,
            "snapshot_records": len(index),
            "placement": index.placement.to_manifest(),
            "shard_ids": [list(ids) for ids in index._shard_ids],
            "cache_size": index.result_cache.capacity,
        }
        written += write_snapshot_file(
            self.manifest_path,
            {"manifest": json.dumps(manifest, ensure_ascii=False).encode("utf-8")},
        )
        self.wal.reset()
        self._wal_records = 0
        self._sweep(keep_generation=generation)
        self._generation = generation
        return written

    def _sweep(self, keep_generation: int) -> None:
        """Remove shard snapshots of any other generation (best effort):
        the flipped manifest no longer references them, whether they are
        the superseded set or orphans of a crashed save."""
        for entry in os.listdir(self.directory):
            if not (entry.startswith("shard-") and entry.endswith(".snap")):
                continue
            if f"-g{keep_generation}.snap" in entry:
                continue
            try:
                os.remove(os.path.join(self.directory, entry))
            except OSError:
                pass

    # One global WAL under global ``base`` offsets, so the flat store's
    # write path and replay rule apply verbatim.
    log_append = SnapshotStore.log_append
    maybe_compact = SnapshotStore.maybe_compact
    _replay_into = SnapshotStore._replay_into

    # -- the read path ----------------------------------------------------------

    def load(self, cache_size: int | None = None) -> SimilarityIndex:
        """The strict load: manifest + shard snapshots + WAL replay.

        Raises :class:`FileNotFoundError` when no manifest exists and
        the typed snapshot/WAL errors on damage; a torn WAL tail is
        truncated and the intact prefix served, exactly as flat.
        """
        manifest = self._read_manifest()
        try:
            placement = placement_from_manifest(manifest["placement"])
        except ValidationError as exc:
            raise CorruptSnapshotError(
                f"corrupt shard manifest {self.manifest_path!r}: {exc}"
            ) from exc
        shard_ids = manifest["shard_ids"]
        shards = []
        for shard_index in range(placement.n_shards):
            path = self._shard_path(shard_index, manifest["generation"])
            try:
                sections = read_snapshot_file(path, what=f"shard snapshot {path!r}")
            except FileNotFoundError:
                raise CorruptSnapshotError(
                    f"manifest generation {manifest['generation']} names "
                    f"missing shard snapshot {path!r}"
                ) from None
            shard, meta = shard_from_sections(sections)
            shards.append(shard)
        self._check_layout(manifest, shards, shard_ids)
        # Every shard's meta records the index's tokenizer and backend.
        index = SimilarityIndex.from_shards(
            shards,
            placement,
            shard_ids,
            tokenizer=Tokenizer(**meta["tokenizer"]),
            backend=meta["backend"],
            cache_size=(
                manifest["cache_size"] if cache_size is None else cache_size
            ),
        )
        index = self._replay_into(index, manifest["snapshot_records"])
        self._generation = manifest["generation"]
        self.loaded_from_snapshot = True
        return index

    def _read_manifest(self) -> dict:
        sections = read_snapshot_file(
            self.manifest_path, what=f"shard manifest {self.manifest_path!r}"
        )

        def fail(reason: str) -> CorruptSnapshotError:
            return CorruptSnapshotError(
                f"corrupt shard manifest {self.manifest_path!r}: {reason}"
            )

        payload = sections.get("manifest")
        if payload is None:
            raise fail("missing its manifest section")
        try:
            manifest = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise fail(f"undecodable: {exc}") from exc
        if (
            not isinstance(manifest, dict)
            or manifest.get("version") != MANIFEST_VERSION
            or not isinstance(manifest.get("generation"), int)
            or not isinstance(manifest.get("snapshot_records"), int)
            or manifest["snapshot_records"] < 0
            or not isinstance(manifest.get("placement"), dict)
            or not isinstance(manifest.get("shard_ids"), list)
            or not isinstance(manifest.get("cache_size"), int)
            or manifest["cache_size"] < 0
        ):
            raise fail("holds malformed fields")
        return manifest

    def _check_layout(self, manifest, shards, shard_ids) -> None:
        """Cross-check manifest vs. restored shards: the id lists must be
        a permutation of the global range and match shard sizes."""

        def fail(reason: str) -> CorruptSnapshotError:
            return CorruptSnapshotError(
                f"corrupt sharded store {self.directory!r}: {reason}"
            )

        if len(shard_ids) != len(shards):
            raise fail("manifest shard_ids and shard snapshots disagree on count")
        total = sum(len(shard) for shard in shards)
        if total != manifest["snapshot_records"]:
            raise fail(
                f"manifest claims {manifest['snapshot_records']} records, "
                f"shard snapshots hold {total}"
            )
        seen: set[int] = set()
        for shard, globals_ in zip(shards, shard_ids):
            if (
                not isinstance(globals_, list)
                or len(globals_) != len(shard)
                or not all(type(global_id) is int for global_id in globals_)
            ):
                raise fail("a shard's id list does not match its snapshot")
            if globals_ != sorted(globals_):
                raise fail("a shard's global ids are not ascending")
            seen.update(globals_)
        if seen != set(range(total)):
            raise fail("shard id lists are not a permutation of the records")

    def open(
        self,
        names=None,
        *,
        n_shards: int = 1,
        placement: str = "length",
        tokenizer=None,
        backend: str = "auto",
        cache_size: int = 256,
    ) -> SimilarityIndex:
        """The serving load: use the store, migrate/reshard, or degrade.

        In order of preference: load the sharded layout; migrate a
        directory still holding a flat ``index.snap`` (same WAL, same
        replay -- nothing acknowledged is lost); reshard when
        ``n_shards``/``placement`` differ from what is on disk; first-
        boot build from ``names``; and only for actual damage -- a typed
        snapshot/WAL error from either layout -- the counted degraded
        rebuild from the boot corpus (with no corpus to rebuild from the
        typed error propagates).  Every build publishes the manifest and
        retires a flat ``index.snap``.
        """

        def build(corpus, tokenizer=tokenizer) -> SimilarityIndex:
            index = SimilarityIndex(
                corpus,
                n_shards=n_shards,
                placement=placement,
                tokenizer=tokenizer,
                backend=backend,
                cache_size=cache_size,
            )
            self.save(index)
            try:
                os.remove(self.flat_path)
            except OSError:
                pass
            return index

        self.resharded = False
        try:
            loaded, flat = self._load_any(cache_size)
        except (CorruptSnapshotError, WalReplayError):
            if names is None:
                raise
            from repro.runtime import pool

            pool._bump("store_rebuilds")
            self.rebuilds += 1
            self.loaded_from_snapshot = False
            return build(names)
        if loaded is None:
            return build(names or ())  # first boot: nothing on disk yet
        self.loaded_from_snapshot = True
        if (
            not flat
            and len(loaded.shards) == n_shards
            and loaded.placement.kind == placement
        ):
            return loaded
        self.resharded = True
        return build(loaded.names, tokenizer or loaded.tokenizer)

    def _load_any(self, cache_size: int):
        """``(stored index, whether it came from a flat index.snap)``: the
        sharded layout, else a flat snapshot with the WAL replayed (to
        migrate), else ``(None, False)`` on a first boot.  Damage raises
        the typed errors."""
        try:
            return self.load(cache_size=cache_size), False
        except FileNotFoundError:
            pass
        try:
            flat = index_from_sections(read_snapshot_file(self.flat_path))
        except FileNotFoundError:
            if self.wal.size_bytes():
                # A WAL without its snapshot holds appends relative to
                # state that no longer exists: unrecoverable as-is.
                raise CorruptSnapshotError(
                    f"shard manifest {self.manifest_path!r} is missing "
                    "but its append log is not"
                ) from None
            return None, False
        return self._replay_into(flat, len(flat)), True

    # -- observability -----------------------------------------------------------

    def status(self) -> dict:
        """The ``store`` block for ``/v1/health`` and ``/v1/metrics``."""
        try:
            last_compaction = os.path.getmtime(self.manifest_path)
        except OSError:
            last_compaction = None
        return {
            "loaded": self.loaded_from_snapshot,
            "wal_records": self._wal_records,
            "last_compaction": last_compaction,
            "torn_tail_truncated": self.wal.torn_tail_truncated,
            "rebuilds": self.rebuilds,
            "sharded": True,
            "generation": self._generation,
            "resharded": self.resharded,
        }
