"""Byte-flip fuzz: a damaged store never tracebacks, never lies.

The property, over random byte flips in the store's files:

* the strict path (``SnapshotStore.load``, the flat codec) either
  succeeds or raises a *typed* error (:class:`CorruptSnapshotError` /
  :class:`WalReplayError`) -- never any other exception;
* when it succeeds anyway (flips can land in alignment padding, which
  is deliberately outside the checksums), the loaded index answers
  byte-identically to a freshly built oracle -- corruption is either
  detected or semantically absent, never silently served;
* the serving path (``ShardedSnapshotStore.open(names=...)``, over a
  flat directory it must migrate and over the sharded layout) always
  comes up, and its answers match one of the two legitimate states: the
  durable corpus (load succeeded) or the boot corpus (degraded rebuild).
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.errors import CorruptSnapshotError, WalReplayError
from repro.service import SimilarityIndex
from repro.shard import ShardedSnapshotStore
from repro.store import SnapshotStore

pytestmark = pytest.mark.tier1

BOOT_NAMES = ["barak obama", "borak obama", "john smith", "jon smiht", "ann lee"]
APPENDED = ["veronika dahl", "tariq hassan"]
QUERIES = ("barak obana", "veronika dhal", "jon smith")

TYPED = (CorruptSnapshotError, WalReplayError)

#: The serving path's layout; the flat directory migrates into it.
N_SHARDS = 2


def pristine_files(layout: str) -> dict[str, bytes]:
    """One snapshot + one-record-per-append WAL, as ``{file: bytes}``."""
    with tempfile.TemporaryDirectory() as directory:
        if layout == "flat":
            store = SnapshotStore(directory)
            index = SimilarityIndex(BOOT_NAMES)
            store.save(index)
        else:
            store = ShardedSnapshotStore(directory)
            index = store.open(names=BOOT_NAMES, n_shards=N_SHARDS)
        for name in APPENDED:
            store.log_append([name], base=len(index))
            index.append([name])
        return {
            entry: open(os.path.join(directory, entry), "rb").read()
            for entry in os.listdir(directory)
        }


LAYOUTS = {layout: pristine_files(layout) for layout in ("flat", "sharded")}
SNAPSHOT_BYTES = LAYOUTS["flat"]["index.snap"]
WAL_BYTES = LAYOUTS["flat"]["index.wal"]

ORACLE_DURABLE = SimilarityIndex(BOOT_NAMES + APPENDED)
ORACLE_BOOT = SimilarityIndex(BOOT_NAMES)


def flip(data: bytes, positions, masks) -> bytes:
    damaged = bytearray(data)
    for position, mask in zip(positions, masks):
        damaged[position % len(damaged)] ^= mask
    return bytes(damaged)


@contextlib.contextmanager
def materialize(files: dict[str, bytes]):
    directory = tempfile.mkdtemp(prefix="fuzz-store-")
    try:
        for entry, data in files.items():
            with open(os.path.join(directory, entry), "wb") as handle:
                handle.write(data)
        yield directory
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def answers(index) -> list:
    return [index.topk(query, k=3) for query in QUERIES]


flips = st.tuples(
    st.lists(st.integers(min_value=0), min_size=1, max_size=8),
    st.lists(st.integers(min_value=1, max_value=255), min_size=8, max_size=8),
)


class TestStrictLoad:
    @settings(max_examples=60, deadline=None)
    @given(damage=flips, target=st.sampled_from(["snapshot", "wal"]))
    def test_typed_error_or_oracle_identical(self, damage, target):
        positions, masks = damage
        snapshot, wal = SNAPSHOT_BYTES, WAL_BYTES
        if target == "snapshot":
            snapshot = flip(snapshot, positions, masks)
        else:
            wal = flip(wal, positions, masks)
        with materialize({"index.snap": snapshot, "index.wal": wal}) as directory:
            store = SnapshotStore(directory)
            try:
                index = store.load()
            except TYPED:
                return  # detected: the contract holds
            # Survived: the flips must have been semantically absent
            # (padding) or behind a legitimately truncated torn tail.
            if len(index) == len(ORACLE_DURABLE):
                assert answers(index) == answers(ORACLE_DURABLE)
            else:
                # a torn-tail cut may lose a WAL suffix, never the snapshot
                assert len(index) >= len(ORACLE_BOOT)
                oracle = SimilarityIndex(index.names)
                assert answers(index) == answers(oracle)


class TestServingRecovery:
    @settings(max_examples=40, deadline=None)
    @given(
        damage=flips,
        layout=st.sampled_from(sorted(LAYOUTS)),
        target=st.integers(min_value=0),
    )
    def test_open_always_comes_up_serving(self, damage, layout, target):
        positions, masks = damage
        files = dict(LAYOUTS[layout])
        victim = sorted(files)[target % len(files)]
        files[victim] = flip(files[victim], positions, masks)
        with materialize(files) as directory:
            store = ShardedSnapshotStore(directory)
            index = store.open(names=BOOT_NAMES, n_shards=N_SHARDS)
            # Whatever happened, the process serves; and what it serves
            # is one of the two legitimate states, matched exactly.
            oracle = SimilarityIndex(index.names)
            assert answers(index) == answers(oracle)
            if store.rebuilds:
                assert index.names == list(BOOT_NAMES)
            else:
                assert index.names[: len(BOOT_NAMES)] == list(BOOT_NAMES)
            # and the recovery republished/kept a loadable sharded store
            assert not os.path.exists(os.path.join(directory, "index.snap"))
            reborn = ShardedSnapshotStore(directory)
            reloaded = reborn.open(names=BOOT_NAMES, n_shards=N_SHARDS)
            assert reloaded.names == index.names
            assert reborn.rebuilds == 0
