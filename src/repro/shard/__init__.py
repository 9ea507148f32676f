"""Sharded serving: partition, route, scatter-gather, persist.

* :class:`ShardedIndex` -- N-shard scatter-gather serving with the
  single-index surface and oracle-equal results/counters
  (:mod:`repro.shard.index`);
* placements -- ``length`` (Lemma 6 shard pruning) and ``hash``
  (uniform baseline) (:mod:`repro.shard.placement`);
* :class:`ShardedSnapshotStore` -- the durable store: per-shard
  snapshots + one global WAL, migrating flat directories on open
  (:mod:`repro.shard.store`).
"""

from repro.shard.index import ShardedIndex
from repro.shard.placement import PLACEMENTS, build_placement
from repro.shard.store import ShardedSnapshotStore

__all__ = [
    "PLACEMENTS",
    "ShardedIndex",
    "ShardedSnapshotStore",
    "build_placement",
]
