"""Sharded serving: placement and the durable store.

* :class:`ShardedIndex` -- the same class object as
  :class:`repro.service.SimilarityIndex`, the one serving index for any
  shard count N >= 1 (``ShardedIndex(names, n_shards=4)``): it places
  records on N private shard kernels and routes each probe to the
  kernels that can answer it, with results and counters equal for every
  N;
* placements -- ``length`` (Lemma 6 shard pruning) and ``hash``
  (uniform baseline) (:mod:`repro.shard.placement`);
* :class:`ShardedSnapshotStore` -- the durable store: per-shard
  snapshots + one global WAL, migrating flat directories on open
  (:mod:`repro.shard.store`).
"""

from repro.service import SimilarityIndex as ShardedIndex
from repro.shard.placement import PLACEMENTS, build_placement
from repro.shard.store import ShardedSnapshotStore

__all__ = [
    "PLACEMENTS",
    "ShardedIndex",
    "ShardedSnapshotStore",
    "build_placement",
]
