"""The query-serving layer: resident indexes behind one serving API.

``repro.service`` turns the one-shot pipeline entry points into a
build-once/query-many system (see README.md "Query serving"):

* :class:`SimilarityIndex` -- the one serving index, for any shard
  count N >= 1 (``repro.ShardedIndex`` is the same class): the tokenized
  collection placed on N private shard kernels, each holding an
  interned :class:`repro.accel.Vocab` (with prebuilt Myers masks), the
  candidate-pipeline :class:`repro.candidates.PostingsIndex` and the
  Lemma 6 length partition of its records, serving ``join`` / ``topk``
  / ``within`` / ``append`` with one result cache and one set of
  counters;
* :class:`LRUCache` -- the bounded result cache with hit/miss counters;
* :mod:`repro.service.sharing` -- index publication to the shared
  worker pool (fork copy-on-write with an explicit one-time broadcast
  on spawn platforms, so pooled serving never re-ships per-task state)
  and both pooled modes: the one-shard batch fan-out and the
  multi-shard per-query scatter.
"""

from repro.service.cache import (
    COUNTER_CACHE_HITS,
    COUNTER_CACHE_MISSES,
    LRUCache,
)
from repro.service.index import SimilarityIndex

__all__ = [
    "COUNTER_CACHE_HITS",
    "COUNTER_CACHE_MISSES",
    "LRUCache",
    "SimilarityIndex",
]
