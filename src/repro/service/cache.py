"""The serving layer's bounded LRU result cache (re-exported).

The serving layer answers a skewed query stream: the same joins, top-k
batches and range probes recur endlessly once an index is resident, so
the second identical request should cost a dict probe, not a pipeline
run.  The cache class itself lives with the other cache primitives in
:mod:`repro.accel.vocab` (next to :class:`~repro.accel.vocab.BoundedCache`);
this module is the serving-facing name for it.

:data:`COUNTER_CACHE_HITS` / :data:`COUNTER_CACHE_MISSES` are the
canonical counter names under which
:class:`repro.service.SimilarityIndex` surfaces cache effectiveness next
to the candidate-pipeline cascade counters.

Examples
--------
>>> from repro.service import SimilarityIndex
>>> index = SimilarityIndex(["john smith", "jon smith", "mary jones"])
>>> first = index.topk(["jon smith"], k=1)
>>> index.topk(["jon smith"], k=1) == first  # the repeat is a cache hit
True
>>> index.counters[COUNTER_CACHE_HITS], index.counters[COUNTER_CACHE_MISSES]
(1, 1)
"""

from __future__ import annotations

from repro.accel.vocab import (
    COUNTER_CACHE_HITS,
    COUNTER_CACHE_MISSES,
    LRUCache,
)

__all__ = ["COUNTER_CACHE_HITS", "COUNTER_CACHE_MISSES", "LRUCache"]
