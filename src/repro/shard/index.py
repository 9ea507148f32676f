"""Sharded serving: one corpus, N :class:`SimilarityIndex` shards.

A :class:`ShardedIndex` partitions a corpus across N independent
:class:`repro.service.SimilarityIndex` shards by a pluggable
:mod:`placement <repro.shard.placement>` and serves the *identical*
public surface -- ``topk`` / ``within`` / ``join`` / ``append`` -- by
scatter-gather: route each request to the shards that can possibly
answer it, run the ordinary per-shard pipeline there (in-process or on
the shared :mod:`runtime.pool <repro.runtime.pool>` workers via
:mod:`repro.service.sharing` snapshot publication), and merge the
partial results under the canonical ``(distance, id)`` tie-break.

The router is where the paper's Lemma 6 earns its second keep.  Under
the ``length`` placement each shard owns a contiguous aggregate-length
range, so a probe's qualifying window ``[floor((1-r)L), ceil(L/(1-r))]``
intersects only some shards -- the others are *pruned before any probe
runs* (counted in :attr:`routing` as ``shards_pruned``), the same move
the per-index length partition makes one level down and the
partition-based MapReduce joins the paper benchmarks make one level up.

**Shard-count invariance** is the correctness contract, property-tested
in ``tests/shard/``: for any N, results, cascade/cache counters and join
reports are *equal to the single-index oracle*.  The design choices that
make that exact rather than approximate:

* the router owns the result cache and all counters.  Shards are built
  with ``cache_size=0`` and are driven through cache-free ``_shard_*``
  entry points, so a probed shard can never mint a cache miss the
  serial index would not have;
* cascade counters are *summed shard deltas*.  The per-shard Lemma 6
  windows partition the serial window (lengths don't overlap between a
  record and itself), so candidates/pruned/verified tallies add up to
  the oracle's exactly -- and a length-pruned shard would have
  contributed an empty window slice, making the skip counter-neutral;
* the top-k search (seeding, radius schedule, expansion memo) is
  re-run *globally* at the router -- it is the single index's own
  driver, shared verbatim, over merged per-shard overlap, verification
  and ``within`` primitives -- not approximated by merging per-shard
  top-k answers;
* the TSJ ``join`` runs over the global corpus through the existing
  engine (whose ``engine=`` fan-out already scatters the join itself):
  its signature partitioning is orthogonal to record placement, and
  routing it globally keeps reports, counters and simulated seconds
  byte-identical.

Routing observability (``shards_probed`` / ``shards_pruned`` /
``shards_total``) lives in the separate :attr:`routing` dict -- by
construction it must NOT perturb :attr:`counters`, which equal the
oracle's.
"""
from __future__ import annotations

import math
from typing import Sequence

from repro.candidates import new_counters
from repro.runtime.pool import in_worker_process, resilient_pool_map
from repro.service.cache import COUNTER_CACHE_HITS, COUNTER_CACHE_MISSES, LRUCache
from repro.service.index import SimilarityIndex
from repro.service.sharing import _counter_delta, resolve_snapshot
from repro.shard.placement import build_placement
from repro.tokenize import Tokenizer

__all__ = ["ShardedIndex"]


def _run_call(shard, call: tuple[str, tuple]):
    """Run one ``(method name, args)`` router call on a shard; return its
    result plus the shard's counter delta (the cascade tallies it made)."""
    method, args = call
    before = dict(shard.counters)
    result = getattr(shard, method)(*args)
    return result, _counter_delta(before, shard.counters)


def _shard_call(payload):
    """Pool-worker entry point: :func:`_run_call` against the worker's
    copy of a published shard; ``payload`` is ``(publish_token, call)``."""
    token, call = payload
    return _run_call(resolve_snapshot(token), call)


class ShardedIndex:
    """N-shard scatter-gather serving with the single-index surface.

    Parameters
    ----------
    names:
        The corpus; tokenized once at the router for placement/join and
        once more inside each owning shard's build.
    n_shards:
        Number of :class:`SimilarityIndex` partitions.
    placement:
        ``"length"`` (Lemma 6 shard pruning; the default) or ``"hash"``
        (uniform baseline) -- see :mod:`repro.shard.placement`.
        Placement affects balance and pruning only, never results.
    tokenizer / backend / cache_size:
        As :class:`SimilarityIndex`.  ``cache_size`` bounds the
        *router's* LRU; shards run cache-free.

    Examples
    --------
    >>> index = ShardedIndex(
    ...     ["barak obama", "borak obama", "john smith"], n_shards=2
    ... )
    >>> index.topk(["barak obana"], k=2)[0][0]
    ('barak obama', 0.09523809523809523)
    """

    def __init__(
        self,
        names: Sequence[str] = (),
        n_shards: int = 2,
        placement: str = "length",
        tokenizer: Tokenizer | None = None,
        backend: str = "auto",
        cache_size: int = 256,
    ) -> None:
        self.tokenizer = tokenizer or Tokenizer()
        self.backend = backend
        records = [self.tokenizer.tokenize(name) for name in names]
        built = build_placement(
            placement,
            n_shards,
            [record.aggregate_length for record in records],
        )
        shards = [
            SimilarityIndex(tokenizer=self.tokenizer, backend=backend, cache_size=0)
            for _ in range(built.n_shards)
        ]
        self._init_router_state(shards, built, cache_size)
        if names:
            self._place(names, records)

    @classmethod
    def from_shards(
        cls,
        shards: Sequence[SimilarityIndex],
        placement,
        shard_ids: Sequence[Sequence[int]],
        tokenizer: Tokenizer | None = None,
        backend: str = "auto",
        cache_size: int = 256,
    ) -> "ShardedIndex":
        """Assemble a router over already-built shards (the store's path).

        ``shard_ids[i]`` lists shard ``i``'s global record ids in local
        order; the global views are rebuilt from the shards' own
        records, so nothing is re-tokenized.
        """
        index = cls.__new__(cls)
        index.tokenizer = tokenizer or Tokenizer()
        index.backend = backend
        index._init_router_state(list(shards), placement, cache_size)
        total = sum(len(shard) for shard in shards)
        index._names = [None] * total
        index._records = [None] * total
        index._locations = [None] * total
        for shard_index, (shard, globals_) in enumerate(zip(shards, shard_ids)):
            index._shard_ids[shard_index] = list(globals_)
            for local_id, global_id in enumerate(globals_):
                index._names[global_id] = shard.names[local_id]
                index._records[global_id] = shard.records[local_id]
                index._locations[global_id] = (shard_index, local_id)
        return index

    def _init_router_state(self, shards, placement, cache_size: int) -> None:
        self.shards: list[SimilarityIndex] = shards
        self.placement = placement
        self._names: list[str] = []
        self._records: list = []
        #: global id -> ``(shard index, local id)``.
        self._locations: list[tuple[int, int]] = []
        #: shard index -> its global ids in local order (ascending).
        self._shard_ids: list[list[int]] = [[] for _ in shards]
        self._cache = LRUCache(cache_size)
        #: Oracle-equal serving counters (cascade + router cache).
        self.counters: dict[str, int] = new_counters()
        self.counters[COUNTER_CACHE_HITS] = 0
        self.counters[COUNTER_CACHE_MISSES] = 0
        #: Scatter bookkeeping, deliberately *outside* :attr:`counters`:
        #: per cascade ``within`` pass, every shard is tallied probed or
        #: pruned (Lemma 6 window vs. the shard's actual length range).
        self.routing: dict[str, int] = {
            "shards_total": len(shards),
            "shards_probed": 0,
            "shards_pruned": 0,
        }

    def _place(self, names: Sequence[str], records: Sequence) -> None:
        """Route new records to their owners, preserving global order."""
        batches: dict[int, list[str]] = {}
        for name, record in zip(names, records):
            global_id = len(self._records)
            shard_index = self.placement.shard_of(
                global_id, record.aggregate_length
            )
            shard_globals = self._shard_ids[shard_index]
            self._locations.append((shard_index, len(shard_globals)))
            shard_globals.append(global_id)
            self._names.append(name)
            self._records.append(record)
            batches.setdefault(shard_index, []).append(name)
        for shard_index, batch in batches.items():
            self.shards[shard_index].append(batch)

    # -- collection surface -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    @property
    def names(self) -> list[str]:
        """The indexed raw names in global insertion order (do not mutate)."""
        return self._names

    @property
    def records(self) -> list:
        """The tokenized corpus, aligned with :attr:`names`."""
        return self._records

    @property
    def result_cache(self) -> LRUCache:
        """The router's bounded LRU result cache."""
        return self._cache

    def append(self, names: Sequence[str], base: int | None = None) -> None:
        """Append routed to the owning shards; same idempotency contract
        as :meth:`SimilarityIndex.append` (``base`` names the global
        record count the caller saw; exact replays are no-ops)."""
        names = list(names)  # one-shot iterables are read exactly once
        if base is not None and self._check_append_base(names, base):
            return
        self._place(names, [self.tokenizer.tokenize(name) for name in names])
        if names:
            self._cache.clear()

    def stats(self) -> dict[str, int]:
        """Aggregate size snapshot plus router-level cache size."""
        totals = {
            "records": len(self._records),
            "distinct_tokens": 0,
            "token_postings": 0,
            "cached_results": len(self._cache),
        }
        for shard in self.shards:
            shard_stats = shard.stats()
            totals["distinct_tokens"] += shard_stats["distinct_tokens"]
            totals["token_postings"] += shard_stats["token_postings"]
        return totals

    def shard_status(self) -> dict:
        """The health/metrics shard block: layout, sizes, routing tallies."""
        return {
            "shards": len(self.shards),
            "placement": self.placement.to_manifest(),
            "sizes": [len(shard) for shard in self.shards],
            "routing": dict(self.routing),
        }

    def unpublish(self) -> None:
        """Withdraw every shard's pool publication (see
        :meth:`SimilarityIndex.unpublish`)."""
        for shard in self.shards:
            shard.unpublish()

    # -- serving ---------------------------------------------------------------

    def topk(
        self,
        queries: Sequence[str] | str,
        k: int = 5,
        processes: int | None = None,
    ) -> list[list[tuple[str, float]]]:
        """As :meth:`SimilarityIndex.topk`, scatter-gathered.

        ``processes > 1`` parallelizes each query's scatter *across
        shards* on the shared pool (the serve loop stays serial over
        queries -- see :meth:`_scatter`).
        """
        if k < 1:
            raise ValueError("k must be positive")
        if isinstance(queries, str):
            queries = [queries]
        return [self._topk_one(query, k, processes or 0) for query in queries]

    def within(
        self,
        queries: Sequence[str] | str,
        radius: float,
        processes: int | None = None,
    ) -> list[list[tuple[str, float]]]:
        """As :meth:`SimilarityIndex.within`, scatter-gathered with
        Lemma 6 shard pruning."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        if isinstance(queries, str):
            queries = [queries]
        return [self._within_one(query, radius, processes or 0) for query in queries]

    # The single index's drivers, shared verbatim: this router holds the
    # same cache/counter/name/record state and implements the probe
    # primitives below by scatter-gather, so results, cache keys and
    # counters cannot drift from the 1-index oracle.
    prepare = SimilarityIndex.prepare
    _check_append_base = SimilarityIndex._check_append_base
    _cache_get = SimilarityIndex._cache_get
    _cache_put = SimilarityIndex._cache_put
    join = SimilarityIndex.join
    _topk_one = SimilarityIndex._topk_one
    _within_one = SimilarityIndex._within_one
    _cascade_topk = SimilarityIndex._cascade_topk

    # -- scatter-gather primitives ------------------------------------------------

    def _scatter(
        self, calls: dict[int, tuple[str, tuple]], processes: int
    ) -> list[tuple[list[int], object]]:
        """Run one ``(method name, args)`` call per listed shard.

        Returns ``(shard's global ids, result)`` pairs in ``calls``
        order, and merges every shard's counter delta into
        :attr:`counters` (this is what makes the summed cascade tallies
        oracle-equal).  ``processes > 1`` runs the calls on the shared
        pool: pooling fans *shards* out per request -- the serve loop
        stays serial over queries so router cache semantics match the
        serial index exactly, duplicates and LRU recency included.
        """
        items = list(calls.items())
        if processes > 1 and len(items) > 1 and not in_worker_process():
            payloads = [
                (self.shards[index].ensure_published(), call) for index, call in items
            ]
            outcomes = resilient_pool_map(
                _shard_call, payloads, min(processes, len(items)), label="shard scatter"
            )
        else:
            outcomes = [_run_call(self.shards[index], call) for index, call in items]
        counters = self.counters
        gathered = []
        for (index, _), (result, delta) in zip(items, outcomes):
            for name, value in delta.items():
                counters[name] = counters.get(name, 0) + value
            gathered.append((self._shard_ids[index], result))
        return gathered

    def _nonempty(self) -> list[int]:
        return [index for index, shard in enumerate(self.shards) if len(shard)]

    def _plan_within(self, aggregate_length: int, radius: float) -> list[int]:
        """Shard indexes whose length range intersects the Lemma 6 window.

        The pruning decision uses each shard's *actual* held range, not
        the placement's nominal boundaries, so correctness is placement-
        independent; a pruned shard's window slice would have been empty,
        making the skip invisible to :attr:`counters`.  Every shard is
        tallied probed or pruned in :attr:`routing` per pass.
        """
        if radius >= 1.0:
            low, high = None, None
        else:
            low = math.floor((1.0 - radius) * aggregate_length)
            high = math.ceil(aggregate_length / (1.0 - radius))
        probed: list[int] = []
        for index, shard in enumerate(self.shards):
            held = shard.length_range()
            if held is not None and (
                low is None or (held[1] >= low and held[0] <= high)
            ):
                probed.append(index)
                self.routing["shards_probed"] += 1
            else:
                self.routing["shards_pruned"] += 1
        return probed

    def _probe(self, query: str, processes: int = 0) -> tuple[str, int]:
        """Shards prepare queries themselves; the router's probe is the
        raw query plus the scatter width."""
        return query, processes

    def _overlap(self, probe) -> dict[int, int]:
        """The merged per-shard postings overlaps, under global ids (the
        shards' record sets are disjoint)."""
        query, processes = probe
        calls = {index: ("_shard_overlap", (query,)) for index in self._nonempty()}
        return {
            globals_[local]: count
            for globals_, overlap in self._scatter(calls, processes)
            for local, count in overlap.items()
        }

    def _verify(self, probe, record_ids: Sequence[int]) -> dict[int, float]:
        """Exact distances to global records, verified where they live."""
        query, processes = probe
        by_shard: dict[int, list[int]] = {}
        for global_id in record_ids:
            shard_index, local_id = self._locations[global_id]
            by_shard.setdefault(shard_index, []).append(local_id)
        calls = {
            index: ("_shard_verify", (query, local_ids))
            for index, local_ids in by_shard.items()
        }
        return {
            globals_[local]: distance
            for globals_, distances in self._scatter(calls, processes)
            for local, distance in distances.items()
        }

    def _within_ids(
        self, probe, radius: float, known: dict[int, float] | None = None
    ) -> list[tuple[int, float]]:
        """One global ``within`` pass: plan, scatter, merge.

        Returns global ``(record id, distance)`` hits under the oracle's
        ``(distance, id)`` order; when ``known`` is given (the top-k
        expansion memo, global ids) it is sliced per shard on the way
        out and extended with the fresh exact distances on the way back.
        """
        query, processes = probe
        record = self.tokenizer.tokenize(query)
        calls: dict[int, tuple[str, tuple]] = {}
        for index in self._plan_within(record.aggregate_length, radius):
            local_known = None
            if known is not None:
                local_known = {}
                for global_id, distance in known.items():
                    shard_index, local_id = self._locations[global_id]
                    if shard_index == index:
                        local_known[local_id] = distance
            calls[index] = ("_shard_within", (query, radius, local_known))
        merged: list[tuple[float, int]] = []
        for globals_, (hits, fresh) in self._scatter(calls, processes):
            merged.extend((distance, globals_[local]) for local, distance in hits)
            if known is not None:
                for local, distance in fresh.items():
                    known[globals_[local]] = distance
        merged.sort()
        return [(global_id, distance) for distance, global_id in merged]
