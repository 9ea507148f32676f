"""The resident :class:`SimilarityIndex`: build once, query many.

A one-shot entry point such as :func:`repro.core.nsld_join` pays full
index construction per call: tokenize the collection, intern the
tokens, precompute the Myers ``Peq`` masks, build the postings, then
answer exactly one request and throw everything away.  A serving system
does the opposite: construction is rare, queries are endless.

:class:`SimilarityIndex` is the one serving index for any shard count
N >= 1 (``repro.ShardedIndex`` is the same class).  It tokenizes the
collection once and places each record on one of N private shard
kernels (:mod:`placement <repro.shard.placement>`); a kernel holds its
records' interned :class:`repro.accel.Vocab` (Myers masks prebuilt),
token postings (:class:`repro.candidates.PostingsIndex`), Lemma 6
length order and dense token-length histogram ids.  The index owns the
global/local id maps, the result cache, the counters and the routing
tallies, and serves:

* :meth:`~SimilarityIndex.join` -- the full TSJ self-join,
  byte-identical to :func:`repro.core.nsld_join` (same pairs, same
  counters, same simulated seconds) with tokenization amortized away;
* :meth:`~SimilarityIndex.topk` / :meth:`~SimilarityIndex.within` --
  each query tokenized once; a ``within`` pass skips the kernels whose
  length range misses the Lemma 6 window, and each probed kernel runs
  its window, the Lemma 6 length filter and the histogram lower-bound
  prune -- decided once per *distinct* token-length histogram, charged
  to the canonical cascade counters -- then exact verification.  The
  top-k search runs globally over the kernels' merged answers.  The
  probe is pure Python: ``backend`` only picks the verification kernel;
* :meth:`~SimilarityIndex.append` -- incremental growth in place;
* a bounded LRU result cache, so repeated requests cost a dict probe.

An index is picklable and can be published to the shared worker pool
(:mod:`repro.service.sharing`): one shard fans ``processes > 1`` query
batches out, more shards scatter each query's kernel calls.

Correctness contract (property-tested in ``tests/service/`` and
``tests/shard/``): ``topk``/``within`` agree exactly with the
brute-force NSLD oracle; results *and counters* are the same for every
shard count and placement, after ``append`` as after a rebuild, and
pooled as in process.
"""

from __future__ import annotations

import itertools
import math
import os
from bisect import bisect_left, bisect_right
from collections import Counter
from typing import Sequence

from repro.accel import Vocab, resolve_backend
from repro.candidates import (
    COUNTER_CANDIDATES,
    COUNTER_PRUNED_COUNT,
    COUNTER_PRUNED_LENGTH,
    COUNTER_VERIFIED,
    HistogramBoundFilter,
    PostingsIndex,
    new_counters,
    verify_nld_pairs,
)
from repro.distances.setwise import nsld, nsld_length_lower_bound
from repro.service.cache import COUNTER_CACHE_HITS, COUNTER_CACHE_MISSES, LRUCache
from repro.service.sharing import (
    publish_snapshot,
    scatter,
    serve_batch,
    unpublish_snapshot,
)
from repro.tokenize import TokenizedString, Tokenizer
from repro.tsj.jobs import encode_histogram

#: Upper bound on token-postings seeds fully verified per top-k query
#: (as a multiple of ``k``, floored at ``_MIN_SEED_CAP``).  Seeding only
#: tightens the initial search radius; capping it never loses results.
_SEED_FACTOR = 4
_MIN_SEED_CAP = 32

_MISS = object()
_SHARE_KEYS = itertools.count()


def _share_key() -> str:
    """A fresh pool-publication identity (see :meth:`ensure_published`)."""
    return f"{os.getpid()}-{next(_SHARE_KEYS)}"


class SimilarityIndex:
    """The resident NSLD serving index over N >= 1 shards.

    Parameters
    ----------
    names:
        The collection to index (raw strings; tokenized once, here).
    tokenizer:
        Defaults to whitespace+punctuation with case folding -- the same
        default as :func:`repro.core.nsld_join`, so :meth:`join` results
        are byte-identical.
    backend:
        Edit-distance kernel for verification (``"auto" | "dp" |
        "bitparallel" | "vector"``; results and counters are
        backend-invariant, the probe itself does not depend on it).
    cache_size:
        Capacity of the LRU result cache (0 disables result caching).
    n_shards:
        Number of shard kernels the records are placed on.  Results and
        counters do not depend on it; one shard has nothing to scatter.
    placement:
        ``"length"`` (Lemma 6 shard pruning; the default) or ``"hash"``
        (uniform baseline) -- see :mod:`repro.shard.placement`.
        Placement affects balance and pruning only, never results.

    Notes
    -----
    The result cache is bounded; the *interning* tables are not, by
    design (the same trade as :func:`repro.accel.token_vocab`): a kernel
    vocab grows with every distinct token seen -- including novel
    *query* tokens, whose masks and memoized distances are what make
    repeated probes cheap -- and the probe filter's bound memo grows with
    distinct histogram pairs.  A deployment streaming an unbounded
    adversarial query vocabulary should rebuild the index at run
    boundaries (``SimilarityIndex(index.names)``), exactly as
    :func:`repro.accel.reset_token_vocab` is the documented valve for the
    process-wide vocab.

    Examples
    --------
    >>> index = SimilarityIndex(["barak obama", "borak obama", "john smith"])
    >>> index.topk(["barak obana"], k=2)[0][0]
    ('barak obama', 0.09523809523809523)
    >>> [name for name, _ in index.within(["john smith"], radius=0.1)[0]]
    ['john smith']
    >>> SimilarityIndex(index.names, n_shards=2).topk("barak obana", k=1)
    [[('barak obama', 0.09523809523809523)]]
    """

    def __init__(
        self,
        names: Sequence[str] = (),
        tokenizer: Tokenizer | None = None,
        backend: str = "auto",
        cache_size: int = 256,
        n_shards: int = 1,
        placement: str = "length",
    ) -> None:
        # Imported here: repro.shard re-exports this class.
        from repro.shard.placement import build_placement

        self.tokenizer = tokenizer or Tokenizer()
        self.backend = backend
        names = list(names)  # one-shot iterables are read exactly once
        records = [self.tokenizer.tokenize(name) for name in names]
        built = build_placement(
            placement, n_shards, [record.aggregate_length for record in records]
        )
        kernels = [_ShardKernel(backend) for _ in range(built.n_shards)]
        self._init_state(kernels, built, cache_size)
        self._place(names, records)

    @classmethod
    def from_shards(
        cls,
        shards: Sequence["_ShardKernel"],
        placement,
        shard_ids: Sequence[Sequence[int]],
        tokenizer: Tokenizer | None = None,
        backend: str = "auto",
        cache_size: int = 256,
    ) -> "SimilarityIndex":
        """Assemble an index over already-built kernels (the stores' path).

        ``shard_ids[i]`` lists kernel ``i``'s global record ids in local
        order; the global views are rebuilt from the kernels' own
        records, so nothing is re-tokenized.
        """
        index = cls.__new__(cls)
        index.tokenizer = tokenizer or Tokenizer()
        index.backend = backend
        index._init_state(list(shards), placement, cache_size)
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

    def _init_state(self, shards, placement, cache_size: int) -> None:
        #: The private shard kernels, in placement order.
        self.shards: list[_ShardKernel] = shards
        self.placement = placement
        self._names: list[str] = []
        self._records: list[TokenizedString] = []
        #: global id -> ``(shard index, local id)``.
        self._locations: list[tuple[int, int]] = []
        #: shard index -> its global ids in local order (ascending).
        self._shard_ids: list[list[int]] = [[] for _ in shards]
        self._cache = LRUCache(cache_size)
        #: Stable identity for pool-publication bookkeeping.
        self.share_key = _share_key()
        self._published: str | None = None
        #: Canonical cascade + result-cache counters (cumulative).
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
        """Route new records to their owners, preserving global order;
        each owner indexes this index's own record object."""
        batches: dict[int, list[tuple]] = {}
        for name, record in zip(names, records):
            global_id = len(self._records)
            shard_index = self.placement.shard_of(global_id, record.aggregate_length)
            shard_globals = self._shard_ids[shard_index]
            self._locations.append((shard_index, len(shard_globals)))
            shard_globals.append(global_id)
            self._names.append(name)
            self._records.append(record)
            batches.setdefault(shard_index, []).append((name, record))
        for shard_index, batch in batches.items():
            self.shards[shard_index].extend(batch)

    # -- growth -------------------------------------------------------------------

    def append(self, names: Sequence[str], base: int | None = None) -> None:
        """Extend the collection in place -- no rebuild.

        New records extend their kernel's vocab interner (masks
        prebuilt), token postings and length order incrementally;
        querying an appended index returns exactly what a fresh build
        over the full collection would (property-tested).  Cached results
        are invalidated, and a pool-published index is re-published on
        its next pooled serve.

        ``base`` makes the append **idempotent** under at-least-once
        delivery (the retrying ``/v1/append`` path): it names how many
        records the caller believes the index held before this append.
        ``base == len(self)`` appends normally; ``base < len(self)``
        with ``names`` matching the already-indexed slice exactly is a
        replay of an acknowledged append and becomes a no-op; anything
        else -- a mismatching replay or a ``base`` past the end -- is a
        lost-update conflict and raises
        :class:`~repro.api.errors.ValidationError`.
        """
        names = list(names)  # one-shot iterables are read exactly once
        if base is not None and self._check_append_base(names, base):
            return
        self._place(names, [self.tokenizer.tokenize(name) for name in names])
        if names:
            self._cache.clear()
            self.unpublish()  # the next pooled serve re-publishes

    def _check_append_base(self, names: Sequence[str], base: int) -> bool:
        """Validate an append's ``base`` offset; True when it is a replay.

        A replay is an exact duplicate of records ``base ..
        base+len(names)`` already in the collection -- the shape a
        retried-but-already-acknowledged append produces.
        """
        from repro.api.errors import ValidationError

        held = len(self._records)
        if base == held:
            return False
        if base > held:
            raise ValidationError(
                f"append base {base} is past the end: the index holds "
                f"{held} records (acknowledged data was lost?)"
            )
        stop = base + len(names)
        if stop <= held and self._names[base:stop] == list(names):
            return True
        raise ValidationError(
            f"append at base {base} conflicts with the {held}-record "
            "index: the replayed names do not match what is already "
            "indexed there"
        )

    # -- collection surface -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    @property
    def names(self) -> list[str]:
        """The indexed raw names, in insertion order (do not mutate)."""
        return self._names

    @property
    def records(self) -> list[TokenizedString]:
        """The tokenized collection, aligned with :attr:`names`."""
        return self._records

    def _only_shard(self, what: str) -> "_ShardKernel":
        if len(self.shards) != 1:
            raise ValueError(
                f"{what} is per shard and this index has {len(self.shards)} "
                "shards; read it from each of index.shards instead"
            )
        return self.shards[0]

    @property
    def vocab(self) -> Vocab:
        """The token interner of a one-shard index (instrumentation)."""
        return self._only_shard("vocab")._vocab

    @property
    def token_postings(self) -> PostingsIndex:
        """The shared-token probe index of a one-shard index (interned
        token id -> record ids)."""
        return self._only_shard("token_postings")._token_postings

    @property
    def result_cache(self) -> LRUCache:
        """The bounded LRU result cache (exposed for instrumentation).

        The cache object's own hit/miss counters are process-local;
        :attr:`counters` is the aggregated view, which pooled serving
        extends with the workers' deltas.
        """
        return self._cache

    def stats(self) -> dict[str, int]:
        """Size snapshot: records, distinct tokens, postings, cached results
        (tokens and postings summed over the shards)."""
        return {
            "records": len(self._records),
            "distinct_tokens": sum(len(shard._vocab) for shard in self.shards),
            "token_postings": sum(
                shard._token_postings.total_postings for shard in self.shards
            ),
            "cached_results": len(self._cache),
        }

    def shard_status(self) -> dict:
        """The health/metrics shard block: layout, sizes, routing tallies."""
        return {
            "shards": len(self.shards),
            "placement": self.placement.to_manifest(),
            "sizes": [len(shard) for shard in self.shards],
            "routing": dict(self.routing),
        }

    def prepare(self, *methods: str) -> "SimilarityIndex":
        """Return ``self``: construction already built everything serving
        needs.  Kept so callers that time build and query apart (the
        layered benchmark's ``prepare("cascade")``) keep working."""
        return self

    # -- pickling / pool publication ------------------------------------------

    def __getstate__(self) -> dict:
        # Publication tokens are per-process.
        state = dict(self.__dict__)
        state["_published"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # A clone is a distinct publishable identity: keeping the
        # original's share_key would make the clone's publication evict
        # the original's from the sharing registry.
        self.share_key = _share_key()

    def ensure_published(self) -> str:
        """Publish this index to the shared pool once; return its token."""
        if self._published is None:
            self._published = publish_snapshot(self)
        return self._published

    def unpublish(self) -> None:
        """Withdraw this index from the shared pool.

        A publication pins the index in the process-wide registry and in
        the pool start-up payload; a long-lived server discarding an
        index should unpublish it first (``append`` does this
        automatically before its re-publication).  Safe to call when
        never published; the next pooled serve re-publishes.
        """
        unpublish_snapshot(self)
        self._published = None

    # -- result cache ----------------------------------------------------------

    def _cache_get(self, key):
        value = self._cache.get(key, _MISS)
        if value is _MISS:
            self.counters[COUNTER_CACHE_MISSES] += 1
            return None
        self.counters[COUNTER_CACHE_HITS] += 1
        return value

    def _cache_put(self, key, value) -> None:
        self._cache.put(key, value)

    # -- the full join ----------------------------------------------------------

    def join(
        self,
        threshold: float = 0.1,
        max_token_frequency: int | None = 1000,
        n_machines: int = 10,
        engine: str = "auto",
        **config_overrides,
    ):
        """TSJ self-join of the collection; byte-identical to ``nsld_join``.

        Tokenization is amortized into the index and the resulting
        :class:`repro.core.JoinReport` -- same pairs, same clusters, same
        counters, same simulated seconds as
        ``nsld_join(index.names, ...)`` -- is cached in the LRU, so a
        repeated join costs a dict probe.  The join runs over the global
        corpus (its signature partitioning is orthogonal to record
        placement), so the report is shard-count invariant.  ``engine``
        is excluded from the cache key on purpose: results and simulated
        seconds are engine-invariant by construction, so a serial-run
        cache entry answers a parallel request too.  Treat returned
        reports as read-only (cache hits return the same object).
        """
        key = (
            "join",
            threshold,
            max_token_frequency,
            n_machines,
            tuple(sorted(config_overrides.items())),
        )
        cached = self._cache_get(key)
        if cached is not None:
            return cached
        from repro.core.api import join_records

        report = join_records(
            self._names,
            self._records,
            threshold=threshold,
            max_token_frequency=max_token_frequency,
            n_machines=n_machines,
            engine=engine,
            **config_overrides,
        )
        self._cache_put(key, report)
        return report

    # -- batched probe paths -----------------------------------------------------

    def topk(
        self,
        queries: Sequence[str] | str,
        k: int = 5,
        processes: int | None = None,
    ) -> list[list[tuple[str, float]]]:
        """The ``k`` best matches per query, one result list per query.

        Exact NSLD through the candidate pipeline: equals the brute-force
        oracle, ascending distance, ties broken by record id.
        ``processes > 1`` serves on the shared worker pool against the
        published index (results identical, see
        :mod:`repro.service.sharing`).
        """
        if k < 1:
            raise ValueError("k must be positive")
        return self._serve("topk", queries, {"k": k}, processes)

    def within(
        self,
        queries: Sequence[str] | str,
        radius: float,
        processes: int | None = None,
    ) -> list[list[tuple[str, float]]]:
        """All matches within NSLD ``radius`` per query (ascending distance)."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        return self._serve("within", queries, {"radius": radius}, processes)

    def _serve(self, operation, queries, kwargs, processes):
        """One shard fans ``processes > 1`` batches out over the pool.
        Past one shard the serve loop stays serial over queries -- so the
        cache semantics match the serial index exactly, duplicates and
        LRU recency included -- and each query scatters its kernel calls
        over the pool instead (:func:`~repro.service.sharing.scatter`)."""
        if isinstance(queries, str):
            queries = [queries]
        processes = processes or 0
        if len(self.shards) == 1:
            return serve_batch(self, operation, queries, kwargs, processes)
        serve = getattr(self, f"_{operation}_one")
        return [serve(query, processes=processes, **kwargs) for query in queries]

    # -- per-query serving (also the pool workers' entry points) ----------------

    def _topk_one(
        self, query: str, k: int, processes: int = 0
    ) -> list[tuple[str, float]]:
        key = ("topk", query, k)
        result = self._cache_get(key)
        if result is None:
            record = self.tokenizer.tokenize(query)
            hits = self._cascade_topk(record, k, processes)
            result = [(self._names[record_id], score) for record_id, score in hits]
            self._cache_put(key, result)
        return list(result)  # callers own their copy, never the cache's

    def _within_one(
        self, query: str, radius: float, processes: int = 0
    ) -> list[tuple[str, float]]:
        key = ("within", query, radius)
        result = self._cache_get(key)
        if result is None:
            record = self.tokenizer.tokenize(query)
            hits = self._within_ids(record, radius, None, processes)
            result = [(self._names[record_id], score) for record_id, score in hits]
            self._cache_put(key, result)
        return list(result)  # callers own their copy, never the cache's

    def _cascade_topk(
        self, query: TokenizedString, k: int, processes: int
    ) -> list[tuple[int, float]]:
        """Exact NSLD top-k: seed a radius from the postings, then expand.

        The best-overlapping records (ranked by ``(-overlap, id)``,
        capped) are verified first and the k-th seed distance becomes the
        first radius -- one complete ``within`` pass instead of blind
        expansion.  Seeding only tightens the start, so the cap never
        loses results.  The radius doubles until a pass holds ``k`` hits;
        ``known`` carries every exact distance across passes, so no
        record is verified twice.  The search runs over global ids, so
        its results *and counters* do not depend on the shard count.
        """
        k = min(k, len(self._records))
        if k == 0:
            return []
        ranked = sorted(
            self._overlap(query, processes).items(),
            key=lambda item: (-item[1], item[0]),
        )
        cap = max(_MIN_SEED_CAP, _SEED_FACTOR * k)
        seeds = [record_id for record_id, _ in ranked[:cap]]
        known = self._verify(query, seeds, processes)
        # Seed verification is uncounted at the kernel; charge it here.
        self.counters[COUNTER_CANDIDATES] += len(seeds)
        self.counters[COUNTER_VERIFIED] += len(seeds)
        radius = sorted(known.values())[k - 1] if len(known) >= k else 0.25
        while True:
            hits = self._within_ids(query, radius, known, processes)
            if len(hits) >= k or radius >= 1.0:
                return hits[:k]
            radius = min(1.0, radius * 2.0)

    # -- scatter-gather over the kernels ------------------------------------------

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

    def _overlap(self, query: TokenizedString, processes: int) -> dict[int, int]:
        """The merged per-shard postings overlaps, under global ids (the
        shards' record sets are disjoint)."""
        calls = [
            (index, "overlap", (query,))
            for index, shard in enumerate(self.shards)
            if len(shard)
        ]
        return {
            globals_[local]: count
            for globals_, overlap in scatter(self, calls, processes)
            for local, count in overlap.items()
        }

    def _verify(
        self, query: TokenizedString, record_ids: Sequence[int], processes: int
    ) -> dict[int, float]:
        """Exact distances to global records, verified where they live."""
        by_shard: dict[int, list[int]] = {}
        for global_id in record_ids:
            shard_index, local_id = self._locations[global_id]
            by_shard.setdefault(shard_index, []).append(local_id)
        calls = [
            (index, "verify", (query, local_ids))
            for index, local_ids in by_shard.items()
        ]
        return {
            globals_[local]: distance
            for globals_, distances in scatter(self, calls, processes)
            for local, distance in distances.items()
        }

    def _within_ids(
        self,
        query: TokenizedString,
        radius: float,
        known: dict[int, float] | None,
        processes: int,
    ) -> list[tuple[int, float]]:
        """One global ``within`` pass: plan, scatter, merge.

        Returns global ``(record id, distance)`` hits under the oracle's
        ``(distance, id)`` order; when ``known`` is given (the top-k
        expansion memo, global ids) it is sliced per shard on the way
        out and extended with the kernels' exact distances on the way
        back.
        """
        planned = self._plan_within(query.aggregate_length, radius)
        local_known: dict[int, dict[int, float] | None] = dict.fromkeys(planned)
        if known is not None:
            for index in planned:
                local_known[index] = {}
            for global_id, distance in known.items():
                shard_index, local_id = self._locations[global_id]
                memo = local_known.get(shard_index)
                if memo is not None:
                    memo[local_id] = distance
        calls = [
            (index, "within", (query, radius, local_known[index]))
            for index in planned
        ]
        merged: list[tuple[float, int]] = []
        for globals_, (hits, memo) in scatter(self, calls, processes):
            merged.extend((distance, globals_[local]) for local, distance in hits)
            if known is not None:
                for local, distance in memo.items():
                    known[globals_[local]] = distance
        merged.sort()
        return [(global_id, distance) for distance, global_id in merged]


class _ShardKernel:
    """One shard's probe state over the records placed on it.

    Holds the records (and their names), a private vocab, the token
    postings, the Lemma 6 length partition and the dense histogram ids --
    no cache, counters or publication: :class:`SimilarityIndex` owns
    those.  :meth:`overlap`, :meth:`verify` and :meth:`within` speak
    local record ids, take the query already tokenized and charge the
    counters dict they are handed.  Each interns the query's tokens into
    this kernel's vocab first, so token ids never leave the process (or
    the kernel) that minted them.
    """

    def __init__(self, backend: str = "auto") -> None:
        self.backend = backend
        self.names: list[str] = []
        self.records: list[TokenizedString] = []
        self._vocab = Vocab()
        #: Interned token id -> local record ids containing it.
        self._token_postings = PostingsIndex()
        #: ``(aggregate_length, record_id)`` in ascending order -- the
        #: Lemma 6 length partition probed by binary search.
        self._lengths: list[tuple[int, int]] = []
        #: Record id -> dense id of its encoded token-length histogram,
        #: indexing :attr:`_histograms` (the distinct histograms, first-
        #: seen order; :attr:`_histogram_slots` is the reverse map).
        self._histogram_ids: list[int] = []
        self._histograms: list[tuple[tuple[int, int], ...]] = []
        self._histogram_slots: dict[tuple[tuple[int, int], ...], int] = {}
        #: The probe paths' histogram bound filter.  Lemma 10 needs the
        #: complete similar-token-pair set, which a probe never has;
        #: without it (``use_lemma10=False``) the filter's per-token
        #: charges (length differences, pad costs) are unconditionally
        #: sound *and* threshold-independent, so one shared instance --
        #: and one warm memo -- serves every radius (the threshold field
        #: is unused on this path).
        self._probe_filter = HistogramBoundFilter(0.0, use_lemma10=False)

    def __len__(self) -> int:
        return len(self.records)

    def extend(self, entries) -> None:
        """Index a non-empty list of ``(name, record)`` pairs already
        tokenized."""
        for name, record in entries:
            record_id = len(self.records)
            self.names.append(name)
            self.records.append(record)
            token_ids = self._vocab.intern_all(record.tokens)
            for token_id in set(token_ids):
                self._token_postings.add(token_id, record_id)
                self._vocab.masks(token_id)  # snapshot the Peq table now
            self._lengths.append((record.aggregate_length, record_id))
            self._histogram_ids.append(
                self._histogram_slot(encode_histogram(record.length_histogram))
            )
        # One sort per append call, not one insort per record (which is
        # O(n) element moves each -- quadratic for large builds).
        self._lengths.sort()

    def _histogram_slot(self, histogram: tuple[tuple[int, int], ...]) -> int:
        """The dense id of an encoded histogram, minting one when new."""
        slot = self._histogram_slots.get(histogram)
        if slot is None:
            slot = self._histogram_slots[histogram] = len(self._histograms)
            self._histograms.append(histogram)
        return slot

    def length_range(self) -> tuple[int, int] | None:
        """The (min, max) aggregate token length held, ``None`` when empty.

        The router's pruning signal: a Lemma 6 window disjoint from this
        range cannot contain a qualifying record, so the whole shard can
        be skipped without touching a counter.
        """
        if not self._lengths:
            return None
        return self._lengths[0][0], self._lengths[-1][0]

    # -- probe primitives ---------------------------------------------------------

    def overlap(self, query: TokenizedString, counters: dict) -> Counter:
        """Distinct-query-token overlap per record id (charges nothing)."""
        lookup = self._token_postings.lookup_ref()
        postings = self._token_postings.postings
        overlap: Counter = Counter()
        for token_id in set(self._vocab.intern_all(query.tokens)):
            signature_id = lookup(token_id)
            if signature_id is not None:
                overlap.update(postings[signature_id])
        return overlap

    def verify(
        self, query: TokenizedString, record_ids: Sequence[int], counters: dict
    ) -> dict[int, float]:
        """Exact NSLD to each listed record (charges nothing: the top-k
        search charges its seeds itself)."""
        self._vocab.intern_all(query.tokens)
        return {record_id: self._nsld_to(query, record_id) for record_id in record_ids}

    def within(
        self,
        query: TokenizedString,
        radius: float,
        known: dict[int, float] | None,
        counters: dict,
    ) -> tuple[list[tuple[int, float]], dict[int, float] | None]:
        """All record ids within NSLD ``radius`` of the query.

        Complete by construction: Lemma 6 makes the aggregate-length
        window a superset of every qualifying record, the filters only
        prune on sound lower bounds, and survivors are verified exactly.
        Returns ``(record_id, distance)`` sorted by ``(distance,
        record_id)`` -- the oracle tie-break -- plus ``known``.

        Both filters -- the Lemma 6 length bound and the Sec. III-E.2
        histogram bound -- are functions of a candidate's token-length
        histogram (its aggregate length is the histogram's weighted sum),
        so each is decided once per *distinct* histogram in the window
        and fanned out to the records by their dense histogram ids.  The
        counters come out exactly as a per-candidate
        :class:`~repro.candidates.FilterCascade` (length, then histogram)
        would charge them.

        ``known`` is a read/write memo of exact distances: entries are
        trusted instead of re-verified, and every exact distance this
        pass computes is written back (so the top-k expansion loop never
        re-verifies a previous, smaller window).
        """
        resolve_backend(self.backend)  # an unusable backend fails on first use
        self._vocab.intern_all(query.tokens)
        records = self.records
        query_length = query.aggregate_length
        if radius >= 1.0:
            window = range(len(records))
        else:
            lengths = self._lengths
            low = math.floor((1.0 - radius) * query_length)
            high = math.ceil(query_length / (1.0 - radius))
            start = bisect_left(lengths, (low, -1))
            stop = bisect_right(lengths, (high, len(records)))
            window = [record_id for _, record_id in lengths[start:stop]]

        results: list[tuple[float, int]] = []
        fresh = window
        if known:
            fresh = []
            for record_id in window:
                distance = known.get(record_id)
                if distance is None:
                    fresh.append(record_id)
                elif distance <= radius:
                    results.append((distance, record_id))

        counters[COUNTER_CANDIDATES] += len(fresh)
        histogram_ids = self._histogram_ids
        slots = [histogram_ids[record_id] for record_id in fresh]
        histograms = self._histograms
        query_histogram = encode_histogram(query.length_histogram)
        bound = self._probe_filter.nsld_bound_encoded
        admitted: set[int] = set()
        for slot, tally in Counter(slots).items():
            histogram = histograms[slot]
            length = sum(size * count for size, count in histogram)
            if nsld_length_lower_bound(query_length, length) > radius:
                counters[COUNTER_PRUNED_LENGTH] += tally
            elif bound(query_histogram, histogram, ()) > radius:
                counters[COUNTER_PRUNED_COUNT] += tally
            else:
                admitted.add(slot)
        survivors = [
            record_id for record_id, slot in zip(fresh, slots) if slot in admitted
        ]

        single_token_ids: list[int] = []
        if query.token_count == 1:
            # Single-token pairs: NSLD == NLD of the two tokens, so that
            # group verifies in one batched call below.
            single_token_ids = [
                record_id
                for record_id in survivors
                if records[record_id].token_count == 1
            ]
            survivors = [
                record_id
                for record_id in survivors
                if records[record_id].token_count != 1
            ]

        counters[COUNTER_VERIFIED] += len(survivors)
        for record_id in survivors:
            distance = self._nsld_to(query, record_id)
            if known is not None:
                known[record_id] = distance
            if distance <= radius:
                results.append((distance, record_id))

        if single_token_ids:
            strings = [query.tokens[0]] + [
                records[record_id].tokens[0] for record_id in single_token_ids
            ]
            pairs = [(0, position + 1) for position in range(len(single_token_ids))]
            distances = verify_nld_pairs(
                pairs, strings, radius, backend=self.backend, counters=counters
            )
            for record_id, distance in zip(single_token_ids, distances):
                if distance is not None:
                    # Within-radius values are exact -- memoize them so an
                    # expansion pass reuses them like the Hungarian path's.
                    # (A ``None`` only proves > radius; nothing to keep.)
                    if known is not None:
                        known[record_id] = distance
                    results.append((distance, record_id))

        results.sort()
        return [(record_id, distance) for distance, record_id in results], known

    def _nsld_to(self, query: TokenizedString, record_id: int) -> float:
        """Exact NSLD between an interned query and an indexed record.

        Delegates to :func:`repro.distances.setwise.nsld` -- padding,
        Hungarian aligning and normalisation stay single-sourced in the
        oracle -- with the token distances routed through the kernel
        vocab (interned memo, prebuilt Myers masks; every token involved
        is already interned, so ``intern`` is a dict probe).
        """
        vocab = self._vocab

        def token_ld(token_x: str, token_y: str) -> int:
            return vocab.distance(vocab.intern(token_x), vocab.intern(token_y))

        return nsld(query, self.records[record_id], token_ld=token_ld)
