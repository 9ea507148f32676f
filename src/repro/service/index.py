"""The resident :class:`SimilarityIndex`: build once, query many.

Every pre-existing entry point -- :func:`repro.core.nsld_join`, the CLI
``knn``/``join`` commands, :class:`repro.knn.FuzzyMatchIndex` -- paid
full index construction per call: tokenize the collection, intern the
tokens, precompute the Myers ``Peq`` masks, build the postings, then
answer exactly one request and throw everything away.  A serving system
does the opposite: construction is rare, queries are endless.

:class:`SimilarityIndex` snapshots the expensive state exactly once:

* the tokenized collection and its raw names;
* a private :class:`repro.accel.Vocab` with every collection token
  interned and its Myers match table prebuilt;
* a candidate-pipeline :class:`repro.candidates.PostingsIndex` from
  interned token ids to record ids (the shared-token probe index);
* the aggregate-length order and encoded token-length histograms that
  drive the Lemma 6 / Sec. III-E.2 filters.

Against that snapshot it serves:

* :meth:`join` -- the full TSJ self-join, byte-identical to
  :func:`repro.core.nsld_join` (same pairs, same counters, same
  simulated seconds) with tokenization amortized away;
* :meth:`topk` / :meth:`within` -- batched probe paths over the
  candidate pipeline: Lemma 6 length window (complete by construction),
  the Lemma 6 length filter and the histogram lower-bound prune --
  decided once per *distinct* token-length histogram in the window and
  charged to the canonical cascade counters -- then exact verification
  through the snapshot vocab (single-token records go through the
  batched :func:`repro.candidates.verify_nld_pairs` fast path).  The
  probe is pure Python and backend-independent: ``backend`` only picks
  the verification kernel;
* :meth:`append` -- incremental growth: new records extend the
  interners, postings and length order in place, no rebuild;
* a bounded LRU result cache (hits/misses surfaced next to the cascade
  counters) so repeated requests cost a dict probe.

Exact NSLD through this candidate pipeline is the only serving method;
the metric-space indexes of :mod:`repro.knn` are a standalone library.

Snapshots are picklable and can be **published to the shared worker
pool** (:mod:`repro.service.sharing`): batched ``topk``/``within`` calls
with ``processes > 1`` fan queries out over the PR 2 pool without
re-shipping the snapshot per task -- fork platforms share it
copy-on-write, spawn platforms receive one explicit broadcast at pool
start-up.

Correctness contract (property-tested in ``tests/service/``):
``topk``/``within`` agree exactly with the brute-force NSLD oracle,
``append`` + query equals rebuild + query, and pool-served results are
byte-identical to in-process serving.
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
    """A frozen, resident NSLD index over a collection of raw names.

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

    Notes
    -----
    The result cache is bounded; the *interning* tables are not, by
    design (the same trade as :func:`repro.accel.token_vocab`): the
    snapshot vocab grows with every distinct token seen -- including
    novel *query* tokens, whose masks and memoized distances are what
    make repeated probes cheap -- and the probe filter's bound memo
    grows with distinct histogram pairs.  A deployment streaming an
    unbounded adversarial query vocabulary should rebuild the index at
    run boundaries (``SimilarityIndex(index.names)``), exactly as
    :func:`repro.accel.reset_token_vocab` is the documented valve for
    the process-wide vocab.

    Examples
    --------
    >>> index = SimilarityIndex(["barak obama", "borak obama", "john smith"])
    >>> index.topk(["barak obana"], k=2)[0][0]
    ('barak obama', 0.09523809523809523)
    >>> [name for name, _ in index.within(["john smith"], radius=0.1)[0]]
    ['john smith']
    """

    def __init__(
        self,
        names: Sequence[str] = (),
        tokenizer: Tokenizer | None = None,
        backend: str = "auto",
        cache_size: int = 256,
    ) -> None:
        self.tokenizer = tokenizer or Tokenizer()
        self.backend = backend
        self._names: list[str] = []
        self._records: list[TokenizedString] = []
        self._vocab = Vocab()
        #: Interned token id -> record ids containing it.
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
        self._cache = LRUCache(cache_size)
        #: Canonical cascade + result-cache counters (cumulative).
        self.counters: dict[str, int] = new_counters()
        self.counters[COUNTER_CACHE_HITS] = 0
        self.counters[COUNTER_CACHE_MISSES] = 0
        #: The probe paths' histogram bound filter.  Lemma 10 needs the
        #: complete similar-token-pair set, which a probe never has;
        #: without it (``use_lemma10=False``) the filter's per-token
        #: charges (length differences, pad costs) are unconditionally
        #: sound *and* threshold-independent, so one shared instance --
        #: and one warm memo -- serves every radius (the threshold field
        #: is unused on this path).
        self._probe_filter = HistogramBoundFilter(0.0, use_lemma10=False)
        #: Stable identity for pool-publication bookkeeping.
        self.share_key = _share_key()
        self._published: str | None = None
        if names:
            self.append(names)

    # -- snapshot construction / growth ---------------------------------------

    def append(self, names: Sequence[str], base: int | None = None) -> None:
        """Extend the collection in place -- no rebuild.

        New records extend the vocab interner (masks prebuilt), the token
        postings and the length order incrementally; querying an appended
        index returns exactly what a fresh build over the full collection
        would (property-tested).  Cached results are invalidated, and a
        pool-published snapshot is re-published on its next pooled serve.

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
        if base is not None:
            replayed = self._check_append_base(names, base)
            if replayed:
                return
        tokenize = self.tokenizer.tokenize
        self._extend((name, tokenize(name)) for name in names)

    def _extend(self, entries) -> None:
        """Index ``(name, record)`` pairs already tokenized -- the append
        body, and the shard router's way of handing a shard the very
        records it holds itself."""
        added = False
        for name, record in entries:
            record_id = len(self._records)
            self._names.append(name)
            self._records.append(record)
            token_ids = self._vocab.intern_all(record.tokens)
            for token_id in set(token_ids):
                self._token_postings.add(token_id, record_id)
                self._vocab.masks(token_id)  # snapshot the Peq table now
            self._lengths.append((record.aggregate_length, record_id))
            self._histogram_ids.append(
                self._histogram_slot(encode_histogram(record.length_histogram))
            )
            added = True
        if added:
            # One sort per append call, not one insort per record (which
            # is O(n) element moves each -- quadratic for large builds).
            self._lengths.sort()
            self._cache.clear()
            self.unpublish()  # the next pooled serve re-publishes

    def _histogram_slot(self, histogram: tuple[tuple[int, int], ...]) -> int:
        """The dense id of an encoded histogram, minting one when new."""
        slot = self._histogram_slots.get(histogram)
        if slot is None:
            slot = self._histogram_slots[histogram] = len(self._histograms)
            self._histograms.append(histogram)
        return slot

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
        replay = list(names)
        if self._names[base : base + len(replay)] == replay and base + len(
            replay
        ) <= held:
            return True
        raise ValidationError(
            f"append at base {base} conflicts with the {held}-record "
            "index: the replayed names do not match what is already "
            "indexed there"
        )

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

    @property
    def vocab(self) -> Vocab:
        """The snapshot's token interner (exposed for instrumentation)."""
        return self._vocab

    @property
    def token_postings(self) -> PostingsIndex:
        """The shared-token probe index (interned token id -> record ids)."""
        return self._token_postings

    @property
    def result_cache(self) -> LRUCache:
        """The bounded LRU result cache (exposed for instrumentation).

        The cache object's own hit/miss counters are process-local;
        :attr:`counters` is the aggregated view, which pooled serving
        extends with the workers' deltas.
        """
        return self._cache

    def length_range(self) -> tuple[int, int] | None:
        """The (min, max) aggregate token length held, ``None`` when empty.

        The shard router's pruning signal: a Lemma 6 window disjoint
        from this range cannot contain a qualifying record, so the whole
        index can be skipped without touching a counter.
        """
        if not self._lengths:
            return None
        return self._lengths[0][0], self._lengths[-1][0]

    def stats(self) -> dict[str, int]:
        """Size snapshot: records, distinct tokens, postings, cached results."""
        return {
            "records": len(self._records),
            "distinct_tokens": len(self._vocab),
            "token_postings": self._token_postings.total_postings,
            "cached_results": len(self._cache),
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
        """Publish this snapshot to the shared pool once; return its token."""
        if self._published is None:
            from repro.service.sharing import publish_snapshot

            self._published = publish_snapshot(self)
        return self._published

    def unpublish(self) -> None:
        """Withdraw this snapshot from the shared pool.

        A publication pins the snapshot in the process-wide registry and
        in the pool start-up payload; a long-lived server discarding an
        index should unpublish it first (``append`` does this
        automatically before its re-publication).  Safe to call when
        never published; the next pooled serve re-publishes.
        """
        from repro.service.sharing import unpublish_snapshot

        unpublish_snapshot(self)
        self._published = None

    # -- result cache ----------------------------------------------------------
    #
    # This section and the two below it (the join and per-query serving)
    # are shared verbatim with :class:`repro.shard.ShardedIndex`, which
    # holds the same ``_cache`` / ``counters`` / ``_names`` / ``_records``
    # state and implements the probe primitives (``_probe``,
    # ``_overlap``, ``_verify``, ``_within_ids``) by scatter-gather over
    # its shards.

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

        Tokenization is amortized into the snapshot and the resulting
        :class:`repro.core.JoinReport` -- same pairs, same clusters, same
        counters, same simulated seconds as
        ``nsld_join(index.names, ...)`` -- is cached in the LRU, so a
        repeated join costs a dict probe.  ``engine`` is excluded from
        the cache key on purpose: results and simulated seconds are
        engine-invariant by construction, so a serial-run cache entry
        answers a parallel request too.  Treat returned reports as
        read-only (cache hits return the same object).
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
        ``processes > 1`` fans the batch out over the shared worker pool
        against the published snapshot (results identical, see
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
        if isinstance(queries, str):
            queries = [queries]
        from repro.service.sharing import serve_batch

        return serve_batch(self, operation, queries, kwargs, processes or 0)

    # -- per-query serving (also the pool workers' entry points) ----------------

    def _topk_one(
        self, query: str, k: int, processes: int = 0
    ) -> list[tuple[str, float]]:
        key = ("topk", query, k)
        result = self._cache_get(key)
        if result is None:
            hits = self._cascade_topk(self._probe(query, processes), k)
            result = [(self._names[record_id], score) for record_id, score in hits]
            self._cache_put(key, result)
        return list(result)  # callers own their copy, never the cache's

    def _within_one(
        self, query: str, radius: float, processes: int = 0
    ) -> list[tuple[str, float]]:
        key = ("within", query, radius)
        result = self._cache_get(key)
        if result is None:
            hits = self._within_ids(self._probe(query, processes), radius)
            result = [(self._names[record_id], score) for record_id, score in hits]
            self._cache_put(key, result)
        return list(result)  # callers own their copy, never the cache's

    def _cascade_topk(self, probe, k: int) -> list[tuple[int, float]]:
        """Exact NSLD top-k: seed a radius from the postings, then expand.

        The best-overlapping records (ranked by ``(-overlap, id)``,
        capped) are verified first and the k-th seed distance becomes the
        first radius -- one complete ``within`` pass instead of blind
        expansion.  Seeding only tightens the start, so the cap never
        loses results.  The radius doubles until a pass holds ``k`` hits;
        ``known`` carries every exact distance across passes, so no
        record is verified twice.  The router runs this same driver over
        its scatter-gather primitives, which is what makes sharded
        results *and counters* equal this index's.
        """
        k = min(k, len(self._records))
        if k == 0:
            return []
        ranked = sorted(
            self._overlap(probe).items(), key=lambda item: (-item[1], item[0])
        )
        cap = max(_MIN_SEED_CAP, _SEED_FACTOR * k)
        seeds = [record_id for record_id, _ in ranked[:cap]]
        known = self._verify(probe, seeds)
        # Seed verification is uncounted at the primitive; charge it here.
        self.counters[COUNTER_CANDIDATES] += len(seeds)
        self.counters[COUNTER_VERIFIED] += len(seeds)
        radius = sorted(known.values())[k - 1] if len(known) >= k else 0.25
        while True:
            hits = self._within_ids(probe, radius, known)
            if len(hits) >= k or radius >= 1.0:
                return hits[:k]
            radius = min(1.0, radius * 2.0)

    # -- probe primitives ---------------------------------------------------------

    def _probe(
        self, query: str, processes: int = 0
    ) -> tuple[TokenizedString, tuple[int, ...]]:
        """The query tokenized and interned once for every pass over it.

        ``processes`` is the router's per-query scatter width; a single
        index fans whole query batches out instead (:meth:`_serve`).
        """
        record = self.tokenizer.tokenize(query)
        return record, self._vocab.intern_all(record.tokens)

    def _overlap(self, probe) -> Counter:
        """Distinct-query-token overlap per record id (no counters)."""
        lookup = self._token_postings.lookup_ref()
        postings = self._token_postings.postings
        overlap: Counter = Counter()
        for token_id in set(probe[1]):
            signature_id = lookup(token_id)
            if signature_id is not None:
                overlap.update(postings[signature_id])
        return overlap

    def _verify(self, probe, record_ids: Sequence[int]) -> dict[int, float]:
        """Exact NSLD to each listed record (no counters: the caller
        charges them)."""
        record = probe[0]
        return {
            record_id: self._nsld_to(record, record_id) for record_id in record_ids
        }

    def _within_ids(
        self,
        probe,
        radius: float,
        known: dict[int, float] | None = None,
    ) -> list[tuple[int, float]]:
        """All record ids within NSLD ``radius`` of the probed query.

        Complete by construction: Lemma 6 makes the aggregate-length
        window a superset of every qualifying record, the filters only
        prune on sound lower bounds, and survivors are verified exactly.
        Returns ``(record_id, distance)`` sorted by ``(distance,
        record_id)`` -- the oracle tie-break.

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
        record = probe[0]
        records = self._records
        query_length = record.aggregate_length
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

        counters = self.counters
        counters[COUNTER_CANDIDATES] += len(fresh)
        histogram_ids = self._histogram_ids
        slots = [histogram_ids[record_id] for record_id in fresh]
        histograms = self._histograms
        query_histogram = encode_histogram(record.length_histogram)
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
        if record.token_count == 1:
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
            distance = self._nsld_to(record, record_id)
            if known is not None:
                known[record_id] = distance
            if distance <= radius:
                results.append((distance, record_id))

        if single_token_ids:
            strings = [record.tokens[0]] + [
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
        return [(record_id, distance) for distance, record_id in results]

    def _nsld_to(self, record: TokenizedString, record_id: int) -> float:
        """Exact NSLD between a prepared query and an indexed record.

        Delegates to :func:`repro.distances.setwise.nsld` -- padding,
        Hungarian aligning and normalisation stay single-sourced in the
        oracle -- with the token distances routed through the snapshot
        vocab (interned memo, prebuilt Myers masks; every token involved
        is already interned, so ``intern`` is a dict probe).
        """
        vocab = self._vocab

        def token_ld(token_x: str, token_y: str) -> int:
            return vocab.distance(vocab.intern(token_x), vocab.intern(token_y))

        return nsld(record, self._records[record_id], token_ld=token_ld)

    # -- shard-router entry points ----------------------------------------------
    #
    # The :class:`repro.shard.ShardedIndex` router runs the serving
    # drivers above *globally* (seeding, radius expansion, caching,
    # counter bumps all happen at the router), so the per-shard pieces
    # it scatters -- in-process or to pool workers -- take the query as
    # a string, are cache-free and, where the router does the metering
    # itself, counter-free.  They speak local record ids; the router
    # owns the global mapping.

    def _shard_overlap(self, query: str) -> Counter:
        """:meth:`_overlap` for a query string (no counters)."""
        return self._overlap(self._probe(query))

    def _shard_verify(self, query: str, record_ids: Sequence[int]) -> dict[int, float]:
        """:meth:`_verify` for a query string (no counters)."""
        return self._verify(self._probe(query), record_ids)

    def _shard_within(
        self,
        query: str,
        radius: float,
        known: dict[int, float] | None = None,
    ) -> tuple[list[tuple[int, float]], dict[int, float]]:
        """One shard's slice of a ``within`` pass, cache-free.

        Runs the identical :meth:`_within_ids` pipeline (cascade
        counters land in :attr:`counters` exactly as the serial path's
        would -- the router sums the per-shard deltas) and returns the
        local ``(record_id, distance)`` hits plus the *fresh* exact
        distances this pass verified, so the router can extend its
        global memo across expansion rounds and pool round-trips.
        """
        probe = self._probe(query)
        if known is None:
            return self._within_ids(probe, radius), {}
        memo = dict(known)
        hits = self._within_ids(probe, radius, memo)
        fresh = {
            record_id: distance
            for record_id, distance in memo.items()
            if record_id not in known
        }
        return hits, fresh
