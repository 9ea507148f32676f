"""The :class:`Session` facade: one front door for every request.

``Session.run(spec)`` executes any declarative spec
(:mod:`repro.api.specs`) and returns the uniform
:class:`repro.api.ResultSet` envelope.  The session owns the pieces the
specs deliberately do not carry:

* the **tokenizer** (one per session, so every algorithm sees the same
  token view of a corpus);
* the default **verification backend** and **execution engine**
  selectors (spec fields override per request);
* the **resident-corpus lifecycle**: corpora named by specs (or passed
  to ``run``) are tokenized once and kept in a small LRU, and the
  serving paths build one :class:`repro.service.SimilarityIndex` per
  corpus (build-once/query-many via :mod:`repro.service` under the
  hood), reused across specs.

The module-level :func:`run` serves the one-liner case through a shared
process-default session, so repeated calls amortize tokenization and
index builds exactly like an explicit session would::

    import repro
    result = repro.run(repro.JoinSpec(names=names, threshold=0.15))
    repro.run(repro.TopKSpec(names=names, queries=("jon smiht",), k=3))
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.accel import BACKENDS
from repro.accel.vocab import LRUCache
from repro.api.errors import ValidationError
from repro.api.registry import resolve_join, resolve_search, validate_choice
from repro.api.result import COUNTER_CACHE_RESIDENT, ResultSet
from repro.api.specs import CompareSpec, JoinSpec, TopKSpec, WithinSpec
from repro.runtime import ENGINES
from repro.tokenize import Tokenizer

__all__ = ["Session", "default_session", "run"]


class _Corpus:
    """One resident collection: raw names plus lazily built views.

    Tokenization happens at most once; the serving index (and its
    postings/vocab snapshot) is built lazily on the first search spec
    and reused by every later one.  ``build_seconds`` accumulates the
    wall-clock spent materializing resident state, so the session can
    report a per-request build/query split.
    """

    __slots__ = (
        "names",
        "_tokenizer",
        "_records",
        "_token_lists",
        "_indexes",
        "build_seconds",
    )

    def __init__(self, names, tokenizer, records=None) -> None:
        self.names = tuple(names)
        self._tokenizer = tokenizer
        self._records = list(records) if records is not None else None
        self._token_lists = None
        self._indexes: dict = {}
        self.build_seconds = 0.0

    @property
    def strings(self) -> tuple:
        """The collection as raw strings (the LD/NLD string joins)."""
        return self.names

    @property
    def records(self) -> list:
        """The collection tokenized (tokenized once, then resident)."""
        if self._records is None:
            start = time.perf_counter()
            tokenize = self._tokenizer.tokenize
            self._records = [tokenize(name) for name in self.names]
            self.build_seconds += time.perf_counter() - start
        return self._records

    @property
    def token_lists(self) -> list:
        """The collection as plain token lists (the set joins)."""
        if self._token_lists is None:
            self._token_lists = [list(record.tokens) for record in self.records]
        return self._token_lists

    def index(
        self,
        backend: str,
        cache_size: int,
        shards: int = 1,
        placement: str = "length",
    ):
        """The resident serving index (lazy): a
        :class:`repro.service.SimilarityIndex`, or a
        :class:`repro.shard.ShardedIndex` when the session serves
        ``shards > 1`` (results and counters are shard-count invariant,
        so the cached index is keyed by backend alone)."""
        built = self._indexes.get(backend)
        if built is None:
            start = time.perf_counter()
            if shards > 1:
                from repro.shard import ShardedIndex

                built = ShardedIndex(
                    self.names,
                    n_shards=shards,
                    placement=placement,
                    tokenizer=self._tokenizer,
                    backend=backend,
                    cache_size=cache_size,
                )
            else:
                from repro.service import SimilarityIndex

                built = SimilarityIndex(
                    self.names,
                    tokenizer=self._tokenizer,
                    backend=backend,
                    cache_size=cache_size,
                )
            self.build_seconds += time.perf_counter() - start
            self._indexes[backend] = built
        return built


class Session:
    """The facade executing declarative specs against resident corpora.

    Parameters
    ----------
    names:
        Optional default corpus; specs without inline ``names`` (and
        ``run`` calls without data) run against it.
    tokenizer:
        Defaults to whitespace+punctuation with case folding -- the same
        default as every legacy entry point.
    backend / engine:
        Session-wide verification-kernel and execution-engine defaults
        (specs override per request).  ``backend="auto"`` serves through
        the numpy-batched ``vector`` kernel when numpy is importable and
        falls back to ``bitparallel`` silently when it is not; an
        explicit ``"vector"`` without numpy raises (with an install
        hint) when the first verification resolves it.
    cache_size:
        LRU result-cache capacity of each resident serving index.
    max_resident:
        How many distinct corpora the session keeps resident at once.
    shards / placement:
        Serving layout.  ``shards > 1`` builds each resident index as a
        :class:`repro.shard.ShardedIndex` -- N partitions under the
        given placement (``"length"`` for Lemma 6 shard pruning,
        ``"hash"`` for the uniform baseline), scatter-gather routed --
        with the spec surface unchanged: results, counters and simulated
        seconds are shard-count invariant by contract.
    store_dir:
        Optional durable-store directory (:class:`repro.store.
        SnapshotStore`, or :class:`repro.shard.ShardedSnapshotStore`
        when serving sharded or when the directory already holds a
        sharded layout).  On construction the session warm-restarts from
        it -- snapshot load + WAL replay, degrading to a full rebuild
        from ``names`` when the store is damaged -- and the restored
        index becomes the *durable corpus* behind specs that name no
        inline corpus.  :meth:`append` then logs to the store's WAL
        before mutating memory, so acknowledged appends survive a crash.
        A directory written unsharded migrates losslessly when opened
        with ``shards > 1`` (and vice versa the sharded layout, once
        created, is kept even at ``shards=1``).

    Examples
    --------
    >>> session = Session(["barak obama", "borak obama", "john smith"])
    >>> result = session.run(JoinSpec(threshold=0.15,
    ...                               params={"max_token_frequency": None}))
    >>> [(a, b) for a, b, _ in result.pairs]
    [('barak obama', 'borak obama')]
    >>> session.run(TopKSpec(queries=("barak obana",), k=1)).matches
    [[['barak obama', 0.09523809523809523]]]
    """

    def __init__(
        self,
        names: Sequence[str] | None = None,
        *,
        tokenizer: Tokenizer | None = None,
        backend: str = "auto",
        engine: str = "auto",
        cache_size: int = 256,
        max_resident: int = 4,
        shards: int = 1,
        placement: str = "length",
        store_dir: str | None = None,
    ) -> None:
        from repro.shard.placement import PLACEMENTS

        self.tokenizer = tokenizer or Tokenizer()
        self.backend = validate_choice("verification backend", backend, BACKENDS)
        self.engine = validate_choice("execution engine", engine, ENGINES)
        self.cache_size = cache_size
        if not isinstance(shards, int) or shards < 1:
            raise ValidationError(f"shards must be a positive int, got {shards!r}")
        self.shards = shards
        self.placement = validate_choice("shard placement", placement, PLACEMENTS)
        self._corpora = LRUCache(max_resident)
        self._default_names = tuple(names) if names is not None else None
        self._store = None
        self._durable: _Corpus | None = None
        self._durable_index = None
        if store_dir is not None:
            from repro.shard.store import is_sharded_store

            if shards > 1 or is_sharded_store(store_dir):
                from repro.shard import ShardedSnapshotStore

                self._store = ShardedSnapshotStore(store_dir)
                self._install_durable(
                    self._store.open(
                        names=names,
                        n_shards=shards,
                        placement=placement,
                        tokenizer=self.tokenizer,
                        backend=self.backend,
                        cache_size=self.cache_size,
                    )
                )
            else:
                from repro.store import SnapshotStore

                self._store = SnapshotStore(store_dir)
                self._install_durable(
                    self._store.open(
                        names=names,
                        tokenizer=self.tokenizer,
                        backend=self.backend,
                        cache_size=self.cache_size,
                    )
                )

    # -- durable persistence ----------------------------------------------------

    def _install_durable(self, index) -> None:
        """Adopt ``index`` as the durable corpus behind no-names specs."""
        corpus = _Corpus(index.names, self.tokenizer)
        corpus._records = index.records  # the live list: stays in sync
        corpus._indexes[index.backend] = index
        self._durable = corpus
        self._durable_index = index
        self._default_names = tuple(index.names)

    def append(self, names: Sequence[str], base: int | None = None) -> int:
        """Grow the durable corpus; returns the new record count.

        With a ``store_dir`` the append is **write-ahead logged and
        fsynced before memory mutates**, so an acknowledged append is
        never lost to a crash; past the WAL growth thresholds the store
        compacts into a fresh snapshot.  Without a store the append is
        memory-only (same visibility, no durability).

        ``base`` is the idempotency offset (see
        :meth:`SimilarityIndex.append <repro.service.SimilarityIndex.append>`):
        a replay of an already-acknowledged append -- same names at a
        ``base`` the index has grown past -- is a no-op that skips the
        WAL too, so retrying clients cannot double-apply; a mismatching
        replay raises :class:`~repro.api.errors.ValidationError`.
        """
        index = self._durable_index
        if index is None:
            if self._default_names is None:
                raise ValidationError(
                    "no resident corpus to append to: construct the Session "
                    "with names= or store_dir="
                )
            # Materialize the default corpus as the durable one.
            corpus = self._corpus(None)
            self._install_durable(
                corpus.index(
                    self.backend, self.cache_size, self.shards, self.placement
                )
            )
            index = self._durable_index
        added = tuple(names)
        if not added:
            return len(index)
        if base is not None and index._check_append_base(added, base):
            return len(index)  # an acknowledged replay: nothing to log or apply
        if self._store is not None:
            self._store.log_append(added, base=len(index))
        index.append(added)
        corpus = self._durable
        corpus.names = corpus.names + added
        corpus._token_lists = None
        # Sibling indexes under other backends predate the append; drop
        # them so they rebuild over the full corpus on next use.
        corpus._indexes = {
            key: value
            for key, value in corpus._indexes.items()
            if value is index
        }
        self._default_names = corpus.names
        if self._store is not None:
            self._store.maybe_compact(index)
        return len(index)

    def save(self, path: str) -> str:
        """Write an atomic snapshot of the default corpus's index at
        ``path`` (the CLI ``repro index save``); returns ``path``.

        Independent of ``store_dir``: this is the one-shot export, the
        durable directory is the live write path.  The export is always
        the single-file unsharded format (portable across shard
        layouts); a sharded serving index is flattened for it.
        """
        from repro.store import index_to_sections, write_snapshot_file

        index = self._durable_index
        if index is None:
            if self._default_names is None:
                raise ValidationError(
                    "nothing to save: construct the Session with a default "
                    "corpus (names=) or a store_dir"
                )
            index = self._corpus(None).index(self.backend, self.cache_size)
        if hasattr(index, "shards"):
            from repro.service import SimilarityIndex

            index = SimilarityIndex(
                index.names,
                tokenizer=self.tokenizer,
                backend=self.backend,
                cache_size=index.result_cache.capacity,
            )
        write_snapshot_file(path, index_to_sections(index))
        return path

    @classmethod
    def load(cls, path: str, *, engine: str = "auto", max_resident: int = 4):
        """Rebuild a session from a :meth:`save` snapshot (strict: a
        damaged file raises the typed
        :class:`~repro.api.errors.CorruptSnapshotError`).

        The restored index serves byte-identically to the one saved --
        same results, same cascade counters, same simulated seconds --
        and becomes the session's durable corpus.
        """
        from repro.store import index_from_sections, read_snapshot_file

        index = index_from_sections(read_snapshot_file(path))
        session = cls(
            tokenizer=index.tokenizer,
            backend=index.backend,
            engine=engine,
            cache_size=index.result_cache.capacity,
            max_resident=max_resident,
        )
        session._install_durable(index)
        return session

    def store_status(self) -> dict | None:
        """The durable store's health block (``None`` without a store)."""
        return self._store.status() if self._store is not None else None

    def shard_status(self) -> dict | None:
        """The serving shard layout block (``None`` when unsharded).

        Prefers the durable index; otherwise reports the first resident
        sharded index (per-shard sizes plus the router's
        ``shards_probed``/``shards_pruned`` tallies).
        """
        candidates = []
        if self._durable_index is not None:
            candidates.append(self._durable_index)
        for _, corpus in self._corpora.items():
            candidates.extend(corpus._indexes.values())
        for index in candidates:
            if hasattr(index, "shard_status"):
                return index.shard_status()
        return None

    # -- corpus residency -------------------------------------------------------

    def _corpus(self, spec, names=None, records=None) -> _Corpus:
        spec_names = getattr(spec, "names", None)
        if records is not None:
            # Out-of-band pre-tokenized data (the legacy ``join_records``
            # path): ephemeral, never cached -- the caller owns residency.
            resolved = names if names is not None else spec_names
            if resolved is None or len(resolved) != len(records):
                raise ValidationError(
                    "records must align with names: got "
                    f"{'no' if resolved is None else len(resolved)} names "
                    f"for {len(records)} records"
                )
            return _Corpus(resolved, self.tokenizer, records=records)
        chosen = spec_names if spec_names is not None else names
        if chosen is None:
            chosen = self._default_names
        if chosen is None:
            raise ValidationError(
                "no corpus to run against: set spec.names, pass names= to "
                "run(), or construct the Session with a default corpus"
            )
        key = tuple(chosen)
        if self._durable is not None and key == self._durable.names:
            return self._durable
        corpus = self._corpora.get(key)
        if corpus is None:
            corpus = _Corpus(key, self.tokenizer)
            self._corpora.put(key, corpus)
        return corpus

    def stats(self) -> dict:
        """Residency snapshot: corpora held, built state, cache gauges.

        The ``result_cache`` block aggregates the bounded LRU result
        caches of every resident serving index (hits, misses, resident
        entries) -- the gauges the HTTP service's ``/v1/metrics``
        endpoint reports.
        """
        from repro.service.cache import COUNTER_CACHE_HITS, COUNTER_CACHE_MISSES

        corpora = []
        cache_hits = cache_misses = cache_resident = 0
        resident = list(self._corpora.items())
        if self._durable is not None:
            resident.append((self._durable.names, self._durable))
        for key, corpus in resident:
            corpora.append(
                {
                    "records": len(key),
                    "tokenized": corpus._records is not None,
                    "indexes": len(corpus._indexes),
                    "build_seconds": corpus.build_seconds,
                }
            )
            for index in corpus._indexes.values():
                cache_hits += index.counters.get(COUNTER_CACHE_HITS, 0)
                cache_misses += index.counters.get(COUNTER_CACHE_MISSES, 0)
                cache_resident += len(index.result_cache)
        return {
            "resident_corpora": len(corpora),
            "corpora": corpora,
            "result_cache": {
                "hits": cache_hits,
                "misses": cache_misses,
                "resident": cache_resident,
            },
        }

    # -- execution --------------------------------------------------------------

    def run(self, spec, *, names=None, records=None) -> ResultSet:
        """Execute one spec; returns the uniform :class:`ResultSet`.

        ``names``/``records`` supply data out-of-band (the resident /
        pre-tokenized paths); ``spec.names`` wins when set, then
        ``names``, then the session's default corpus.

        A spec's ``deadline_ms`` becomes the ambient request deadline
        for the execution (:mod:`repro.runtime.deadline`): the engines
        and the pool dispatch loop check it at shard boundaries, and
        expiry raises :class:`~repro.api.errors.DeadlineExceededError`.
        """
        from repro.runtime.deadline import deadline_scope

        with deadline_scope(getattr(spec, "deadline_ms", None)):
            if isinstance(spec, JoinSpec):
                return self._run_join(spec, names, records)
            if isinstance(spec, TopKSpec):
                return self._run_search(spec, names, records, "topk")
            if isinstance(spec, WithinSpec):
                return self._run_search(spec, names, records, "within")
            if isinstance(spec, CompareSpec):
                return self._run_compare(spec)
        raise TypeError(
            f"Session.run expects a JoinSpec/TopKSpec/WithinSpec/CompareSpec, "
            f"got {type(spec).__name__}"
        )

    def _run_join(self, spec: JoinSpec, names, records) -> ResultSet:
        adapter = resolve_join(spec.algorithm)
        corpus = self._corpus(spec, names, records)
        build_before = corpus.build_seconds
        start = time.perf_counter()
        outcome = adapter.runner(corpus, spec, self)
        elapsed = time.perf_counter() - start
        build_seconds = corpus.build_seconds - build_before

        distances = outcome.distances
        scorer = adapter.scorer

        def score(i: int, j: int):
            if distances is not None:
                found = distances.get((i, j))
                if found is not None:
                    return found
            return scorer(corpus, i, j)

        descending = adapter.score_kind == "similarity"
        named_pairs = sorted(
            (
                (corpus.names[i], corpus.names[j], score(i, j))
                for i, j in outcome.pairs
            ),
            key=lambda row: (-row[2] if descending else row[2], row[0], row[1]),
        )
        from repro.analysis.graphs import cluster_pairs

        clusters = [
            sorted(corpus.names[i] for i in cluster)
            for cluster in cluster_pairs(outcome.pairs)
        ]
        return ResultSet(
            kind="join",
            algorithm=adapter.name,
            score_kind=adapter.score_kind,
            collection_size=len(corpus.names),
            pairs=named_pairs,
            index_pairs=sorted(outcome.pairs),
            clusters=clusters,
            counters=dict(outcome.counters or {}),
            simulated_seconds=outcome.simulated_seconds,
            build_seconds=build_seconds,
            query_seconds=max(0.0, elapsed - build_seconds),
            request=spec.to_dict(),
        )

    def _run_search(self, spec, names, records, operation: str) -> ResultSet:
        backend_entry = resolve_search(spec.method)
        corpus = self._corpus(spec, names, records)
        build_before = corpus.build_seconds
        index = corpus.index(
            spec.backend or self.backend, self.cache_size, self.shards, self.placement
        )
        build_seconds = corpus.build_seconds - build_before

        counters_before = dict(index.counters)
        queries = list(spec.queries)
        start = time.perf_counter()
        if operation == "topk":
            rows = index.topk(queries, k=spec.k, processes=spec.processes)
        else:
            rows = index.within(queries, radius=spec.radius, processes=spec.processes)
        query_seconds = time.perf_counter() - start

        counters = {
            name: value - counters_before.get(name, 0)
            for name, value in index.counters.items()
        }
        counters[COUNTER_CACHE_RESIDENT] = len(index.result_cache)
        return ResultSet(
            kind=operation,
            algorithm=backend_entry.name,
            collection_size=len(corpus.names),
            queries=queries,
            matches=[
                [[name, score] for name, score in matches] for matches in rows
            ],
            counters=counters,
            build_seconds=build_seconds,
            query_seconds=query_seconds,
            request=spec.to_dict(),
        )

    def compare(self, name_a: str, name_b: str, backend: str | None = None) -> float:
        """NSLD between two raw strings, envelope-free.

        The scalar fast path behind ``CompareSpec`` (and the legacy
        ``compare_names`` shim): same tokenizer, same backend defaults,
        none of the per-request envelope overhead -- for callers scoring
        in tight loops.
        """
        from repro.distances import nsld

        return nsld(
            self.tokenizer.tokenize(name_a),
            self.tokenizer.tokenize(name_b),
            backend=backend or self.backend,
        )

    def _run_compare(self, spec: CompareSpec) -> ResultSet:
        start = time.perf_counter()
        value = self.compare(spec.name_a, spec.name_b, spec.backend)
        elapsed = time.perf_counter() - start
        return ResultSet(
            kind="compare",
            algorithm="nsld",
            value=value,
            query_seconds=elapsed,
            request=spec.to_dict(),
        )


_DEFAULT_SESSION: Session | None = None


def default_session() -> Session:
    """The shared process-default session behind :func:`repro.run`."""
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = Session()
    return _DEFAULT_SESSION


def run(spec, *, names=None, records=None) -> ResultSet:
    """Execute one spec on the process-default session.

    Examples
    --------
    >>> result = run(JoinSpec(names=("ann lee", "ann leex", "bob stone"),
    ...                       threshold=0.2,
    ...                       params={"max_token_frequency": None}))
    >>> [(a, b) for a, b, _ in result.pairs]
    [('ann lee', 'ann leex')]
    """
    return default_session().run(spec, names=names, records=records)
