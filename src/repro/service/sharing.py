"""Pool-shared snapshots: serve batched probes without re-shipping state.

The PR 2 worker pool (:mod:`repro.runtime.pool`) originally received
every byte of state *per task*: ``verify_pairs`` ships the string pairs
of each chunk, the parallel engine ships whole job shards.  For a
resident :class:`repro.service.SimilarityIndex` that would mean
re-pickling the tokenized collection, the interned vocab and the
postings for every batch of queries -- exactly the build cost the
serving layer exists to amortize.

This module publishes a snapshot to the pool **once** instead:

* the parent registers the snapshot in a process-global registry and as
  a worker initializer (:func:`repro.runtime.pool.register_worker_initializer`);
* on **fork** platforms workers inherit the registry copy-on-write --
  zero pickling, the snapshot's interned tables and precomputed Myers
  masks arrive for free;
* on **spawn/forkserver** platforms the initializer arguments are
  pickled to each worker exactly once at pool start-up -- the explicit
  broadcast fallback (cost: one snapshot pickle per worker, not per
  task);
* tasks then ship only a token plus the query -- the snapshot never
  travels again, and results come back with the counters (and routing
  tallies) they charged, so observability survives the fan-out.

Both pooled serving modes live here: :func:`serve_batch` (one shard:
workers serve whole query chunks, each from an empty result cache) and :func:`scatter` (more shards: each
kernel call of a query runs against ``index.shards[i]`` of a worker's
copy).  Tasks carry the query, never token ids, which are minted per
kernel and per process.  Results are byte-identical to in-process
serving (property-tested in ``tests/service/test_sharing.py`` and
``tests/shard/test_invariance.py``).
"""

from __future__ import annotations

import itertools
import os
from typing import Any, Sequence

from repro.candidates import new_counters
from repro.faults import fault_point
from repro.runtime.pool import (
    in_worker_process,
    register_worker_initializer,
    resilient_pool_map,
    unregister_worker_initializer,
)

#: Per-process snapshot registry: publish token -> SimilarityIndex.  In
#: the parent it holds every published snapshot; in workers it is filled
#: by fork inheritance or the initializer broadcast.
_SNAPSHOTS: dict[str, Any] = {}

#: Parent-side bookkeeping: index ``share_key`` -> its live token, so a
#: re-publication (after ``append``) replaces the previous registry
#: entry instead of accumulating one per version.
_TOKENS_BY_KEY: dict[str, str] = {}

_SEQUENCE = itertools.count()


def publish_snapshot(index) -> str:
    """Make ``index`` resolvable in every shared-pool worker; return its token.

    Safe to call repeatedly: each call mints a fresh token (the serving
    layer re-publishes after :meth:`SimilarityIndex.append`), and the
    per-index key makes the newest publication *replace* the previous
    one -- in the parent registry and in the pool's start-up payload --
    instead of accumulating stale versions.  A publication pins the
    snapshot for the process lifetime; call :func:`unpublish_snapshot`
    (or :meth:`SimilarityIndex.unpublish`) before discarding an index a
    long-lived server no longer serves.
    """
    token = f"simindex-{os.getpid()}-{next(_SEQUENCE)}"
    previous = _TOKENS_BY_KEY.get(index.share_key)
    if previous is not None:
        _SNAPSHOTS.pop(previous, None)
    _TOKENS_BY_KEY[index.share_key] = token
    _SNAPSHOTS[token] = index
    register_worker_initializer(
        f"repro.service.sharing:{index.share_key}",
        _install_snapshot,
        (token, index),
    )
    return token


def unpublish_snapshot(index) -> None:
    """Withdraw a snapshot's publication, freeing the held payload.

    Removes the parent registry entry and the pool initializer carrying
    the snapshot (future pools stop receiving it); live pool workers
    keep their copy until the next pool rebuild.  No-op when the index
    was never published.
    """
    token = _TOKENS_BY_KEY.pop(index.share_key, None)
    if token is not None:
        _SNAPSHOTS.pop(token, None)
    unregister_worker_initializer(f"repro.service.sharing:{index.share_key}")


def _install_snapshot(token: str, index) -> None:
    """Worker initializer: register the broadcast snapshot locally."""
    _SNAPSHOTS[token] = index


def resolve_snapshot(token: str):
    """The snapshot behind ``token`` in this process (workers included)."""
    try:
        return _SNAPSHOTS[token]
    except KeyError:
        raise RuntimeError(
            f"snapshot {token!r} is not published in this process; "
            "serve tasks must reach workers of a pool created after "
            "publish_snapshot()"
        ) from None


def _counter_delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    """The counters that moved from ``before`` to ``after``, by how much."""
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


def _merge(into: dict[str, int], delta: dict[str, int]) -> None:
    for name, value in delta.items():
        into[name] = into.get(name, 0) + value


def _serve_chunk(
    payload: tuple[str, str, list[str], dict],
) -> tuple[list, dict[str, int], dict[str, int]]:
    """Worker entry point: serve one chunk of queries from the snapshot.

    Returns the per-query results plus the counter and routing
    increments this chunk produced, so the parent can merge
    observability back in.  A worker's copy of the index outlives its
    chunks, so each chunk starts from an empty result cache: the merged
    counters then do not depend on which worker ran which chunk.
    """
    token, operation, queries, kwargs = payload
    fault_point("serve.chunk")
    index = resolve_snapshot(token)
    serve = getattr(index, f"_{operation}_one")
    if not in_worker_process():
        # The pool's degraded in-process run serves the parent's own
        # index, which charges itself.
        return [serve(query, **kwargs) for query in queries], {}, {}
    index.result_cache.clear()
    counters, routing = dict(index.counters), dict(index.routing)
    results = [serve(query, **kwargs) for query in queries]
    return (
        results,
        _counter_delta(counters, index.counters),
        _counter_delta(routing, index.routing),
    )


def serve_batch(
    index,
    operation: str,
    queries: Sequence[str],
    kwargs: dict,
    processes: int,
) -> list:
    """Fan a query batch out over the shared pool against a published snapshot.

    ``operation`` names a per-query serve method (``"topk"`` or
    ``"within"``); each worker resolves its local snapshot copy and runs
    the identical in-process code path, so results are byte-identical to
    serial serving.  Counter and routing deltas from the workers are
    merged into the parent index.  Falls back to in-process serving
    inside a pool worker (nested fan-out is not allowed).
    """
    queries = list(queries)
    if in_worker_process() or processes <= 1 or len(queries) <= 1:
        serve = getattr(index, f"_{operation}_one")
        return [serve(query, **kwargs) for query in queries]

    token = index.ensure_published()
    workers = min(processes, len(queries))
    chunk_size = (len(queries) + workers - 1) // workers
    chunks = [
        (token, operation, queries[k : k + chunk_size], kwargs)
        for k in range(0, len(queries), chunk_size)
    ]
    # The snapshot registry also holds every published snapshot in the
    # parent, so resilient_pool_map's in-process degradation path can
    # resolve the token and serve the identical chunks locally.
    outcomes = resilient_pool_map(
        _serve_chunk, chunks, workers, label="serve chunks"
    )
    for _, counters, routing in outcomes:
        _merge(index.counters, counters)
        _merge(index.routing, routing)
    return [result for results, _, _ in outcomes for result in results]


def _shard_call(payload: tuple[str, int, str, tuple]) -> tuple[Any, dict[str, int]]:
    """Worker entry point: one kernel call against the worker's copy of a
    published index, charged to a fresh counters dict it returns."""
    token, shard_index, method, args = payload
    fault_point("serve.chunk")
    counters = new_counters()
    kernel = resolve_snapshot(token).shards[shard_index]
    return getattr(kernel, method)(*args, counters), counters


def scatter(index, calls: Sequence[tuple[int, str, tuple]], processes: int) -> list:
    """Run one ``(shard index, kernel method, args)`` call each, charging
    ``index.counters``; returns ``(the shard's global ids, result)`` pairs
    in ``calls`` order.

    In process the kernels charge the index's counters directly.  With
    ``processes > 1`` and more than one call, the calls run on the shared
    pool against the published index and each call's fresh counters are
    merged back.
    """
    if processes <= 1 or len(calls) <= 1 or in_worker_process():
        counters = index.counters
        results = [
            getattr(index.shards[shard_index], method)(*args, counters)
            for shard_index, method, args in calls
        ]
    else:
        token = index.ensure_published()
        outcomes = resilient_pool_map(
            _shard_call,
            [(token, *call) for call in calls],
            min(processes, len(calls)),
            label="shard scatter",
        )
        for _, counters in outcomes:
            _merge(index.counters, counters)
        results = [result for result, _ in outcomes]
    return [
        (index._shard_ids[shard_index], result)
        for (shard_index, _, _), result in zip(calls, results)
    ]
