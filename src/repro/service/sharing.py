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
* serve tasks then ship only ``(token, queries, kwargs)`` -- the
  snapshot never travels again, and results (plus the workers' counter
  deltas, so observability survives the fan-out) come back positionally
  aligned with the query batch.

Results are byte-identical to in-process serving: a serve task is a
pure function of the published snapshot and the query batch
(property-tested in ``tests/service/test_sharing.py``).
"""

from __future__ import annotations

import itertools
import os
from typing import Any, Sequence

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


def _serve_chunk(
    payload: tuple[str, str, list[str], dict],
) -> tuple[list, dict[str, int]]:
    """Worker entry point: serve one chunk of queries from the snapshot.

    Returns the per-query results plus the counter increments this chunk
    produced, so the parent can merge observability back in.
    """
    token, operation, queries, kwargs = payload
    fault_point("serve.chunk")
    index = resolve_snapshot(token)
    before = dict(index.counters)
    serve = getattr(index, f"_{operation}_one")
    results = [serve(query, **kwargs) for query in queries]
    return results, _counter_delta(before, index.counters)


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
    serial serving.  Counter deltas from the workers are merged into the
    parent index's counters.  Falls back to in-process serving inside a
    pool worker (nested fan-out is not allowed).
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
    counters = index.counters
    for _, delta in outcomes:
        for name, value in delta.items():
            counters[name] = counters.get(name, 0) + value
    return [result for results, _ in outcomes for result in results]
