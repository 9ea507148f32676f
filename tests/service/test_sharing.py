"""Pool-shared snapshot serving must equal in-process serving.

A serve task is a pure function of the published snapshot and the query
batch, so fanning a batch over the shared worker pool may change
wall-clock only -- never a result.  These tests pin that, plus the
worker-initializer broadcast machinery in :mod:`repro.runtime.pool`
(the spawn-platform fallback path: a pool that already exists when a
snapshot is published must be rebuilt so every worker receives it).

Pool execution needs a usable fork platform (the same gate the rest of
the runtime suite uses); the equivalence itself is platform-independent.
"""

from __future__ import annotations

import pytest

from repro.data import evaluation_corpus
from repro.runtime import fork_is_default, shared_pool, shutdown_shared_pool
from repro.runtime.pool import (
    register_worker_initializer,
    unregister_worker_initializer,
)
from repro.service import SimilarityIndex
from repro.service.sharing import publish_snapshot, resolve_snapshot

pool_required = pytest.mark.skipif(
    not fork_is_default(),
    reason="shared-pool tests need a fork-default platform",
)

#: Set in workers by the initializer-broadcast test.
_PROBE_VALUE: str | None = None


def _set_probe(value: str) -> None:
    global _PROBE_VALUE
    _PROBE_VALUE = value


def _read_probe(_: int) -> str | None:
    return _PROBE_VALUE


@pytest.fixture(autouse=True)
def fresh_pool():
    """Each test starts and ends without a live pool."""
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()


@pool_required
class TestPooledServing:
    def test_topk_identical_to_in_process(self):
        names, _ = evaluation_corpus(50, seed=17)
        index = SimilarityIndex(names)
        queries = names[::7] + ["barak obana"]
        serial = index.topk(queries, k=4)
        pooled = index.topk(queries, k=4, processes=2)
        assert pooled == serial

    def test_within_identical_to_in_process(self):
        names, _ = evaluation_corpus(40, seed=29)
        index = SimilarityIndex(names)
        queries = names[::5]
        serial = index.within(queries, radius=0.2)
        pooled = index.within(queries, radius=0.2, processes=2)
        assert pooled == serial

    def test_preexisting_pool_receives_snapshot(self):
        """Publishing after pool creation triggers the rebuild/broadcast."""
        names, _ = evaluation_corpus(30, seed=31)
        shared_pool(2)  # pool exists before the snapshot does
        index = SimilarityIndex(names)
        queries = names[::4]
        assert index.topk(queries, k=3, processes=2) == index.topk(
            queries, k=3
        )

    def test_append_republishes(self):
        names, _ = evaluation_corpus(30, seed=37)
        index = SimilarityIndex(names)
        index.topk(names[:4], k=2, processes=2)  # publish v1
        index.append(["completely new name"])
        pooled = index.topk(["completely new name"], k=1, processes=2)
        assert pooled[0][0] == ("completely new name", 0.0)

    def test_counter_deltas_merged_back(self):
        names, _ = evaluation_corpus(30, seed=41)
        index = SimilarityIndex(names)
        before = dict(index.counters)
        index.topk(names[::3], k=3, processes=2)
        after = index.counters
        assert after["pairs_verified"] > before["pairs_verified"]

    def test_counters_do_not_depend_on_worker_history(self):
        """A worker's copy outlives its chunks, yet each chunk serves from
        an empty result cache: a repeated pooled batch charges exactly
        what the first one did, whichever worker runs which chunk."""
        names, _ = evaluation_corpus(30, seed=47)
        index = SimilarityIndex(names)
        charged = []
        try:
            for _ in range(3):
                before = dict(index.counters)
                index.topk(names[:6], k=2, processes=2)
                charged.append(
                    {name: index.counters[name] - before[name] for name in before}
                )
        finally:
            index.unpublish()
        assert charged[0] == charged[1] == charged[2]
        assert charged[0]["result_cache_hits"] == 0

    def test_pickled_clone_does_not_evict_original(self):
        """Clones get fresh publish identities: serving a pickled copy
        must not withdraw the original's publication."""
        import pickle

        names, _ = evaluation_corpus(30, seed=43)
        index = SimilarityIndex(names)
        clone = pickle.loads(pickle.dumps(index))
        assert clone.share_key != index.share_key
        queries = names[:4]
        first = index.topk(queries, k=2, processes=2)
        assert clone.topk(queries, k=2, processes=2) == first
        # The original's cached publication token must still resolve.
        assert index.topk(names[4:8], k=2, processes=2) == index.topk(
            names[4:8], k=2
        )

    def test_single_query_stays_in_process(self):
        """No pool spin-up for a batch of one."""
        index = SimilarityIndex(["ann lee", "bob stone"])
        assert index.topk(["ann lee"], k=1, processes=4)[0][0][0] == "ann lee"
        from repro.runtime import shared_pool_size

        assert shared_pool_size() == 0


@pool_required
class TestWorkerInitializers:
    def test_initializer_runs_in_new_workers(self):
        register_worker_initializer("test:probe", _set_probe, ("hello",))
        try:
            results = shared_pool(2).map(_read_probe, range(4))
            assert set(results) == {"hello"}
        finally:
            unregister_worker_initializer("test:probe")

    def test_registration_rebuilds_live_pool(self):
        pool = shared_pool(2)
        assert pool.map(_read_probe, [0]) == [None]
        register_worker_initializer("test:probe", _set_probe, ("later",))
        try:
            assert shared_pool(2).map(_read_probe, [0]) == ["later"]
        finally:
            unregister_worker_initializer("test:probe")

    def test_same_key_replaces(self):
        register_worker_initializer("test:probe", _set_probe, ("first",))
        register_worker_initializer("test:probe", _set_probe, ("second",))
        try:
            assert shared_pool(2).map(_read_probe, [0]) == ["second"]
        finally:
            unregister_worker_initializer("test:probe")


class TestRegistry:
    def test_publish_and_resolve(self):
        index = SimilarityIndex(["ann lee"])
        token = publish_snapshot(index)
        try:
            assert resolve_snapshot(token) is index
        finally:
            index.unpublish()

    def test_unknown_token_raises(self):
        with pytest.raises(RuntimeError):
            resolve_snapshot("simindex-0-999999")

    def test_ensure_published_is_idempotent(self):
        index = SimilarityIndex(["ann lee"])
        token = index.ensure_published()
        try:
            assert index.ensure_published() == token
        finally:
            index.unpublish()

    def test_unpublish_frees_registry_entry(self):
        index = SimilarityIndex(["ann lee"])
        token = index.ensure_published()
        index.unpublish()
        with pytest.raises(RuntimeError):
            resolve_snapshot(token)
        # Safe to repeat, and a later serve can re-publish.
        index.unpublish()
        assert index.ensure_published() != token
        index.unpublish()

    def test_republication_replaces_previous_token(self):
        """One live registry entry per index, however often it republishes."""
        index = SimilarityIndex(["ann lee"])
        first = publish_snapshot(index)
        second = publish_snapshot(index)
        try:
            assert resolve_snapshot(second) is index
            with pytest.raises(RuntimeError):
                resolve_snapshot(first)
        finally:
            index.unpublish()

    def test_append_withdraws_publication(self):
        index = SimilarityIndex(["ann lee"])
        token = index.ensure_published()
        index.append(["bob stone"])
        with pytest.raises(RuntimeError):
            resolve_snapshot(token)
