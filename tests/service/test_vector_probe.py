"""The serving probe is backend-invariant: identical results and counters.

Each shard kernel's ``within`` decides the Lemma 6 length filter and
the histogram bound once per distinct token-length histogram and only
hands survivors to the verification kernel, so every backend
usable in this process (``available_backends()`` minus ``auto``; with
or without numpy) must serve the same results *and* the same cumulative
cascade / verification / cache counters -- through ``topk``, ``within``,
append-then-query, pickle and snapshot round-trips -- and agree with the
brute-force NSLD oracle.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.accel import available_backends
from repro.data import NameGenerator
from repro.service import SimilarityIndex
from repro.store import SnapshotStore

pytestmark = pytest.mark.tier1

#: Every concrete backend here; ``bitparallel`` (always present) first,
#: the reference the others are compared with.
BACKENDS = ["bitparallel"] + [
    name for name in available_backends() if name not in ("auto", "bitparallel")
]


@pytest.fixture(scope="module")
def names():
    return NameGenerator(seed=3).generate(250)


@pytest.fixture(scope="module")
def queries(names):
    rng = random.Random(9)
    picked = [names[index] for index in rng.sample(range(len(names)), 15)]
    return picked + ["zzz qqq", "a", "", "barak obama jr"]


def serve_all(indexes, queries, radii=(0.25,), ks=(5,)):
    """Run one call sequence on every index; assert equal answers."""
    for query in queries:
        for radius in radii:
            answers = [index.within([query], radius) for index in indexes]
            assert all(answer == answers[0] for answer in answers), (query, radius)
        for k in ks:
            answers = [index.topk([query], k=k) for index in indexes]
            assert all(answer == answers[0] for answer in answers), (query, k)


def assert_same_counters(indexes):
    assert all(index.counters == indexes[0].counters for index in indexes)


def test_results_and_counters_match_scalar(names, queries):
    indexes = [SimilarityIndex(names, backend=backend) for backend in BACKENDS]
    serve_all(indexes, queries, radii=(0.0, 0.05, 0.15, 0.4, 1.0, 2.0), ks=(1, 3, 10))
    assert_same_counters(indexes)


def cascade_reference_counters(index, query, radius):
    """What a per-candidate :class:`FilterCascade` charges for one
    memo-free ``within`` pass of a multi-token query: every Lemma 6
    window record through the length filter, then the histogram bound,
    and every survivor verified."""
    import math

    from repro.candidates import (
        COUNTER_PRUNED_COUNT,
        COUNTER_PRUNED_LENGTH,
        COUNTER_VERIFIED,
        FilterCascade,
        HistogramBoundFilter,
        new_counters,
    )
    from repro.distances.setwise import nsld_length_lower_bound
    from repro.tsj.jobs import encode_histogram

    record = index.tokenizer.tokenize(query)
    length = record.aggregate_length
    records = index.records
    window = [
        record_id
        for record_id, other in enumerate(records)
        if radius >= 1.0
        or math.floor((1.0 - radius) * length)
        <= other.aggregate_length
        <= math.ceil(length / (1.0 - radius))
    ]
    bound = HistogramBoundFilter(0.0, use_lemma10=False).nsld_bound_encoded
    query_histogram = encode_histogram(record.length_histogram)
    counters = new_counters()
    cascade = FilterCascade(
        (
            COUNTER_PRUNED_LENGTH,
            lambda other: nsld_length_lower_bound(
                length, records[other].aggregate_length
            )
            <= radius,
        ),
        (
            COUNTER_PRUNED_COUNT,
            lambda other: bound(
                query_histogram, encode_histogram(records[other].length_histogram), ()
            )
            <= radius,
        ),
        counters=counters,
    )
    counters[COUNTER_VERIFIED] += len(cascade.admitted(window))
    return counters


def test_counters_match_a_per_candidate_cascade(names, queries):
    """Deciding the filters once per distinct histogram charges exactly
    what the per-candidate cascade would, under every backend."""
    from repro.candidates import CASCADE_COUNTERS

    multi_token = [query for query in queries if len(query.split()) > 1]
    for backend in BACKENDS:
        index = SimilarityIndex(names, backend=backend, cache_size=0)
        for query in multi_token:
            for radius in (0.05, 0.15, 0.4, 1.0):
                before = dict(index.counters)
                index.within([query], radius)
                charged = {
                    name: index.counters[name] - before[name]
                    for name in CASCADE_COUNTERS
                }
                expected = cascade_reference_counters(index, query, radius)
                assert charged == expected, (backend, query, radius)


def test_topk_counters_match_recorded_values(names, queries):
    """Top-k seeding and radius expansion charge the recorded counts.

    Recorded once from the per-candidate cascade implementation; the
    exact values are seeded and backend-invariant, so any change to the
    seed cap, the seed charges or the expansion schedule shows here.
    """
    for backend in BACKENDS:
        index = SimilarityIndex(names, backend=backend, cache_size=0)
        index.topk(queries, k=1)
        index.topk(queries, k=5)
        assert index.counters == {
            "candidates_generated": 6320,
            "pruned_by_length": 160,
            "pruned_by_count": 477,
            "pruned_by_position": 0,
            "pairs_verified": 5683,
            "result_cache_hits": 0,
            "result_cache_misses": 38,
        }, backend


def test_single_token_collections_match(names):
    """Single-token queries route through the batched NLD group."""
    tokens = [name.split()[0] for name in names[:60]]
    indexes = [SimilarityIndex(tokens, backend=backend) for backend in BACKENDS]
    serve_all(indexes, tokens[:10] + ["zzzz", ""], radii=(0.3,), ks=(4,))
    assert_same_counters(indexes)


def test_append_then_query_matches_across_backends(names, queries):
    indexes = [SimilarityIndex(names[:100], backend=backend) for backend in BACKENDS]
    for index in indexes:
        index.within([queries[0]], 0.2)  # serve once before the append
        index.append(names[100:150])
    serve_all(indexes + [SimilarityIndex(names[:150])], queries[:8])
    assert_same_counters(indexes)


def _histogram_ids_match_rebuild(index):
    rebuilt = SimilarityIndex(index.names)
    assert index.shards[0]._histogram_ids == rebuilt.shards[0]._histogram_ids
    assert index.shards[0]._histograms == rebuilt.shards[0]._histograms


def test_append_introducing_a_new_histogram(names, queries):
    novel = "abcdefghijklmnopqrstuvwxyzabcd q"  # token lengths 30 and 1
    indexes = [SimilarityIndex(names[:80], backend=backend) for backend in BACKENDS]
    distinct = len(indexes[0].shards[0]._histograms)
    for index in indexes:
        index.append([novel])
        assert len(index.shards[0]._histograms) == distinct + 1
        assert index.shards[0]._histogram_ids[-1] == distinct
        _histogram_ids_match_rebuild(index)
    serve_all(indexes, queries[:6] + [novel, "abcdefghijklmnopqrstuvwxyzabce q"])
    assert_same_counters(indexes)
    assert indexes[0].within([novel], 0.0)[0] == [(novel, 0.0)]


def test_append_reusing_an_existing_histogram(names, queries):
    from repro.tokenize import tokenize

    existing = names[7]
    # Same token lengths, different letters: the same encoded histogram.
    twin = " ".join("y" * len(token) for token in tokenize(existing).tokens)
    indexes = [SimilarityIndex(names[:80], backend=backend) for backend in BACKENDS]
    distinct = len(indexes[0].shards[0]._histograms)
    for index in indexes:
        index.append([twin])
        assert len(index.shards[0]._histograms) == distinct
        histogram_ids = index.shards[0]._histogram_ids
        assert histogram_ids[-1] == histogram_ids[7]
        _histogram_ids_match_rebuild(index)
    serve_all(indexes, queries[:6] + [twin, existing])
    assert_same_counters(indexes)
    assert indexes[0].within([twin], 0.0)[0] == [(twin, 0.0)]


def test_pickle_roundtrip_serves_identically(names, queries):
    for backend in BACKENDS:
        index = SimilarityIndex(names[:80], backend=backend)
        index.within([queries[0]], 0.2)  # serve once before pickling
        clone = pickle.loads(pickle.dumps(index))
        serve_all([index, clone], queries[:6], ks=(3,))
        assert_same_counters([index, clone])


def test_snapshot_roundtrip_serves_identically(names, queries, tmp_path):
    for backend in BACKENDS:
        index = SimilarityIndex(names[:120], backend=backend)
        store = SnapshotStore(str(tmp_path / backend))
        store.save(index)
        loaded = SnapshotStore(str(tmp_path / backend)).load()
        assert loaded.backend == backend
        assert loaded.shards[0]._histogram_ids == index.shards[0]._histogram_ids
        assert loaded.shards[0]._histograms == index.shards[0]._histograms
        serve_all([index, loaded], queries[:8], radii=(0.1, 0.3), ks=(1, 5))
        assert_same_counters([index, loaded])


def test_matches_bruteforce_oracle(names):
    """The probe agrees with brute-force NSLD under every backend, not
    just with itself: guards against a bug shared by all of them."""
    from repro.distances import nsld
    from repro.tokenize import tokenize

    subset = names[:60]
    records = [tokenize(name) for name in subset]
    rng = random.Random(5)
    picked = [subset[i] for i in rng.sample(range(len(subset)), 6)]
    for backend in BACKENDS:
        index = SimilarityIndex(subset, backend=backend)
        for query in picked:
            query_record = tokenize(query)
            for radius in (0.1, 0.35):
                expected = sorted(
                    (nsld(query_record, record), position)
                    for position, record in enumerate(records)
                    if nsld(query_record, record) <= radius
                )
                got = index.within([query], radius)[0]
                assert got == [
                    (subset[position], distance) for distance, position in expected
                ], (backend, query, radius)
