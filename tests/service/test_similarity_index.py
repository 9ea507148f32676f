"""Property tests for the serving layer's :class:`SimilarityIndex`.

The contracts under test are the ones the serving layer advertises:

* ``topk`` / ``within`` agree exactly with the brute-force NSLD oracle
  (every record scored with :func:`repro.distances.setwise.nsld`, ties
  broken by record id) across K, radius and corpus shape;
* ``append`` + query equals rebuild + query;
* ``join`` is byte-identical to :func:`repro.core.nsld_join` -- same
  pair triples, same counters, same simulated seconds -- and repeated
  joins are answered from the bounded LRU result cache;
* snapshots survive pickling (the pool-broadcast payload).
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session, TopKSpec, WithinSpec
from repro.core import nsld_join
from repro.data import evaluation_corpus
from repro.distances.setwise import nsld
from repro.service import COUNTER_CACHE_HITS, COUNTER_CACHE_MISSES, SimilarityIndex
from repro.tokenize import tokenize

NAMES = [
    "barak obama",
    "borak obama",
    "john smith",
    "jon smith",
    "smith, john",
    "mary williams",
    "ann lee",
    "ann lee",  # duplicate record
    "a",
    "!!!",  # tokenizes to the empty record
]

QUERIES = ["barak obana", "john smith", "ann leex", "zzz qqq", "a", "...", ""]


def oracle_topk(names, query, k):
    query_record = tokenize(query)
    scored = sorted(
        (nsld(query_record, tokenize(name)), index)
        for index, name in enumerate(names)
    )
    return [(names[index], distance) for distance, index in scored[:k]]


def oracle_within(names, query, radius):
    query_record = tokenize(query)
    scored = sorted(
        (distance, index)
        for index, name in enumerate(names)
        if (distance := nsld(query_record, tokenize(name))) <= radius
    )
    return [(names[index], distance) for distance, index in scored]


#: Hypothesis "names": 1-3 short tokens over a tiny alphabet.
def names_strategy(min_size=0, max_size=8):
    token = st.text(alphabet="ab", min_size=1, max_size=4)
    name = st.lists(token, min_size=1, max_size=3).map(" ".join)
    return st.lists(name, min_size=min_size, max_size=max_size)


class TestTopKOracle:
    @pytest.mark.parametrize("k", [1, 3, 10, 25])
    @pytest.mark.parametrize("query", QUERIES)
    def test_matches_bruteforce(self, query, k):
        index = SimilarityIndex(NAMES)
        assert index.topk([query], k=k)[0] == oracle_topk(NAMES, query, k)

    def test_corpus_scale(self):
        names, _ = evaluation_corpus(60, seed=13)
        index = SimilarityIndex(names)
        for query in [names[7], names[30] + "x", "barak obana"]:
            for k in (1, 5, 12):
                assert index.topk([query], k=k)[0] == oracle_topk(
                    names, query, k
                )

    def test_batch_aligned_with_queries(self):
        index = SimilarityIndex(NAMES)
        results = index.topk(QUERIES, k=2)
        assert len(results) == len(QUERIES)
        for query, result in zip(QUERIES, results):
            assert result == oracle_topk(NAMES, query, 2)

    def test_single_string_treated_as_batch_of_one(self):
        index = SimilarityIndex(NAMES)
        assert index.topk("john smith", k=1) == [
            oracle_topk(NAMES, "john smith", 1)
        ]

    def test_k_larger_than_collection(self):
        index = SimilarityIndex(NAMES[:3])
        assert len(index.topk(["x"], k=50)[0]) == 3

    def test_empty_collection(self):
        index = SimilarityIndex([])
        assert index.topk(["anything"], k=3) == [[]]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            SimilarityIndex(NAMES).topk(["x"], k=0)

    def test_boundary_tie_between_verify_paths(self):
        """Regression (hypothesis-found): the single-token batched path
        and the Hungarian path must agree when a distance ties with the
        search radius exactly, so the (distance, id) tie-break holds."""
        index = SimilarityIndex(["b", "a a a"])
        assert index.topk(["a"], k=1)[0] == [("b", 2.0 / 3.0)]

    @settings(max_examples=40, deadline=None)
    @given(names=names_strategy(), query=st.text(alphabet="ab ", max_size=10),
           k=st.integers(1, 6))
    def test_property_matches_bruteforce(self, names, query, k):
        index = SimilarityIndex(names)
        assert index.topk([query], k=k)[0] == oracle_topk(names, query, k)


class TestWithinOracle:
    @pytest.mark.parametrize("radius", [0.0, 0.05, 0.15, 0.5, 0.99, 1.0])
    @pytest.mark.parametrize("query", QUERIES)
    def test_matches_bruteforce(self, query, radius):
        index = SimilarityIndex(NAMES)
        assert index.within([query], radius=radius)[0] == oracle_within(
            NAMES, query, radius
        )

    def test_radius_one_returns_everything(self):
        index = SimilarityIndex(NAMES)
        assert len(index.within(["no such name"], radius=1.0)[0]) == len(NAMES)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            SimilarityIndex(NAMES).within(["x"], radius=-0.1)

    @settings(max_examples=40, deadline=None)
    @given(
        names=names_strategy(),
        query=st.text(alphabet="ab ", max_size=10),
        radius=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_property_matches_bruteforce(self, names, query, radius):
        index = SimilarityIndex(names)
        assert index.within([query], radius=radius)[0] == oracle_within(
            names, query, radius
        )


class TestAppend:
    def test_append_equals_rebuild(self):
        names, _ = evaluation_corpus(40, seed=3)
        grown = SimilarityIndex(names[:20])
        grown.append(names[20:])
        fresh = SimilarityIndex(names)
        for query in [names[5], names[35], "barak obana"]:
            assert grown.topk([query], k=6) == fresh.topk([query], k=6)
            assert grown.within([query], radius=0.3) == fresh.within(
                [query], radius=0.3
            )
        assert grown.join(engine="serial").pairs == fresh.join(
            engine="serial"
        ).pairs

    def test_append_invalidates_cached_results(self):
        index = SimilarityIndex(["ann lee", "bob stone"])
        before = index.topk(["ann leex"], k=2)[0]
        index.append(["ann leex"])
        after = index.topk(["ann leex"], k=2)[0]
        assert after != before
        assert after[0] == ("ann leex", 0.0)

    def test_incremental_structures_grow_in_place(self):
        index = SimilarityIndex(["ann lee"])
        vocab, postings = index.vocab, index.token_postings
        index.append(["bob stone", "ann stone"])
        # Same objects, extended -- no rebuild.
        assert index.vocab is vocab
        assert index.token_postings is postings
        assert len(index) == 3

    @settings(max_examples=30, deadline=None)
    @given(
        first=names_strategy(),
        second=names_strategy(),
        query=st.text(alphabet="ab ", max_size=8),
    )
    def test_property_append_equals_rebuild(self, first, second, query):
        grown = SimilarityIndex(first)
        grown.append(second)
        fresh = SimilarityIndex(first + second)
        assert grown.topk([query], k=4) == fresh.topk([query], k=4)


class TestJoin:
    def test_byte_identical_to_nsld_join(self):
        names, _ = evaluation_corpus(50, seed=9)
        index = SimilarityIndex(names)
        resident = index.join(threshold=0.1, engine="serial")
        rebuilt = nsld_join(names, threshold=0.1, engine="serial")
        assert resident.pairs == rebuilt.pairs
        assert resident.clusters == rebuilt.clusters
        assert resident.index_pairs == rebuilt.index_pairs
        assert resident.simulated_seconds == rebuilt.simulated_seconds
        assert resident.counters == rebuilt.counters

    def test_repeated_join_hits_cache(self):
        index = SimilarityIndex(["ann lee", "ann leex", "bob stone"])
        first = index.join(threshold=0.2, engine="serial")
        hits_before = index.counters[COUNTER_CACHE_HITS]
        second = index.join(threshold=0.2, engine="serial")
        assert second is first  # the cached object
        assert index.counters[COUNTER_CACHE_HITS] == hits_before + 1

    def test_engine_excluded_from_cache_key(self):
        index = SimilarityIndex(["ann lee", "ann leex", "bob stone"])
        serial = index.join(threshold=0.2, engine="serial")
        assert index.join(threshold=0.2, engine="auto") is serial

    def test_distinct_parameters_cached_separately(self):
        index = SimilarityIndex(["ann lee", "ann leex", "bob stone"])
        loose = index.join(threshold=0.3, engine="serial")
        tight = index.join(threshold=0.01, engine="serial")
        assert loose.pairs != tight.pairs

    def test_nsld_join_index_entry_point(self):
        names = ["barak obama", "borak obama", "john smith"]
        index = SimilarityIndex(names)
        via_index = nsld_join(index=index, threshold=0.15, engine="serial")
        direct = nsld_join(names, threshold=0.15, engine="serial")
        assert via_index.pairs == direct.pairs
        assert via_index.simulated_seconds == direct.simulated_seconds

    def test_nsld_join_rejects_names_and_index(self):
        index = SimilarityIndex(["a b"])
        with pytest.raises(ValueError):
            nsld_join(["a b"], index=index)
        with pytest.raises(ValueError):
            nsld_join()


class TestResultCache:
    def test_repeated_queries_hit(self):
        index = SimilarityIndex(NAMES)
        index.topk(["barak obana"], k=3)
        misses = index.counters[COUNTER_CACHE_MISSES]
        index.topk(["barak obana"], k=3)
        assert index.counters[COUNTER_CACHE_HITS] >= 1
        assert index.counters[COUNTER_CACHE_MISSES] == misses

    def test_cache_capacity_bounded(self):
        index = SimilarityIndex(NAMES, cache_size=4)
        for i in range(50):
            index.topk([f"query {i}"], k=1)
        assert len(index.result_cache) <= 4

    def test_cache_disabled(self):
        index = SimilarityIndex(NAMES, cache_size=0)
        index.topk(["x"], k=1)
        index.topk(["x"], k=1)
        assert index.counters[COUNTER_CACHE_HITS] == 0

    def test_mutating_a_result_does_not_corrupt_the_cache(self):
        index = SimilarityIndex(NAMES)
        first = index.topk(["barak obana"], k=3)[0]
        expected = list(first)
        first.clear()  # the caller's copy, never the cached list
        assert index.topk(["barak obana"], k=3)[0] == expected
        ranged = index.within(["john smith"], radius=0.2)[0]
        expected_range = list(ranged)
        ranged.reverse()
        assert index.within(["john smith"], radius=0.2)[0] == expected_range


class TestServingBackends:
    """One serving method: ``vptree`` is an alias of the cascade, the
    retired ``bktree``/``fuzzymatch`` names are unknown methods."""

    def test_vptree_matches_oracle_distances(self):
        names, _ = evaluation_corpus(30, seed=21)
        query = names[4] + "x"
        got = Session(names).run(TopKSpec(queries=(query,), k=5, method="vptree"))
        want = oracle_topk(names, query, 5)
        assert got.matches == [[[name, distance] for name, distance in want]]

    def test_within_on_metric_trees(self):
        names, _ = evaluation_corpus(25, seed=2)
        query = names[3]
        cascade = SimilarityIndex(names).within([query], radius=0.25)[0]
        vptree = Session(names).run(
            WithinSpec(queries=(query,), radius=0.25, method="vptree")
        )
        assert vptree.matches == [[[name, distance] for name, distance in cascade]]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown search method 'nope'"):
            TopKSpec(queries=("x",), method="nope")

    def test_fuzzymatch_within_rejected(self):
        with pytest.raises(ValueError, match="unknown search method 'fuzzymatch'"):
            WithinSpec(queries=("x",), radius=0.2, method="fuzzymatch")

    def test_prepare_returns_self(self):
        index = SimilarityIndex(NAMES)
        assert index.prepare("cascade") is index


class TestSnapshotPickling:
    def test_roundtrip_serves_identically(self):
        names, _ = evaluation_corpus(30, seed=5)
        index = SimilarityIndex(names)
        index.topk([names[2]], k=3)  # warm caches and masks
        clone = pickle.loads(pickle.dumps(index))
        for query in [names[2], "barak obana"]:
            assert clone.topk([query], k=4) == index.topk([query], k=4)


class TestCounters:
    def test_canonical_counters_accumulate(self):
        index = SimilarityIndex(NAMES)
        index.topk(["barak obana"], k=3)
        counters = index.counters
        assert counters["candidates_generated"] > 0
        assert counters["pairs_verified"] > 0
        assert COUNTER_CACHE_MISSES in counters

    def test_stats_shape(self):
        index = SimilarityIndex(NAMES)
        stats = index.stats()
        assert stats["records"] == len(NAMES)
        assert stats["distinct_tokens"] == len(index.vocab)
