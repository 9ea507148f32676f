"""Session facade behaviour: dispatch, residency, envelope round-trips."""

from __future__ import annotations

import pytest

from repro.api import (
    CompareSpec,
    JoinSpec,
    ResultSet,
    Session,
    TopKSpec,
    WithinSpec,
)
from repro.api.result import COUNTER_CACHE_RESIDENT
from repro.service.cache import COUNTER_CACHE_HITS, COUNTER_CACHE_MISSES

pytestmark = pytest.mark.tier1

NAMES = [
    "barak obama",
    "borak obama",
    "john smith",
    "jon smith",
    "mary williams",
]


@pytest.fixture
def session():
    return Session(NAMES)


class TestDispatch:
    def test_join(self, session):
        result = session.run(
            JoinSpec(threshold=0.15, params={"max_token_frequency": None})
        )
        assert result.kind == "join"
        assert result.algorithm == "tsj"
        assert ["barak obama", "borak obama"] in [
            pair[:2] for pair in result.pairs
        ]
        assert result.index_pairs == sorted(result.index_pairs)
        assert result.simulated_seconds > 0
        assert result.collection_size == len(NAMES)
        assert result.request["type"] == "join"

    def test_topk(self, session):
        result = session.run(TopKSpec(queries=("barak obana",), k=2))
        assert result.kind == "topk"
        assert result.algorithm == "similarity_index"
        assert result.matches[0][0][0] == "barak obama"
        assert len(result.matches[0]) == 2
        assert COUNTER_CACHE_RESIDENT in result.counters

    def test_within(self, session):
        result = session.run(WithinSpec(queries=("john smith",), radius=0.15))
        names = [name for name, _ in result.matches[0]]
        assert names == ["john smith", "jon smith"]

    def test_compare(self, session):
        result = session.run(
            CompareSpec(name_a="barak obama", name_b="obama, barak")
        )
        assert result.kind == "compare"
        assert result.value == 0.0

    def test_rejects_non_spec(self, session):
        with pytest.raises(TypeError, match="Session.run expects"):
            session.run({"type": "join"})

    def test_no_corpus_anywhere(self):
        with pytest.raises(ValueError, match="no corpus to run against"):
            Session().run(JoinSpec())

    def test_records_without_names_rejected(self):
        from repro.tokenize import tokenize

        records = [tokenize(name) for name in NAMES]
        with pytest.raises(ValueError, match="must align"):
            Session().run(JoinSpec(), records=records)
        with pytest.raises(ValueError, match="must align"):
            Session().run(TopKSpec(queries=("x",)), records=records)

    def test_misaligned_records_rejected(self, session):
        from repro.tokenize import tokenize

        records = [tokenize(name) for name in NAMES]
        with pytest.raises(ValueError, match="must align"):
            session.run(JoinSpec(), names=NAMES[:-1], records=records)

    def test_compare_fast_path_matches_envelope(self, session):
        value = session.run(
            CompareSpec(name_a="barak obama", name_b="burak ubama")
        ).value
        assert session.compare("barak obama", "burak ubama") == value

    def test_inline_names_win_over_default(self, session):
        result = session.run(
            JoinSpec(
                names=("ann lee", "ann leex"),
                threshold=0.2,
                params={"max_token_frequency": None},
            )
        )
        assert result.collection_size == 2
        assert [pair[:2] for pair in result.pairs] == [["ann lee", "ann leex"]]


class TestResidency:
    def test_index_reused_across_specs(self, session):
        first = session.run(TopKSpec(queries=("barak obana",), k=2))
        second = session.run(TopKSpec(queries=("barak obana",), k=2))
        # The repeated request is answered by the resident index's LRU:
        # a hit, and no fresh verification work.
        assert second.counters[COUNTER_CACHE_HITS] == 1
        assert second.counters["pairs_verified"] == 0
        assert second.matches == first.matches
        # Build happened once: the second run's build split is ~zero.
        assert second.build_seconds < first.build_seconds or (
            second.build_seconds == 0.0
        )

    def test_counters_are_per_request_deltas(self, session):
        first = session.run(TopKSpec(queries=("jon smiht",), k=1))
        second = session.run(TopKSpec(queries=("jon smiht",), k=1))
        assert first.counters[COUNTER_CACHE_MISSES] == 1
        assert second.counters[COUNTER_CACHE_MISSES] == 0
        assert second.counters[COUNTER_CACHE_HITS] == 1

    def test_tokenization_shared_between_join_and_search(self, session):
        session.run(JoinSpec(threshold=0.1))
        session.run(TopKSpec(queries=("x",), k=1))
        stats = session.stats()
        assert stats["resident_corpora"] == 1
        assert stats["corpora"][0]["tokenized"]

    def test_search_is_served_by_a_one_shard_router(self, session):
        from repro.shard import ShardedIndex

        session.run(TopKSpec(queries=("barak obana",), k=2))
        (index,) = session._corpus(None)._indexes.values()
        assert isinstance(index, ShardedIndex)
        assert len(index.shards) == 1
        assert session.shard_status()["sizes"] == [len(NAMES)]

    def test_lru_bounds_resident_corpora(self):
        session = Session(max_resident=2)
        for offset in range(3):
            names = (f"name {offset}", f"name {offset + 1}")
            session.run(TopKSpec(names=names, queries=("q",), k=1))
        assert session.stats()["resident_corpora"] == 2


class TestEnvelope:
    def test_join_round_trips(self, session):
        result = session.run(JoinSpec(threshold=0.15))
        assert ResultSet.from_json(result.to_json()) == result

    def test_topk_round_trips(self, session):
        result = session.run(TopKSpec(queries=("barak obana", "x"), k=3))
        assert ResultSet.from_json(result.to_json()) == result

    def test_within_round_trips(self, session):
        result = session.run(WithinSpec(queries=("john smith",), radius=0.3))
        assert ResultSet.from_json(result.to_json()) == result

    def test_compare_round_trips(self, session):
        result = session.run(CompareSpec(name_a="a b", name_b="b a"))
        assert ResultSet.from_json(result.to_json()) == result

    def test_unknown_envelope_field(self):
        with pytest.raises(ValueError, match="unknown ResultSet field"):
            ResultSet.from_json('{"kind": "join", "pears": []}')

    def test_summary_join(self, session):
        result = session.run(
            JoinSpec(threshold=0.15, params={"max_token_frequency": None})
        )
        text = "\n".join(result.summary(limit=10))
        assert "similar pairs" in text
        assert "clusters" in text
        assert "simulated runtime" in text
        assert "candidate pipeline" in text

    def test_summary_topk(self, session):
        result = session.run(TopKSpec(queries=("barak obana",), k=1))
        text = "\n".join(result.summary())
        assert "# query: barak obana" in text
        assert "built once" in text
        assert "result cache" in text

    def test_join_report_bridge(self, session):
        report = session.run(JoinSpec(threshold=0.15)).to_join_report()
        assert isinstance(report.index_pairs, set)
        assert all(isinstance(cluster, set) for cluster in report.clusters)


class TestScoreKinds:
    def test_similarity_algorithms_sort_descending(self, session):
        result = session.run(
            JoinSpec(
                names=("ann lee", "ann lee bob", "ann lee bob cho"),
                algorithm="prefix_filter",
                threshold=0.3,
            )
        )
        assert result.score_kind == "similarity"
        scores = [score for _, _, score in result.pairs]
        assert scores == sorted(scores, reverse=True)

    def test_ld_algorithms_report_integer_scores(self, session):
        result = session.run(
            JoinSpec(names=("chan", "chank", "kalan"), algorithm="passjoin",
                     threshold=1)
        )
        assert [pair[2] for pair in result.pairs] == [1]
