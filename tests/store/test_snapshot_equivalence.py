"""Save/load equivalence: a loaded index answers byte-identically.

The snapshot must be lossless where it matters: for every accepted
search method spelling and for joins, a session restored from disk produces the
same pairs/matches, the same cascade counters and the same simulated
seconds as a session freshly built from the same names.  Only wall-clock
fields (``build_seconds``/``query_seconds``) may differ.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import JoinSpec, Session, TopKSpec, WithinSpec
from repro.api.registry import search_methods
from repro.store import (
    index_from_sections,
    index_to_sections,
    read_snapshot_file,
    write_snapshot_file,
)
from repro.tokenize import Tokenizer

pytestmark = pytest.mark.tier1

NAMES = [
    "barak obama",
    "borak obama",
    "john smith",
    "jon smiht",
    "ann lee",
    "anne leigh",
    "veronika dahl",
    "tariq hassan",
    "",
    "  ann   lee  ",
]

QUERIES = ("barak obana", "jon smith", "ann lee", "zzz qqq")


def canonical(result) -> dict:
    """A ResultSet dict with the wall-clock fields dropped."""
    data = result.to_dict()
    data.pop("build_seconds", None)
    data.pop("query_seconds", None)
    return data


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("snap") / "names.snap")
    Session(NAMES).save(path)
    return path


class TestSearchEquivalence:
    @pytest.mark.parametrize("method", search_methods(include_aliases=True))
    def test_topk_identical(self, snapshot_path, method):
        fresh = Session(NAMES).run(
            TopKSpec(queries=QUERIES, k=3, method=method)
        )
        loaded = Session.load(snapshot_path).run(
            TopKSpec(queries=QUERIES, k=3, method=method)
        )
        assert canonical(loaded) == canonical(fresh)

    @pytest.mark.parametrize("method", search_methods(include_aliases=True))
    def test_within_identical(self, snapshot_path, method):
        fresh = Session(NAMES).run(
            WithinSpec(queries=QUERIES, radius=0.3, method=method)
        )
        loaded = Session.load(snapshot_path).run(
            WithinSpec(queries=QUERIES, radius=0.3, method=method)
        )
        assert canonical(loaded) == canonical(fresh)

    def test_join_identical(self, snapshot_path):
        fresh = Session(NAMES).run(JoinSpec(threshold=0.2))
        loaded = Session.load(snapshot_path).run(JoinSpec(threshold=0.2))
        assert canonical(loaded) == canonical(fresh)

    def test_simulated_seconds_survive(self, snapshot_path):
        # tsj runs on the simulated MapReduce cluster, so its metered
        # cost depends on the restored postings/token structure too.
        spec = JoinSpec(threshold=0.2, algorithm="tsj")
        fresh = Session(NAMES).run(spec)
        loaded = Session.load(snapshot_path).run(spec)
        assert fresh.simulated_seconds is not None
        assert loaded.simulated_seconds == fresh.simulated_seconds


class TestSectionCodec:
    def test_sections_round_trip_index(self):
        from repro.service import SimilarityIndex

        index = SimilarityIndex(NAMES)
        clone = index_from_sections(index_to_sections(index))
        assert clone.names == index.names
        assert len(clone) == len(index)
        assert clone.backend == index.backend
        assert clone.tokenizer == index.tokenizer
        assert clone.topk("barak obana", k=3) == index.topk("barak obana", k=3)

    def test_tokenizer_config_survives(self, tmp_path):
        tokenizer = Tokenizer(
            lowercase=False, min_token_length=2, extra_separators="-"
        )
        from repro.service import SimilarityIndex

        index = SimilarityIndex(
            ["Jean-Luc Picard", "jean luc picard"], tokenizer=tokenizer
        )
        path = str(tmp_path / "t.snap")
        write_snapshot_file(path, index_to_sections(index))
        clone = index_from_sections(read_snapshot_file(path))
        assert clone.tokenizer == tokenizer
        query = "Jean-Luc Pickard"
        assert clone.topk(query, k=2) == index.topk(query, k=2)

    def test_cache_capacity_survives(self, tmp_path):
        from repro.service import SimilarityIndex

        index = SimilarityIndex(NAMES, cache_size=7)
        clone = index_from_sections(index_to_sections(index))
        assert clone.result_cache.capacity == 7

    def test_empty_index_round_trips(self):
        from repro.service import SimilarityIndex

        index = SimilarityIndex([])
        clone = index_from_sections(index_to_sections(index))
        assert len(clone) == 0
        assert clone.topk("anything", k=3) == index.topk("anything", k=3)


class TestLoadedIndexSharing:
    def test_loaded_index_pickles(self, snapshot_path):
        index = index_from_sections(read_snapshot_file(snapshot_path))
        clone = pickle.loads(pickle.dumps(index))
        assert clone.names == index.names
        assert clone.topk("barak obana", k=3) == index.topk("barak obana", k=3)

    def test_loaded_session_serves_the_pool(self, snapshot_path):
        # processes=2 publishes the loaded index to the worker pool --
        # the parallel answer must match the serial one exactly.
        spec_serial = TopKSpec(queries=QUERIES, k=3)
        spec_parallel = TopKSpec(queries=QUERIES, k=3, processes=2)
        session = Session.load(snapshot_path)
        serial = session.run(spec_serial)
        parallel = Session.load(snapshot_path).run(spec_parallel)
        assert parallel.matches == serial.matches

    def test_appends_after_load_are_searchable(self, snapshot_path):
        from repro.service import SimilarityIndex

        session = Session.load(snapshot_path)
        fresh = SimilarityIndex(NAMES + ["zed zed"])
        # loaded sessions have no store; grow via the durable index path
        index = session._durable_index
        index.append(["zed zed"])
        assert index.topk("zed zed", k=1) == fresh.topk("zed zed", k=1)
