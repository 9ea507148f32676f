"""Registry completeness: every algorithm behind ``Session.run(spec)``.

The property the front door guarantees: for every registered join
algorithm, a ``JoinSpec`` returns exactly the pairs of the layer's
direct call (seeded corpora), and every accepted spelling of the one
search method is reachable through ``TopKSpec``/``WithinSpec`` with
results identical to the direct :class:`repro.service.SimilarityIndex`
call.  A newly
registered algorithm must be added to the direct-call map below -- the
test fails on any registry/map drift in either direction.
"""

from __future__ import annotations

import pytest

from repro.api import JoinSpec, Session, TopKSpec, WithinSpec
from repro.api.registry import join_algorithms, search_methods
from repro.data import evaluation_corpus
from repro.tokenize import tokenize

pytestmark = pytest.mark.tier1

NAMES, _ = evaluation_corpus(40, ring_fraction=0.4, ring_size=4, seed=7)
RECORDS = [tokenize(name) for name in NAMES]
TOKEN_LISTS = [list(record.tokens) for record in RECORDS]

#: Per-algorithm (threshold, params, direct_call) -- the equivalence
#: oracle for the registry.  ``direct_call()`` returns the pair set the
#: pre-registry entry point produces on the same corpus.
NSLD_T = 0.15
LD_T = 2
JACCARD_T = 0.5


def _direct_tsj():
    from repro.tsj import TSJ, TSJConfig

    return TSJ(TSJConfig(threshold=NSLD_T)).self_join(RECORDS).pairs


def _direct_naive():
    from repro.joins import naive_nsld_self_join

    return naive_nsld_self_join(RECORDS, NSLD_T)


def _direct_passjoin():
    from repro.joins import PassJoin

    return PassJoin(LD_T).self_join(NAMES)


def _direct_passjoin_k():
    from repro.joins import PassJoinK

    return PassJoinK(LD_T, k_signatures=2).self_join(NAMES)


def _direct_passjoin_kmr():
    from repro.joins import PassJoinKMR

    return PassJoinKMR(threshold=LD_T, k_signatures=2).self_join(NAMES).pairs


def _direct_qgram():
    from repro.joins import qgram_ld_self_join

    return qgram_ld_self_join(NAMES, LD_T)


def _direct_massjoin():
    from repro.joins import MassJoin

    return MassJoin(threshold=NSLD_T, mode="nld").self_join(NAMES).pairs


def _direct_prefix_filter():
    from repro.joins import prefix_filter_jaccard_self_join

    return prefix_filter_jaccard_self_join(TOKEN_LISTS, JACCARD_T)


def _direct_mgjoin():
    from repro.joins import mgjoin_jaccard_self_join

    return mgjoin_jaccard_self_join(TOKEN_LISTS, JACCARD_T)


def _direct_vernica():
    from repro.joins import VernicaJoin

    return VernicaJoin(threshold=JACCARD_T).self_join(TOKEN_LISTS).pairs


def _direct_clusterjoin():
    from repro.metricspace import ClusterJoin

    return ClusterJoin(threshold=NSLD_T).self_join(RECORDS).pairs


def _direct_mrmapss():
    from repro.metricspace import MRMAPSS

    return MRMAPSS(threshold=NSLD_T).self_join(RECORDS).pairs


def _direct_hmj():
    from repro.metricspace import HMJ

    return HMJ(threshold=NSLD_T).self_join(RECORDS).pairs


def _direct_quickjoin():
    from repro.metricspace import QuickJoin

    return QuickJoin(threshold=NSLD_T).self_join(RECORDS)


DIRECT_CALLS = {
    "tsj": (NSLD_T, {}, _direct_tsj),
    "naive": (NSLD_T, {}, _direct_naive),
    "passjoin": (LD_T, {}, _direct_passjoin),
    "passjoin_k": (LD_T, {}, _direct_passjoin_k),
    "passjoin_kmr": (LD_T, {}, _direct_passjoin_kmr),
    "qgram": (LD_T, {}, _direct_qgram),
    "massjoin": (NSLD_T, {}, _direct_massjoin),
    "prefix_filter": (JACCARD_T, {}, _direct_prefix_filter),
    "mgjoin": (JACCARD_T, {}, _direct_mgjoin),
    "vernica": (JACCARD_T, {}, _direct_vernica),
    "clusterjoin": (NSLD_T, {}, _direct_clusterjoin),
    "mrmapss": (NSLD_T, {}, _direct_mrmapss),
    "hmj": (NSLD_T, {}, _direct_hmj),
    "quickjoin": (NSLD_T, {}, _direct_quickjoin),
}


def test_every_registered_algorithm_has_an_oracle():
    assert set(join_algorithms()) == set(DIRECT_CALLS)


@pytest.mark.parametrize("algorithm", sorted(DIRECT_CALLS))
def test_spec_equals_direct_call(algorithm):
    threshold, params, direct = DIRECT_CALLS[algorithm]
    session = Session(NAMES, engine="serial")
    result = session.run(
        JoinSpec(algorithm=algorithm, threshold=threshold, params=params)
    )
    spec_pairs = {tuple(pair) for pair in result.index_pairs}
    assert spec_pairs == set(direct())
    # Every reported named pair carries a score consistent with its kind.
    for _, _, score in result.pairs:
        assert isinstance(score, (int, float))


def test_every_search_method_reachable():
    assert search_methods() == ("similarity_index",)
    assert search_methods(include_aliases=True) == (
        "cascade",
        "similarity_index",
        "vptree",
    )
    session = Session(NAMES)
    query = NAMES[0]
    for method in search_methods(include_aliases=True):
        result = session.run(TopKSpec(queries=(query,), k=3, method=method))
        assert result.kind == "topk"
        assert result.algorithm == "similarity_index"
        assert len(result.matches) == 1
        assert 1 <= len(result.matches[0]) <= 3
        # The query itself is indexed: best distance is 0.
        assert result.matches[0][0][1] == 0


def test_search_results_equal_direct_index_calls():
    from repro.service import SimilarityIndex

    session = Session(NAMES)
    index = SimilarityIndex(NAMES)
    queries = [NAMES[3], "zyx q"]
    expected = index.topk(queries, k=2)
    for method in search_methods(include_aliases=True):
        got = session.run(TopKSpec(queries=tuple(queries), k=2, method=method))
        assert got.matches == [
            [[name, score] for name, score in rows] for rows in expected
        ]
    got = session.run(WithinSpec(queries=(queries[0],), radius=0.2))
    expected = index.within([queries[0]], radius=0.2)
    assert got.matches == [
        [[name, score] for name, score in rows] for rows in expected
    ]


def test_cascade_alias_resolves_to_similarity_index():
    assert "cascade" in search_methods(include_aliases=True)
    spec = WithinSpec(queries=(NAMES[0],), radius=0.2, method="cascade")
    # The spec keeps the spelling it was sent, on the wire too ...
    assert spec.method == "cascade"
    assert WithinSpec.from_json(spec.to_json()) == spec
    # ... and the envelope names the method that answered.
    result = Session(NAMES).run(spec)
    assert result.algorithm == "similarity_index"
    assert result.request["method"] == "cascade"
    assert result.matches[0][0] == [NAMES[0], 0]
