"""Shard-count invariance: the sharded router equals the 1-index oracle.

The contract the whole subsystem hangs off: for any shard count and
either placement, ``topk`` / ``within`` / ``join`` answers -- and the
cascade/cache counters, and the join's simulated seconds -- are *equal*
to a single :class:`SimilarityIndex` over the same corpus, in-process or
scattered over the shared worker pool.
"""

from __future__ import annotations

import pytest

from repro.data import evaluation_corpus
from repro.service import SimilarityIndex
from repro.shard import ShardedIndex
from repro.shard.placement import PLACEMENTS

pytestmark = pytest.mark.tier1

CORPUS, _ = evaluation_corpus(60, seed=7)
#: Resident hits, typo'd variants and a duplicate (cache-hit path).
QUERIES = [CORPUS[3], CORPUS[20][:-1] + "x", "maria gonzales", CORPUS[3]]
SHARD_COUNTS = (1, 2, 4, 7)


def oracle() -> SimilarityIndex:
    return SimilarityIndex(CORPUS)


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_topk_every_method_matches_oracle(n_shards, placement):
    serial = oracle()
    sharded = ShardedIndex(CORPUS, n_shards=n_shards, placement=placement)
    assert sharded.topk(QUERIES, k=3) == serial.topk(QUERIES, k=3)
    # Identical call sequence -> identical cascade AND cache counters.
    assert sharded.counters == serial.counters


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_within_every_method_matches_oracle(n_shards, placement):
    serial = oracle()
    sharded = ShardedIndex(CORPUS, n_shards=n_shards, placement=placement)
    for radius in (0.0, 0.15, 0.4):
        assert sharded.within(QUERIES, radius) == serial.within(QUERIES, radius), (
            radius
        )
    assert sharded.counters == serial.counters


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_join_matches_oracle_report_exactly(n_shards):
    serial = oracle().join(threshold=0.15)
    sharded = ShardedIndex(CORPUS, n_shards=n_shards).join(threshold=0.15)
    # JoinReport is a dataclass: pairs, clusters, counters and the
    # simulated cluster seconds all compare in one equality.
    assert sharded == serial


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_pooled_scatter_is_byte_identical(placement):
    serial = oracle()
    sharded = ShardedIndex(CORPUS, n_shards=4, placement=placement)
    try:
        assert sharded.topk(QUERIES, k=3, processes=2) == serial.topk(
            QUERIES, k=3
        )
        assert sharded.within(QUERIES, 0.3, processes=2) == serial.within(
            QUERIES, 0.3
        )
        assert sharded.counters == serial.counters
    finally:
        sharded.unpublish()


def test_length_placement_prunes_shards():
    sharded = ShardedIndex(CORPUS, n_shards=4, placement="length")
    sharded.within(QUERIES, 0.1)
    routing = sharded.routing
    assert routing["shards_total"] == 4
    assert routing["shards_pruned"] > 0
    assert routing["shards_probed"] > 0


def test_routing_tallies_stay_out_of_the_counters():
    sharded = ShardedIndex(CORPUS, n_shards=4, placement="length")
    sharded.within(QUERIES, 0.1)
    assert not any(key.startswith("shards_") for key in sharded.counters)


def test_cache_serves_repeats_without_rescatter():
    sharded = ShardedIndex(CORPUS, n_shards=3)
    first = sharded.topk(CORPUS[0], k=2)
    probes_after_first = sharded.routing["shards_probed"]
    again = sharded.topk(CORPUS[0], k=2)
    assert again == first
    assert sharded.routing["shards_probed"] == probes_after_first


def test_append_keeps_invariance():
    serial = oracle()
    sharded = ShardedIndex(CORPUS, n_shards=3, placement="length")
    extra = ["veronika dahl", "x", "a very much longer appended name indeed"]
    serial.append(extra)
    sharded.append(extra)
    # A one-shot iterable appends exactly like a list.
    serial.append(name + " jr" for name in extra[:2])
    sharded.append(name + " jr" for name in extra[:2])
    assert len(sharded) == len(serial) == len(CORPUS) + 5
    assert sharded.names == serial.names
    assert sharded.topk(["veronika dhal"], k=2) == serial.topk(
        ["veronika dhal"], k=2
    )
    assert sharded.within(["veronika dhal"], 0.3) == serial.within(
        ["veronika dhal"], 0.3
    )
    assert sharded.counters == serial.counters


@pytest.mark.parametrize("n_shards", (1, 3))
def test_router_and_shards_share_each_record(n_shards):
    sharded = ShardedIndex(CORPUS, n_shards=n_shards)
    sharded.append(["veronika dahl", "a very much longer appended name indeed"])
    for global_id, record in enumerate(sharded.records):
        shard_index, local_id = sharded._locations[global_id]
        assert sharded.shards[shard_index].records[local_id] is record


def test_one_shard_fans_the_batch_out_over_the_pool():
    # Pooled batches are served exactly as a single index serves them:
    # same answers as in process, and the same counters as a pooled
    # single index (each worker chunk runs against its own cache copy).
    single = oracle()
    sharded = ShardedIndex(CORPUS, n_shards=1)
    try:
        for index in (single, sharded):
            assert index.topk(QUERIES, k=3, processes=2) == oracle().topk(
                QUERIES, k=3
            )
            assert index.within(QUERIES, 0.3, processes=2) == oracle().within(
                QUERIES, 0.3
            )
        assert sharded.counters == single.counters
        # The router itself was published: workers served whole queries.
        assert sharded._published is not None
        sharded.append(["veronika dahl"])
        assert sharded._published is None  # an append withdraws it
    finally:
        single.unpublish()
        sharded.unpublish()


@pytest.mark.parametrize("n_shards", (1, 3))
def test_pooled_serving_keeps_the_routing_tallies(n_shards):
    # One shard fans the batch out to workers, three scatter each query's
    # kernel calls: either way the routing tallies the work charged come
    # back with the counters.
    serial = ShardedIndex(CORPUS, n_shards=n_shards)
    pooled = ShardedIndex(CORPUS, n_shards=n_shards)
    try:
        assert pooled.topk(CORPUS[:6], k=3, processes=2) == serial.topk(
            CORPUS[:6], k=3
        )
    finally:
        pooled.unpublish()
    assert pooled.counters == serial.counters
    assert pooled.routing == serial.routing
    assert pooled.routing["shards_probed"] > 0


@pytest.mark.parametrize("n_shards", (1, 3))
def test_pooled_serving_survives_parent_vocab_growth(n_shards):
    # Token ids are minted per kernel and per process.  After a pooled
    # serve publishes the index, in-process queries intern novel tokens
    # into the parent's kernels only (no republish); a later pooled serve
    # of queries holding those tokens must still match the oracle, which
    # it cannot if ids interned in the parent ever reach a worker.
    index = ShardedIndex(CORPUS, n_shards=n_shards)
    novel = ["zzqx novel tokenz", "qwv xkcdj smith"]
    # A fresh token first, then the novel ones out of their interning
    # order, so ids a worker mints cannot line up with the parent's.
    later = [
        CORPUS[5][:-1] + "q",
        "xkcdj novel " + CORPUS[12],
        "tokenz qwv zzqx",
        CORPUS[30],
    ]
    try:
        assert index.topk(QUERIES, k=3, processes=2) == oracle().topk(QUERIES, k=3)
        published = index._published
        tokens = index.stats()["distinct_tokens"]
        index.within(novel, 0.3)
        assert index.stats()["distinct_tokens"] > tokens
        assert index._published == published
        assert index.topk(later, k=3, processes=2) == oracle().topk(later, k=3)
    finally:
        index.unpublish()


@pytest.mark.parametrize("n_shards", (1, 4))
def test_each_query_is_tokenized_once(n_shards, monkeypatch):
    from repro.tokenize import Tokenizer

    index = ShardedIndex(CORPUS, n_shards=n_shards)
    calls = []
    tokenize = Tokenizer.tokenize

    def counted(self, text):
        calls.append(text)
        return tokenize(self, text)

    monkeypatch.setattr(Tokenizer, "tokenize", counted)
    queries = [name[:-1] + "z" for name in CORPUS[:5]]
    index.topk(queries, k=3)
    index.within([query + " q" for query in queries], 0.2)
    assert len(calls) == 2 * len(queries)


def test_one_class_serves_every_shard_count():
    import repro
    from repro.store import index_to_sections

    assert repro.ShardedIndex is ShardedIndex is SimilarityIndex
    single, sharded = ShardedIndex(CORPUS), ShardedIndex(CORPUS, n_shards=3)
    assert len(single.shards) == 1
    assert single.vocab is single.shards[0]._vocab
    assert single.token_postings is single.shards[0]._token_postings
    for accessor in ("vocab", "token_postings"):
        with pytest.raises(ValueError, match="3 shards"):
            getattr(sharded, accessor)
    with pytest.raises(ValueError, match="has 3"):
        index_to_sections(sharded)


def test_router_pickles_as_a_distinct_publication():
    import pickle

    sharded = ShardedIndex(CORPUS, n_shards=2)
    clone = pickle.loads(pickle.dumps(sharded))
    assert clone.share_key != sharded.share_key
    assert clone.topk(QUERIES, k=3) == sharded.topk(QUERIES, k=3)
