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
