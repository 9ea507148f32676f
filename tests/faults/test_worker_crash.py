"""Worker-crash recovery, end to end: kill a real worker, same answers.

The acceptance bar of PR 8: ``os.kill``-ing a live pool worker
mid-``verify_pairs`` and mid-TSJ-job (via :mod:`repro.faults`) must
yield results byte-identical to the serial path, with the recovery
visible in ``runtime_counters()``.  The fault ledger makes each kill
fire exactly once across pool rebuilds, so the retried batch succeeds;
the degradation tests spend *every* retry to prove the in-process
fallback produces the same answers too.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.accel import verify_pairs
from repro.mapreduce import ClusterConfig
from repro.runtime import (
    MAX_SHARD_RETRIES,
    ParallelMapReduceEngine,
    runtime_counters,
)
from repro.runtime.pool import fork_is_default
from repro.tsj import TSJ, TSJConfig

pytestmark = [
    pytest.mark.tier1,
    pytest.mark.skipif(
        not fork_is_default(),
        reason="pool chaos tests assume fork workers (Linux CI)",
    ),
]

NAMES = [
    "jon smith",
    "john smith",
    "jon smiht",
    "jane smith",
    "bob jones",
    "robert jones",
    "bob jone",
    "alice brown",
    "alicia brown",
    "carol white",
    "karol white",
    "dave black",
] * 4  # duplicates exercise the verification memo too

PAIRS = [(i, j) for i in range(len(NAMES)) for j in range(i + 1, len(NAMES))][
    :600
]


def serial_verify():
    return verify_pairs(PAIRS, NAMES, 3, processes=None)


def pooled_verify():
    return verify_pairs(PAIRS, NAMES, 3, processes=2, chunk_size=50)


class TestVerifyPairsRecovery:
    def test_kill_mid_verify_matches_serial(self):
        expected = serial_verify()
        faults.inject("verify.chunk", "kill")
        assert pooled_verify() == expected
        counters = runtime_counters()
        assert counters["pool_rebuilds"] >= 1
        assert counters["shard_retries"] >= 1
        assert counters["pool_degraded"] == 0

    def test_every_retry_killed_degrades_in_process(self):
        expected = serial_verify()
        # An unbounded kill: every pooled attempt loses its workers, so
        # retries run out and the batch falls back to in-process
        # execution of the same chunks (where kill faults refuse to
        # fire).  A bounded ``times`` would not be deterministic here:
        # the pool's maintenance thread respawns workers mid-attempt and
        # each respawn can spend a firing slot.
        faults.inject("verify.chunk", "kill", times=None)
        assert pooled_verify() == expected
        counters = runtime_counters()
        assert counters["pool_rebuilds"] == MAX_SHARD_RETRIES + 1
        assert counters["shard_retries"] == MAX_SHARD_RETRIES
        assert counters["pool_degraded"] == 1


class TestEngineRecovery:
    def make_engines(self):
        config = ClusterConfig(n_machines=4)
        from repro.mapreduce import MapReduceEngine

        serial = MapReduceEngine(config)
        parallel = ParallelMapReduceEngine(
            config, processes=2, min_parallel_records=1
        )
        return serial, parallel

    def test_kill_mid_map_shard_matches_serial(self):
        serial, parallel = self.make_engines()
        records = list(range(200))
        from tests.runtime.test_parallel_engine import MultiEmitJob

        expected = serial.run(MultiEmitJob(), records)
        faults.inject("engine.map", "kill")
        survived = parallel.run(MultiEmitJob(), records)
        assert survived.outputs == expected.outputs
        assert survived.metrics == expected.metrics
        assert runtime_counters()["pool_rebuilds"] >= 1

    def test_kill_mid_reduce_shard_matches_serial(self):
        serial, parallel = self.make_engines()
        records = list(range(200))
        from tests.runtime.test_parallel_engine import WordCountCombined

        words = [f"w{r % 17} w{r % 5}" for r in records]
        expected = serial.run(WordCountCombined(), words)
        faults.inject("engine.reduce", "kill")
        survived = parallel.run(WordCountCombined(), words)
        assert survived.outputs == expected.outputs
        assert survived.metrics == expected.metrics
        assert runtime_counters()["pool_rebuilds"] >= 1


class TestTSJRecovery:
    def test_kill_mid_tsj_join_matches_serial(self):
        from repro.tokenize import tokenize

        records = [tokenize(name) for name in NAMES]
        config = TSJConfig(threshold=0.3)
        serial = TSJ(config).self_join(records)
        faults.inject("engine.map", "kill")
        parallel_engine = ParallelMapReduceEngine(
            ClusterConfig(n_machines=10), processes=2, min_parallel_records=1
        )
        survived = TSJ(config, engine=parallel_engine).self_join(records)
        assert survived.pairs == serial.pairs
        assert survived.distances == serial.distances
        assert runtime_counters()["pool_rebuilds"] >= 1


class TestServingRecovery:
    """Pooled serving under worker kills: both pooled modes -- the
    one-shard batch fan-out and the multi-shard per-query scatter -- pass
    the ``serve.chunk`` site, and recover to the in-process answers and
    counters of a one-shard index."""

    def corpus(self):
        from repro.data import evaluation_corpus

        names, _ = evaluation_corpus(60, seed=7)
        queries = [names[3], names[20][:-1] + "x", "maria gonzales", names[41]]
        return names, queries

    def test_kill_mid_shard_scatter_matches_one_shard(self):
        from repro.service import SimilarityIndex

        names, queries = self.corpus()
        oracle = SimilarityIndex(names)
        expected = oracle.topk(queries, k=3)
        faults.inject("serve.chunk", "kill")
        index = SimilarityIndex(names, n_shards=4)
        try:
            assert index.topk(queries, k=3, processes=2) == expected
        finally:
            index.unpublish()
        assert index.counters == oracle.counters
        assert runtime_counters()["pool_rebuilds"] >= 1

    def test_degraded_batch_fan_out_counts_once(self):
        from repro.service import SimilarityIndex

        names, queries = self.corpus()
        oracle = SimilarityIndex(names)
        expected = oracle.topk(queries, k=3)
        # Every pooled attempt is killed, so the batch runs in process on
        # the parent's own index: its counters and routing tallies must
        # be charged once, not once more as a merged worker delta.
        faults.inject("serve.chunk", "kill", times=None)
        index = SimilarityIndex(names)
        try:
            assert index.topk(queries, k=3, processes=2) == expected
        finally:
            index.unpublish()
        assert runtime_counters()["pool_degraded"] == 1
        assert index.counters == oracle.counters
        assert index.routing == oracle.routing
