"""The traced pass: the depth ladder over a workload's own requests, and
the per-layer probes over its corpus.

Every layer is measured from outside, by timing calls into its public
functions; no file under ``src/`` is instrumented.  Layer names are the
``repro`` module names.  :data:`PER_LAYER` lists every metric with its
unit, direction and the end-to-end metric @ workload it should move.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import statistics
import time

import e2e
import harness
from harness import Server, call_client, call_handle, call_index, call_session
from workloads import APPEND_BATCH, RADIUS, READS_PER_APPEND, TOP_K, Op
from workloads import batches_of, fresh_names, subseed

from repro import ServiceClient, Session, ShardedIndex, ShardedSnapshotStore
from repro import SnapshotStore, TopKSpec, spec_from_json
from repro.accel import Vocab
from repro.accel.verify import verify_pairs
from repro.candidates import HistogramBoundFilter, PostingsIndex
from repro.distances import nsld
from repro.distances.assignment import hungarian
from repro.distances.setwise import nsld_length_lower_bound
from repro.mapreduce import ClusterConfig
from repro.runtime import create_engine, resolve_engine, runtime_counters
from repro.runtime import shared_pool, shutdown_shared_pool
from repro.server import SimilarityService
from repro.service import SimilarityIndex
from repro.tokenize import Tokenizer
from repro.tsj import TSJ, TSJConfig
from repro.tsj.jobs import encode_histogram

#: Share of the read sequence each ladder depth replays, and its cap.
LADDER_SHARE = 0.2
LADDER_READS = 64
#: Corpus caps for the probes whose cost grows faster than the corpus.
TOPK_PROBE_CAP = 1500
JOIN_PROBE_CAP = 1500
TOPK_PROBE_QUERIES = 20
REPLAY_SAMPLE = 2000
APPEND_PROBES = 12
#: Evictions timed on a full token memo.
MEMO_EVICTIONS = 20000
#: The pause before each append over the wire: about what the appender of
#: ``mixed_rw_http`` leaves (four reads).  Back-to-back appends on one
#: keep-alive connection pay a 40 ms delayed-ACK stall that paced ones do
#: not, so the pace is part of what is measured.
APPEND_GAP_S = 0.25

TSJ_JOBS = (
    "TokenFrequencyJob",
    "SharedTokenCandidatesJob",
    "TokenPairFanoutJob",
    "TokenPairJoinJob",
    "DedupFilterJob",
    "ResolveLeftJob",
    "VerifyJob",
)

_ALL = "setup_s@*"
_TOPK = "op_p50_ms@topk_http"
_WITHIN = "op_p50_ms@within_sharded"
_JOIN = "op_p50_ms@join_batch"
_MIXED = "op_p50_ms@mixed_rw_http"
_APPEND = "ops_per_s@mixed_rw_http"

#: name -> (unit, better, end-to-end metric @ workload it should move).
PER_LAYER = {
    "tokenize.records_per_s": ("1/s", "higher", _ALL),
    "accel.intern_tokens_per_s": ("1/s", "higher", _ALL),
    "accel.token_pairs_per_s": ("1/s", "higher", _TOPK),
    "accel.vocab_distance_us": ("us", "lower", _TOPK),
    "accel.token_memo_hit_ratio": ("ratio", "higher", _TOPK),
    "accel.memo_evict_us": ("us", "lower", _TOPK),
    "distances.nsld_us": ("us", "lower", _TOPK),
    "distances.hungarian_us": ("us", "lower", _TOPK),
    "distances.nsld_share_of_topk": ("ratio", "lower", _TOPK),
    "distances.verify_self_ms": ("ms", "lower", _TOPK),
    "candidates.generated_per_query.topk": ("count", "lower", _TOPK),
    "candidates.generated_per_query.within": ("count", "lower", _WITHIN),
    "candidates.verified_ratio.topk": ("ratio", "lower", _TOPK),
    "candidates.verified_ratio.within": ("ratio", "lower", _WITHIN),
    "candidates.matches_per_verified.topk": ("ratio", "higher", _TOPK),
    "candidates.matches_per_verified.within": ("ratio", "higher", _WITHIN),
    "candidates.pruned_length_ratio.within": ("ratio", "higher", _WITHIN),
    "candidates.pruned_count_ratio.within": ("ratio", "higher", _WITHIN),
    "candidates.histogram_bound_us": ("us", "lower", _WITHIN),
    "candidates.postings_build_s": ("s", "lower", _ALL),
    "service.build_s": ("s", "lower", "setup_s@topk_http"),
    "service.topk_ms": ("ms", "lower", _TOPK),
    "service.within_ms": ("ms", "lower", _WITHIN),
    "service.append_ms": ("ms", "lower", _APPEND),
    "service.read_after_append_ms": ("ms", "lower", "op_tail_ms@mixed_rw_http"),
    "service.cache_hit_ratio": ("ratio", "higher", _MIXED),
    "service.index_self_ms": ("ms", "lower", _WITHIN),
    "shard.build_s": ("s", "lower", "setup_s@within_sharded"),
    "shard.within_ms": ("ms", "lower", _WITHIN),
    "shard.vs_single_ratio": ("ratio", "lower", _WITHIN),
    "shard.pruned_ratio": ("ratio", "higher", _WITHIN),
    "shard.append_ms": ("ms", "lower", _APPEND),
    "store.save_s": ("s", "lower", _APPEND),
    "store.load_s": ("s", "lower", "setup_s@mixed_rw_http"),
    "store.load_vs_rebuild_ratio": ("ratio", "lower", "setup_s@mixed_rw_http"),
    "store.snapshot_bytes_per_record": ("B", "lower", "setup_s@mixed_rw_http"),
    "store.wal_append_ms": ("ms", "lower", _APPEND),
    "store.wal_bytes_per_record": ("B", "lower", "setup_s@mixed_rw_http"),
    "store.replay_s": ("s", "lower", "setup_s@mixed_rw_http"),
    "store.sharded_save_s": ("s", "lower", _APPEND),
    "store.sharded_load_s": ("s", "lower", "setup_s@mixed_rw_http"),
    "store.restart_after_kill_s": ("s", "lower", "setup_s@mixed_rw_http"),
    "store.compactions": ("count", "lower", "op_tail_ms@mixed_rw_http"),
    "tsj.direct_join_s": ("s", "lower", _JOIN),
    **{f"tsj.job_s.{job}": ("s", "lower", _JOIN) for job in TSJ_JOBS},
    "tsj.job_s.MassJoin": ("s", "lower", _JOIN),
    "tsj.verified_ratio": ("ratio", "lower", _JOIN),
    "tsj.similar_pairs": ("count", "higher", _JOIN),
    "tsj.simulated_cost": ("sim-s", "lower", _JOIN),
    "mapreduce.shuffle_bytes": ("B", "lower", _JOIN),
    "runtime.parallel_vs_serial_ratio": ("ratio", "lower", _JOIN),
    "runtime.pool_start_s": ("s", "lower", "setup_s@join_batch"),
    "runtime.pool_rebuilds": ("count", "lower", "ops_per_s@*"),
    "runtime.pool_degraded": ("count", "lower", "ops_per_s@*"),
    "api.parse_us": ("us", "lower", _TOPK),
    "api.to_dict_us": ("us", "lower", _TOPK),
    "api.envelope_bytes": ("B", "lower", _TOPK),
    "api.session_self_ms": ("ms", "lower", _TOPK),
    "server.handle_self_ms": ("ms", "lower", _TOPK),
    "server.observed_mean_ms": ("ms", "lower", _TOPK),
    "server.shed_count": ("count", "lower", "ops_per_s@*"),
    "client.self_ms": ("ms", "lower", _TOPK),
    "client.transport_ms": ("ms", "lower", _TOPK),
    "client.health_rtt_ms": ("ms", "lower", _TOPK),
    "client.append_ms": ("ms", "lower", _APPEND),
    "client.retries": ("count", "lower", "ops_per_s@*"),
    "client.p50_ms": ("ms", "lower", _TOPK),
}


def timed(function):
    start = time.perf_counter()
    value = function()
    return time.perf_counter() - start, value


def _ms(seconds) -> float:
    return statistics.median(seconds) * 1e3


# -- the ladder ------------------------------------------------------------------


def ladder_plan(workload):
    """``(corpus, reads, append batches)`` the ladder replays: the first
    fifth of the read sequence (at most :data:`LADDER_READS`), over the
    corpus those reads run against."""
    if workload.reads[0].kind == "join":
        return workload.corpora[workload.reads[0].arg], workload.reads[:1], []
    count = min(LADDER_READS, max(8, math.ceil(len(workload.reads) * LADDER_SHARE)))
    reads = workload.reads[:count]
    appends = workload.appends[: count // READS_PER_APPEND]
    return workload.resident_names(), reads, appends


def _interleaved(reads, appends):
    """In-process depths see one append per ``READS_PER_APPEND`` reads, where
    the appender of the wire depth sends it."""
    batches = iter(appends)
    for index, op in enumerate(reads):
        if index and index % READS_PER_APPEND == 0:
            batch = next(batches, None)
            if batch is not None:
                yield None, Op("append", batch)
        yield index, op


def _replay_depth(trace, workload, layer, parent, target, call, reads, appends):
    """Replay the plan against ``target``; one span and one answer per read."""
    answers = {}
    for index, op in _interleaved(reads, appends):
        start = time.perf_counter()
        answer = call(target, op)
        end = time.perf_counter()
        if index is not None:
            trace.add(workload.name, layer, index, parent, start, end)
            answers[index] = answer
    return answers


class TimingEngine:
    """A thin engine for ``TSJ(engine=...)``: times every public
    ``engine.run(job, records)`` call and delegates everything."""

    def __init__(self, engine) -> None:
        self._engine = engine
        self.calls: list[tuple[str, float, float]] = []

    def run(self, job, records):
        start = time.perf_counter()
        result = self._engine.run(job, records)
        self.calls.append((type(job).__name__, start, time.perf_counter()))
        return result

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def job_seconds(self) -> dict:
        """Wall seconds per TSJ job; MassJoin's own jobs are summed."""
        seconds = dict.fromkeys((*TSJ_JOBS, "MassJoin"), 0.0)
        for job, start, end in self.calls:
            seconds[job if job in seconds else "MassJoin"] += end - start
        return seconds


def timed_join(records, engine_name="serial"):
    """One direct TSJ join under a :class:`TimingEngine`."""
    engine = TimingEngine(create_engine(engine_name, ClusterConfig(n_machines=10)))
    config = TSJConfig(threshold=RADIUS, engine=engine_name)
    seconds, result = timed(lambda: TSJ(config, engine).self_join(records))
    return seconds, result, engine


class ProbeFilters:
    """The pairs a probe verifies, reconstructed from outside with the public
    pieces of its cascade: the Lemma 6 length bound, then the histogram
    bound.  What survives both is verified exactly."""

    def __init__(self, records) -> None:
        self.records = records
        self.histograms = [encode_histogram(r.length_histogram) for r in records]
        self.bound = HistogramBoundFilter(0.0, use_lemma10=False)

    def survivors(self, query, radius) -> list[int]:
        length = query.aggregate_length
        histogram = encode_histogram(query.length_histogram)
        bound = self.bound.nsld_bound_encoded
        return [
            record_id
            for record_id, record in enumerate(self.records)
            if nsld_length_lower_bound(length, record.aggregate_length) <= radius
            and bound(histogram, self.histograms[record_id], ()) <= radius
        ]


def vocab_token_ld(vocab):
    def token_ld(token_x, token_y):
        return vocab.distance(vocab.intern(token_x), vocab.intern(token_y))

    return token_ld


def ladder(workload, trace, directory, retries):
    """Depths 1-5 over the plan.  Returns the per-layer metrics, the child
    server's runtime counters and ``(compared, differing)`` answers: every
    depth must give each request the same answer."""
    names, reads, appends = ladder_plan(workload)
    name = workload.name
    joining = reads[0].kind == "join"
    metrics = {}

    def resident():
        """Fresh resident state, so every depth sees the same warm-up."""
        kwargs = {"shards": workload.shards, "placement": workload.placement}
        if not workload.store:
            return Session(names, **kwargs)
        shutil.rmtree(directory / "store", ignore_errors=True)
        e2e.prepare_store(workload, directory)
        return Session(store_dir=str(directory / "store"), **kwargs)

    # Depth 1: the SDK against the child server, driven exactly like the
    # end-to-end pass (same connections, same appender).
    if workload.store:
        e2e.prepare_store(workload, directory)
    with Server(*harness.server_args(workload, directory, names)) as server:
        readers = workload.connections - (1 if appends else 0)
        spans, wire, _, _, errors, _ = e2e.drive(
            server.url, reads, readers, appends, len(names), retries
        )
        if errors:
            raise RuntimeError(f"traced requests failed: {errors[:3]}")
        for index, (start, end) in enumerate(spans):
            trace.add(name, "client", index, None, start, end)
        with ServiceClient(server.url) as client:
            metrics.update(_transport_probe(workload, client))
            observed = client.metrics()
    latency = observed["latency_ms"]
    metrics["server.observed_mean_ms"] = latency["sum"] / latency["count"]
    metrics["server.shed_count"] = observed["admission"]["shed_total"]
    hits = sum(a.counters.get("result_cache_hits", 0) for a in wire)
    misses = sum(a.counters.get("result_cache_misses", 0) for a in wire)
    metrics["service.cache_hit_ratio"] = hits / max(1, hits + misses)

    # Depths 2 and 3: the transport-free handler, then the session alone.
    payloads = _replay_depth(trace, workload, "server", "client",
                             SimilarityService(resident()), call_handle,
                             reads, appends)
    envelopes = _replay_depth(trace, workload, "api", "server", resident(),
                              call_session, reads, appends)

    # Depth 4 is the call the session makes, depth 5 the verification
    # inside it.
    tokenizer = Tokenizer()
    records = [tokenizer.tokenize(n) for n in names]
    if joining:
        index_layer = "tsj"
        start = time.perf_counter()
        seconds, result, engine = timed_join(records, resolve_engine("auto"))
        trace.add(name, index_layer, 0, "api", start, start + seconds)
        rows = {0: sorted(result.pairs)}
        verify = [(s, e) for job, s, e in engine.calls if job == "VerifyJob"]
        trace.add(name, "distances", 0, index_layer, verify[0][0],
                  verify[0][0] + sum(e - s for s, e in verify))
        for job, job_start, job_end in engine.calls:
            trace.add(name, f"mapreduce.{job}", "join-jobs", index_layer,
                      job_start, job_end)
    else:
        if workload.shards > 1:
            index_layer = "shard"
            index = ShardedIndex(names, n_shards=workload.shards,
                                 placement=workload.placement)
        else:
            index_layer = "service"
            index = SimilarityIndex(names)
        rows = _replay_depth(trace, workload, index_layer, "api", index,
                             call_index, reads, appends)
        vocab = Vocab()
        for record in records:
            vocab.intern_all(record.tokens)
        token_ld = vocab_token_ld(vocab)
        filters = ProbeFilters(records)
        for request, op in enumerate(reads):
            query = tokenizer.tokenize(op.arg)
            row = rows[request]
            radius = RADIUS if op.kind == "within" else (row[-1][1] if row else 1.0)
            survivors = filters.survivors(query, radius)
            verified = envelopes[request].counters.get("pairs_verified", 0)
            start = time.perf_counter()
            for record_id in survivors:
                nsld(query, records[record_id], token_ld=token_ld)
            elapsed = time.perf_counter() - start
            # Every survivor is replayed, so the token memo warms as it does
            # in serving; the time is scaled to the pairs the probe counted
            # (single-token pairs verify in a batch of their own).
            estimate = elapsed / max(1, len(survivors)) * verified
            trace.add(name, "distances", request, index_layer, start, start + estimate)

    own = harness.self_times([s for s in trace.spans if s["workload"] == name
                              and isinstance(s["request"], int)])
    by_layer: dict[str, list[float]] = {}
    for (_, layer), seconds in own.items():
        by_layer.setdefault(layer, []).append(seconds)
    metrics["client.self_ms"] = _ms(by_layer["client"])
    metrics["server.handle_self_ms"] = _ms(by_layer["server"])
    metrics["api.session_self_ms"] = _ms(by_layer["api"])
    metrics["service.index_self_ms"] = _ms(by_layer[index_layer])
    metrics["distances.verify_self_ms"] = _ms(by_layer["distances"])
    metrics["client.p50_ms"] = _ms([end - start for start, end in spans])

    # Appends land between concurrent reads at depth 1, so only append-free
    # plans promise the same answer at every depth.
    differing = 0
    if not appends:
        for request in range(len(reads)):
            answers = [harness.answer_rows(depth[request])
                       for depth in (wire, payloads, envelopes, rows)]
            differing += any(answer != answers[0] for answer in answers[1:])
    compared = 0 if appends else len(reads)
    return metrics, observed["runtime"], (compared, differing)


def _transport_probe(workload, client):
    """One keep-alive connection: what the wire adds to the envelope's own
    ``build_seconds + query_seconds``, and the bare round trip."""
    kind = "topk" if workload.reads[0].kind == "topk" else "within"
    queries = workload.probe_topk if kind == "topk" else workload.probe_within
    extra = []
    for query in queries[:TOPK_PROBE_QUERIES]:
        seconds, answer = timed(lambda: call_client(client, Op(kind, query)))
        extra.append(seconds - answer.build_seconds - answer.query_seconds)
    health = [timed(client.health)[0] for _ in range(TOPK_PROBE_QUERIES)]
    return {"client.transport_ms": _ms(extra), "client.health_rtt_ms": _ms(health)}


# -- per-layer probes ----------------------------------------------------------------


def _query_probe(index, kind, queries):
    """Direct index calls: per-query seconds, summed counters and matches."""
    before = dict(index.counters)
    seconds, matches = [], 0
    for query in queries:
        elapsed, rows = timed(lambda: call_index(index, Op(kind, query)))
        seconds.append(elapsed)
        matches += len(rows)
    delta = {key: value - before.get(key, 0) for key, value in index.counters.items()}
    return seconds, delta, matches


def _candidate_metrics(kind, counters, matches, queries) -> dict:
    generated = max(1, counters["candidates_generated"])
    verified = max(1, counters["pairs_verified"])
    metrics = {
        f"candidates.generated_per_query.{kind}": generated / len(queries),
        f"candidates.verified_ratio.{kind}": counters["pairs_verified"] / generated,
        f"candidates.matches_per_verified.{kind}": matches / verified,
    }
    if kind == "within":
        metrics["candidates.pruned_length_ratio.within"] = (
            counters["pruned_by_length"] / generated
        )
        metrics["candidates.pruned_count_ratio.within"] = (
            counters["pruned_by_count"] / generated
        )
    return metrics


def build_probes(names) -> dict:
    """tokenize / accel interning / postings build over the whole corpus."""
    tokenizer = Tokenizer()
    seconds, records = timed(lambda: [tokenizer.tokenize(name) for name in names])
    metrics = {"tokenize.records_per_s": len(names) / seconds}
    vocab = Vocab()
    seconds, token_ids = timed(lambda: [vocab.intern_all(r.tokens) for r in records])
    metrics["accel.intern_tokens_per_s"] = sum(map(len, token_ids)) / seconds

    def build_postings():
        postings = PostingsIndex()
        for record_id, ids in enumerate(token_ids):
            for token_id in set(ids):
                postings.add(token_id, record_id)

    metrics["candidates.postings_build_s"] = timed(build_postings)[0]

    # A long-running server's token memo is full: every new pair evicts one.
    memo = Vocab().cache
    for key in range(memo.maxsize):
        memo.put(key, key)
    fresh = range(memo.maxsize, memo.maxsize + MEMO_EVICTIONS)
    seconds = timed(lambda: [memo.put(key, key) for key in fresh])[0]
    metrics["accel.memo_evict_us"] = seconds / MEMO_EVICTIONS * 1e6
    return metrics


def serving_probes(names, within_queries, batches) -> dict:
    """service / shard / candidates, by direct calls into the indexes."""
    metrics = {}
    seconds, single = timed(lambda: SimilarityIndex(names).prepare("cascade"))
    metrics["service.build_s"] = seconds
    seconds, sharded = timed(
        lambda: ShardedIndex(names, n_shards=4, placement="length").prepare("cascade")
    )
    metrics["shard.build_s"] = seconds

    single_s, counters, matches = _query_probe(single, "within", within_queries)
    metrics.update(_candidate_metrics("within", counters, matches, within_queries))
    sharded_s, _, _ = _query_probe(sharded, "within", within_queries)
    metrics["service.within_ms"] = _ms(single_s)
    metrics["shard.within_ms"] = _ms(sharded_s)
    metrics["shard.vs_single_ratio"] = _ms(sharded_s) / _ms(single_s)
    routing = sharded.shard_status()["routing"]
    metrics["shard.pruned_ratio"] = routing["shards_pruned"] / max(
        1, routing["shards_pruned"] + routing["shards_probed"]
    )

    # Appends, and what the first read after one pays to rebuild derived
    # state.  No result cache here, so one query can be timed warm, then
    # again right after the append.
    uncached = SimilarityIndex(names, cache_size=0)
    append_s, rebuild_s, routed_s = [], [], []
    for batch, query in zip(batches[:APPEND_PROBES], within_queries):
        uncached.within([query], radius=RADIUS)
        steady = timed(lambda: uncached.within([query], radius=RADIUS))[0]
        append_s.append(timed(lambda: uncached.append(batch))[0])
        after = timed(lambda: uncached.within([query], radius=RADIUS))[0]
        rebuild_s.append(after - steady)
        routed_s.append(timed(lambda: sharded.append(batch))[0])
    metrics["service.append_ms"] = _ms(append_s)
    metrics["shard.append_ms"] = _ms(routed_s)
    metrics["service.read_after_append_ms"] = _ms(rebuild_s)
    return metrics


def verification_probes(workload, names) -> dict:
    """Top-k by direct calls, then accel / distances / candidates replays
    over the pairs those queries verified."""
    names = names[:TOPK_PROBE_CAP]
    queries = workload.probe_topk[:TOPK_PROBE_QUERIES]
    index = SimilarityIndex(names)
    seconds, counters, matches = _query_probe(index, "topk", queries)
    metrics = _candidate_metrics("topk", counters, matches, queries)
    metrics["service.topk_ms"] = _ms(seconds)
    memo = index.vocab.cache
    metrics["accel.token_memo_hit_ratio"] = memo.hits / max(1, memo.hits + memo.misses)

    tokenizer = Tokenizer()
    records = [tokenizer.tokenize(name) for name in names]
    query_records = [tokenizer.tokenize(query) for query in queries]
    radii = [index.topk([query], k=TOP_K)[0][-1][1] for query in queries]
    filters = ProbeFilters(records)
    pairs = [
        (query, records[record_id])
        for query, radius in zip(query_records, radii)
        for record_id in filters.survivors(query, radius)
    ]

    vocab = Vocab()
    for record in records:
        vocab.intern_all(record.tokens)
    token_ld = vocab_token_ld(vocab)
    seconds, _ = timed(lambda: [nsld(q, r, token_ld=token_ld) for q, r in pairs])
    metrics["distances.nsld_us"] = seconds / len(pairs) * 1e6
    verified_per_query = counters["pairs_verified"] / len(queries)
    # The share of a top-k's time a verifier change can save.
    metrics["distances.nsld_share_of_topk"] = (
        verified_per_query * metrics["distances.nsld_us"] / 1e3
    ) / metrics["service.topk_ms"]

    # The finer replays need no memo realism: a seeded sample is enough.
    rng = random.Random(subseed(workload.seed, workload.name, "pairs"))
    pairs = rng.sample(pairs, min(REPLAY_SAMPLE, len(pairs)))

    def cost_matrix(x, y):
        size = max(x.token_count, y.token_count)
        rows = list(x.tokens) + [""] * (size - x.token_count)
        columns = list(y.tokens) + [""] * (size - y.token_count)
        return [
            [token_ld(a, b) if a and b else len(a) + len(b) for b in columns]
            for a in rows
        ]

    matrices = [cost_matrix(q, r) for q, r in pairs]
    seconds, _ = timed(lambda: [hungarian(matrix) for matrix in matrices])
    metrics["distances.hungarian_us"] = seconds / len(matrices) * 1e6

    strings: dict[str, int] = {}
    token_pairs = [
        (strings.setdefault(a, len(strings)), strings.setdefault(b, len(strings)))
        for q, r in pairs
        for a in q.tokens
        for b in r.tokens
    ]
    table = list(strings)
    seconds, _ = timed(lambda: verify_pairs(token_pairs, table, 3, backend="auto"))
    metrics["accel.token_pairs_per_s"] = len(token_pairs) / seconds
    cold = Vocab()
    ids = [(cold.intern(table[a]), cold.intern(table[b])) for a, b in token_pairs]
    seconds, _ = timed(lambda: [cold.distance(a, b) for a, b in ids])
    metrics["accel.vocab_distance_us"] = seconds / len(ids) * 1e6

    bound = HistogramBoundFilter(0.0, use_lemma10=False)
    histograms = [
        (encode_histogram(q.length_histogram), encode_histogram(r.length_histogram))
        for q, r in pairs
    ]
    seconds, _ = timed(
        lambda: [bound.nsld_bound_encoded(x, y, ()) for x, y in histograms]
    )
    metrics["candidates.histogram_bound_us"] = seconds / len(histograms) * 1e6
    return metrics


def store_probes(names, batches, directory, retries) -> dict:
    """store, by direct calls into the two stores and one kill-restart of a
    store-backed child."""
    metrics = {}
    single = SimilarityIndex(names)
    store = SnapshotStore(str(directory / "single"))
    seconds, written = timed(lambda: store.save(single))
    metrics["store.save_s"] = seconds
    metrics["store.snapshot_bytes_per_record"] = written / len(names)
    rebuild_s = timed(lambda: SimilarityIndex(names))[0]

    def cold_load_s():
        return statistics.median(
            timed(lambda: SnapshotStore(str(directory / "single")).load())[0]
            for _ in range(3)
        )

    load_s = cold_load_s()
    metrics["store.load_s"] = load_s
    metrics["store.load_vs_rebuild_ratio"] = load_s / rebuild_s
    wal_s, base = [], len(names)
    for batch in batches:
        wal_s.append(timed(lambda: store.log_append(batch, base))[0])
        base += len(batch)
    metrics["store.wal_append_ms"] = _ms(wal_s)
    metrics["store.wal_bytes_per_record"] = store.wal.size_bytes() / (base - len(names))
    metrics["store.replay_s"] = cold_load_s() - load_s

    sharded = ShardedIndex(names, n_shards=4, placement="length")
    sharded_store = ShardedSnapshotStore(str(directory / "store"))
    metrics["store.sharded_save_s"] = timed(lambda: sharded_store.save(sharded))[0]
    for offset, batch in enumerate(batches[: len(batches) // 2]):
        sharded_store.log_append(batch, len(names) + offset * APPEND_BATCH)
    metrics["store.sharded_load_s"] = timed(
        lambda: ShardedSnapshotStore(str(directory / "store")).load()
    )[0]

    # The store now holds snapshot + half the batches as its WAL tail; a
    # child appends the other half, is SIGKILLed, and restarts.
    args = ["--store", str(directory / "store"), "--shards", "4"]
    logged = len(batches) // 2
    records = len(names) + logged * APPEND_BATCH
    server = Server(*args).start()
    try:
        append_s = []
        with ServiceClient(server.url, sleep=retries) as client:
            for batch in batches[logged:]:
                time.sleep(APPEND_GAP_S)
                seconds, reply = timed(lambda: client.append(batch, base=records))
                append_s.append(seconds)
                records = reply["records"]
            wal_records = client.metrics()["store"]["wal_records"]
        server.kill()
        seconds, server = timed(lambda: Server(*args).start())
        metrics["store.restart_after_kill_s"] = seconds
        metrics["client.append_ms"] = _ms(append_s)
        with ServiceClient(server.url) as client:
            answer = client.run(TopKSpec(queries=(batches[-1][-1],), k=1))
        if answer.collection_size != records or answer.matches[0][0][1] != 0.0:
            raise RuntimeError("the restarted store lost an acknowledged append")
    finally:
        server.kill()
    # Each compaction empties the WAL, so the records that left it count them.
    threshold = sharded_store.compact_after_records
    metrics["store.compactions"] = (len(batches) - wal_records) // threshold
    return metrics


def join_probes(names) -> dict:
    """tsj / mapreduce / runtime, by direct joins under each engine."""
    tokenizer = Tokenizer()
    records = [tokenizer.tokenize(name) for name in names[:JOIN_PROBE_CAP]]
    metrics = {}
    shutdown_shared_pool()
    metrics["runtime.pool_start_s"] = timed(shared_pool)[0]
    direct_s, result = timed(
        lambda: TSJ(TSJConfig(threshold=RADIUS)).self_join(records)
    )
    metrics["tsj.direct_join_s"] = direct_s
    serial_s, _, engine = timed_join(records, "serial")
    for job, seconds in engine.job_seconds().items():
        metrics[f"tsj.job_s.{job}"] = seconds
    parallel_s = (
        direct_s
        if resolve_engine("auto") == "parallel"
        else timed(
            lambda: TSJ(TSJConfig(threshold=RADIUS, engine="parallel")).self_join(
                records
            )
        )[0]
    )
    metrics["runtime.parallel_vs_serial_ratio"] = parallel_s / serial_s
    counters = result.counters()
    metrics["tsj.verified_ratio"] = counters["pairs_verified"] / max(
        1, counters["candidates_generated"]
    )
    metrics["tsj.similar_pairs"] = len(result.pairs)
    metrics["tsj.simulated_cost"] = result.simulated_seconds()
    metrics["mapreduce.shuffle_bytes"] = sum(
        stage.total_shuffle_bytes for stage in result.pipeline.stages
    )
    return metrics


def api_probes(workload, names) -> dict:
    """api: spec parsing and envelope serialization of one top-k request."""
    spec = TopKSpec(queries=(workload.probe_topk[0],), k=TOP_K)
    text = spec.to_json()
    answer = Session(names[:TOPK_PROBE_CAP]).run(spec)
    rounds = 200
    parse_s = timed(lambda: [spec_from_json(text) for _ in range(rounds)])[0]
    dump_s, dumped = timed(
        lambda: [json.dumps(answer.to_dict()) for _ in range(rounds)]
    )
    return {
        "api.parse_us": parse_s / rounds * 1e6,
        "api.to_dict_us": dump_s / rounds * 1e6,
        "api.envelope_bytes": len(dumped[0]),
    }


def run(workload, trace):
    """The traced pass of one workload: every name in :data:`PER_LAYER`, and
    the ladder's ``(compared, differing)`` answers."""
    names, reads, _ = ladder_plan(workload)
    within_queries = [op.arg for op in reads if op.kind == "within"]
    within_queries = within_queries or workload.probe_within
    batches = batches_of(
        fresh_names(
            APPEND_BATCH * len(within_queries), subseed(workload.seed, "probe-appends")
        )
    )
    retries = harness.CountingSleep()
    with harness.scratch_dir() as directory:
        metrics, child_runtime, agreement = ladder(workload, trace, directory, retries)
    metrics.update(build_probes(names))
    metrics.update(serving_probes(names, within_queries, batches))
    metrics.update(verification_probes(workload, names))
    with harness.scratch_dir() as directory:
        metrics.update(
            store_probes(names[:TOPK_PROBE_CAP], batches[:24], directory, retries)
        )
    metrics.update(join_probes(names))
    metrics.update(api_probes(workload, names))
    own_runtime = runtime_counters()
    for counter in ("pool_rebuilds", "pool_degraded"):
        metrics[f"runtime.{counter}"] = own_runtime[counter] + child_runtime[counter]
    metrics["client.retries"] = retries.count
    return metrics, agreement
