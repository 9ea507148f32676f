"""The end-to-end pass: each workload on the path a user travels, with
tracing off, followed by its oracle checks."""

from __future__ import annotations

import itertools
import random
import statistics
import threading
import time

import harness
from harness import Oracle, Server, call_client, call_session, peak_rss_mb, summarize
from workloads import RADIUS, READS_PER_APPEND, Op, subseed

import repro.accel
from repro import JoinSpec, ServiceClient, Session
from repro.api.errors import ApiError
from repro.distances import nsld
from repro.runtime import resolve_engine, shared_pool, shutdown_shared_pool

#: Boots behind ``setup_s`` (median).  In-process boots are cheap and
#: short, so they get more.
HTTP_BOOTS = 3
INPROC_BOOTS = 7
ORACLE_READS = 20
ORACLE_PAIRS = 200
#: How long the appender waits for its next turn before giving up.
APPEND_WAIT_S = 60.0


class Checks:
    """Oracle checks executed and failed, by name; none may be skipped."""

    def __init__(self) -> None:
        self.executed: dict[str, int] = {}
        self.failed: dict[str, int] = {}

    def record(self, name: str, passed: bool) -> None:
        self.executed[name] = self.executed.get(name, 0) + 1
        if not passed:
            self.failed[name] = self.failed.get(name, 0) + 1


def _result(workload, boots, latencies_ms, wall, errors, rss, checks, extra_ops=0):
    """The common result block.  ``latencies_ms`` holds the completed reads
    in op order (failed ones are ``None`` and count in ``failed``)."""
    done = [ms for ms in latencies_ms if ms is not None]
    summary = summarize(done)
    attempted = len(latencies_ms) + extra_ops + sum(checks.executed.values())
    failed = errors + sum(checks.failed.values())
    return {
        "workload": workload.name,
        "why": workload.why,
        "metrics": {
            "setup_s": statistics.median(boots),
            "op_p50_ms": summary["p50"],
            "op_tail_ms": summary["tail"],
            "ops_per_s": (len(done) + extra_ops) / wall,
            "peak_rss_mb": rss,
        },
        "samples": {"setup_s": len(boots), "op_ms": summary["n"]},
        "tail_percentile": summary["tail_percentile"],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "checks": {"executed": checks.executed, "failed": checks.failed},
        "latencies_ms": latencies_ms,
    }


def _sampled_reads(workload, count=ORACLE_READS):
    rng = random.Random(subseed(workload.seed, workload.name, "oracle"))
    reads = len(workload.reads)
    return sorted(rng.sample(range(reads), min(count, reads)))


# -- join_batch --------------------------------------------------------------------


def run_join_batch(workload, boots_wanted=INPROC_BOOTS):
    checks = Checks()
    spec = JoinSpec(threshold=RADIUS)
    boots = []
    for _ in range(boots_wanted):
        # Set-up is what a batch run pays before the join can start:
        # session, tokenization, and the worker pool `auto` will use.
        shutdown_shared_pool()
        start = time.perf_counter()
        session = Session(workload.corpus)
        for name in workload.corpus:
            session.tokenizer.tokenize(name)
        if resolve_engine(session.engine) == "parallel":
            shared_pool()
        boots.append(time.perf_counter() - start)

    def cold_join(names):
        repro.accel.reset_token_vocab()  # as cold as a CLI run
        return Session(names).run(spec)

    cold_join(workload.corpus)  # warm-up: imports, pool, allocator
    latencies, results = [], []
    begin = time.perf_counter()
    for op in workload.reads:
        start = time.perf_counter()
        results.append(cold_join(workload.corpora[op.arg]))
        latencies.append((time.perf_counter() - start) * 1e3)
    wall = time.perf_counter() - begin
    rss = peak_rss_mb()

    names = workload.corpora[workload.reads[0].arg]
    serial = Session(names, engine="serial").run(spec)
    checks.record(
        "join_equals_serial",
        serial.index_pairs == results[0].index_pairs
        and serial.simulated_seconds == results[0].simulated_seconds,
    )
    tokenize = Session().tokenizer.tokenize
    pairs = [pair for result in results for pair in result.pairs]
    rng = random.Random(subseed(workload.seed, workload.name, "oracle"))
    for name_a, name_b, score in rng.sample(pairs, min(ORACLE_PAIRS, len(pairs))):
        distance = nsld(tokenize(name_a), tokenize(name_b))
        checks.record("pair_within_threshold", distance == score <= RADIUS)
    result = _result(workload, boots, latencies, wall, 0, rss, checks)
    result["join"] = {
        "simulated_seconds": [r.simulated_seconds for r in results],
        "similar_pairs": [len(r.pairs) for r in results],
    }
    return result


# -- within_sharded ------------------------------------------------------------------


def run_within_sharded(workload, boots_wanted=INPROC_BOOTS):
    checks = Checks()
    oracle = Oracle(workload.corpus)
    boot_op = Op("within", workload.boot_query)
    expected = oracle.expected(boot_op)
    boots = []
    for _ in range(boots_wanted):
        start = time.perf_counter()
        session = Session(
            workload.corpus, shards=workload.shards, placement=workload.placement
        )
        answer = call_session(session, boot_op)
        boots.append(time.perf_counter() - start)
        checks.record("first_answer", harness.answer_rows(answer) == expected)

    latencies, answers = [], []
    begin = time.perf_counter()
    for op in workload.reads:
        start = time.perf_counter()
        answers.append(call_session(session, op))
        latencies.append((time.perf_counter() - start) * 1e3)
    wall = time.perf_counter() - begin
    rss = peak_rss_mb()

    for index in _sampled_reads(workload):
        checks.record("read_equals_brute_force",
                      oracle.agrees(workload.reads[index], answers[index]))
    result = _result(workload, boots, latencies, wall, 0, rss, checks)
    result["shards"] = session.shard_status()
    return result


# -- the two HTTP workloads ------------------------------------------------------------


def prepare_store(workload, directory) -> None:
    """The pre-saved snapshot plus its WAL tail (outside every timing)."""
    session = Session(
        workload.corpus,
        shards=workload.shards,
        placement=workload.placement,
        store_dir=str(directory / "store"),
    )
    for batch in workload.wal_tail:
        session.append(batch)


def boot(workload, directory, expected, checks, boots):
    """One boot to the first correct answer; returns the live server."""
    args = harness.server_args(workload, directory)
    start = time.perf_counter()
    server = Server(*args).start()
    try:
        with ServiceClient(server.url) as client:
            answer = call_client(client, Op("topk", workload.boot_query))
        boots.append(time.perf_counter() - start)
        checks.record("first_answer", harness.answer_rows(answer) == expected)
    except BaseException:
        server.kill()
        raise
    return server


def drive(url, reads, readers, appends=(), base=0, sleep=time.sleep):
    """The closed loop: ``readers`` keep-alive connections share ``reads``;
    one more connection sends one batch of ``appends`` per
    ``READS_PER_APPEND`` completed reads.

    Returns ``(read spans, answers, append latencies ms, acked batches,
    errors, wall seconds)``; a span is ``(start, end)`` in seconds, or
    ``None`` for a read that failed.
    """
    spans = [None] * len(reads)
    answers = [None] * len(reads)
    append_ms, acked, errors = [], [], []
    ticket = itertools.count()
    due = threading.Semaphore(0)

    def reader():
        with ServiceClient(url, sleep=sleep) as client:
            while (index := next(ticket)) < len(reads):
                start = time.perf_counter()
                try:
                    answers[index] = call_client(client, reads[index])
                    spans[index] = (start, time.perf_counter())
                except (ApiError, OSError) as exc:
                    errors.append(repr(exc))
                if (index + 1) % READS_PER_APPEND == 0:
                    due.release()

    def writer():
        records = base
        with ServiceClient(url, sleep=sleep) as client:
            for batch in appends[: len(reads) // READS_PER_APPEND]:
                if not due.acquire(timeout=APPEND_WAIT_S):
                    errors.append("appender starved: the reads stopped")
                    return
                start = time.perf_counter()
                try:
                    records = client.append(batch, base=records)["records"]
                    append_ms.append((time.perf_counter() - start) * 1e3)
                    acked.append(batch)
                except (ApiError, OSError) as exc:
                    errors.append(repr(exc))
                    return

    threads = [threading.Thread(target=reader) for _ in range(readers)]
    if appends:
        threads.append(threading.Thread(target=writer))
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - begin
    return spans, answers, append_ms, acked, errors, wall


def run_http(workload, boots_wanted=HTTP_BOOTS):
    checks = Checks()
    oracle = Oracle(workload.resident_names())
    base = len(oracle.names)
    expected = oracle.expected(Op("topk", workload.boot_query))
    boots = []
    with harness.scratch_dir() as directory:
        if workload.store:
            prepare_store(workload, directory)
        for _ in range(boots_wanted - 1):
            boot(workload, directory, expected, checks, boots).stop()
        server = boot(workload, directory, expected, checks, boots)
        try:
            # One reader connection beside the appender, else two readers.
            readers = workload.connections - (1 if workload.appends else 0)
            spans, answers, append_ms, acked, errors, wall = drive(
                server.url, workload.reads, readers, workload.appends, base
            )
            latencies = [
                None if span is None else (span[1] - span[0]) * 1e3 for span in spans
            ]
            rss = peak_rss_mb(server.pid)
            with ServiceClient(server.url) as client:
                observed = client.metrics()
            if workload.store:
                server.kill()  # SIGKILL: only fsynced bytes may survive
                server = Server(*harness.server_args(workload, directory)).start()
                last = (acked or workload.wal_tail)[-1][-1]
                with ServiceClient(server.url) as client:
                    answer = call_client(client, Op("topk", last))
                expected_records = base + sum(len(batch) for batch in acked)
                checks.record(
                    "restart_record_count", answer.collection_size == expected_records
                )
                checks.record(
                    "restart_serves_last_append", answer.matches[0][0] == [last, 0.0]
                )
        finally:
            server.kill()

    for batch in acked:
        oracle.extend(batch)
    for index in _sampled_reads(workload):
        answer = answers[index]
        if answer is not None:
            checks.record(
                "read_equals_brute_force",
                oracle.agrees(workload.reads[index], answer, answer.collection_size),
            )
    result = _result(
        workload, boots, latencies, wall, len(errors), rss, checks, len(append_ms)
    )
    result["errors"] = errors[:5]
    result["appends"] = summarize(append_ms) if append_ms else {"n": 0}
    result["server"] = {
        "shed_total": observed["admission"]["shed_total"],
        "latency_ms": observed["latency_ms"]["sum"] / observed["latency_ms"]["count"],
    }
    return result


RUNNERS = {
    "join_batch": run_join_batch,
    "topk_http": run_http,
    "within_sharded": run_within_sharded,
    "mixed_rw_http": run_http,
}


def run(workload, smoke=False):
    """Run one workload end to end; ``smoke`` boots once."""
    if smoke:
        return RUNNERS[workload.name](workload, boots_wanted=1)
    return RUNNERS[workload.name](workload)
