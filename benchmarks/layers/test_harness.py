"""Tests of the benchmark harness itself (tier-1, a few seconds): the
statistics, the generators, and that a ``--smoke`` run emits exactly the
names BENCHMARK.json promises."""

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(autouse=True)
def leave_the_process_as_found():
    """The smoke runs start the shared pool and warm the process-wide
    token vocab; the rest of tier-1 runs after this file in one process."""
    yield
    import repro.accel
    from repro.runtime import shutdown_shared_pool

    shutdown_shared_pool()
    repro.accel.reset_token_vocab()


def test_percentile_rule_needs_ten_samples_beyond():
    assert harness.tail_percentile(200) == 95
    assert harness.tail_percentile(199) == 90
    assert harness.tail_percentile(1000) == 99
    assert harness.tail_percentile(10000) == 99.9
    assert harness.tail_percentile(20) == 50
    assert harness.tail_percentile(19) == 50  # nothing qualifies: the median
    summary = harness.summarize(list(range(1, 201)))
    assert (summary["n"], summary["p50"], summary["tail"]) == (200, 100.5, 190)
    assert harness.summarize([3.0, 1.0, 5.0, 2.0])["tail"] == 2.5


def test_self_time_subtracts_child_spans_of_the_same_request():
    trace = harness.Trace()
    trace.add("w", "client", 0, None, 0.0, 10.0)
    trace.add("w", "server", 0, "client", 0.0, 6.0)
    trace.add("w", "api", 0, "server", 0.0, 5.0)
    trace.add("w", "mapreduce", 0, "api", 1.0, 2.0)  # two children of one
    trace.add("w", "mapreduce", 0, "api", 2.0, 4.0)  # parent both subtract
    trace.add("w", "client", 1, None, 0.0, 7.0)  # another request: untouched
    own = harness.self_times(trace.spans)
    assert own[(0, "client")] == 4.0
    assert own[(0, "server")] == 1.0
    assert own[(0, "api")] == 2.0
    assert own[(0, "mapreduce")] == 3.0
    assert own[(1, "client")] == 7.0
    assert sum(v for (request, _), v in own.items() if request == 0) == 10.0


def test_spread_is_the_drivers_quartile_rule():
    assert harness.spread([10.0, 10.0, 10.0, 10.0]) == 0.0
    assert harness.spread([9.0, 11.0]) == pytest.approx(0.2)
    assert harness.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(5.5 / 5.5)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generators_are_a_function_of_the_seed(name):
    first = workloads.build(name, 7, smoke=True)
    again = workloads.build(name, 7, smoke=True)
    other = workloads.build(name, 8, smoke=True)
    assert first == again
    assert first.corpora != other.corpora
    assert first.reads != other.reads or name == "join_batch"  # corpus numbers
    assert first.why == workloads.BASE[name][0]
    assert len(first.appends) == (len(first.reads) // 4 if first.store else 0)
    oracle = harness.Oracle(first.resident_names())
    for op in first.reads:
        if op.kind != "join":  # every query has a true match in the radius
            assert oracle.expected(workloads.Op("within", op.arg))


def test_queries_are_a_systematic_sample_over_name_length():
    names = workloads.corpus(400, 3)
    lengths = sorted(workloads.letters(n) for n in names if workloads.letters(n) >= 10)
    for seed in (1, 2):
        queries = workloads.edited_queries(names, 40, workloads.random.Random(seed))
        assert len(set(queries)) == 40 and not set(queries) & set(names)
        drawn = sorted(workloads.letters(q) for q in queries)
        step = len(lengths) / 40
        # Each query comes from its own fortieth of the length-sorted corpus.
        for rank, length in enumerate(drawn):
            assert lengths[int(rank * step)] <= length <= lengths[
                min(len(lengths) - 1, int((rank + 1) * step))
            ]


def test_full_size_runs_keep_two_hundred_latency_samples():
    for name in ("topk_http", "within_sharded", "mixed_rw_http"):
        base_reads = workloads.BASE[name][1]["reads"]
        assert base_reads >= workloads.MIN_LATENCY_SAMPLES
        assert harness.tail_percentile(base_reads) >= 95


def test_manifest_names_are_well_formed_and_match_the_code():
    assert MANIFEST == run.manifest()  # regenerate the file from it
    for entry in MANIFEST["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for _, _, bound in run.END_TO_END.values():
        assert 0 < bound <= 0.25
    for _, _, moves in layers.PER_LAYER.values():
        metric, _, workload = moves.partition("@")
        assert metric in run.END_TO_END, moves
        assert workload == "*" or workload in workloads.NAMES, moves
    for name in (*workloads.NAMES, *run.END_TO_END, *layers.PER_LAYER):
        assert NAME.fullmatch(name), name
    assert set(run.EXACT) | set(run.OPEN_QUESTIONS) <= set(layers.PER_LAYER)
    assert all(not part.startswith(("/", "src")) for part in MANIFEST["command"])


def _smoke(capsys, *argv):
    assert run.main([*argv, "--smoke", "--seed", "5"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_emits_exactly_the_end_to_end_metrics(name, capsys):
    line = _smoke(capsys, "--workload", name, "--trace", "0")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 < line["attempted"]
    assert list(line["metrics"]) == list(run.END_TO_END)
    for name, entry in line["metrics"].items():
        assert entry["unit"] == run.END_TO_END[name][0] and entry["value"] > 0


def test_smoke_traced_run_emits_exactly_the_per_layer_metrics(capsys):
    line = _smoke(capsys, "--workload", "topk_http", "--trace", "1")
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == list(layers.PER_LAYER)
    for name, entry in line["metrics"].items():
        assert entry["unit"] == layers.PER_LAYER[name][0]
        assert isinstance(entry["value"], (int, float)), name
    spans = json.loads((harness.RESULTS / "BENCH_layers_trace.json").read_text())
    assert {"client", "server", "api", "service", "distances"} <= {
        span["layer"] for span in spans
    }
