"""The layered benchmark: four user-path workloads, end-to-end metrics
with tracing off, and a traced pass (the depth ladder plus per-layer
probes).  See README.md beside this file.

    python benchmarks/layers/run.py --seed 53              # everything
    python benchmarks/layers/run.py --repeat 2             # two sets + spread
    python benchmarks/layers/run.py --workload topk_http --seed 1 \\
        --seconds 15 --trace 0                             # the driver's form

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))
if not (HERE.parents[1] / "src" / "repro").is_dir():
    sys.exit("benchmarks/layers/run.py needs the repository's src/repro beside it")

import e2e  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

#: name -> (unit, better, bound): what a user of the system sees.  Every
#: workload reports every one; ``op`` is the workload's measured request
#: (a join, a top-k, a range query, a mixed read).  The bounds come from
#: the ten-seed spreads on the 2-core reference box (README.md, "Repeat
#: check"), capped at the contract's 0.25.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_tail_ms": ("ms", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

#: Per-layer metrics that are counts made by the program: they repeat
#: exactly for one seed, and two sets must agree on them to the digit.
EXACT = tuple(
    name
    for name in layers.PER_LAYER
    if name.startswith("candidates.") and not name.endswith(("_us", "_s"))
) + (
    "shard.pruned_ratio",
    "tsj.similar_pairs",
    "tsj.verified_ratio",
    "tsj.simulated_cost",
    "mapreduce.shuffle_bytes",
)

#: The questions this benchmark exists to answer: metric -> workload.
OPEN_QUESTIONS = {
    "client.transport_ms": "topk_http",
    "runtime.parallel_vs_serial_ratio": "join_batch",
    "shard.vs_single_ratio": "within_sharded",
    "accel.memo_evict_us": "topk_http",
}


def manifest() -> dict:
    """BENCHMARK.json, as the tables in the code have it (test_harness.py
    holds the file to this)."""
    return {
        "command": ["python3", "benchmarks/layers/run.py"],
        "paths": ["benchmarks/layers"],
        "run_seconds": workloads.RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, (why, _) in workloads.BASE.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _) in layers.PER_LAYER.items()
        ],
    }


def with_units(values: dict, table: dict) -> dict:
    return {name: {"value": values[name], "unit": table[name][0]} for name in table}


def tracing_summary(workload, result, trace) -> dict:
    """Traced against untraced on the same requests: the ladder's self
    times sum to the traced duration of the end-to-end request's layer."""
    layer = "client" if workload.http else "api"
    spans = [
        span for span in trace.spans
        if span["workload"] == workload.name and isinstance(span["request"], int)
    ]
    top = {s["request"]: s["end"] - s["start"] for s in spans if s["layer"] == layer}
    # The ladder is one chain, so everything but the wire depths sits below
    # an in-process request.
    above = () if workload.http else ("client", "server")
    sums = {}
    for (request, span_layer), seconds in harness.self_times(spans).items():
        if span_layer not in above:
            sums[request] = sums.get(request, 0.0) + seconds
    untraced = [ms for ms in result["latencies_ms"][: len(top)] if ms is not None]
    traced_ms = statistics.median(top.values()) * 1e3
    untraced_ms = statistics.median(untraced)
    ratio = statistics.median(sums.values()) * 1e3 / untraced_ms
    return {
        "layer": layer,
        "requests": len(top),
        "traced_p50_ms": traced_ms,
        "untraced_p50_ms": untraced_ms,
        "overhead_ms": traced_ms - untraced_ms,
        "self_sum_over_e2e": ratio,
        "flag": not 0.9 <= ratio <= 1.1,
    }


def print_metrics(title, values, table) -> None:
    print(f"-- {title}")
    for name, (unit, *_rest) in table.items():
        print(f"   {name:44s} {values[name]:>16.6g} {unit}")


def print_samples(result) -> None:
    appends = result.get("appends", {"n": 0})
    append_note = (
        f", append n={appends['n']} p50 {appends['p50']:.3f} ms" if appends["n"] else ""
    )
    print(
        f"   samples: op n={result['samples']['op_ms']} "
        f"(tail = p{result['tail_percentile']:g}), "
        f"setup n={result['samples']['setup_s']}{append_note}; "
        f"fail_ratio {result['fail_ratio']:g} "
        f"({result['failed']}/{result['attempted']}); "
        f"checks {result['checks']['executed']}"
    )


def untraced_path(name: str) -> Path:
    harness.RESULTS.mkdir(parents=True, exist_ok=True)
    return harness.RESULTS / f"BENCH_layers_{name}.json"


def contract_run(args) -> int:
    """One workload, one pass, one JSON line: the driver's form."""
    workload = workloads.build(args.workload, args.seed, args.seconds, args.smoke)
    if args.trace:
        trace = harness.Trace()
        values, (compared, differing) = layers.run(workload, trace)
        trace.dump(harness.RESULTS / "BENCH_layers_trace.json")
        print_metrics(f"{workload.name} per-layer", values, layers.PER_LAYER)
        print(f"   {differing} of {compared} requests answered differently by depth")
        line = {
            "correct": differing == 0,
            "attempted": len(trace.spans),
            "failed": differing,
            "metrics": with_units(values, layers.PER_LAYER),
        }
    else:
        result = e2e.run(workload, args.smoke)
        print_metrics(f"{workload.name} end-to-end", result["metrics"], END_TO_END)
        print_samples(result)
        untraced_path(workload.name).write_text(json.dumps(result))
        line = {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": with_units(result["metrics"], END_TO_END),
        }
    print(json.dumps(line))
    return 0


def full_set(args, trace) -> dict:
    """All four workloads: untraced pass, then the traced pass.  The
    untraced pass is the driver's form in a process of its own, so that
    its peak RSS, worker pool and token vocab are no earlier pass's."""
    report = {}
    for name in workloads.NAMES:
        workload = workloads.build(name, args.seed, args.seconds, args.smoke)
        print(f"\n== {name}: {workload.why}", flush=True)
        command = [sys.executable, __file__, "--workload", name, "--trace", "0"]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        subprocess.run(command + ["--smoke"] * args.smoke, check=True)
        result = json.loads(untraced_path(name).read_text())
        per_layer, (compared, differing) = layers.run(workload, trace)
        print_metrics("per-layer (traced pass)", per_layer, layers.PER_LAYER)
        tracing = tracing_summary(workload, result, trace)
        print(
            "-- tracing: {layer} p50 traced {traced_p50_ms:.3f} ms - untraced "
            "{untraced_p50_ms:.3f} ms = overhead {overhead_ms:.3f} ms over "
            "{requests} requests; sum(self times)/end-to-end median = "
            "{self_sum_over_e2e:.3f}".format(**tracing)
            + ("  ** outside 0.9-1.1 **" if tracing["flag"] else "")
            + f"; {differing} of {compared} requests answered differently by depth"
        )
        result.pop("latencies_ms")
        result["failed"] += differing
        end_to_end = with_units(result.pop("metrics"), END_TO_END)
        report[name] = {
            **result,
            "end_to_end": end_to_end,
            "per_layer": with_units(per_layer, layers.PER_LAYER),
            "tracing": tracing,
        }
    return report


def compare_sets(sets) -> bool:
    """Per-metric relative spread between the sets against its bound, and
    the exact counts digit for digit."""
    steady = True
    print("\n== repeat check")
    for name in workloads.NAMES:
        for metric, (_, _, bound) in END_TO_END.items():
            values = [s[name]["end_to_end"][metric]["value"] for s in sets]
            spread = harness.spread(values)
            verdict = "ok" if spread <= bound else "UNSTEADY"
            steady &= spread <= bound
            print(
                f"   {name:16s} {metric:12s} spread {spread:7.2%} "
                f"bound {bound:.0%} {verdict}"
            )
        for metric in EXACT:
            values = {s[name]["per_layer"][metric]["value"] for s in sets}
            if len(values) != 1:
                steady = False
                print(f"   {name:16s} {metric} differs: {sorted(values)}")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=53)
    parser.add_argument("--seconds", type=float, default=workloads.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one boot")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run this many full sets and print their spread")
    args = parser.parse_args(argv)
    harness.refuse_if_server_bound()
    if args.workload:
        return contract_run(args)

    spans = harness.Trace()
    sets = []
    try:
        for _ in range(args.repeat):
            trace = harness.Trace()  # a set's self times are its own
            try:
                sets.append(full_set(args, trace))
            finally:
                spans.spans.extend(trace.spans)
    finally:
        spans.dump(harness.RESULTS / "BENCH_layers_trace.json")
    report = {
        "seed": args.seed,
        "scale": workloads.SMOKE_SCALE if args.smoke else workloads.SCALE,
        "seconds": args.seconds,
        "sets": sets,
    }
    first = sets[0]
    print("\n== open questions")
    report["open_questions"] = {}
    for metric, name in OPEN_QUESTIONS.items():
        entry = first[name]["per_layer"][metric]
        report["open_questions"][f"{metric}@{name}"] = entry
        print(f"   {metric}@{name} = {entry['value']:.4g} {entry['unit']}")
    steady = compare_sets(sets) if args.repeat > 1 else True
    path = harness.RESULTS / "BENCH_layers.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"\nwrote {path.relative_to(harness.ROOT)}")
    failed = sum(entry["failed"] for entry in first.values())
    return 0 if steady and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
