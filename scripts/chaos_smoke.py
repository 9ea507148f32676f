"""CI chaos smoke: the operator-facing ``REPRO_FAULTS`` arming path.

The pytest chaos suite arms faults programmatically; this script checks
the *environment* form end to end, the way an operator (or this CI job)
would use it: export ``REPRO_FAULTS`` with an unbounded worker-kill
plan, run the pooled workload that passes the armed site, and require
(a) the answers to equal a clean in-process run and (b) the crash
recovery to be visible in the runtime counters.  The workload follows
the armed site:

* ``verify.chunk`` -- a pooled ``verify_pairs``, checked against the
  serial oracle;
* ``serve.chunk`` -- pooled top-k on a one-shard index (the batch
  fan-out) and on a four-shard index (the per-query scatter), each
  checked against the in-process index.

Run:  REPRO_FAULTS='[{"site": "verify.chunk", "action": "kill",
      "times": null}]' python scripts/chaos_smoke.py
      REPRO_FAULTS='[{"site": "serve.chunk", "action": "kill",
      "times": null}]' python scripts/chaos_smoke.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import faults  # noqa: E402
from repro.accel import verify_pairs  # noqa: E402
from repro.runtime import runtime_counters, shutdown_shared_pool  # noqa: E402
from repro.runtime.pool import MAX_SHARD_RETRIES, fork_is_default  # noqa: E402

NAMES = ["jon smith", "john smith", "bob jones", "rob jones"] * 8


def disarm() -> dict:
    """Disarm the plan and stop the pool; returns the recovery counters."""
    counters = runtime_counters()
    os.environ.pop(faults.ENV_FAULTS)
    faults.clear()
    faults._reset_for_tests()
    shutdown_shared_pool()
    return counters


def verify_chunk() -> tuple[str, dict]:
    pairs = [(i, j) for i in range(len(NAMES)) for j in range(i + 1, len(NAMES))]
    chaos = verify_pairs(pairs, NAMES, 3, processes=2, chunk_size=16)
    counters = disarm()
    clean = verify_pairs(pairs, NAMES, 3, processes=None)
    assert chaos == clean, "recovered run diverged from the serial oracle"
    return "results identical to serial", counters


def serve_chunk() -> tuple[str, dict]:
    from repro.data import evaluation_corpus
    from repro.service import SimilarityIndex

    names, _ = evaluation_corpus(40, seed=3)
    queries = [name[:-1] + "z" for name in names[:4]]
    chaos = {}
    for n_shards in (1, 4):
        index = SimilarityIndex(names, n_shards=n_shards)
        chaos[n_shards] = index.topk(queries, k=3, processes=2)
        index.unpublish()
    counters = disarm()
    for n_shards, answers in chaos.items():
        clean = SimilarityIndex(names, n_shards=n_shards).topk(queries, k=3)
        assert answers == clean, f"{n_shards}-shard pooled top-k diverged"
    return "top-k at 1 and 4 shards identical to in-process", counters


WORKLOADS = {"verify.chunk": verify_chunk, "serve.chunk": serve_chunk}


def main() -> None:
    plan = os.environ.get(faults.ENV_FAULTS)
    if not plan:
        raise SystemExit(f"set {faults.ENV_FAULTS} first; see the docstring")
    sites = {entry["site"] for entry in json.loads(plan)}
    armed = sorted(sites & set(WORKLOADS))
    if len(armed) != 1:
        raise SystemExit(
            f"arm exactly one of {sorted(WORKLOADS)}, got {sorted(sites)}"
        )
    if not fork_is_default():
        print("skipped: pool chaos needs fork workers (Linux)")
        return

    outcome, counters = WORKLOADS[armed[0]]()
    assert counters["pool_rebuilds"] >= 1, counters
    print(
        f"env-armed {armed[0]} worker kill recovered: "
        f"{counters['pool_rebuilds']} pool rebuild(s), "
        f"{counters['shard_retries']} retry(ies), "
        f"degraded={counters['pool_degraded'] > 0} "
        f"(retry budget {MAX_SHARD_RETRIES}); {outcome}"
    )


if __name__ == "__main__":
    main()
