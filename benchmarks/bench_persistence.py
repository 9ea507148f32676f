"""Persistence bench: cold snapshot load vs full rebuild.

The point of the durable store is that a restart skips tokenization and
index construction: ``SnapshotStore.load()`` decodes checksummed
columns straight into a :class:`SimilarityIndex`, while a rebuild
re-tokenizes the whole corpus and re-interns every posting list.  On
the 5k-name corpus this bench measures both restart paths:

* **rebuild** -- ``SimilarityIndex(names)`` from the raw strings (the
  only option before the store existed, and still the degraded path);
* **cold load** -- ``SnapshotStore.load()`` from a published snapshot,
  including WAL replay of an appended tail (the warm-restart path).

Both must answer **byte-identical top-k results** (asserted here), so
the ratio is pure decode-vs-rebuild.  Emits
``benchmarks/results/BENCH_persistence.json`` with the
machine-independent ``load_vs_rebuild`` ratio series (both paths run in
the same process on the same box), gated in CI::

    python scripts/check_perf_regression.py --relative \
        --series load_vs_rebuild \
        benchmarks/results/BENCH_persistence.json \
        benchmarks/BENCH_persistence_baseline.json

Run as a pytest bench (``pytest benchmarks/bench_persistence.py``) or
standalone (``PYTHONPATH=src python benchmarks/bench_persistence.py``).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import pytest

from repro.data import evaluation_corpus
from repro.service import SimilarityIndex
from repro.store import SnapshotStore

_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

CORPUS_SIZE = int(5000 * _SCALE)
#: Appends WAL-logged atop the snapshot (the replay cost a warm restart
#: actually pays; compaction would fold them in at 256).
WAL_TAIL = 64
REPEATS = 3
N_QUERIES = 32
K = 5

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_persistence.json"


def _queries(names: list[str]) -> list[str]:
    step = max(1, len(names) // (N_QUERIES * 3 // 4))
    base = names[::step][: N_QUERIES * 3 // 4]
    edited = [name.replace("a", "o", 1) for name in base][: N_QUERIES - len(base)]
    return base + edited


def run_bench() -> dict:
    names, _ = evaluation_corpus(CORPUS_SIZE + WAL_TAIL, seed=47)
    resident, tail = names[:CORPUS_SIZE], names[CORPUS_SIZE:]
    queries = _queries(resident)

    with tempfile.TemporaryDirectory(prefix="bench-store-") as directory:
        # Publish the store once: snapshot of the resident corpus plus a
        # WAL tail of individually acknowledged appends.
        store = SnapshotStore(directory)
        seed_index = SimilarityIndex(resident)
        store.save(seed_index)
        for name in tail:
            store.log_append([name], base=len(seed_index))
            seed_index.append([name])
        snapshot_bytes = os.path.getsize(store.snapshot_path)
        wal_bytes = store.wal.size_bytes()

        # ---- full rebuild: re-tokenize + re-index everything -------------
        start = time.perf_counter()
        rebuilt = [SimilarityIndex(names) for _ in range(REPEATS)]
        rebuild_seconds = time.perf_counter() - start

        # ---- cold load: decode the snapshot, replay the WAL --------------
        start = time.perf_counter()
        loaded = [SnapshotStore(directory).load() for _ in range(REPEATS)]
        load_seconds = time.perf_counter() - start

    reference = rebuilt[0].topk(queries, k=K)
    for index in rebuilt[1:] + loaded:
        assert index.topk(queries, k=K) == reference, "restart paths diverge"

    report = {
        "gated": ["cold_load"],
        "workload": {
            "corpus": CORPUS_SIZE,
            "wal_tail": WAL_TAIL,
            "repeats": REPEATS,
            "queries": len(queries),
            "k": K,
            "snapshot_bytes": snapshot_bytes,
            "wal_bytes": wal_bytes,
        },
        "seconds": {
            "rebuild_x3": round(rebuild_seconds, 3),
            "cold_load_x3": round(load_seconds, 3),
        },
        "load_vs_rebuild": {
            "cold_load": round(rebuild_seconds / load_seconds, 2),
        },
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


@pytest.mark.perf
def test_cold_load_beats_rebuild():
    report = run_bench()
    print("\n" + json.dumps(report, indent=2))
    # The acceptance bar: restarting from the store must be meaningfully
    # faster than re-tokenizing the corpus (decode skips tokenization,
    # token interning and the postings build; the per-record object
    # construction both paths share bounds the ratio), with the
    # byte-identical results assertion inside run_bench() as the
    # correctness side.
    speedup = report["load_vs_rebuild"]["cold_load"]
    assert speedup >= 1.3, f"cold load only {speedup}x faster than rebuild"


if __name__ == "__main__":
    print(json.dumps(run_bench(), indent=2))
