"""Seeded workload generators for the layered benchmark.

Everything the program under test receives is generated here from
``--seed``: corpora, edited queries, the Zipf query pool and the append
batches.  The same seed gives the same inputs on every commit; another
seed changes all four workloads.

Sizes are the ISSUE's sizing (``BASE``) with the corpora and the WAL tail
shrunk uniformly by one constant, :data:`SCALE`: the driver makes 92 runs
that must end within 3420 s, so a run may take about 22 s including
set-up and the oracle checks, not the 30-40 s of measured time the ISSUE's
sizes were picked for.  Shrinking the corpus shrinks the cost of every op;
the op counts are fixed for a given ``--seconds`` (so the same inputs run
on every commit) and never fall below :data:`MIN_LATENCY_SAMPLES`, which
the percentile rule needs for a p95.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.data import evaluation_corpus

#: Uniform shrink factor of the corpora and the WAL tail of :data:`BASE`
#: (see the module docstring).  ``--smoke`` uses :data:`SMOKE_SCALE` and
#: shrinks the op counts by it as well.
SCALE = 0.5
SMOKE_SCALE = 0.04

#: ``run_seconds`` of BENCHMARK.json: on the 2-core reference box the op
#: counts of :data:`BASE` keep a workload busy for about this long.
#: ``--seconds`` stretches the op counts relative to it.
RUN_SECONDS = 15

#: Floors on the samples behind the latency metrics.
MIN_LATENCY_SAMPLES = 200
MIN_JOINS = 6

RADIUS = 0.1
TOP_K = 5
APPEND_BATCH = 4
#: ``mixed_rw_http`` sends one append per this many reads.  The ISSUE paced
#: the appender by 250 ms of think time, which is about one append per four
#: reads on the reference box; pacing by count keeps the mix, the number of
#: appends and the memory they add the same on a slower or a faster run.
READS_PER_APPEND = 4
ZIPF_POOL = 64
#: Queries behind the layer probes.
PROBE_QUERIES = 40

#: name -> (why, the ISSUE's corpus and WAL-tail sizes with the op count
#: that fills RUN_SECONDS at SCALE).  ``wal_tail`` counts WAL records, one
#: per append batch.
BASE = {
    "join_batch": (
        "The paper's headline use, a batch NSLD self-join: tsj, mapreduce, "
        "runtime, candidates and accel do the work; no serving layer runs, "
        "so a serving change must not move it.",
        {"corpus": 4000, "reads": 10},
    ),
    "topk_http": (
        "Free text in, five best matches out over the full wire path; "
        "verification dominates and filters prune nothing. Unique queries "
        "bypass the result cache.",
        {"corpus": 2000, "reads": 200},
    ),
    "within_sharded": (
        "In-process range queries on 4 length-placed shards: the Lemma 6 window, "
        "the filters and shard routing decide that a fifth of the candidates "
        "is verified; no transport and no store.",
        {"corpus": 10000, "reads": 800},
    ),
    "mixed_rw_http": (
        "Writes beside reads through one run lock, result cache and sharded "
        "store: appends clear the cache (Zipf pool is cache-friendly), "
        "set-up is a warm restart from snapshot + WAL.",
        {"corpus": 3000, "reads": 240, "wal_tail": 200},
    ),
}

NAMES = tuple(BASE)

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Op:
    """One request: ``kind`` is ``join``/``topk``/``within``/``append``;
    ``arg`` the query string, the appended names, or the join's corpus
    index."""

    kind: str
    arg: object = None


@dataclass
class Workload:
    name: str
    why: str
    seed: int
    #: The boot corpora: one per join for ``join_batch``, else exactly one.
    corpora: list[list[str]]
    #: The measured closed-loop read sequence (fixed count, fixed order).
    reads: list[Op]
    #: Append batches already in the WAL when the server boots.
    wal_tail: list[tuple[str, ...]] = field(default_factory=list)
    #: Append batches sent beside the reads, one per READS_PER_APPEND reads.
    appends: list[tuple[str, ...]] = field(default_factory=list)
    #: One query with its own edit, used for "first correct answer".
    boot_query: str = ""
    probe_topk: list[str] = field(default_factory=list)
    probe_within: list[str] = field(default_factory=list)
    shards: int = 1
    placement: str = "length"
    http: bool = False
    store: bool = False
    connections: int = 1

    @property
    def corpus(self) -> list[str]:
        return self.corpora[0]

    def resident_names(self) -> list[str]:
        """What the server holds after boot: corpus plus the WAL tail."""
        return self.corpus + [name for batch in self.wal_tail for name in batch]


def subseed(seed: int, *parts: object) -> int:
    """A stable 32-bit seed for one purpose of one workload."""
    text = ":".join(str(part) for part in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def corpus(size: int, seed: int) -> list[str]:
    return evaluation_corpus(size, seed=seed)[0]


def fresh_names(count: int, seed: int) -> list[str]:
    """Names to append: innocent names of another seed, no planted rings."""
    return evaluation_corpus(count, ring_fraction=0.0, seed=seed)[0]


def batches_of(names: list[str]) -> list[tuple[str, ...]]:
    return [
        tuple(names[i : i + APPEND_BATCH]) for i in range(0, len(names), APPEND_BATCH)
    ]


def letters(name: str) -> int:
    return len(name.replace(" ", ""))


def edit_name(name: str, rng: random.Random) -> str:
    """``name`` with one character substituted inside a token.

    For aggregate length L the edit costs NSLD 2/(2L+1), so names with
    L >= 10 stay within :data:`RADIUS` of their source: every query has a
    true match and the correctness check is not vacuous.
    """
    positions = [i for i, char in enumerate(name) if char != " "]
    position = rng.choice(positions)
    replacement = rng.choice([c for c in _LETTERS if c != name[position].lower()])
    return name[:position] + replacement + name[position + 1 :]


def edited_queries(names: list[str], count: int, rng: random.Random) -> list[str]:
    """``count`` distinct single-edit queries over sufficiently long names.

    A query's cost follows the length of its source name (the Lemma 6
    window), so the sources are a systematic sample over the length-sorted
    corpus: evenly spaced ranks from a random start.  Every seed then
    draws the same mix of short and long queries, and the latency
    percentiles of two seeds differ by their corpora, not by the luck of
    the draw.  The order is shuffled.
    """
    eligible = sorted((name for name in names if letters(name) >= 10), key=letters)
    step = len(eligible) / count
    start = rng.random() * step
    queries: list[str] = []
    seen = set(names)
    for rank in range(count):
        source = eligible[int(start + rank * step) % len(eligible)]
        query = edit_name(source, rng)
        while query in seen:
            query = edit_name(source, rng)
        seen.add(query)
        queries.append(query)
    rng.shuffle(queries)
    return queries


def zipf_draws(pool: list[str], count: int, rng: random.Random) -> list[str]:
    """``count`` draws from ``pool`` with rank-``r`` weight ``1/r``."""
    weights = [1.0 / rank for rank in range(1, len(pool) + 1)]
    return rng.choices(pool, weights=weights, k=count)


def _scaled(base: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(base * scale))


def _mixed_reads(names, count, rng) -> list[Op]:
    """50% top-k drawn Zipf from a small pool (cache-friendly), 30% unique
    ``within``, 20% unique top-k, in exact shares and shuffled order."""
    cached = round(count * 0.5)
    within = round(count * 0.3)
    queries = edited_queries(names, ZIPF_POOL + count - cached, rng)
    pool, unique = queries[:ZIPF_POOL], queries[ZIPF_POOL:]
    reads = [Op("topk", query) for query in zipf_draws(pool, cached, rng)]
    reads += [Op("within", query) for query in unique[:within]]
    reads += [Op("topk", query) for query in unique[within:]]
    rng.shuffle(reads)
    return reads


def build(name: str, seed: int, seconds: float = RUN_SECONDS, smoke: bool = False):
    """Generate workload ``name`` from ``seed``.

    ``seconds`` stretches the op counts (not the corpora) relative to
    :data:`RUN_SECONDS`, never below the sample floors; ``smoke`` is the
    tiny size the harness tests run.
    """
    why, base = BASE[name]
    scale = SMOKE_SCALE if smoke else SCALE
    stretch = (SMOKE_SCALE if smoke else 1.0) * seconds / RUN_SECONDS
    floor = 8 if smoke else MIN_LATENCY_SAMPLES
    size = _scaled(base["corpus"], scale, 60)
    rng = random.Random(subseed(seed, name, "queries"))
    probes = 6 if smoke else PROBE_QUERIES

    if name == "join_batch":
        joins = _scaled(base["reads"], stretch, 3 if smoke else MIN_JOINS)
        # corpora[0] is the warm-up; each measured join gets its own
        # corpus, so one run averages over ten inputs instead of one.
        corpora = [corpus(size, subseed(seed, name, i)) for i in range(joins + 1)]
        reads = [Op("join", i + 1) for i in range(joins)]
        workload = Workload(name, why, seed, corpora, reads)
    else:
        names = corpus(size, subseed(seed, name, "corpus"))
        count = _scaled(base["reads"], stretch, floor)
        workload = Workload(name, why, seed, [names], [])
        if name == "topk_http":
            workload.http, workload.connections = True, 2
            workload.reads = [Op("topk", q) for q in edited_queries(names, count, rng)]
        elif name == "within_sharded":
            workload.shards = 4
            workload.reads = [
                Op("within", q) for q in edited_queries(names, count, rng)
            ]
        else:
            workload.http = workload.store = True
            workload.shards, workload.connections = 4, 2
            tail = _scaled(base["wal_tail"], scale, 2)
            batches = batches_of(
                fresh_names(
                    APPEND_BATCH * (tail + count // READS_PER_APPEND),
                    subseed(seed, name, "appends"),
                )
            )
            workload.wal_tail, workload.appends = batches[:tail], batches[tail:]
            workload.reads = _mixed_reads(names, count, rng)

    probe_rng = random.Random(subseed(seed, name, "probes"))
    source = workload.corpus
    workload.boot_query = edited_queries(source, 1, probe_rng)[0]
    workload.probe_topk = edited_queries(source, probes, probe_rng)
    workload.probe_within = edited_queries(source, probes, probe_rng)
    return workload
