"""The uniform result envelope: one shape for every request.

Every :class:`repro.api.Session` run -- any join algorithm, a top-k or
range search, a bare comparison -- lands in one :class:`ResultSet`: the
pairs/matches, the similarity clusters, the canonical candidate-pipeline
counters next to the result-cache counters, the simulated cluster
seconds (for the MapReduce layers) and the wall-clock build/query split
(for the serving layers).  The envelope is plain-JSON all the way down
(lists and dicts only), round-trips losslessly
(``ResultSet.from_json(rs.to_json()) == rs``), carries the wire-format
``"version"`` tag (missing means 1, unknown versions raise), and is
exactly what the CLI's ``--json`` mode emits and the HTTP service
(:mod:`repro.server`) answers with.

The human-oriented rendering is :meth:`ResultSet.summary`, shared by the
CLI ``join``, ``search`` and ``knn`` subcommands (and by the legacy
:class:`repro.core.JoinReport`, whose ``summary()`` delegates to the
same helpers).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from repro.api.errors import WIRE_VERSION, ValidationError, take_wire_version
from repro.candidates import (
    CASCADE_COUNTERS,
    COUNTER_CANDIDATES,
    COUNTER_VERIFIED,
)
from repro.service.cache import COUNTER_CACHE_HITS, COUNTER_CACHE_MISSES

__all__ = [
    "ResultSet",
    "pipeline_summary_lines",
    "serving_summary_lines",
]

#: Gauge reported next to the cache counters: results resident in the LRU.
COUNTER_CACHE_RESIDENT = "result_cache_resident"


def _listify(value):
    """Recursively coerce to JSON shapes (sequences to plain lists, sets
    sorted first, mappings to dicts) so constructed envelopes compare
    equal to JSON-round-tripped ones."""
    if isinstance(value, (list, tuple)):
        return [_listify(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return [_listify(item) for item in sorted(value)]
    if isinstance(value, dict):
        return {key: _listify(item) for key, item in value.items()}
    return value


def pipeline_summary_lines(counters: dict) -> list[str]:
    """The candidate-pipeline effectiveness summary (filter cascade)."""
    shown = {name: counters.get(name, 0) for name in CASCADE_COUNTERS}
    if not any(shown.values()):
        return []
    generated = shown[COUNTER_CANDIDATES]
    verified = shown[COUNTER_VERIFIED]
    parts = ", ".join(f"{name} = {value}" for name, value in shown.items() if value)
    lines = [f"# candidate pipeline: {parts}"]
    if generated:
        lines.append(
            "# filter cascade kept "
            f"{verified / generated:.1%} of generated candidates"
        )
    return lines


def serving_summary_lines(
    counters: dict,
    collection_size: int,
    n_queries: int,
    build_seconds: float,
    query_seconds: float,
) -> list[str]:
    """The resident-index summary: build-vs-query split plus cache use."""
    lines = [
        f"# resident index: {collection_size} names built once in "
        f"{build_seconds:.3f}s; {n_queries} queries served in {query_seconds:.3f}s"
    ]
    if COUNTER_CACHE_HITS in counters or COUNTER_CACHE_MISSES in counters:
        cache_line = (
            f"# result cache: {counters.get(COUNTER_CACHE_HITS, 0)} hits, "
            f"{counters.get(COUNTER_CACHE_MISSES, 0)} misses"
        )
        if COUNTER_CACHE_RESIDENT in counters:
            cache_line += f" ({counters[COUNTER_CACHE_RESIDENT]} resident)"
        lines.append(cache_line)
    lines.extend(pipeline_summary_lines(counters))
    return lines


def join_summary_lines(
    pairs: list,
    clusters: list,
    counters: dict,
    simulated_seconds: float | None,
    threshold=None,
    algorithm: str | None = None,
    n_machines: int | None = None,
    limit: int | None = None,
) -> list[str]:
    """The join summary: pairs, clusters, simulated runtime, pipeline."""
    details = []
    if algorithm:
        details.append(algorithm)
    if threshold is not None:
        details.append(f"T = {threshold}")
    qualifier = f" ({', '.join(details)})" if details else ""
    lines = [f"# {len(pairs)} similar pairs{qualifier}"]
    for name_a, name_b, score in pairs[:limit]:
        lines.append(f"{score:.4f}\t{name_a}\t{name_b}")
    lines.append(f"# {len(clusters)} clusters")
    for cluster in clusters[:limit]:
        lines.append("  " + " | ".join(sorted(cluster)))
    if simulated_seconds is not None:
        runtime = f"# simulated runtime: {simulated_seconds:.1f}s"
        if n_machines:
            runtime += f" on {n_machines} machines"
        lines.append(runtime)
    lines.extend(pipeline_summary_lines(counters))
    return lines


@dataclass
class ResultSet:
    """The uniform result envelope of :meth:`repro.api.Session.run`.

    Attributes
    ----------
    kind:
        The request shape: ``"join"``, ``"topk"``, ``"within"`` or
        ``"compare"``.
    algorithm:
        The algorithm / serving-method name that produced the result.
    score_kind:
        ``"distance"`` (ascending) or ``"similarity"`` (descending) --
        the semantics of every score in :attr:`pairs` / :attr:`matches`.
    collection_size:
        Number of records in the joined / indexed collection.
    queries:
        Echo of the request's queries (``topk`` / ``within``).
    pairs:
        Join results: ``[name_a, name_b, score]`` rows, best first
        (ties broken by the names).
    index_pairs:
        Join results positionally: sorted ``[i, j]`` rows into the
        collection, for bookkeeping under duplicate names.
    clusters:
        Connected components of the similarity graph, as sorted name
        lists, largest component first.
    matches:
        Search results: one ``[name, score]`` row list per query.
    value:
        The distance (``compare`` requests).
    counters:
        Canonical cascade counters plus the result-cache counters
        (per-request deltas for the serving paths).
    simulated_seconds:
        Simulated cluster runtime (MapReduce-based algorithms; ``None``
        for the serial ones).
    build_seconds / query_seconds:
        Wall-clock split between building resident state and answering
        the request.
    request:
        Echo of the originating spec (``Spec.to_dict()`` form).
    """

    kind: str
    algorithm: str = ""
    score_kind: str = "distance"
    collection_size: int = 0
    queries: list = field(default_factory=list)
    pairs: list = field(default_factory=list)
    index_pairs: list = field(default_factory=list)
    clusters: list = field(default_factory=list)
    matches: list = field(default_factory=list)
    value: float | None = None
    counters: dict = field(default_factory=dict)
    simulated_seconds: float | None = None
    build_seconds: float = 0.0
    query_seconds: float = 0.0
    request: dict | None = None

    def __post_init__(self) -> None:
        for name in ("queries", "pairs", "index_pairs", "clusters", "matches"):
            setattr(self, name, _listify(getattr(self, name)))
        self.counters = dict(self.counters)
        if self.request is not None:
            self.request = _listify(dict(self.request))

    # -- JSON wire format -------------------------------------------------------

    def to_dict(self) -> dict:
        """The wire form: every field plus the ``"version"`` tag."""
        payload = {"version": WIRE_VERSION}
        payload.update((f.name, getattr(self, f.name)) for f in fields(self))
        return payload

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "ResultSet":
        payload = dict(payload)
        take_wire_version(payload, "ResultSet")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValidationError(
                f"unknown ResultSet field(s) {unknown}; choose from {sorted(known)}"
            )
        return cls(**payload)

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        return cls.from_dict(json.loads(text))

    # -- legacy bridge ----------------------------------------------------------

    def to_join_report(self):
        """The legacy :class:`repro.core.JoinReport` view of a join result
        (byte-identical to the pre-redesign entry points' output)."""
        from repro.core.api import JoinReport

        return JoinReport(
            pairs=[(a, b, score) for a, b, score in self.pairs],
            clusters=[set(cluster) for cluster in self.clusters],
            index_pairs={(i, j) for i, j in self.index_pairs},
            simulated_seconds=(
                0.0 if self.simulated_seconds is None else self.simulated_seconds
            ),
            counters=dict(self.counters),
        )

    # -- human rendering --------------------------------------------------------

    def _request_param(self, name, default=None):
        if not self.request:
            return default
        if name in self.request:
            return self.request[name]
        return self.request.get("params", {}).get(name, default)

    def summary(self, limit: int | None = None) -> list[str]:
        """Printable report lines (the CLI's non-``--json`` rendering)."""
        if self.kind == "join":
            return join_summary_lines(
                self.pairs,
                self.clusters,
                self.counters,
                self.simulated_seconds,
                threshold=self._request_param("threshold"),
                algorithm=self.algorithm,
                n_machines=self._request_param("n_machines", 10),
                limit=limit,
            )
        if self.kind in ("topk", "within"):
            lines = []
            for query, rows in zip(self.queries, self.matches):
                lines.append(f"# query: {query}")
                for name, score in rows[:limit]:
                    lines.append(f"{score:.4f}\t{name}")
            lines.extend(
                serving_summary_lines(
                    self.counters,
                    self.collection_size,
                    len(self.queries),
                    self.build_seconds,
                    self.query_seconds,
                )
            )
            return lines
        if self.kind == "compare":
            return [f"{self.value:.6f}"]
        return [f"# {self.kind} result"]
