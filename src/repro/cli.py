"""Command-line interface: ``repro-tsj`` (or ``python -m repro``).

Every data-path subcommand is a thin veneer over the declarative
front door (:mod:`repro.api`): it builds a spec, executes it through one
:class:`repro.api.Session`, and renders the uniform
:class:`repro.api.ResultSet` envelope -- as human-readable summary lines
by default, or as the JSON wire format with ``--json`` (what a future
server/router speaks).

Subcommands
-----------

``generate``  Write a synthetic name corpus (optionally with planted fraud
              rings) to a file, one name per line.
``join``      Self-join a file of names under any registered join
              algorithm (``--algorithm``; the paper's TSJ pipeline is the
              default choice) and print pairs and clusters.
``compare``   Print the NSLD between two names.
``roc``       Run the Fig. 6 name-change ROC comparison and print AUCs.
``knn``       Nearest neighbours of one or more names from a resident
              index (exact NSLD, built once for the whole batch).
``search``    Serve top-k or range queries from a resident
              :class:`repro.service.SimilarityIndex` (build once, query
              many; ``--shards N``, one by default).
``run``       Execute a spec from a JSON file (``--spec spec.json``, or
              ``--spec -`` for stdin) -- the declarative entry point;
              emits the ResultSet envelope (``--output FILE`` writes it
              to a file), so it composes in shell pipelines the same way
              the HTTP server does.
``serve``     Run the HTTP similarity service (:mod:`repro.server`): one
              process-wide session answering POSTed specs with ResultSet
              envelopes, plus health/metrics endpoints.  ``--store DIR``
              makes it durable: warm restart from snapshot + WAL (a
              one-line recovery summary prints at boot), and
              ``/v1/append`` survives crashes.  ``--shards N`` serves
              the resident corpus from N scatter-gather shards with
              identical results and counters.
``index``     Durable index snapshots (``Session.save`` / ``Session.load``):
              ``index save`` writes an atomic, checksummed snapshot of a
              corpus's serving index (a store directory with
              ``--shards N > 1``); ``index load`` restores either
              (optionally serving queries) without re-tokenizing or
              re-indexing the corpus.
``tune``      Coordinate-descent search for (T, M) against a corpus with
              planted rings (footnote 5 of the paper).

Failures raise the typed :class:`repro.api.errors.ApiError` hierarchy;
``main`` renders them as the uniform JSON error envelope
(``{"error": {"type", "message"}}``) on the JSON-emitting paths and as a
one-line ``error: ...`` on the human-readable ones -- the same shapes
the HTTP server answers with.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.accel import BACKENDS
from repro.analysis import auc, roc_curve
from repro.api import (
    CompareSpec,
    JoinSpec,
    Session,
    TopKSpec,
    WithinSpec,
    join_algorithms,
    search_methods,
    spec_from_json,
)
from repro.api.errors import ApiError
from repro.data import evaluation_corpus, name_change_dataset
from repro.distances import fuzzy_cosine, fuzzy_dice, fuzzy_jaccard
from repro.runtime import ENGINES
from repro.tokenize import tokenize


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="auto",
        help="edit-distance verification kernel (auto = fast path: "
        "vector when numpy is installed, else bitparallel; "
        "dp = reference dynamic program; vector requires numpy)",
    )


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=list(ENGINES),
        default="auto",
        help="execution engine for the MapReduce pipeline (auto = parallel "
        "over the shared worker pool when multiple CPUs are usable and the "
        "platform forks workers by default; on spawn/forkserver platforms "
        "such as macOS or Windows pass 'parallel' explicitly; "
        "serial = the deterministic reference engine)",
    )


def _add_shard_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.shard import PLACEMENTS

    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the resident index across N shards served by "
        "scatter-gather (results and counters are shard-count invariant; "
        "default: 1 = unsharded)",
    )
    parser.add_argument(
        "--placement",
        choices=list(PLACEMENTS),
        default="length",
        help="shard placement: length = contiguous token-length ranges "
        "(the Lemma 6 window prunes whole shards), hash = uniform id "
        "hash (no pruning)",
    )


def _add_json_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the ResultSet envelope as JSON (the wire format) "
        "instead of the human-readable summary",
    )


def _emit(result, args) -> int:
    """Render one ResultSet: JSON envelope or summary lines."""
    if getattr(args, "json", False):
        print(result.to_json(indent=2))
    else:
        for line in result.summary(limit=getattr(args, "limit", None)):
            print(line)
    return 0


def _read_names(path: str) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        return [line.strip() for line in handle if line.strip()]


def _parse_params(entries: Sequence[str] | None) -> dict:
    """``--param key=value`` pairs; values parse as JSON scalars when
    possible (``--param n_machines=20 --param mode=ld``)."""
    params: dict = {}
    for entry in entries or ():
        key, separator, raw = entry.partition("=")
        if not separator:
            raise SystemExit(f"--param expects key=value, got {entry!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _cmd_generate(args: argparse.Namespace) -> int:
    names, rings = evaluation_corpus(
        args.size,
        ring_fraction=args.ring_fraction,
        ring_size=args.ring_size,
        seed=args.seed,
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        for name in names:
            handle.write(name + "\n")
    print(f"wrote {len(names)} names ({len(rings)} planted rings) to {args.output}")
    return 0


def _cmd_join(args: argparse.Namespace) -> int:
    names = _read_names(args.input)
    params = _parse_params(args.param)
    if args.algorithm == "tsj":
        params.setdefault("max_token_frequency", args.max_frequency)
        params.setdefault("n_machines", args.machines)
        params.setdefault("matching", args.matching)
        params.setdefault("aligning", args.aligning)
    spec = JoinSpec(
        algorithm=args.algorithm,
        threshold=args.threshold,
        backend=args.backend,
        engine=args.engine,
        params=params,
    )
    result = Session(shards=args.shards, placement=args.placement).run(
        spec, names=names
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            for name_a, name_b, score in result.pairs:
                handle.write(f"{score:.6f}\t{name_a}\t{name_b}\n")
    return _emit(result, args)


def _cmd_compare(args: argparse.Namespace) -> int:
    result = Session().run(
        CompareSpec(name_a=args.name_a, name_b=args.name_b, backend=args.backend)
    )
    if args.json:
        print(result.to_json(indent=2))
    else:
        print(f"{result.value:.6f}")
    return 0


def _cmd_roc(args: argparse.Namespace) -> int:
    triples = name_change_dataset(args.size, seed=args.seed)
    labels = [is_fraud for _, _, is_fraud in triples]
    session = Session()
    measures = {
        "NSLD": session.compare,
        "1-FJaccard": lambda old, new: 1.0
        - fuzzy_jaccard(tokenize(old).tokens, tokenize(new).tokens, 0.8),
        "1-FCosine": lambda old, new: 1.0
        - fuzzy_cosine(tokenize(old).tokens, tokenize(new).tokens, 0.8),
        "1-FDice": lambda old, new: 1.0
        - fuzzy_dice(tokenize(old).tokens, tokenize(new).tokens, 0.8),
    }
    for label, measure in measures.items():
        scores = [measure(old, new) for old, new, _ in triples]
        fpr, tpr, _ = roc_curve(scores, labels)
        print(f"{label:12s} AUC = {auc(fpr, tpr):.4f}")
    return 0


def _cmd_knn(args: argparse.Namespace) -> int:
    if args.k < 1:
        print("-k must be positive")
        return 2
    names = _read_names(args.input)
    spec = TopKSpec(queries=tuple(args.queries), k=args.k, backend=args.backend)
    return _emit(Session().run(spec, names=names), args)


def _cmd_search(args: argparse.Namespace) -> int:
    names = _read_names(args.input)
    queries = list(args.queries)
    if args.queries_file:
        queries.extend(_read_names(args.queries_file))
    if not queries:
        print("no queries given (positional arguments or --queries-file)")
        return 2
    if args.radius is None and args.k < 1:
        print("-k must be positive")
        return 2
    if args.radius is not None:
        if args.radius < 0:
            print("--radius must be non-negative")
            return 2
        spec: TopKSpec | WithinSpec = WithinSpec(
            queries=tuple(queries),
            radius=args.radius,
            method=args.method,
            backend=args.backend,
            processes=args.processes,
        )
    else:
        spec = TopKSpec(
            queries=tuple(queries),
            k=args.k,
            method=args.method,
            backend=args.backend,
            processes=args.processes,
        )
    return _emit(
        Session(shards=args.shards, placement=args.placement).run(
            spec, names=names
        ),
        args,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    if args.spec == "-":
        text = sys.stdin.read()
    else:
        with open(args.spec, encoding="utf-8") as handle:
            text = handle.read()
    spec = spec_from_json(text)
    names = _read_names(args.input) if args.input else None
    result = Session().run(spec, names=names)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(result.to_json(indent=2) + "\n")
    if args.summary:
        for line in result.summary(limit=args.limit):
            print(line)
    elif not args.output:
        print(result.to_json(indent=2))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import serve

    names = _read_names(args.input) if args.input else None
    server = serve(
        names,
        host=args.host,
        port=args.port,
        token=args.token,
        backend=args.backend,
        engine=args.engine,
        cache_size=args.cache_size,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        store_dir=args.store,
        shards=args.shards,
        placement=args.placement,
    )
    session = server.service.session
    if args.store:
        status = session.store_status()
        resident = len(session._default_names or ())
        # The one-line recovery summary: what the boot actually did, so
        # operators see it without curling /v1/health.
        snapshot = "snapshot loaded" if status["loaded"] else "no snapshot"
        torn = (
            ", torn WAL tail truncated" if status["torn_tail_truncated"] else ""
        )
        print(
            f"store {args.store}: {snapshot}, "
            f"{status['wal_records']} WAL record(s) replayed{torn}, "
            f"{status['rebuilds']} rebuild(s)",
            flush=True,
        )
        corpus = f"{resident} resident names (durable)"
    else:
        corpus = f"{len(names)} resident names" if names else "no resident corpus"
    corpus += f", {args.shards} shard(s) ({args.placement} placement)"
    auth = "bearer-token auth" if args.token else "no auth"
    print(f"serving on {server.url} ({corpus}, {auth})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cmd_index_save(args: argparse.Namespace) -> int:
    import os

    names = _read_names(args.input)
    Session(
        names, backend=args.backend, shards=args.shards, placement=args.placement
    ).save(args.output)
    if args.shards > 1:
        print(
            f"saved {len(names)}-record sharded index to {args.output}/ "
            f"({args.shards} shards, {args.placement} placement, "
            "checksummed, atomically published)"
        )
        return 0
    size = os.path.getsize(args.output)
    print(
        f"saved {len(names)}-record index snapshot to {args.output} "
        f"({size} bytes, checksummed, atomically published)"
    )
    return 0


def _cmd_index_load(args: argparse.Namespace) -> int:
    session = Session.load(args.snapshot)
    if args.queries:
        spec = TopKSpec(queries=tuple(args.queries), k=args.k)
        return _emit(session.run(spec), args)
    stats = session.stats()["corpora"][0]
    print(
        f"loaded {stats['records']}-record index from {args.snapshot} "
        "(no re-tokenization; pass query names to serve top-k from it)"
    )
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.analysis.tuning import tune_parameters
    from repro.data import corpus_with_rings

    names, rings = corpus_with_rings(
        args.background, args.rings, args.ring_size, seed=args.seed
    )
    records = [tokenize(name) for name in names]
    truth = {(a, b) for ring in rings for a in ring for b in ring if a < b}
    result = tune_parameters(records, truth, beta=args.beta)
    print(
        f"best: T = {result.threshold}, M = {result.max_token_frequency}, "
        f"F{args.beta:g} = {result.score:.3f} "
        f"({result.evaluations} evaluations)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tsj",
        description="Scalable similarity joins of tokenized strings "
        "(Metwally & Huang, ICDE 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="write a synthetic corpus")
    generate.add_argument("output")
    generate.add_argument("--size", type=int, default=1000)
    generate.add_argument("--ring-fraction", type=float, default=0.3)
    generate.add_argument("--ring-size", type=int, default=5)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=_cmd_generate)

    join = sub.add_parser(
        "join", help="self-join a file of names under a registered algorithm"
    )
    join.add_argument("input")
    join.add_argument(
        "--algorithm",
        choices=list(join_algorithms()),
        default="tsj",
        help="join algorithm (default: the paper's TSJ pipeline; "
        "see repro.api.registry)",
    )
    join.add_argument(
        "--threshold",
        type=float,
        default=0.1,
        help="the algorithm's native threshold (NSLD/NLD distance, integer "
        "edit distance, or Jaccard similarity)",
    )
    join.add_argument("--max-frequency", type=int, default=1000)
    join.add_argument("--machines", type=int, default=10)
    join.add_argument("--matching", choices=["fuzzy", "exact"], default="fuzzy")
    join.add_argument(
        "--aligning", choices=["hungarian", "greedy"], default="hungarian"
    )
    join.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="algorithm-specific parameter (repeatable; values parse as "
        "JSON scalars), e.g. --param k_signatures=3",
    )
    join.add_argument("--limit", type=int, default=50)
    join.add_argument("--output", help="also write all pairs to a TSV file")
    _add_backend_argument(join)
    _add_engine_argument(join)
    _add_shard_arguments(join)
    _add_json_argument(join)
    join.set_defaults(func=_cmd_join)

    compare = sub.add_parser("compare", help="NSLD between two names")
    compare.add_argument("name_a")
    compare.add_argument("name_b")
    _add_backend_argument(compare)
    _add_json_argument(compare)
    compare.set_defaults(func=_cmd_compare)

    roc = sub.add_parser("roc", help="Fig. 6 distance-measure ROC comparison")
    roc.add_argument("--size", type=int, default=1000)
    roc.add_argument("--seed", type=int, default=0)
    roc.set_defaults(func=_cmd_roc)

    knn = sub.add_parser(
        "knn", help="nearest neighbours of one or more names (resident index)"
    )
    knn.add_argument("input", help="file of names, one per line")
    knn.add_argument("queries", nargs="+", help="one or more query names")
    knn.add_argument("-k", type=int, default=5)
    _add_backend_argument(knn)
    _add_json_argument(knn)
    knn.set_defaults(func=_cmd_knn)

    search = sub.add_parser(
        "search",
        help="serve top-k/range queries from a resident index "
        "(build once, query many)",
    )
    search.add_argument("input", help="file of names, one per line")
    search.add_argument("queries", nargs="*", help="query names")
    search.add_argument(
        "--queries-file", help="file of additional queries, one per line"
    )
    search.add_argument("-k", type=int, default=5)
    search.add_argument(
        "--radius",
        type=float,
        help="range mode: all matches within this distance "
        "(default: top-k mode)",
    )
    search.add_argument(
        "--method",
        choices=list(search_methods(include_aliases=True)),
        default="similarity_index",
        help="serving method: exact NSLD through the candidate pipeline "
        "(cascade and vptree are aliases of similarity_index)",
    )
    search.add_argument(
        "--processes",
        type=int,
        help="fan the query batch out over the shared worker pool "
        "(pool-shared snapshot; results identical)",
    )
    _add_backend_argument(search)
    _add_shard_arguments(search)
    _add_json_argument(search)
    search.set_defaults(func=_cmd_search)

    run = sub.add_parser(
        "run",
        help="execute a declarative spec from a JSON file or stdin "
        "(join/topk/within/compare)",
    )
    run.add_argument(
        "--spec",
        required=True,
        help="path to the spec JSON, or '-' to read it from stdin",
    )
    run.add_argument(
        "--input",
        help="file of names, one per line, when the spec carries no "
        "inline corpus",
    )
    run.add_argument(
        "--output",
        help="write the ResultSet envelope to this file instead of stdout "
        "(combine with --summary to also print the human summary)",
    )
    run.add_argument(
        "--summary",
        action="store_true",
        help="print the human-readable summary instead of the JSON envelope",
    )
    run.add_argument("--limit", type=int, default=50)
    run.set_defaults(func=_cmd_run)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP similarity service (POST specs to /v1/run, "
        "get ResultSet envelopes back)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port (0 binds an ephemeral port, printed on startup)",
    )
    serve.add_argument(
        "--input",
        help="file of names, one per line, preloaded as the session's "
        "resident default corpus",
    )
    serve.add_argument(
        "--token",
        help="static bearer token required on every request except "
        "/v1/health (default: auth disabled)",
    )
    serve.add_argument(
        "--store",
        help="durable store directory: boot warm-restarts from its "
        "snapshot + write-ahead log (created on first use; a damaged "
        "store degrades to a rebuild from --input and is reported in "
        "/v1/health), and /v1/append survives crashes",
    )
    serve.add_argument("--cache-size", type=int, default=256)
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="bound on concurrently executing requests; overflow beyond "
        "the queue is shed with 503 + Retry-After (default: unbounded)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=8,
        help="requests allowed to wait for an execution slot before "
        "shedding starts (only meaningful with --max-inflight)",
    )
    _add_backend_argument(serve)
    _add_engine_argument(serve)
    _add_shard_arguments(serve)
    serve.set_defaults(func=_cmd_serve)

    index = sub.add_parser(
        "index",
        help="durable index snapshots (save/load without rebuilding)",
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)

    index_save = index_sub.add_parser(
        "save",
        help="build a serving index over a corpus and write an atomic, "
        "checksummed snapshot file",
    )
    index_save.add_argument("input", help="file of names, one per line")
    index_save.add_argument(
        "output",
        help="snapshot file to write (a store directory with --shards > 1)",
    )
    _add_backend_argument(index_save)
    _add_shard_arguments(index_save)
    index_save.set_defaults(func=_cmd_index_save)

    index_load = index_sub.add_parser(
        "load",
        help="restore a saved snapshot (and optionally serve top-k "
        "queries from it)",
    )
    index_load.add_argument(
        "snapshot",
        help="snapshot file -- or sharded store directory -- to load",
    )
    index_load.add_argument(
        "queries", nargs="*", help="optional query names to serve top-k for"
    )
    index_load.add_argument("-k", type=int, default=5)
    _add_json_argument(index_load)
    index_load.set_defaults(func=_cmd_index_load)

    tune = sub.add_parser("tune", help="search (T, M) on a ring corpus")
    tune.add_argument("--background", type=int, default=100)
    tune.add_argument("--rings", type=int, default=5)
    tune.add_argument("--ring-size", type=int, default=4)
    tune.add_argument("--beta", type=float, default=1.0)
    tune.add_argument("--seed", type=int, default=0)
    tune.set_defaults(func=_cmd_tune)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ApiError as exc:
        # The uniform error shapes: the JSON-emitting paths print the
        # same {"error": {"type", "message"}} envelope the HTTP server
        # answers with; the human-readable paths get one clean line.
        wants_json = getattr(args, "json", False) or (
            args.command == "run" and not getattr(args, "summary", False)
        )
        if wants_json:
            print(json.dumps(exc.to_envelope(), indent=2))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
