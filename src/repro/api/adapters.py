"""Built-in adapters: every join layer, registered.

Importing this module populates :mod:`repro.api.registry` with one
:class:`~repro.api.registry.JoinAlgorithm` per join layer in the
repository, normalising their native signatures behind the declarative
``JoinSpec``.  The paper's TSJ pipeline is *one algorithm choice*
here, not a hard-coded default path.

Adapter contract: ``runner(corpus, spec, session) -> JoinOutcome``.
``corpus`` exposes the collection as raw ``strings`` (the LD/NLD string
joins), ``token_lists`` (the set joins) or tokenized ``records`` (TSJ,
the naive oracle, the metric-space family), tokenized once per session
corpus; the adapter casts ``spec.threshold`` to its native semantics and
forwards ``spec.params`` to the layer's own keywords.
"""

from __future__ import annotations

from repro.api.registry import JoinAlgorithm, JoinOutcome, register_join
from repro.mapreduce import ClusterConfig
from repro.runtime import create_engine

# -- shared helpers --------------------------------------------------------------


def _engine_for(corpus, spec, session, params: dict):
    """Build the MapReduce engine a distributed layer runs on."""
    n_machines = params.pop("n_machines", 10)
    return create_engine(
        spec.engine or session.engine, ClusterConfig(n_machines=n_machines)
    )


def _backend_for(spec, session) -> str:
    return spec.backend or session.backend


def _nsld_scorer(corpus, i: int, j: int) -> float:
    from repro.distances import nsld

    records = corpus.records
    return nsld(records[i], records[j])


def _ld_scorer(corpus, i: int, j: int) -> int:
    from repro.distances import levenshtein

    strings = corpus.strings
    return levenshtein(strings[i], strings[j])


def _jaccard_scorer(corpus, i: int, j: int) -> float:
    token_lists = corpus.token_lists
    x, y = frozenset(token_lists[i]), frozenset(token_lists[j])
    if not x and not y:
        return 1.0
    intersection = len(x & y)
    return intersection / (len(x) + len(y) - intersection)


def _pipeline_outcome(pairs, distances, pipeline) -> JoinOutcome:
    return JoinOutcome(
        pairs=set(pairs),
        distances=dict(distances),
        counters=pipeline.counters(),
        simulated_seconds=pipeline.simulated_seconds(),
    )


# -- the TSJ pipeline (the paper's joiner) ---------------------------------------


def _run_tsj(corpus, spec, session) -> JoinOutcome:
    from repro.tsj import TSJ, TSJConfig

    params = dict(spec.params)
    n_machines = params.pop("n_machines", 10)
    engine_name = params.pop("engine", spec.engine or session.engine)
    verify_backend = params.pop("verify_backend", _backend_for(spec, session))
    config = TSJConfig(
        threshold=spec.threshold,
        engine=engine_name,
        verify_backend=verify_backend,
        **params,
    )
    engine = create_engine(engine_name, ClusterConfig(n_machines=n_machines))
    result = TSJ(config, engine).self_join(corpus.records)
    return JoinOutcome(
        pairs=result.pairs,
        distances=result.distances,
        counters=result.counters(),
        simulated_seconds=result.simulated_seconds(),
    )


def _run_naive(corpus, spec, session) -> JoinOutcome:
    from repro.joins import naive_nsld_self_join

    return JoinOutcome(pairs=naive_nsld_self_join(corpus.records, spec.threshold))


# -- the serial string joins -----------------------------------------------------


def _run_passjoin(corpus, spec, session) -> JoinOutcome:
    from repro.joins import PassJoin

    join = PassJoin(int(spec.threshold), backend=_backend_for(spec, session))
    pairs = join.self_join(corpus.strings)
    return JoinOutcome(pairs=pairs, counters=dict(join.last_counters))


def _run_passjoin_k(corpus, spec, session) -> JoinOutcome:
    from repro.joins import PassJoinK

    params = dict(spec.params)
    join = PassJoinK(
        int(spec.threshold),
        k_signatures=params.pop("k_signatures", 2),
        backend=_backend_for(spec, session),
        **params,
    )
    pairs = join.self_join(corpus.strings)
    return JoinOutcome(pairs=pairs, counters=dict(join.last_counters))


def _run_qgram(corpus, spec, session) -> JoinOutcome:
    from repro.candidates import new_counters
    from repro.joins import qgram_ld_self_join

    params = dict(spec.params)
    counters = new_counters()
    pairs = qgram_ld_self_join(
        corpus.strings,
        int(spec.threshold),
        q=params.pop("q", 2),
        backend=_backend_for(spec, session),
        counters=counters,
        **params,
    )
    return JoinOutcome(pairs=pairs, counters=counters)


# -- the MapReduce string joins --------------------------------------------------


def _run_passjoin_kmr(corpus, spec, session) -> JoinOutcome:
    from repro.joins import PassJoinKMR

    params = dict(spec.params)
    engine = _engine_for(corpus, spec, session, params)
    join = PassJoinKMR(
        engine,
        threshold=int(spec.threshold),
        k_signatures=params.pop("k_signatures", 2),
        backend=_backend_for(spec, session),
        **params,
    )
    result = join.self_join(corpus.strings)
    return _pipeline_outcome(result.pairs, result.distances, result.pipeline)


def _run_massjoin(corpus, spec, session) -> JoinOutcome:
    from repro.joins import MassJoin

    params = dict(spec.params)
    engine = _engine_for(corpus, spec, session, params)
    join = MassJoin(
        engine,
        threshold=spec.threshold,
        mode=params.pop("mode", "nld"),
        backend=_backend_for(spec, session),
        **params,
    )
    result = join.self_join(corpus.strings)
    return _pipeline_outcome(result.pairs, result.distances, result.pipeline)


# -- the set-similarity joins ----------------------------------------------------


def _run_prefix_filter(corpus, spec, session) -> JoinOutcome:
    from repro.candidates import new_counters
    from repro.joins import prefix_filter_jaccard_self_join

    counters = new_counters()
    pairs = prefix_filter_jaccard_self_join(
        corpus.token_lists, spec.threshold, counters=counters, **spec.params
    )
    return JoinOutcome(pairs=pairs, counters=counters)


def _run_mgjoin(corpus, spec, session) -> JoinOutcome:
    from repro.candidates import new_counters
    from repro.joins import mgjoin_jaccard_self_join

    params = dict(spec.params)
    counters = new_counters()
    pairs = mgjoin_jaccard_self_join(
        corpus.token_lists,
        spec.threshold,
        n_orders=params.pop("n_orders", 3),
        seed=params.pop("seed", 0),
        counters=counters,
        **params,
    )
    return JoinOutcome(pairs=pairs, counters=counters)


def _run_vernica(corpus, spec, session) -> JoinOutcome:
    from repro.joins import VernicaJoin

    params = dict(spec.params)
    engine = _engine_for(corpus, spec, session, params)
    result = VernicaJoin(engine, threshold=spec.threshold, **params).self_join(
        corpus.token_lists
    )
    return _pipeline_outcome(result.pairs, result.similarities, result.pipeline)


# -- the metric-space family (NSLD is a metric; Theorem 2) -----------------------


def _run_clusterjoin(corpus, spec, session) -> JoinOutcome:
    from repro.metricspace import ClusterJoin

    params = dict(spec.params)
    engine = _engine_for(corpus, spec, session, params)
    result = ClusterJoin(engine, threshold=spec.threshold, **params).self_join(
        corpus.records
    )
    return _pipeline_outcome(result.pairs, result.distances, result.pipeline)


def _run_mrmapss(corpus, spec, session) -> JoinOutcome:
    from repro.metricspace import MRMAPSS

    params = dict(spec.params)
    engine = _engine_for(corpus, spec, session, params)
    result = MRMAPSS(engine, threshold=spec.threshold, **params).self_join(
        corpus.records
    )
    return _pipeline_outcome(result.pairs, result.distances, result.pipeline)


def _run_hmj(corpus, spec, session) -> JoinOutcome:
    from repro.metricspace import HMJ

    params = dict(spec.params)
    engine = _engine_for(corpus, spec, session, params)
    result = HMJ(engine, threshold=spec.threshold, **params).self_join(corpus.records)
    return _pipeline_outcome(result.pairs, result.distances, result.pipeline)


def _run_quickjoin(corpus, spec, session) -> JoinOutcome:
    from repro.metricspace import QuickJoin

    pairs = QuickJoin(threshold=spec.threshold, **spec.params).self_join(
        corpus.records
    )
    return JoinOutcome(pairs=pairs)


# -- registration ----------------------------------------------------------------

register_join(
    JoinAlgorithm(
        "tsj",
        _run_tsj,
        threshold_kind="nsld",
        scorer=_nsld_scorer,
        description="the paper's Tokenized-String Joiner (NSLD, MapReduce)",
    )
)
register_join(
    JoinAlgorithm(
        "naive",
        _run_naive,
        threshold_kind="nsld",
        scorer=_nsld_scorer,
        description="brute-force NSLD oracle (quadratic)",
    )
)
register_join(
    JoinAlgorithm(
        "passjoin",
        _run_passjoin,
        threshold_kind="ld",
        scorer=_ld_scorer,
        description="serial Pass-Join (LD, partition signatures)",
    )
)
register_join(
    JoinAlgorithm(
        "passjoin_k",
        _run_passjoin_k,
        threshold_kind="ld",
        scorer=_ld_scorer,
        description="PassJoinK (LD, K required signature matches)",
    )
)
register_join(
    JoinAlgorithm(
        "passjoin_kmr",
        _run_passjoin_kmr,
        threshold_kind="ld",
        scorer=_ld_scorer,
        description="MapReduce PassJoinK (LD)",
    )
)
register_join(
    JoinAlgorithm(
        "qgram",
        _run_qgram,
        threshold_kind="ld",
        scorer=_ld_scorer,
        description="positional q-gram count-filter join (LD)",
    )
)
register_join(
    JoinAlgorithm(
        "massjoin",
        _run_massjoin,
        threshold_kind="nld",
        scorer=None,
        description="MassJoin (NLD or LD, MapReduce)",
    )
)
register_join(
    JoinAlgorithm(
        "prefix_filter",
        _run_prefix_filter,
        threshold_kind="jaccard",
        score_kind="similarity",
        scorer=_jaccard_scorer,
        description="AllPairs/PPJoin-style prefix-filtered Jaccard join",
    )
)
register_join(
    JoinAlgorithm(
        "mgjoin",
        _run_mgjoin,
        threshold_kind="jaccard",
        score_kind="similarity",
        scorer=_jaccard_scorer,
        description="multi-order prefix-filtered Jaccard join",
    )
)
register_join(
    JoinAlgorithm(
        "vernica",
        _run_vernica,
        threshold_kind="jaccard",
        score_kind="similarity",
        scorer=_jaccard_scorer,
        description="Vernica/Carey/Li MapReduce Jaccard join",
    )
)
register_join(
    JoinAlgorithm(
        "clusterjoin",
        _run_clusterjoin,
        threshold_kind="nsld",
        scorer=_nsld_scorer,
        description="single-level Voronoi metric-space join (NSLD)",
    )
)
register_join(
    JoinAlgorithm(
        "mrmapss",
        _run_mrmapss,
        threshold_kind="nsld",
        scorer=_nsld_scorer,
        description="recursive Voronoi metric-space join with symmetry dedup",
    )
)
register_join(
    JoinAlgorithm(
        "hmj",
        _run_hmj,
        threshold_kind="nsld",
        scorer=_nsld_scorer,
        description="hybrid metric joiner (Sec. V-E baseline)",
    )
)
register_join(
    JoinAlgorithm(
        "quickjoin",
        _run_quickjoin,
        threshold_kind="nsld",
        scorer=_nsld_scorer,
        description="serial recursive ball-partitioning metric join",
    )
)
