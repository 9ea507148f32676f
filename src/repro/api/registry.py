"""The algorithm registry and the shared selector validator.

Every string selector in the repository -- join ``algorithm`` names,
search ``method`` names, verification ``backend`` kernels, execution
``engine`` names, MassJoin ``mode`` -- is validated by the one helper
:func:`validate_choice`, so an unknown name fails the same way
everywhere: ``unknown <kind> '<value>'; choose from [...]``.

On top of that sit the two registries behind the declarative front door
(:mod:`repro.api`):

* **join algorithms** (:func:`register_join` / :func:`resolve_join`) --
  every join layer in the repository (the TSJ pipeline, the serial and
  MapReduce string joins, the set joins, the metric-space family)
  registers a :class:`JoinAlgorithm` adapter normalising its native
  signature, so ``JoinSpec(algorithm="passjoin_k", ...)`` is a uniform
  call;
* **search backends** (:func:`register_search` / :func:`resolve_search`)
  -- the one serving method behind ``TopKSpec``/``WithinSpec``:
  ``similarity_index`` (aliases ``cascade`` and ``vptree``), exact NSLD
  through the resident :class:`repro.service.SimilarityIndex`.

This module imports nothing from the rest of the package at module
scope except the leaf :mod:`repro.api.errors` (the typed error
hierarchy); the built-in adapters (:mod:`repro.api.adapters`) are loaded
lazily on first resolution, which keeps the validator importable from
low-level packages (``repro.accel``, ``repro.runtime``) without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.api.errors import ValidationError

__all__ = [
    "JoinAlgorithm",
    "JoinOutcome",
    "SearchBackend",
    "join_algorithms",
    "register_join",
    "register_search",
    "resolve_join",
    "resolve_search",
    "search_methods",
    "validate_choice",
]


def validate_choice(kind: str, value, choices: Sequence[str]) -> str:
    """Validate a string selector; raise a uniform, helpful error.

    The error is a :class:`repro.api.errors.ValidationError` -- an
    :class:`ApiError` (so the CLI and the HTTP server render it as the
    uniform JSON error envelope) that is also a plain
    :class:`ValueError` for pre-existing callers.

    Examples
    --------
    >>> validate_choice("verification backend", "dp", ("auto", "dp"))
    'dp'
    >>> validate_choice("verification backend", "gpu", ("auto", "dp"))
    Traceback (most recent call last):
        ...
    repro.api.errors.ValidationError: unknown verification backend 'gpu'; choose from ['auto', 'dp']
    """
    if value not in choices:
        listed = ", ".join(repr(choice) for choice in choices)
        raise ValidationError(f"unknown {kind} {value!r}; choose from [{listed}]")
    return value


@dataclass
class JoinOutcome:
    """What a join adapter hands back to the :class:`repro.api.Session`.

    The facade turns this into the uniform :class:`repro.api.ResultSet`
    envelope; adapters only normalise their layer's native output.
    """

    #: Index pairs ``(i, j)`` with ``i < j`` (``(i, j)`` across sides for
    #: future bipartite support).
    pairs: set
    #: Pair -> native score, when the algorithm reports one.
    distances: dict | None = None
    #: Canonical candidate-pipeline counters, when the layer meters them.
    counters: Mapping[str, int] | None = None
    #: Simulated cluster seconds, for the MapReduce-based layers.
    simulated_seconds: float | None = None


@dataclass(frozen=True)
class JoinAlgorithm:
    """A registered join layer, normalised behind ``JoinSpec``.

    Attributes
    ----------
    name:
        The ``JoinSpec.algorithm`` selector.
    runner:
        ``runner(corpus, spec, session) -> JoinOutcome``.  ``corpus``
        exposes ``names`` / ``strings`` / ``records`` / ``token_lists``
        views of the collection (tokenized once per session corpus).
    threshold_kind:
        The native threshold semantics: ``"nsld"`` / ``"nld"`` (float
        distances), ``"ld"`` (integer edit distance) or ``"jaccard"``
        (similarity in ``(0, 1]``).
    score_kind:
        ``"distance"`` (ascending is better) or ``"similarity"``
        (descending is better) -- drives result ordering.
    scorer:
        ``scorer(corpus, i, j) -> score`` fallback for layers that
        report bare pairs without per-pair scores.
    """

    name: str
    runner: Callable
    threshold_kind: str = "nsld"
    score_kind: str = "distance"
    scorer: Callable | None = None
    description: str = ""


@dataclass(frozen=True)
class SearchBackend:
    """A registered ``TopKSpec`` / ``WithinSpec`` method name, answered by
    the resident :class:`repro.service.SimilarityIndex`."""

    name: str
    description: str = ""
    #: Extra ``method`` spellings accepted for this backend.
    aliases: tuple = field(default=())


_JOINS: dict[str, JoinAlgorithm] = {}
_SEARCH: dict[str, SearchBackend] = {}
_SEARCH_ALIASES: dict[str, str] = {}
_BUILTINS_LOADED = False


def register_join(adapter: JoinAlgorithm) -> JoinAlgorithm:
    """Register (or replace) a join algorithm adapter."""
    _JOINS[adapter.name] = adapter
    return adapter


def register_search(adapter: SearchBackend) -> SearchBackend:
    """Register (or replace) a search backend adapter."""
    _SEARCH[adapter.name] = adapter
    for alias in adapter.aliases:
        _SEARCH_ALIASES[alias] = adapter.name
    return adapter


def _ensure_builtins() -> None:
    """Load the built-in adapters exactly once (deferred import)."""
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        # Flag only after a *successful* import: a transient import
        # failure must surface again on the next call, not leave the
        # registry permanently empty behind "choose from []" errors.
        import repro.api.adapters  # noqa: F401  (registers on import)

        _BUILTINS_LOADED = True


def join_algorithms() -> tuple[str, ...]:
    """Registered join algorithm names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_JOINS))


def search_methods(include_aliases: bool = False) -> tuple[str, ...]:
    """Registered search backend names, sorted."""
    _ensure_builtins()
    names = set(_SEARCH)
    if include_aliases:
        names |= set(_SEARCH_ALIASES)
    return tuple(sorted(names))


def resolve_join(name: str) -> JoinAlgorithm:
    """Look up a join adapter; unknown names raise the uniform error."""
    _ensure_builtins()
    validate_choice("join algorithm", name, join_algorithms())
    return _JOINS[name]


def resolve_search(name: str) -> SearchBackend:
    """Look up a search backend (aliases accepted); unknown names raise."""
    _ensure_builtins()
    validate_choice("search method", name, search_methods(include_aliases=True))
    return _SEARCH[_SEARCH_ALIASES.get(name, name)]
