"""Declarative, JSON-(de)serializable request objects.

A *spec* is the wire form of one request against the repository's single
front door (:class:`repro.api.Session`): a frozen dataclass naming an
algorithm (or serving method), its threshold/shape parameters, and --
optionally -- an inline corpus.  Specs round-trip through JSON
losslessly (``Spec.from_json(spec.to_json()) == spec``), which is what a
future HTTP/router layer speaks; in-process callers usually leave
``names`` unset and let the :class:`repro.api.Session` supply a resident
corpus instead.

Four request shapes cover every entry point:

* :class:`JoinSpec` -- a self-join under a registered algorithm
  (``repro.api.registry.join_algorithms()``);
* :class:`TopKSpec` -- batched top-k queries against a resident index
  (the one method, ``repro.api.registry.search_methods()``);
* :class:`WithinSpec` -- batched range queries against a resident index;
* :class:`CompareSpec` -- one NSLD evaluation between two raw strings.

:func:`spec_from_json` dispatches on the envelope's ``"type"`` tag.

Every spec's JSON form carries the wire-format ``"version"`` tag
(:data:`repro.api.errors.WIRE_VERSION`): a missing field means version
1, an unknown version raises the uniform
:class:`~repro.api.errors.ValidationError`, so the envelope can evolve
without old payloads being silently misread.

Selector fields (``algorithm``, ``method``, ``backend``, ``engine``) are
validated eagerly at construction through
:mod:`repro.api.registry`, so a typo fails with the uniform
``unknown <kind> ...; choose from [...]`` error before any work runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Mapping

from repro.api.errors import WIRE_VERSION, ValidationError, take_wire_version
from repro.api.registry import (
    SEARCH_METHOD,
    resolve_join,
    search_methods,
    validate_choice,
)

__all__ = [
    "CompareSpec",
    "JoinSpec",
    "TopKSpec",
    "WithinSpec",
    "spec_from_json",
]


def _frozen_set(spec, name, value) -> None:
    object.__setattr__(spec, name, value)


def _jsonify(value):
    """Deep-normalise to JSON shapes (tuples -> lists, mappings -> dicts)
    so a constructed spec compares equal to its JSON round trip even when
    ``params`` nests sequences."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, Mapping):
        return {key: _jsonify(item) for key, item in value.items()}
    return value


def _normalise_names(spec, attribute: str) -> None:
    value = getattr(spec, attribute)
    if value is not None:
        _frozen_set(spec, attribute, tuple(value))


def _normalise_common(spec) -> None:
    """The normalisation steps every spec shares: ``names`` to a tuple,
    ``params`` to deep-JSON form, selector and deadline validation."""
    if hasattr(spec, "names"):
        _normalise_names(spec, "names")
    if hasattr(spec, "params"):
        _frozen_set(spec, "params", _jsonify(spec.params))
    _validate_backend_engine(spec)
    deadline_ms = spec.deadline_ms
    if deadline_ms is not None:
        if not isinstance(deadline_ms, (int, float)) or isinstance(
            deadline_ms, bool
        ):
            raise ValidationError("deadline_ms must be a number (milliseconds)")
        if deadline_ms <= 0:
            raise ValidationError("deadline_ms must be positive")
        _frozen_set(spec, "deadline_ms", float(deadline_ms))


def _normalise_queries(spec) -> None:
    if isinstance(spec.queries, str):
        _frozen_set(spec, "queries", (spec.queries,))
    else:
        _frozen_set(spec, "queries", tuple(spec.queries))


def _validate_backend_engine(spec) -> None:
    # Deferred imports: specs must stay importable from anywhere.
    if getattr(spec, "backend", None) is not None:
        from repro.accel import BACKENDS

        validate_choice("verification backend", spec.backend, BACKENDS)
    if getattr(spec, "engine", None) is not None:
        from repro.runtime import ENGINES

        validate_choice("execution engine", spec.engine, ENGINES)


class _SpecBase:
    """Shared JSON plumbing for the four spec shapes."""

    #: The envelope tag dispatched on by :func:`spec_from_json`.
    type: str = ""

    def to_dict(self) -> dict:
        """The JSON-ready mapping form (``"version"``- and ``"type"``-tagged)."""
        payload: dict = {"version": WIRE_VERSION, "type": self.type}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, Mapping):
                value = dict(value)
            payload[spec_field.name] = value
        return payload

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "_SpecBase":
        payload = dict(payload)
        take_wire_version(payload, "spec")
        tag = payload.pop("type", cls.type)
        if tag != cls.type:
            raise ValidationError(
                f"cannot load a {tag!r} payload as {cls.__name__} "
                f"(expected type {cls.type!r})"
            )
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValidationError(
                f"unknown {cls.__name__} field(s) {unknown}; "
                f"choose from {sorted(known)}"
            )
        return cls(**payload)

    @classmethod
    def from_json(cls, text: str) -> "_SpecBase":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class JoinSpec(_SpecBase):
    """A declarative self-join request.

    Parameters
    ----------
    algorithm:
        A registered join algorithm
        (:func:`repro.api.registry.join_algorithms`); the paper's TSJ
        pipeline is the default -- one algorithm choice among equals.
    threshold:
        The algorithm's native threshold: NSLD/NLD distance for
        ``tsj``/``naive``/``massjoin``/the metric-space family, integer
        edit distance for ``passjoin``/``passjoin_k``/``passjoin_kmr``/
        ``qgram``, Jaccard similarity for
        ``prefix_filter``/``mgjoin``/``vernica``.
    names:
        Optional inline corpus.  Leave unset to join the session's
        resident corpus (or the data passed to ``Session.run``).
    backend / engine:
        Verification-kernel and execution-engine selectors; ``None``
        inherits the session's defaults.
    params:
        Algorithm-specific keyword arguments (JSON-able values), e.g.
        ``{"max_token_frequency": 1000, "n_machines": 10}`` for ``tsj``
        or ``{"k_signatures": 2}`` for ``passjoin_k``.
    deadline_ms:
        Optional request budget in milliseconds (wire version 2).  The
        executing session installs it as the ambient deadline
        (:mod:`repro.runtime.deadline`); expiry raises the typed
        :class:`~repro.api.errors.DeadlineExceededError` (HTTP 504) at
        the next shard boundary, abandoning partial work cleanly.
    """

    type = "join"

    algorithm: str = "tsj"
    threshold: float = 0.1
    names: tuple | None = None
    backend: str | None = None
    engine: str | None = None
    params: dict = field(default_factory=dict)
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        resolve_join(self.algorithm)
        _normalise_common(self)


@dataclass(frozen=True)
class TopKSpec(_SpecBase):
    """Batched top-k queries against a resident index."""

    type = "topk"

    queries: tuple = ()
    k: int = 5
    method: str = SEARCH_METHOD
    names: tuple | None = None
    backend: str | None = None
    processes: int | None = None
    params: dict = field(default_factory=dict)
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        validate_choice(
            "search method", self.method, search_methods(include_aliases=True)
        )
        if self.k < 1:
            raise ValidationError("k must be positive")
        _normalise_queries(self)
        _normalise_common(self)


@dataclass(frozen=True)
class WithinSpec(_SpecBase):
    """Batched range queries (all matches within ``radius``)."""

    type = "within"

    queries: tuple = ()
    radius: float = 0.1
    method: str = SEARCH_METHOD
    names: tuple | None = None
    backend: str | None = None
    processes: int | None = None
    params: dict = field(default_factory=dict)
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        validate_choice(
            "search method", self.method, search_methods(include_aliases=True)
        )
        if self.radius < 0:
            raise ValidationError("radius must be non-negative")
        _normalise_queries(self)
        _normalise_common(self)


@dataclass(frozen=True)
class CompareSpec(_SpecBase):
    """One NSLD evaluation between two raw strings."""

    type = "compare"

    name_a: str = ""
    name_b: str = ""
    backend: str | None = None
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        _normalise_common(self)


_SPEC_TYPES: dict[str, type] = {
    spec.type: spec for spec in (JoinSpec, TopKSpec, WithinSpec, CompareSpec)
}


def spec_from_json(text: str | Mapping):
    """Load any spec from its JSON (or already-parsed mapping) form.

    Dispatches on the ``"type"`` tag; unknown tags raise the uniform
    selector error, and malformed JSON text, non-object payloads and
    unknown wire-format versions raise the same typed
    :class:`~repro.api.errors.ValidationError` -- what the HTTP server
    answers 400 with.

    Examples
    --------
    >>> spec = JoinSpec(algorithm="passjoin", threshold=2)
    >>> spec_from_json(spec.to_json()) == spec
    True
    """
    if isinstance(text, str):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"spec is not valid JSON: {exc}") from exc
    else:
        payload = text
    if not isinstance(payload, Mapping):
        raise ValidationError(
            "spec must be a JSON object, got " f"{type(payload).__name__}"
        )
    payload = dict(payload)
    tag = payload.get("type")
    validate_choice("spec type", tag, tuple(sorted(_SPEC_TYPES)))
    return _SPEC_TYPES[tag].from_dict(payload)
