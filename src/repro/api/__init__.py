"""The declarative front door: specs in, uniform envelopes out.

One stable, serializable API surface in front of every join, search and
serving layer (see README.md "Public API"):

* **Specs** (:mod:`repro.api.specs`) -- :class:`JoinSpec`,
  :class:`TopKSpec`, :class:`WithinSpec`, :class:`CompareSpec`:
  frozen, JSON-round-tripping request objects;
* **Registry** (:mod:`repro.api.registry`) -- every join algorithm
  registered behind one selector namespace, the one search method and
  its aliases, plus the shared
  :func:`~repro.api.registry.validate_choice` selector validator used
  repository-wide;
* **Session** (:mod:`repro.api.session`) -- the facade owning tokenizer,
  engine/backend defaults and resident-index lifecycle;
  ``Session.run(spec)`` (or the module-level :func:`run`) executes any
  spec;
* **ResultSet** (:mod:`repro.api.result`) -- the uniform result
  envelope (pairs/matches, clusters, cascade + cache counters,
  simulated seconds, build/query wall-clock split) with a JSON wire
  form -- what the CLI ``--json`` mode emits and a future server
  speaks.

Attributes are loaded lazily (PEP 562) so that low-level packages
(``repro.accel``, ``repro.runtime``) can import
``repro.api.registry.validate_choice`` without pulling the whole facade
in -- and without import cycles.
"""

from __future__ import annotations

__all__ = [
    "ApiError",
    "CompareSpec",
    "JoinSpec",
    "ResultSet",
    "Session",
    "TopKSpec",
    "ValidationError",
    "WIRE_VERSION",
    "WithinSpec",
    "default_session",
    "errors",
    "join_algorithms",
    "registry",
    "run",
    "search_methods",
    "spec_from_json",
    "validate_choice",
]

_EXPORTS = {
    "ApiError": ("repro.api.errors", "ApiError"),
    "ValidationError": ("repro.api.errors", "ValidationError"),
    "WIRE_VERSION": ("repro.api.errors", "WIRE_VERSION"),
    "CompareSpec": ("repro.api.specs", "CompareSpec"),
    "JoinSpec": ("repro.api.specs", "JoinSpec"),
    "TopKSpec": ("repro.api.specs", "TopKSpec"),
    "WithinSpec": ("repro.api.specs", "WithinSpec"),
    "spec_from_json": ("repro.api.specs", "spec_from_json"),
    "ResultSet": ("repro.api.result", "ResultSet"),
    "Session": ("repro.api.session", "Session"),
    "default_session": ("repro.api.session", "default_session"),
    "run": ("repro.api.session", "run"),
    "join_algorithms": ("repro.api.registry", "join_algorithms"),
    "search_methods": ("repro.api.registry", "search_methods"),
    "validate_choice": ("repro.api.registry", "validate_choice"),
}


def __getattr__(name: str):
    if name == "registry":
        import repro.api.registry as registry

        return registry
    if name == "errors":
        import repro.api.errors as errors

        return errors
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
