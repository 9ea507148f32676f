"""Acceleration layer: bit-parallel kernels, token interning, batched verify.

Every join in this reproduction -- PassJoin/PassJoinK(MR), MassJoin, the
TSJ pipeline's verify job, and the metric-space/kNN indexes -- bottoms out
in per-pair edit-distance verification.  This package makes that hot path
fast while keeping the classic DP as the reference oracle:

* :mod:`repro.accel.myers` -- bit-parallel Myers/Hyyrö kernels
  (:func:`myers_distance`, :func:`myers_within`), drop-in equivalent to
  ``levenshtein`` / ``levenshtein_within`` including the ``ops`` hook.
* :mod:`repro.accel.vocab` -- :class:`Vocab` token interning with
  precomputed Myers match tables and a :class:`BoundedCache` memo for the
  skewed-token case.
* :mod:`repro.accel.verify` -- :func:`verify_pairs`, the batched
  verification API with an optional ``multiprocessing`` chunked executor.

Backend selection
-----------------

All verification entry points accept ``backend``:

* ``"dp"`` -- the reference banded dynamic program (the oracle);
* ``"bitparallel"`` -- the Myers kernel;
* ``"vector"`` -- the numpy-batched Myers kernel
  (:mod:`repro.accel.vector`): batched calls (``verify_pairs`` and the
  batched verification built on it) advance every pair's DP columns in
  lockstep (the serving probe's filters are backend-independent);
  single-pair calls share the scalar Myers kernel, so ``vector`` and
  ``bitparallel`` are value- and metering-identical everywhere and differ
  only in batched wall-clock.  Requires numpy: an explicit
  ``backend="vector"`` without it raises with an install hint
  (``pip install numpy`` / ``pip install 'repro[vector]'``);
* ``"auto"`` -- the fast path: ``"vector"`` when numpy imports, silently
  falling back to ``"bitparallel"`` when it does not.  ``"auto"`` is the
  default everywhere user-facing; future native/SIMD backends slot in
  behind the same selector.

Backends agree *exactly* on every value-or-``None`` result (property-tested
in ``tests/test_accel_equivalence.py``); only ``ops`` metering differs (DP
cells vs bit-parallel word units -- see :mod:`repro.accel.myers`; the
``vector`` batch charges the same totals as the scalar Myers kernel).
"""

from __future__ import annotations

from repro.accel.myers import (
    WORD_BITS,
    build_peq,
    myers_distance,
    myers_within,
    myers_within_masks,
)
from repro.accel.vector import (
    numpy_available,
    verify_within_batch,
)
from repro.accel.vocab import BoundedCache, LRUCache, Vocab
from repro.distances.levenshtein import (
    OpsHook,
    levenshtein,
    levenshtein_bounded,
    levenshtein_within,
)

#: The accepted backend selectors, in documentation order.
BACKENDS = ("auto", "dp", "bitparallel", "vector")

#: What ``"auto"`` resolved to, probed once per process (numpy import is
#: not free; tests monkeypatch this back to ``None`` to re-probe).
_AUTO_RESOLVED: str | None = None


def resolve_backend(backend: str) -> str:
    """Normalise a backend selector to a concrete kernel name.

    ``"auto"`` resolves to the fast path (``"vector"`` when numpy is
    importable, else ``"bitparallel"``); an explicit ``"vector"``
    without numpy raises with an install hint; unknown names raise the
    uniform selector error.
    """
    global _AUTO_RESOLVED
    if backend == "auto":
        if _AUTO_RESOLVED is None:
            _AUTO_RESOLVED = "vector" if numpy_available() else "bitparallel"
        return _AUTO_RESOLVED
    if backend in ("dp", "bitparallel"):
        return backend
    if backend == "vector":
        if not numpy_available():
            raise ValueError(
                "verification backend 'vector' requires numpy, which is "
                "not installed; `pip install numpy` (or the packaged "
                "extra, `pip install 'repro[vector]'`), or use "
                "backend='auto' to fall back to 'bitparallel'"
            )
        return "vector"
    from repro.api.registry import validate_choice

    validate_choice("verification backend", backend, BACKENDS)
    # A name in BACKENDS without a branch above is a newly added
    # concrete kernel: it resolves to itself.
    return backend


def available_backends() -> tuple[str, ...]:
    """The selectors usable in this process (``vector`` needs numpy)."""
    if numpy_available():
        return BACKENDS
    return tuple(name for name in BACKENDS if name != "vector")


def edit_distance(x: str, y: str, ops: OpsHook = None, backend: str = "auto") -> int:
    """Exact Levenshtein distance under the selected backend."""
    if resolve_backend(backend) == "dp":
        return levenshtein(x, y, ops=ops)
    return myers_distance(x, y, ops=ops)


def edit_distance_within(
    x: str, y: str, limit: int, ops: OpsHook = None, backend: str = "auto"
) -> int | None:
    """Thresholded Levenshtein distance under the selected backend.

    Same contract as :func:`repro.distances.levenshtein.levenshtein_within`:
    the exact distance when ``<= limit``, else ``None``.
    """
    if resolve_backend(backend) == "dp":
        return levenshtein_within(x, y, limit, ops=ops)
    return myers_within(x, y, limit, ops=ops)


def edit_distance_bounded(
    x: str, y: str, limit: int, ops: OpsHook = None, backend: str = "auto"
) -> int:
    """``min(LD(x, y), limit + 1)`` under the selected backend (see
    :func:`repro.distances.levenshtein.levenshtein_bounded` for the capped
    contract).  Like the oracle, rejects negative limits on every backend."""
    if limit < 0:
        raise ValueError("limit must be non-negative")
    if resolve_backend(backend) == "dp":
        return levenshtein_bounded(x, y, limit, ops=ops)
    distance = myers_within(x, y, limit, ops=ops)
    return limit + 1 if distance is None else distance


# ---------------------------------------------------------------------------
# Process-wide token interning.
#
# Token-level distances (the SLD cost matrix, fuzzy set measures, the
# MassJoin token join) hit the same skewed token population over and over;
# a single process-wide Vocab lets every layer share the interning, the
# precomputed Myers tables and the bounded pair memo.
#
# Only the pair memo is bounded: the interning tables themselves grow
# with the number of *distinct* tokens seen, by design ("once per run").
# A long-lived service streaming unbounded vocabularies should call
# reset_token_vocab() at run boundaries to reclaim the tables.
# ---------------------------------------------------------------------------

_DEFAULT_VOCAB = Vocab()


def token_vocab() -> Vocab:
    """The process-wide :class:`Vocab` shared by all interned fast paths."""
    return _DEFAULT_VOCAB


def reset_token_vocab(cache_size: int = 1 << 16) -> Vocab:
    """Replace the process-wide vocab (tests / long-lived services)."""
    global _DEFAULT_VOCAB
    _DEFAULT_VOCAB = Vocab(cache_size=cache_size)
    return _DEFAULT_VOCAB


def token_distance(x: str, y: str, ops: OpsHook = None, backend: str = "auto") -> int:
    """Exact LD between two *tokens*, interned and memoized on the fast path.

    Under ``backend="dp"`` this is a plain oracle call (no interning, no
    memo) so the reference path stays allocation-for-allocation identical
    to the seed implementation.
    """
    if resolve_backend(backend) == "dp":
        return levenshtein(x, y, ops=ops)
    vocab = _DEFAULT_VOCAB
    return vocab.distance(vocab.intern(x), vocab.intern(y), ops=ops)


def token_distance_within(
    x: str, y: str, limit: int, ops: OpsHook = None, backend: str = "auto"
) -> int | None:
    """Thresholded LD between two *tokens* through the interned memo."""
    if resolve_backend(backend) == "dp":
        return levenshtein_within(x, y, limit, ops=ops)
    vocab = _DEFAULT_VOCAB
    return vocab.distance_within(vocab.intern(x), vocab.intern(y), limit, ops=ops)


def token_nld(x: str, y: str, backend: str = "auto") -> float:
    """Normalized LD between two tokens via the interned fast path.

    ``NLD = 2 * LD / (|x| + |y| + LD)`` (Def. 2); used by the fuzzy set
    measures' default token-similarity predicate.
    """
    if x == y:
        return 0.0
    distance = token_distance(x, y, backend=backend)
    return 2.0 * distance / (len(x) + len(y) + distance)


from repro.accel.verify import verify_pairs  # noqa: E402  (needs the above)

__all__ = [
    "BACKENDS",
    "WORD_BITS",
    "BoundedCache",
    "LRUCache",
    "Vocab",
    "available_backends",
    "build_peq",
    "edit_distance",
    "edit_distance_bounded",
    "edit_distance_within",
    "myers_distance",
    "myers_within",
    "myers_within_masks",
    "numpy_available",
    "resolve_backend",
    "reset_token_vocab",
    "verify_within_batch",
    "token_distance",
    "token_distance_within",
    "token_nld",
    "token_vocab",
    "verify_pairs",
]
