"""Deterministic, seedable fault injection: the chaos substrate.

A production-shaped service earns its fault model the same way it earns
its performance claims: by measurement.  This module is the measurement
instrument -- a process-wide registry of *faults* that named code sites
(:func:`fault_point` calls threaded through the runtime pool workers,
the MapReduce shards, the HTTP server and the client transport) consult
on every pass.  A fault can

* **kill** the current pool worker (``os.kill(os.getpid(), SIGKILL)`` --
  the real thing, not an exception), exercising the pool's crash
  recovery; kill faults only ever fire inside daemonic pool workers, so
  an in-process fallback re-running the same code cannot shoot the
  parent;
* **raise** an injected exception (``FaultInjected`` by default, or a
  named stdlib failure such as ``ConnectionResetError`` to sever a
  client connection mid-request);
* **delay** execution by a fixed number of seconds (widening race
  windows deterministically);
* **call** an arbitrary callback (programmatic plans only) -- the hook
  chaos tests use to synchronise on events instead of sleeping.

Determinism
-----------
Nothing here consults wall-clock randomness.  A fault fires on a site's
Nth *call* (``probability=1.0``, the default) or on calls selected by a
pure function of ``(seed, site, call index)`` -- re-running the same
program with the same plan and seed fires the same faults at the same
points.  ``times`` bounds how often a fault fires; with a **ledger**
directory the accounting spans processes (a kill fired inside a pool
worker stays fired after the pool is rebuilt -- claimed via atomic
``O_CREAT | O_EXCL`` file creation), which is what lets a
kill-once/retry-succeeds scenario converge.

Activation
----------
Programmatic: :func:`inject` / :func:`clear` (tests).  Environment: the
``REPRO_FAULTS`` variable holds a JSON list of fault objects (plus
optional ``REPRO_FAULTS_LEDGER`` and ``REPRO_FAULTS_SEED`` defaults) --
the knob the chaos CI job and subprocess servers use::

    REPRO_FAULTS='[{"site": "verify.chunk", "action": "kill"}]'

Installed plans are pushed into shared-pool workers through the pool's
worker-initializer mechanism, so faults reach forked *and* spawned
workers, and installing a plan forces the next :func:`~repro.runtime.
pool.shared_pool` call to rebuild the pool with the plan in place.

This module imports nothing from the rest of the package at import time
(the pool hook is loaded lazily), so any layer can call
:func:`fault_point` without cycles; with no plan installed the call is
one global load and a ``None`` check.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from random import Random
from typing import Callable

__all__ = [
    "ENV_FAULTS",
    "ENV_LEDGER",
    "ENV_SEED",
    "Fault",
    "FaultInjected",
    "active_faults",
    "clear",
    "fault_point",
    "fault_stats",
    "inject",
    "install",
    "plan_from_env",
]

ENV_FAULTS = "REPRO_FAULTS"
ENV_LEDGER = "REPRO_FAULTS_LEDGER"
ENV_SEED = "REPRO_FAULTS_SEED"

#: The recognised fault actions.
ACTIONS = ("kill", "raise", "delay", "call")

#: Named exception classes an env-declared ``raise`` fault can throw --
#: the transport/pool failure shapes the robustness layers must absorb.
EXCEPTIONS: dict[str, type[BaseException]] = {
    "fault": None,  # type: ignore[dict-item]  # placeholder, filled below
    "oserror": OSError,
    "connection_reset": ConnectionResetError,
    "broken_pipe": BrokenPipeError,
    "timeout": TimeoutError,
}


class FaultInjected(RuntimeError):
    """The default exception an injected ``raise`` fault throws."""


EXCEPTIONS["fault"] = FaultInjected


@dataclass(frozen=True)
class Fault:
    """One injection rule: *what* happens *where*, *how often*.

    Parameters
    ----------
    site:
        The :func:`fault_point` name this fault arms (exact match).
    action:
        ``"kill"`` | ``"raise"`` | ``"delay"`` | ``"call"``.
    times:
        Maximum number of firings (``None`` = unbounded).  With a ledger
        the count is claimed atomically across processes; without one it
        is per-process.
    delay:
        Seconds to sleep for ``action="delay"``.
    exception:
        Key into :data:`EXCEPTIONS` for ``action="raise"``.
    probability:
        Chance a given call fires, decided by a pure function of
        ``(seed, site, call index)`` -- deterministic per plan.
    seed:
        The randomness seed for ``probability < 1`` sampling.
    scope:
        Where a ``kill`` fault may fire: ``"worker"`` (the default)
        restricts it to daemonic pool workers, so an in-process fallback
        re-running the same code cannot shoot the parent; ``"any"``
        also kills non-worker processes -- what the durable-store chaos
        runs use to SIGKILL a dedicated saver subprocess mid-write and
        prove the atomic-rename guarantee.  Ignored for other actions.
    callback:
        The hook for ``action="call"`` (programmatic plans only; not
        serialisable to the environment form).
    """

    site: str
    action: str = "raise"
    times: int | None = 1
    delay: float = 0.0
    exception: str = "fault"
    probability: float = 1.0
    seed: int = 0
    scope: str = "worker"
    callback: Callable[[str], None] | None = None

    def __post_init__(self) -> None:
        if self.scope not in ("worker", "any"):
            raise ValueError(
                f"unknown fault scope {self.scope!r}; "
                "choose from ['worker', 'any']"
            )
        if self.action not in ACTIONS:
            listed = ", ".join(repr(a) for a in ACTIONS)
            raise ValueError(
                f"unknown fault action {self.action!r}; choose from [{listed}]"
            )
        if self.action == "raise" and self.exception not in EXCEPTIONS:
            listed = ", ".join(sorted(EXCEPTIONS))
            raise ValueError(
                f"unknown fault exception {self.exception!r}; "
                f"choose from [{listed}]"
            )
        if self.action == "call" and self.callback is None:
            raise ValueError('action="call" requires a callback')

    def to_dict(self) -> dict:
        """The JSON (environment) form; callbacks do not serialise."""
        payload = {"site": self.site, "action": self.action, "times": self.times}
        if self.delay:
            payload["delay"] = self.delay
        if self.exception != "fault":
            payload["exception"] = self.exception
        if self.probability != 1.0:
            payload["probability"] = self.probability
        if self.seed:
            payload["seed"] = self.seed
        if self.scope != "worker":
            payload["scope"] = self.scope
        return payload


@dataclass
class _Plan:
    """The installed fault set plus its firing state."""

    faults: tuple[Fault, ...]
    ledger: str | None = None
    #: site -> calls observed in this process (drives seeded sampling).
    calls: dict[str, int] = field(default_factory=dict)
    #: (site, action) -> per-process firings (the no-ledger accounting).
    fired: dict[tuple[str, str], int] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)


_PLAN: _Plan | None = None
_ENV_LOADED = False


def _load_env_plan() -> None:
    """Arm the environment-declared plan once per process (lazy)."""
    global _ENV_LOADED, _PLAN
    _ENV_LOADED = True
    raw = os.environ.get(ENV_FAULTS)
    if not raw or _PLAN is not None:
        return
    _PLAN = _Plan(plan_from_env(raw), ledger=os.environ.get(ENV_LEDGER))


def plan_from_env(raw: str) -> tuple[Fault, ...]:
    """Parse the ``REPRO_FAULTS`` JSON list into :class:`Fault` rules.

    Unknown keys fail loudly -- a misspelled chaos plan that silently
    arms nothing would make a green chaos run meaningless.
    """
    try:
        entries = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{ENV_FAULTS} is not valid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise ValueError(f"{ENV_FAULTS} must be a JSON list of fault objects")
    default_seed = int(os.environ.get(ENV_SEED, "0") or "0")
    faults = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"{ENV_FAULTS} entries must be objects, got {entry!r}")
        entry = dict(entry)
        entry.setdefault("seed", default_seed)
        unknown = set(entry) - {
            "site",
            "action",
            "times",
            "delay",
            "exception",
            "probability",
            "seed",
            "scope",
        }
        if unknown:
            raise ValueError(f"unknown fault key(s) {sorted(unknown)} in {entry!r}")
        faults.append(Fault(**entry))
    return tuple(faults)


def _push_to_workers() -> None:
    """Mirror the installed plan into future shared-pool workers.

    Registered as a pool worker initializer, so a plan installed before
    (or while) a pool is live reaches every worker: registration bumps
    the pool generation, forcing the next ``shared_pool()`` checkout to
    rebuild with the plan in the start-up payload.  Callback faults stay
    parent-only (callables may not pickle under spawn); kill/raise/delay
    faults -- the ones that belong in workers -- travel.
    """
    from repro.runtime import pool  # lazy: faults sits below the runtime

    if _PLAN is None:
        pool.unregister_worker_initializer("repro.faults")
        return
    portable = tuple(f for f in _PLAN.faults if f.action != "call")
    pool.register_worker_initializer(
        "repro.faults", _install_in_worker, (portable, _PLAN.ledger)
    )


def _install_in_worker(faults: tuple[Fault, ...], ledger: str | None) -> None:
    """Pool-worker initializer: arm the parent's plan locally."""
    global _PLAN, _ENV_LOADED
    _ENV_LOADED = True  # the explicit plan wins over the environment
    _PLAN = _Plan(faults, ledger=ledger)


def install(
    faults, *, ledger: str | None = None, push_to_pool: bool = True
) -> None:
    """Arm a fault plan for this process (replacing any previous one).

    ``ledger`` names a directory for cross-process ``times`` accounting;
    when omitted, one is created under the default temp dir so kill-once
    semantics hold across pool rebuilds out of the box.
    ``push_to_pool=False`` keeps the plan out of pool workers (pure
    parent-side faults, e.g. client-transport ones, avoid a needless
    pool rebuild that way).
    """
    global _PLAN, _ENV_LOADED
    _ENV_LOADED = True
    faults = tuple(faults)
    if ledger is None and any(f.times is not None for f in faults):
        import tempfile

        ledger = tempfile.mkdtemp(prefix="repro-faults-")
    _PLAN = _Plan(faults, ledger=ledger)
    if push_to_pool:
        _push_to_workers()


def inject(
    site: str,
    action: str = "raise",
    *,
    times: int | None = 1,
    delay: float = 0.0,
    exception: str = "fault",
    probability: float = 1.0,
    seed: int = 0,
    scope: str = "worker",
    callback: Callable[[str], None] | None = None,
    ledger: str | None = None,
    push_to_pool: bool = True,
) -> Fault:
    """Add one fault to the active plan (installing a plan if none is).

    The convenience entry point chaos tests use::

        faults.inject("verify.chunk", "kill")          # kill one worker
        faults.inject("server.run", "delay", delay=.2) # slow a handler
    """
    fault = Fault(
        site=site,
        action=action,
        times=times,
        delay=delay,
        exception=exception,
        probability=probability,
        seed=seed,
        scope=scope,
        callback=callback,
    )
    existing = _PLAN.faults if _PLAN is not None else ()
    keep_ledger = ledger if ledger is not None else (
        _PLAN.ledger if _PLAN is not None else None
    )
    install(existing + (fault,), ledger=keep_ledger, push_to_pool=push_to_pool)
    return fault


def clear() -> None:
    """Disarm every fault (and withdraw the worker-initializer push)."""
    global _PLAN, _ENV_LOADED
    _PLAN = None
    _ENV_LOADED = True  # do not re-arm from the environment afterwards
    try:
        _push_to_workers()
    except Exception:  # noqa: BLE001 -- teardown must never fail the caller
        pass


def active_faults() -> tuple[Fault, ...]:
    """The armed fault rules (empty when chaos is off)."""
    if not _ENV_LOADED:
        _load_env_plan()
    return _PLAN.faults if _PLAN is not None else ()


def fault_stats() -> dict[str, int]:
    """Per-process firing counts keyed ``"site:action"`` (assertions)."""
    if _PLAN is None:
        return {}
    with _PLAN.lock:
        return {
            f"{site}:{action}": count
            for (site, action), count in sorted(_PLAN.fired.items())
        }


def _in_pool_worker() -> bool:
    # Mirrors repro.runtime.pool.in_worker_process without the import:
    # pool workers are daemonic, the parent process never is.
    return multiprocessing.current_process().daemon


def _claim_firing(plan: _Plan, fault: Fault) -> bool:
    """Reserve one of ``fault.times`` firing slots; False when exhausted.

    With a ledger directory the slots are files claimed with
    ``O_CREAT | O_EXCL`` -- atomic across processes, so a fault that
    fired inside a since-killed pool worker stays spent.  Without one,
    slots are per-process counters.
    """
    if fault.times is None:
        return True
    key = (fault.site, fault.action)
    if plan.ledger:
        safe = fault.site.replace(os.sep, "_")
        usable = True
        for slot in range(fault.times):
            path = os.path.join(plan.ledger, f"{safe}.{fault.action}.{slot}")
            try:
                os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                with plan.lock:
                    plan.fired[key] = plan.fired.get(key, 0) + 1
                return True
            except FileExistsError:
                continue
            except OSError:
                usable = False
                break  # unusable ledger: fall back to per-process counting
        if usable:
            return False  # every cross-process slot is already claimed
    with plan.lock:
        fired = plan.fired.get(key, 0)
        if fired >= fault.times:
            return False
        plan.fired[key] = fired + 1
    return True


def _selected(plan: _Plan, fault: Fault, call_index: int) -> bool:
    if fault.probability >= 1.0:
        return True
    # A pure function of (seed, site, call index): the same plan fires
    # at the same calls on every run, in every process.
    draw = Random(f"{fault.seed}:{fault.site}:{call_index}").random()
    return draw < fault.probability


def fault_point(site: str) -> None:
    """Consult the armed plan at a named site; usually a no-op.

    Instrumented sites (grep for ``fault_point`` to confirm):

    ======================  ==================================================
    ``verify.chunk``        inside a ``verify_pairs`` worker chunk
    ``engine.map``          inside a parallel-engine map shard
    ``engine.reduce``       inside a parallel-engine reduce shard
    ``serve.chunk``         inside a pool-served query chunk or shard
                            scatter call
    ``server.run``          the HTTP server, before executing a parsed spec
    ``client.send``         the SDK, before writing a request to the socket
    ``store.write``         the durable store, before writing snapshot/WAL
                            bytes (a kill here must leave the previous
                            snapshot byte-identical)
    ``store.fsync``         the durable store, before an fsync barrier
    ``store.replay``        the durable store, before applying one WAL
                            record on load
    ======================  ==================================================
    """
    if not _ENV_LOADED:
        _load_env_plan()
    plan = _PLAN
    if plan is None:
        return
    with plan.lock:
        call_index = plan.calls.get(site, 0)
        plan.calls[site] = call_index + 1
    for fault in plan.faults:
        if fault.site != site:
            continue
        if not _selected(plan, fault, call_index):
            continue
        if (
            fault.action == "kill"
            and fault.scope != "any"
            and not _in_pool_worker()
        ):
            # Kill faults model *worker* crashes; firing in the parent
            # (e.g. on the degraded in-process path re-running the same
            # chunk function) would kill the process under test.  A
            # scope="any" fault opts out -- the store chaos runs arm it
            # in a dedicated saver subprocess they expect to die.
            continue
        if not _claim_firing(plan, fault):
            continue
        if fault.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif fault.action == "delay":
            time.sleep(fault.delay)
        elif fault.action == "call":
            fault.callback(site)  # type: ignore[misc]
        else:  # raise
            exc_type = EXCEPTIONS[fault.exception]
            raise exc_type(
                f"injected fault at {site!r} "
                f"(call {call_index}, action {fault.action!r})"
            )


def _reset_for_tests() -> None:
    """Forget everything, including the env plan (test isolation)."""
    global _PLAN, _ENV_LOADED
    _PLAN = None
    _ENV_LOADED = False
