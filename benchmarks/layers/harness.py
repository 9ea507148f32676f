"""Measurement plumbing shared by the end-to-end and the traced pass:
the percentile rule, spans and self times, the child server, peak RSS,
the request dispatchers for each depth, and the brute-force oracle."""

from __future__ import annotations

import json
import math
import os
import resource
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results"
PIDFILE = RESULTS / "layers_server.pid"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import JoinSpec, TopKSpec, WithinSpec  # noqa: E402
from repro.distances import nsld  # noqa: E402
from repro.tokenize import Tokenizer  # noqa: E402

from workloads import RADIUS, TOP_K  # noqa: E402

# -- statistics ------------------------------------------------------------------

_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def _rank(count: int, p: float) -> int:
    """Nearest rank of percentile ``p`` among ``count`` samples (rounded
    first: 99.9 % of 10000 is 9990, not 9990.000000000002)."""
    return math.ceil(round(p * count / 100, 9))


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, _rank(len(ordered), p) - 1)]


def tail_percentile(count: int) -> float:
    """The highest percentile with at least ten samples beyond it.  With
    fewer than twenty samples none qualifies and the tail is the median:
    the slowest of a handful of samples is noise, not a percentile."""
    for p in _PERCENTILES:
        if count - _rank(count, p) >= 10:
            return p
    return 50


def summarize(samples) -> dict:
    """Median and rule-chosen tail of one latency series, with its count."""
    tail = tail_percentile(len(samples))
    p50 = statistics.median(samples)
    return {
        "n": len(samples),
        "p50": p50,
        "tail_percentile": tail,
        "tail": p50 if tail == 50 else percentile(samples, tail),
    }


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    if len(values) == 2:
        return abs(values[0] - values[1]) / statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- spans -------------------------------------------------------------------------


class Trace:
    """Spans held in memory; written out once, at exit."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(self, workload, layer, request, parent, start, end) -> None:
        self.spans.append(
            {
                "workload": workload,
                "layer": layer,
                "request": request,
                "parent": parent,
                "start": start,
                "end": end,
            }
        )

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


def self_times(spans) -> dict:
    """``(request, layer) -> self seconds``: a span's duration minus the
    durations of the spans of the same request that name it as parent."""
    own = {}
    for span in spans:
        key = (span["request"], span["layer"])
        own[key] = own.get(key, 0.0) + span["end"] - span["start"]
    result = dict(own)
    for span in spans:
        parent = (span["request"], span["parent"])
        if parent in result:
            result[parent] -= span["end"] - span["start"]
    return result


# -- processes -------------------------------------------------------------------


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set of ``pid`` (default: this process) in MB: ``VmHWM``
    while the process lives, ``ru_maxrss`` where /proc is not available."""
    try:
        with open(f"/proc/{pid or 'self'}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    who = resource.RUSAGE_SELF if pid is None else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024


@contextmanager
def scratch_dir():
    """A temp directory inside the checkout, removed on every exit path."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = tempfile.mkdtemp(prefix="layers-", dir=RESULTS)
    try:
        yield Path(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


def refuse_if_server_bound() -> None:
    """Exit when a previous run's child server still answers on its port:
    two servers on two cores would halve every number."""
    try:
        pid, port = map(int, PIDFILE.read_text().split())
    except (OSError, ValueError):
        return
    try:
        os.kill(pid, 0)
        with socket.create_connection(("127.0.0.1", port), timeout=1):
            pass
    except OSError:
        PIDFILE.unlink(missing_ok=True)  # stale: that server is gone
        return
    raise SystemExit(
        f"another run's server (pid {pid}, port {port}) is still bound; "
        f"kill it or remove {PIDFILE}"
    )


class Server:
    """One ``python -m repro serve`` child.  ``start`` waits for the
    ``serving on`` banner; ``stop``/``kill`` always reap the child."""

    def __init__(self, *args: str, timeout: float = 60.0) -> None:
        self.args = [sys.executable, "-m", "repro", "serve", "--port", "0", *args]
        self.timeout = timeout
        self.process: subprocess.Popen | None = None
        self.url = ""

    @property
    def pid(self) -> int:
        return self.process.pid

    def start(self) -> "Server":
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.process = subprocess.Popen(
            self.args,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            bufsize=0,
            env=env,
            cwd=ROOT,
        )
        try:
            self.url = self._await_banner()
        except BaseException:
            self.kill()
            raise
        RESULTS.mkdir(parents=True, exist_ok=True)
        PIDFILE.write_text(f"{self.pid} {self.url.rsplit(':', 1)[1]}")
        return self

    def _await_banner(self) -> str:
        deadline = time.monotonic() + self.timeout
        fd = self.process.stdout.fileno()
        seen = b""
        while True:
            for line in seen.decode(errors="replace").splitlines(keepends=True):
                if line.startswith("serving on") and line.endswith("\n"):
                    return line.split()[2]
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise TimeoutError(
                    f"no 'serving on' line within {self.timeout:g}s: {seen!r}"
                )
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(f"server exited before serving: {seen!r}")
            seen += chunk

    def stop(self) -> None:
        self._end(signal.SIGTERM)

    def kill(self) -> None:
        self._end(signal.SIGKILL)

    def _end(self, signum: int) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        try:
            process.send_signal(signum)
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        finally:
            process.stdout.close()
            PIDFILE.unlink(missing_ok=True)

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def server_args(workload, directory: Path, names=None) -> list[str]:
    """The ``serve`` arguments that boot ``workload``'s server over
    ``names`` (default: its corpus), or over its prepared store."""
    args = []
    if workload.store:
        args += ["--store", str(directory / "store")]
    else:
        path = directory / "names.txt"
        path.write_text("\n".join(names or workload.corpus) + "\n")
        args += ["--input", str(path)]
    if workload.shards > 1:
        args += ["--shards", str(workload.shards), "--placement", workload.placement]
    return args


class CountingSleep:
    """The SDK's backoff sleeper, counting the retries it is called for."""

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, delay: float) -> None:
        self.count += 1
        time.sleep(delay)


# -- one request at each depth -----------------------------------------------------


def spec_for(op):
    if op.kind == "topk":
        return TopKSpec(queries=(op.arg,), k=TOP_K)
    if op.kind == "within":
        return WithinSpec(queries=(op.arg,), radius=RADIUS)
    return JoinSpec(threshold=RADIUS)


def call_index(index, op):
    """Depth 4: the index's own public call, no envelope."""
    if op.kind == "topk":
        return index.topk([op.arg], k=TOP_K)[0]
    if op.kind == "within":
        return index.within([op.arg], radius=RADIUS)[0]
    return index.append(op.arg)


def call_session(session, op):
    """Depth 3: ``Session.run`` / ``Session.append``."""
    if op.kind == "append":
        return session.append(op.arg)
    return session.run(spec_for(op))


def call_handle(service, op):
    """Depth 2: the transport-free request handler, bytes in, payload out."""
    if op.kind == "append":
        body, path = {"names": list(op.arg)}, "/v1/append"
    else:
        body, path = spec_for(op).to_dict(), "/v1/run"
    status, payload = service.handle("POST", path, json.dumps(body).encode())
    if status != 200:
        raise RuntimeError(f"{path} answered {status}: {payload}")
    return payload


def call_client(client, op):
    """Depth 1: the SDK against the child server."""
    if op.kind == "append":
        return client.append(op.arg)
    return client.run(spec_for(op))


def answer_rows(answer) -> list[tuple]:
    """Any depth's answer to one request in one comparable shape: the single
    query's ``(name, distance)`` rows, or a join's index pairs."""
    if isinstance(answer, dict):  # the handler's payload
        join, rows = answer["kind"] == "join", answer
    elif hasattr(answer, "index_pairs"):  # a ResultSet
        join, rows = answer.kind == "join", answer.to_dict()
    else:  # the index's own rows
        return [tuple(row) for row in answer]
    return [tuple(row) for row in (rows["index_pairs"] if join else rows["matches"][0])]


# -- the oracle ----------------------------------------------------------------------


class Oracle:
    """Brute-force NSLD over the whole corpus, ``(distance, id)`` tie-break.

    Shares no code with the index, the filters or the shard router; the
    distances of the rows an answer reports are also recomputed with the
    plain DP kernel, so a wrong fast kernel cannot vouch for itself.
    """

    def __init__(self, names) -> None:
        self.tokenizer = Tokenizer()
        self.names = list(names)
        self.records = [self.tokenizer.tokenize(name) for name in self.names]

    def extend(self, names) -> None:
        self.names.extend(names)
        self.records.extend(self.tokenizer.tokenize(name) for name in names)

    def expected(self, op, size: int | None = None) -> list[tuple[str, float]]:
        """The right answer to ``op`` over the first ``size`` records."""
        query = self.tokenizer.tokenize(op.arg)
        ranked = sorted(
            (nsld(query, record, backend="auto"), record_id)
            for record_id, record in enumerate(self.records[:size])
        )
        if op.kind == "topk":
            ranked = ranked[:TOP_K]
        else:
            ranked = [hit for hit in ranked if hit[0] <= RADIUS]
        return [(self.names[record_id], distance) for distance, record_id in ranked]

    def agrees(self, op, answer, size: int | None = None) -> bool:
        rows = answer_rows(answer)
        query = self.tokenizer.tokenize(op.arg)
        return rows == self.expected(op, size) and all(
            distance == nsld(query, self.tokenizer.tokenize(name))
            for name, distance in rows
        )
