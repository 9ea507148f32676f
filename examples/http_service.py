"""The similarity service over HTTP: one server process, many clients.

Boots ``python -m repro serve`` as a real subprocess (the way an
operator would), then talks to it through :class:`repro.ServiceClient`
-- and checks the acceptance property of the service layer: a spec
executed over HTTP returns the *same* ResultSet (pairs, counters,
simulated seconds) as the in-process :class:`repro.Session`, so moving
from a library call to a service deployment changes nothing but the
transport.

Run:  python examples/http_service.py [corpus_size]
"""

import os
import subprocess
import sys
import tempfile
import threading
import time

import repro
from repro import CompareSpec, JoinSpec, ServiceClient, Session, TopKSpec
from repro.api.errors import ValidationError
from repro.data import FraudRingGenerator, NameGenerator

TOKEN = "example-token"


def boot_server(
    names_path: str, store_dir: str | None = None, shards: int = 0
) -> tuple[subprocess.Popen, str]:
    """Start ``repro serve`` on an ephemeral port; return (process, url)."""
    environment = dict(os.environ)
    # Hand the subprocess the same repro package this process imported.
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    environment["PYTHONPATH"] = os.pathsep.join(
        path for path in (package_root, environment.get("PYTHONPATH")) if path
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--token",
            TOKEN,
            "--input",
            names_path,
            # One request at a time, no queue: overflow sheds with a 503
            # envelope + Retry-After (the sequential demos above never
            # overlap, so only the saturation demo below trips it).
            "--max-inflight",
            "1",
            "--max-queue",
            "0",
            *(("--store", store_dir) if store_dir else ()),
            *(("--shards", str(shards)) if shards else ()),
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=environment,
    )
    # With --store a one-line recovery summary precedes the banner;
    # the server prints "serving on http://host:port (...)" once ready.
    banner = process.stdout.readline()
    if store_dir and banner.startswith("store "):
        banner = process.stdout.readline()
    if not banner.startswith("serving on "):
        process.terminate()
        raise RuntimeError(f"server failed to start: {banner!r}")
    return process, banner.split()[2]


def shed_and_retry(client: ServiceClient, url: str) -> None:
    """Demonstrate load shedding: a 503 that heals through the SDK.

    The server holds one admission slot (``--max-inflight 1
    --max-queue 0``).  A background join occupies it; once the metrics
    endpoint (which never sheds) confirms the slot is held, a compare
    request is fired through a retrying client.  Its first attempt is
    shed with a 503 ``overloaded`` envelope; the SDK sleeps for the
    server's ``Retry-After`` hint and retries to success.  A fast
    machine can finish the join before the compare arrives, so each
    repeat doubles the saturating corpus until a shed is observed.
    """
    spec = CompareSpec(name_a="veronika dahl", name_b="veronika dhal")
    expected = Session().run(spec).to_dict()
    # A ServiceClient caches one keep-alive connection, so each thread
    # gets its own: one to hold the slot, one to poll, one to retry.
    patient = ServiceClient(url, token=TOKEN, retries=8, backoff=0.2)
    holder = ServiceClient(url, token=TOKEN)
    corpus = tuple(NameGenerator(seed=33).generate(300))

    for _ in range(5):
        blocker = threading.Thread(
            target=holder.run,
            args=(JoinSpec(threshold=0.25, names=corpus),),
            daemon=True,
        )
        blocker.start()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if client.metrics()["admission"]["inflight"] >= 1:
                break
            time.sleep(0.002)
        result = patient.run(spec).to_dict()
        blocker.join(timeout=60)
        for volatile in ("build_seconds", "query_seconds"):
            result.pop(volatile)
            expected.pop(volatile, None)
        assert result == expected
        shed = client.metrics()["admission"]["shed_total"]
        if shed:
            print(
                f"load shedding round-trip: {shed} request(s) shed with "
                "503 + Retry-After; the SDK retried to the same answer"
            )
            return
        corpus = corpus + corpus  # a slower join next round
    raise RuntimeError("server never shed; saturation demo misconfigured?")


def warm_restart(names_path: str) -> None:
    """Durability demo: append, SIGKILL the server, warm-restart, nothing lost.

    With ``--store DIR`` every acknowledged ``/v1/append`` is fsynced to
    the write-ahead log *before* the 200 goes out, and boot loads the
    snapshot + WAL instead of re-tokenizing ``--input``.  The harshest
    test of that claim is the one below: append a record, kill the
    server with SIGKILL (no shutdown hooks, no flush), boot a fresh
    process on the same directory and ask for the record back.
    """
    appended = "zuzanna restarska"
    with tempfile.TemporaryDirectory(prefix="repro-store-") as store_dir:
        process, url = boot_server(names_path, store_dir=store_dir)
        try:
            with ServiceClient(url, token=TOKEN) as client:
                before = client.append([appended])["records"]
        finally:
            process.kill()  # SIGKILL: the WAL is all that saves us
            process.wait(timeout=10)

        process, url = boot_server(names_path, store_dir=store_dir)
        try:
            with ServiceClient(url, token=TOKEN) as client:
                store = client.health()["store"]
                assert store["loaded"], "restart should load the snapshot"
                hits = client.search((appended,), k=1)
                (best_name, best_distance), = hits.matches[0]
                assert best_name == appended and best_distance == 0.0, (
                    f"WAL-logged append lost across SIGKILL: {hits.matches}"
                )
                print(
                    f"warm restart after SIGKILL: {before} records survived "
                    f"(snapshot loaded: {store['loaded']}, WAL records "
                    f"replayed: {store['wal_records']}); "
                    f"{appended!r} still served at distance 0.0"
                )
        finally:
            process.terminate()
            process.wait(timeout=10)


def sharded_warm_restart(names_path: str) -> None:
    """The sharded durability pass: ``--shards 4 --store``, SIGKILL,
    warm restart -- and the restarted shards must serve the pre-kill
    appends *byte-identically* to an unsharded store fed the same
    history (shard-count invariance surviving a crash).
    """
    appended = "zuzanna restarska"
    queries = ("zuzana restarski", "veronika dhal")

    def serve_history(store_dir: str, shards: int) -> dict:
        """Boot, append (with an idempotent retry), SIGKILL, restart,
        and return the post-restart search envelope."""
        process, url = boot_server(names_path, store_dir=store_dir, shards=shards)
        try:
            with ServiceClient(url, token=TOKEN) as client:
                before = client.append([appended])["records"]
                # The at-least-once retry, made exactly-once by ``base``:
                # replaying the acknowledged append is a no-op.
                retried = client.append([appended], base=before - 1)["records"]
                assert retried == before, "base replay double-applied"
        finally:
            process.kill()  # SIGKILL: the WAL is all that saves us
            process.wait(timeout=10)
        process, url = boot_server(names_path, store_dir=store_dir, shards=shards)
        try:
            with ServiceClient(url, token=TOKEN) as client:
                health = client.health()
                assert health["store"]["loaded"], "restart should load snapshots"
                if shards:
                    assert health["shards"]["shards"] == shards, health
                envelope = client.search(queries, k=3).to_dict()
                for volatile in ("build_seconds", "query_seconds"):
                    envelope.pop(volatile, None)
                return envelope
        finally:
            process.terminate()
            process.wait(timeout=10)

    with (
        tempfile.TemporaryDirectory(prefix="repro-shard-store-") as sharded_dir,
        tempfile.TemporaryDirectory(prefix="repro-flat-store-") as flat_dir,
    ):
        sharded = serve_history(sharded_dir, shards=4)
        flat = serve_history(flat_dir, shards=0)
        assert sharded == flat, (
            "sharded warm restart diverged from the unsharded store"
        )
        print(
            "sharded warm restart after SIGKILL: 4 shards replayed the WAL "
            "and answered byte-identically to the unsharded store "
            f"(matches, counters and all; {appended!r} survived)"
        )


def main(corpus_size: int = 300) -> None:
    generator = NameGenerator(seed=21)
    names = generator.generate(corpus_size)
    fraud = FraudRingGenerator(seed=22, max_edits=2)
    names.extend(fraud.make_ring("veronika dahl", 4))

    with tempfile.NamedTemporaryFile(
        "w", suffix=".txt", delete=False, encoding="utf-8"
    ) as handle:
        handle.write("\n".join(names) + "\n")
        names_path = handle.name

    process, url = boot_server(names_path)
    try:
        with ServiceClient(url, token=TOKEN) as client:
            health = client.health()
            print(f"server up at {url} (wire version {health['version']})")

            # The same spec, both transports.  The resident default
            # corpus lives server-side; the local twin loads it itself.
            spec = JoinSpec(algorithm="tsj", threshold=0.2, names=names)
            remote = client.run(spec)
            local = Session().run(spec)
            agree = (
                remote.pairs == local.pairs
                and remote.clusters == local.clusters
                and remote.counters == local.counters
            )
            print(
                f"join over HTTP: {len(remote.pairs)} pairs, "
                f"{len(remote.clusters)} clusters "
                f"(matches in-process run: {agree})"
            )

            # Top-k against the server's resident corpus (names=None):
            # no corpus shipped per request, the session keeps it hot.
            hits = client.search(("veronika dhal",), k=3)
            best_name, best_distance = hits.matches[0][0]
            print(
                f"top-3 for 'veronika dhal' served remotely; best: "
                f"{best_name!r} at NSLD {best_distance:.3f}"
            )
            # /v1/knn is the CLI ``knn`` shape of the same exact search.
            knn_hits = client.knn(("veronika dhal",), k=3)
            assert knn_hits.matches == hits.matches, (
                f"/v1/knn diverged from /v1/search: {knn_hits.matches}"
            )
            print("knn over HTTP: same top-3 as search")

            knn = client.run(TopKSpec(queries=("veronika dhal",), k=3))
            print(f"declarative run() round-trip: kind={knn.kind!r}")

            # Remote validation failures raise the same typed errors the
            # in-process facade does -- rebuilt from the error envelope.
            try:
                client.run({"type": "join", "version": 99})
            except ValidationError as exc:
                print(f"bad wire version rejected remotely: {exc}")

            # Saturate the one admission slot with a long join, then
            # watch a second request get shed (503 + Retry-After) and
            # ride the SDK's retry loop to a correct answer anyway.
            shed_and_retry(client, url)

            metrics = client.metrics()
            print(
                f"server metrics: {metrics['requests_total']} requests, "
                f"{metrics['session']['resident_corpora']} resident corpora, "
                f"{metrics['admission']['shed_total']} shed"
            )
    finally:
        process.terminate()
        process.wait(timeout=10)

    try:
        # A second pair of server processes around a SIGKILL: the
        # durable-store demo needs full crash-and-reboot control --
        # then the same crash against a sharded store, checked
        # byte-identical to an unsharded one.
        warm_restart(names_path)
        sharded_warm_restart(names_path)
    finally:
        os.unlink(names_path)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 300)
