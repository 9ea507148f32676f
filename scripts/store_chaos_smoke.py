"""CI chaos smoke: SIGKILL mid-snapshot-save, previous snapshot survives.

The pytest store suite proves crash-mid-save atomicity with ``raise``
faults in-process; this script proves it with a *real* ``SIGKILL``, the
way the atomicity claim is actually worded: a child process armed with
the operator-facing ``REPRO_FAULTS`` environment plan dies at the
``store.write`` fault point (inside the snapshot writer, before the
publishing rename), and the parent then requires

(a) the child actually died by SIGKILL,
(b) the published snapshot -- the shard manifest and the shard files
    it names -- is byte-identical to the pre-crash one (crash debris,
    the orphaned temp file, may exist, but a published name never holds
    a partial file), and
(c) a fresh :class:`ShardedSnapshotStore`, the store every serving
    directory opens through, warm-restarts from the directory without a
    rebuild and serves it, appends and all.

The ``"scope": "any"`` field lets the kill fire outside a pool worker;
without it kill faults refuse to fire in a parent process (they model
worker crashes).

Run:  python scripts/store_chaos_smoke.py
"""

import glob
import json
import os
import signal
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import faults  # noqa: E402
from repro.shard import ShardedSnapshotStore  # noqa: E402

NAMES = ["jon smith", "john smith", "bob jones", "rob jones", "ann lee"]
N_SHARDS = 2

#: The child loads the store and tries to publish a fresh snapshot; the
#: armed kill fault fires inside the writer, before the rename.
CHILD = """
import sys
sys.path.insert(0, {src!r})
from repro.shard import ShardedSnapshotStore
store = ShardedSnapshotStore({directory!r})
index = store.load()
index.append(["appended in the doomed child"])
store.save(index)
print("UNREACHABLE: the kill fault did not fire")
sys.exit(3)
"""


def published(store) -> dict[str, bytes]:
    """The manifest and every shard snapshot beside it, as bytes."""
    names = [
        entry
        for entry in os.listdir(store.directory)
        if entry == os.path.basename(store.manifest_path)
        or (entry.startswith("shard-") and entry.endswith(".snap"))
    ]
    return {
        name: open(os.path.join(store.directory, name), "rb").read()
        for name in names
    }


def main() -> None:
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    with tempfile.TemporaryDirectory(prefix="store-chaos-") as directory:
        store = ShardedSnapshotStore(directory)
        index = store.open(names=NAMES, n_shards=N_SHARDS)
        store.log_append(["eve adams"], base=len(index))
        index.append(["eve adams"])
        before = published(store)
        wal_before = open(store.wal.path, "rb").read()

        child = subprocess.run(
            [sys.executable, "-c", CHILD.format(src=src, directory=directory)],
            env={
                **os.environ,
                faults.ENV_FAULTS: json.dumps(
                    [{"site": "store.write", "action": "kill", "scope": "any"}]
                ),
            },
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == -signal.SIGKILL, (
            f"child exited {child.returncode}, expected SIGKILL; "
            f"stdout={child.stdout!r} stderr={child.stderr!r}"
        )

        assert published(store) == before, (
            "published snapshot changed across a crash mid-save"
        )
        assert open(store.wal.path, "rb").read() == wal_before, (
            "append log changed across a crash mid-save"
        )
        debris = glob.glob(os.path.join(directory, "*.tmp.*"))

        reborn = ShardedSnapshotStore(directory)
        recovered = reborn.open(names=NAMES, n_shards=N_SHARDS)
        assert recovered.names == [*NAMES, "eve adams"], recovered.names
        assert reborn.rebuilds == 0, "clean store should not need a rebuild"
        assert reborn.loaded_from_snapshot and not reborn.resharded
        hits = recovered.topk(["jon smiht"], k=1)[0]
        assert hits and hits[0][0] == "jon smith", hits

    print(
        "env-armed SIGKILL at store.write: previous snapshot byte-identical, "
        f"{len(debris)} temp-file debris, warm restart served "
        f"{len(recovered)} records including the WAL append"
    )


if __name__ == "__main__":
    main()
