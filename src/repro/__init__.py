"""Reproduction of *Scalable Similarity Joins of Tokenized Strings*
(Metwally & Huang, ICDE 2019).

Public API highlights
---------------------

The front door (see README.md "Public API"):

* :func:`repro.run` / :class:`repro.Session` -- execute declarative,
  JSON-serializable request specs (:class:`repro.JoinSpec`,
  :class:`repro.TopKSpec`, :class:`repro.WithinSpec`,
  :class:`repro.CompareSpec`) against resident corpora; every join
  algorithm in the repository is one ``algorithm=`` choice
  (:mod:`repro.api.registry`), and top-k/range search has one method.
* :class:`repro.ResultSet` -- the uniform result envelope (pairs or
  matches, clusters, cascade + cache counters, simulated seconds,
  build/query wall-clock split) with a lossless JSON wire form.

Distances (Sec. II):

* :func:`repro.distances.nsld` / :func:`repro.distances.sld` -- the paper's
  Normalized Setwise Levenshtein Distance and its unnormalised form.
* :func:`repro.distances.nld` / :func:`repro.distances.levenshtein` -- the
  underlying string distances.

Joining (Sec. III):

* :class:`repro.tsj.TSJ` -- the Tokenized-String Joiner framework.
* :class:`repro.tsj.TSJConfig` -- thresholds, approximations, dedup
  strategy.

Substrates and baselines:

* :mod:`repro.mapreduce` -- the simulated MapReduce cluster.
* :mod:`repro.runtime` -- the parallel execution engine and the shared
  worker pool (``engine="auto"|"serial"|"parallel"`` everywhere
  user-facing).
* :mod:`repro.joins` -- PassJoin / PassJoinK / MassJoin / prefix-filter /
  Vernica string-join algorithms.
* :mod:`repro.metricspace` -- ClusterJoin / MR-MAPSS / HMJ metric-space
  joins.
* :mod:`repro.data` -- synthetic name corpora and the fraud-ring model.
* :mod:`repro.analysis` -- ROC, recall and similarity-graph clustering.
* :mod:`repro.shard` -- placement and the store of the serving index:
  :class:`repro.ShardedIndex` is :class:`repro.service.SimilarityIndex`
  itself, which routes each probe over N >= 1 placement-partitioned
  shard kernels with results and counters invariant in the shard count
  (``Session(shards=N)`` / ``serve --shards``, one shard by default),
  and :class:`repro.ShardedSnapshotStore` is the durable store
  behind ``Session(store_dir=...)`` / ``serve --store``: warm restart,
  migration of flat directories, degrade-to-rebuild.
* :mod:`repro.store` -- the files underneath: crash-safe snapshots,
  the write-ahead append log, and :class:`repro.SnapshotStore`, the
  flat single-file layout ``Session.save`` exports at one shard.
"""

from repro.api import (
    CompareSpec,
    JoinSpec,
    ResultSet,
    Session,
    TopKSpec,
    WithinSpec,
    run,
    spec_from_json,
)
from repro.api.errors import ApiError, ValidationError
from repro.client import ServiceClient
from repro.core import JoinReport, compare_names, nsld_join
from repro.distances import (
    levenshtein,
    nld,
    nsld,
    nsld_greedy,
    nsld_within,
    sld,
    sld_greedy,
)
from repro.shard import ShardedIndex, ShardedSnapshotStore
from repro.store import SnapshotStore
from repro.tokenize import TokenizedString, Tokenizer, tokenize
from repro.tsj import TSJ, TSJConfig

__version__ = "1.0.0"

__all__ = [
    "ApiError",
    "CompareSpec",
    "JoinReport",
    "JoinSpec",
    "ResultSet",
    "ServiceClient",
    "Session",
    "ShardedIndex",
    "ShardedSnapshotStore",
    "SnapshotStore",
    "ValidationError",
    "TSJ",
    "TSJConfig",
    "TokenizedString",
    "Tokenizer",
    "TopKSpec",
    "WithinSpec",
    "__version__",
    "compare_names",
    "levenshtein",
    "nld",
    "nsld",
    "nsld_greedy",
    "nsld_join",
    "nsld_within",
    "run",
    "sld",
    "sld_greedy",
    "spec_from_json",
    "tokenize",
]
