"""Metric-space K-nearest-neighbour indexes over NSLD.

Sec. II of the paper stresses that proving NSLD a metric (Theorem 2)
"can be leveraged in all flavors of K-nearest-neighbor queries on metric
spaces, e.g., [12], [48], [61]".  This package delivers that payoff with
two classic metric indexes, both working for any metric and defaulting to
NSLD over tokenized strings:

* :class:`BKTree` -- Burkhard-Keller tree for *discrete* metrics; best
  with the integer-valued SLD (provided as a ready-made default) where
  children are bucketed by exact distance.
* :class:`VPTree` -- vantage-point tree for continuous metrics such as
  NSLD; median-radius splits with triangle-inequality pruning.

Both support range queries (``within``) and k-NN queries (``nearest``),
and report the number of distance evaluations so tests and benches can
verify they beat linear scan.

All three indexes (with :class:`FuzzyMatchIndex`) are a library used
directly.  The serving stack -- :class:`repro.TopKSpec` /
:class:`repro.WithinSpec` over the resident
:class:`repro.service.SimilarityIndex` -- answers with exact NSLD
through the candidate pipeline only; ``method="vptree"`` survives there
as an alias of it (see :mod:`repro.api.registry`).
"""

from repro.knn.bktree import BKTree
from repro.knn.fuzzymatch import FuzzyMatchIndex
from repro.knn.vptree import VPTree

__all__ = ["BKTree", "VPTree", "FuzzyMatchIndex"]
