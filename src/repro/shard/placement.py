"""Pluggable corpus placement: which shard owns which record.

A :class:`repro.service.SimilarityIndex` places its corpus on N shard
kernels; a *placement* decides the owner of every record, at build time
and for every later ``append``:

* :class:`LengthPlacement` (``"length"``) -- contiguous aggregate-token-
  length ranges, cut at the corpus length quantiles.  This is the
  paper's Lemma 6 partition lifted one level: a probe's length window
  ``[lo, hi]`` overlaps only the shards whose length range intersects
  it, so the index can prune whole shards before any postings probe
  runs -- the same reason the per-index length partition exists, at
  machine granularity (the partition-based MapReduce joins the paper
  compares against play the same card).
* :class:`HashPlacement` (``"hash"``) -- a deterministic multiplicative
  hash of the global record id: the uniform, pruning-free baseline
  every balanced-partition system ships.

Placements are value objects: they serialize into the sharded store's
manifest (:meth:`to_manifest` / :func:`placement_from_manifest`) so a
warm restart routes appends exactly as the original build did.
Correctness never depends on the placement -- the index prunes against
each shard's *actual* length range, not the placement's boundaries --
so a skewed placement only costs balance, never results.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from repro.api.errors import ValidationError
from repro.api.registry import validate_choice

__all__ = [
    "PLACEMENTS",
    "HashPlacement",
    "LengthPlacement",
    "build_placement",
    "placement_from_manifest",
]

#: Registered placement kinds (the ``--placement`` choices).
PLACEMENTS = ("length", "hash")

#: Knuth's multiplicative hash constant (2^32 / phi), the classic
#: cheap-but-well-mixed integer scrambler.
_HASH_MULTIPLIER = 2654435761


class LengthPlacement:
    """Contiguous aggregate-length ranges, one per shard.

    ``boundaries`` holds the ``n_shards - 1`` ascending cut points: a
    record with aggregate length ``L`` lands in shard
    ``bisect_left(boundaries, L)``, so shard ``i`` owns lengths in
    ``(boundaries[i-1], boundaries[i]]`` -- records *exactly on* a cut
    point belong to the lower shard, the edge the boundary-append tests
    pin down.
    """

    kind = "length"

    def __init__(self, n_shards: int, boundaries: Sequence[int]) -> None:
        self.n_shards = n_shards
        self.boundaries = tuple(boundaries)
        if len(self.boundaries) != n_shards - 1:
            raise ValidationError(
                f"length placement for {n_shards} shards needs "
                f"{n_shards - 1} boundaries, got {len(self.boundaries)}"
            )
        if list(self.boundaries) != sorted(self.boundaries):
            raise ValidationError(
                f"length boundaries must be ascending, got {self.boundaries}"
            )

    @classmethod
    def from_lengths(cls, n_shards: int, lengths: Sequence[int]) -> "LengthPlacement":
        """Cut the observed aggregate lengths at their quantiles.

        With no corpus to observe (an empty first boot) the cuts fall
        back to an arithmetic ladder; balance is a placement concern,
        never a correctness one.
        """
        if not lengths:
            return cls(n_shards, tuple(range(8, 8 * n_shards, 8)))
        ordered = sorted(lengths)
        boundaries = []
        previous = 0
        for cut in range(1, n_shards):
            position = (cut * len(ordered)) // n_shards
            # Strictly ascending cuts: duplicate quantiles collapse to
            # empty middle shards instead of violating monotonicity.
            value = max(ordered[min(position, len(ordered) - 1)], previous + 1)
            boundaries.append(value)
            previous = value
        return cls(n_shards, tuple(boundaries))

    def shard_of(self, global_id: int, aggregate_length: int) -> int:
        return bisect_left(self.boundaries, aggregate_length)

    def to_manifest(self) -> dict:
        return {
            "kind": self.kind,
            "n_shards": self.n_shards,
            "boundaries": list(self.boundaries),
        }


class HashPlacement:
    """Uniform id-hash placement: the pruning-free baseline."""

    kind = "hash"

    def __init__(self, n_shards: int) -> None:
        self.n_shards = n_shards

    def shard_of(self, global_id: int, aggregate_length: int) -> int:
        return ((global_id * _HASH_MULTIPLIER) & 0xFFFFFFFF) % self.n_shards

    def to_manifest(self) -> dict:
        return {"kind": self.kind, "n_shards": self.n_shards}


def build_placement(kind: str, n_shards: int, lengths: Sequence[int]):
    """A fresh placement of ``kind`` over a corpus's aggregate lengths."""
    validate_choice("shard placement", kind, PLACEMENTS)
    if n_shards < 1:
        raise ValidationError(f"shards must be positive, got {n_shards}")
    if kind == "length":
        return LengthPlacement.from_lengths(n_shards, lengths)
    return HashPlacement(n_shards)


def placement_from_manifest(entry: dict):
    """Rehydrate a placement from its manifest dict (typed on damage)."""
    kind = entry.get("kind")
    n_shards = entry.get("n_shards")
    if kind not in PLACEMENTS or not isinstance(n_shards, int) or n_shards < 1:
        raise ValidationError(f"malformed placement manifest entry: {entry!r}")
    if kind == "length":
        boundaries = entry.get("boundaries")
        if not isinstance(boundaries, list) or not all(
            type(cut) is int for cut in boundaries
        ):
            raise ValidationError(f"malformed placement manifest entry: {entry!r}")
        return LengthPlacement(n_shards, tuple(boundaries))
    return HashPlacement(n_shards)
