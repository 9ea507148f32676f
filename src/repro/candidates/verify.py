"""Batched verification on top of :func:`repro.accel.verify_pairs`.

The cascade's survivors are verified in bulk: LD joins hand one batch and
one limit straight to ``verify_pairs``; NLD joins have a *per-pair* LD cap
(Lemma 8 depends on the two lengths), so :func:`verify_nld_pairs` groups
the batch by cap and runs one ``verify_pairs`` call per distinct cap --
still a handful of batched calls instead of one kernel dispatch per pair.

Both helpers bump the shared ``pairs_verified`` counter when handed a
counter dict, so filter-effectiveness reporting includes the verification
volume without every join re-implementing the bookkeeping.

Examples
--------
>>> counters = {}
>>> verify_ld_pairs([(0, 1), (0, 2)], ["kitten", "sitting", "dog"], 3,
...                 counters=counters)
[3, None]
>>> counters
{'pairs_verified': 2}
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.accel import verify_pairs
from repro.candidates.cascade import COUNTER_PRUNED_LENGTH, COUNTER_VERIFIED
from repro.distances.levenshtein import OpsHook
from repro.distances.normalized import max_ld_for_shorter, min_length_for_nld


def verify_ld_pairs(
    pairs: Sequence[tuple[int, int]],
    strings: Sequence[str] | Mapping[int, str],
    limit: int,
    backend: str = "auto",
    counters: dict[str, int] | None = None,
    ops: OpsHook = None,
) -> list[int | None]:
    """Batched thresholded-LD verification (positionally aligned).

    A thin wrapper over :func:`repro.accel.verify_pairs` that accounts the
    batch in the canonical ``pairs_verified`` counter.
    """
    if counters is not None:
        counters[COUNTER_VERIFIED] = counters.get(COUNTER_VERIFIED, 0) + len(pairs)
    return verify_pairs(pairs, strings, limit, backend=backend, ops=ops)


def verify_nld_pairs(
    pairs: Sequence[tuple[int, int]],
    strings: Sequence[str] | Mapping[int, str],
    threshold: float,
    backend: str = "auto",
    counters: dict[str, int] | None = None,
    ops: OpsHook = None,
) -> list[float | None]:
    """Batched thresholded-NLD verification (positionally aligned).

    Pair-for-pair equivalent to
    :func:`repro.distances.normalized.nld_within`: the NLD threshold is
    converted to the Lemma 8 LD cap of each length pair, pairs failing the
    Lemma 9 length window miss immediately (counted as
    ``pruned_by_length``, not as verified), and the rest are verified in
    one :func:`repro.accel.verify_pairs` batch per distinct cap.
    """
    results: list[float | None] = [None] * len(pairs)
    if threshold < 0 or not pairs:
        return results

    verified = pruned = 0
    #: LD cap -> ([positions], [pairs]) of the candidates sharing it.
    by_limit: dict[int, tuple[list[int], list[tuple[int, int]]]] = {}
    for position, (i, j) in enumerate(pairs):
        x, y = strings[i], strings[j]
        if x == y:
            verified += 1  # decided (trivially), never length-pruned
            results[position] = 0.0
            continue
        if threshold >= 1.0:
            # Degenerate threshold: every distance qualifies; cap by the
            # longer length (LD <= max(|x|, |y|)).
            limit = max(len(x), len(y))
        else:
            shorter, longer = (len(x), len(y)) if len(x) <= len(y) else (len(y), len(x))
            # Lemma 9 length window: prune without touching characters.
            if shorter < min_length_for_nld(threshold, longer):
                pruned += 1
                if ops is not None:
                    ops(1)
                continue
            limit = max_ld_for_shorter(threshold, longer)
        verified += 1
        group = by_limit.get(limit)
        if group is None:
            group = by_limit[limit] = ([], [])
        group[0].append(position)
        group[1].append((i, j))
    if counters is not None:
        counters[COUNTER_VERIFIED] = counters.get(COUNTER_VERIFIED, 0) + verified
        if pruned:
            counters[COUNTER_PRUNED_LENGTH] = (
                counters.get(COUNTER_PRUNED_LENGTH, 0) + pruned
            )

    for limit, (positions, group_pairs) in by_limit.items():
        distances = verify_pairs(group_pairs, strings, limit, backend=backend, ops=ops)
        for position, (i, j), distance in zip(positions, group_pairs, distances):
            if distance is None:
                continue
            x, y = strings[i], strings[j]
            value = 2.0 * distance / (len(x) + len(y) + distance)
            if value <= threshold:
                results[position] = value
    return results
