"""Random sampling helpers for schedule decisions.

These are the decision points recorded in the trace; the evolutionary
search (§4.4) mutates their recorded decisions and replays.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..tir import PrimExpr, const_int_value
from .sref import ScheduleError

__all__ = [
    "sample_perfect_tile",
    "sample_categorical",
    "all_factorizations",
    "divisors_of",
    "coerce_perfect_tile",
    "coerce_categorical",
]


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def divisors_of(n: int) -> List[int]:
    """Sorted positive divisors of ``n``."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def all_factorizations(n: int, parts: int, max_innermost: int = 0) -> List[List[int]]:
    """All ordered factorizations of ``n`` into ``parts`` factors."""
    if parts == 1:
        if max_innermost and n > max_innermost:
            return []
        return [[n]]
    out: List[List[int]] = []
    for d in divisors_of(n):
        for rest in all_factorizations(n // d, parts - 1, max_innermost):
            out.append([d] + rest)
    return out


def sample_perfect_tile(
    rng: random.Random,
    extent: PrimExpr,
    n: int,
    max_innermost_factor: int = 64,
    decision: Optional[Sequence[int]] = None,
) -> List[int]:
    """Factor a loop extent into ``n`` tile sizes (product == extent).

    Sampling is uniform over divisor choices digit-by-digit from the
    innermost factor up, with the innermost capped by
    ``max_innermost_factor``.
    """
    ext = const_int_value(extent)
    if ext is None:
        raise ScheduleError("sample_perfect_tile requires a constant loop extent")
    if decision is not None:
        if not isinstance(decision, (list, tuple)) or not all(map(_is_int, decision)):
            raise ScheduleError(f"decision {decision!r} is not a list of tile sizes")
        decision = list(decision)
        if len(decision) != n:
            raise ScheduleError(f"decision has {len(decision)} factors, expected {n}")
        prod = 1
        for f in decision:
            prod *= f
        if prod != ext:
            raise ScheduleError(f"decision product {prod} != extent {ext}")
        return decision
    remaining = ext
    factors = [1] * n
    for pos in range(n - 1, 0, -1):
        choices = divisors_of(remaining)
        if pos == n - 1 and max_innermost_factor:
            choices = [c for c in choices if c <= max_innermost_factor] or [1]
        pick = rng.choice(choices)
        factors[pos] = pick
        remaining //= pick
    factors[0] = remaining
    return factors


def coerce_perfect_tile(
    decision: object, extent: Optional[int], n: int, max_innermost_factor: int = 64
) -> Optional[List[int]]:
    """The feasible tile vector nearest to ``decision`` for ``extent``.

    Used by adaptive cross-shape replay (``Schedule.decision_mode ==
    "adapt"``): a decision recorded at a bucket representative's extent
    may not divide the concrete extent.  Greedily, innermost factor
    first, each stored factor is replaced by the largest divisor of the
    remaining extent that does not exceed it — when the stored vector is
    already feasible this reproduces it exactly (every factor divides
    the product), so strict replays are unaffected.  Returns ``None``
    when the decision cannot be interpreted as a tile vector at all;
    the replay then rejects it, as a strict replay would.
    """
    if extent is None or not isinstance(decision, (list, tuple)) or len(decision) != n:
        return None
    if not all(map(_is_int, decision)):
        return None
    remaining = int(extent)
    factors = [1] * n
    for pos in range(n - 1, 0, -1):
        choices = divisors_of(remaining)
        if pos == n - 1 and max_innermost_factor:
            choices = [c for c in choices if c <= max_innermost_factor] or [1]
        want = int(decision[pos])
        pick = max((c for c in choices if c <= want), default=choices[0])
        factors[pos] = pick
        remaining //= pick
    factors[0] = remaining
    return factors


def coerce_categorical(decision: object, n_candidates: int) -> Optional[int]:
    """Clamp a stored categorical index into ``[0, n_candidates)`` —
    candidate lists (e.g. divisors of an extent) shrink and grow with
    the shape, so an index recorded at the bucket representative is
    mapped to the nearest valid choice.  Identity for in-range indices,
    so strict replays are unaffected."""
    if n_candidates <= 0 or not _is_int(decision):
        return None
    return min(max(decision, 0), n_candidates - 1)


def sample_categorical(
    rng: random.Random,
    n_candidates: int,
    probs: Optional[Sequence[float]] = None,
    decision: Optional[int] = None,
) -> int:
    """Pick an index in ``[0, n_candidates)``; returns the index."""
    if n_candidates <= 0:
        raise ScheduleError("sample_categorical with no candidates")
    if decision is not None:
        if not _is_int(decision):
            raise ScheduleError(f"decision {decision!r} is not a candidate index")
        if not 0 <= decision < n_candidates:
            raise ScheduleError(f"decision {decision} out of range [0, {n_candidates})")
        return decision
    if probs is None:
        return rng.randrange(n_candidates)
    if len(probs) != n_candidates:
        raise ScheduleError("probs length mismatch")
    return rng.choices(range(n_candidates), weights=list(probs), k=1)[0]
