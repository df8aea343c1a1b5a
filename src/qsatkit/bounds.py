"""Computable occurrence bounds for bounded-degree satisfiability.

For k-local rank-1 instances there is a largest degree below which
satisfiability is guaranteed; the exact value is not known to be
computable, so everything here reports proven lower bounds (and one
labeled estimate) as a function of k.
"""

import math
from dataclasses import dataclass

from .errors import ArgumentError


@dataclass(frozen=True)
class BoundReport:
    """Occurrence bounds at locality k.

    ``qlll_lower`` — quantum local-lemma floor, floor(2^k / (e*k)):
    instances with every degree at or below it are always satisfiable.
    ``gebauer_lower`` — the stronger classical floor floor(2^(k+1)/(e*(k+1))).
    ``gebauer_upper_estimate`` — 2^(k+1)/(e*k) with the 1+O(1/sqrt(k))
    factor dropped; an estimate, never a bound.
    ``tovey_lower`` — the elementary floor k.
    """

    k: int
    qlll_lower: int
    gebauer_lower: int
    gebauer_upper_estimate: float
    tovey_lower: int


def bound_report(k: int) -> BoundReport:
    """All four bound values at locality k (1 <= k <= 1022)."""
    if k < 1:
        raise ArgumentError("locality must be at least 1")
    if k > 1022:
        # 2^(k+1) must convert to a float.
        raise ArgumentError(f"locality must be at most 1022, got {k}")
    qlll_lower = math.floor((1 << k) / (math.e * k))
    gebauer_lower = math.floor((1 << (k + 1)) / (math.e * (k + 1)))
    gebauer_upper_estimate = (1 << (k + 1)) / (math.e * k)
    return BoundReport(k, qlll_lower, gebauer_lower, gebauer_upper_estimate, k)


def threshold_check(k: int) -> bool:
    """Whether the guaranteed-satisfiable degree plus two clears 510.

    510 is the largest degree the locality-raising construction's source
    instances can reach, so once this holds the construction's degree is
    governed by the local-lemma floor alone.  True from k = 15 on.
    """
    return bound_report(k).qlll_lower + 2 > 510
