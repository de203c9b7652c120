"""Exhaustive integer solutions of (w^2+x^2+y^2+z^2)^2 = 3(w^4+x^4+y^4+z^4).

This is the integer form of the equilateral-triangle distance relation;
(3, 5, 7, 8) is the classic solution. The equation is symmetric and even in
each variable, so solutions are canonicalized as ascending quadruples of
nonnegative integers; it is homogeneous, so every multiple of a solution is
a solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .geometry import quadruple_residual, realize_in_plane

# The scan's work grows as bound^3, so larger bounds would run for hours; every
# int64 value of the filter stays below 27 * bound^4, far under 2^63.
_MAX_BOUND = 1_000
_STEP = 4096  # (x, y) pairs one numpy step holds


@dataclass(frozen=True)
class SolutionTuple:
    """Ascending nonnegative quadruple; primitive means gcd 1."""

    values: Tuple[int, int, int, int]
    primitive: bool


def is_solution(w: int, x: int, y: int, z: int) -> bool:
    """Exact integer test of the quartic relation."""
    sq = w * w + x * x + y * y + z * z
    quart = w**4 + x**4 + y**4 + z**4
    return sq * sq == 3 * quart


def _square_discriminant_pairs(w: int, bound: int) -> Iterator[Tuple[int, int]]:
    """Every (x, y) with w <= x <= y <= bound whose discriminant is a square.

    Pair k of the triangle is x = bound - r, y = x + k - r(r+1)/2, with r
    the largest integer such that r(r+1)/2 <= k; the float root gives r
    exactly, since 8k + 1 stays far below 2^53. The root of a square
    discriminant comes out exact too when sqrt rounds correctly; its two
    neighbours are tried as well, so a root one off loses no solution.
    """
    total = (bound - w + 1) * (bound - w + 2) // 2
    for lo in range(0, total, _STEP):
        k = np.arange(lo, min(lo + _STEP, total), dtype=np.int64)
        r = ((np.sqrt(8 * k + 1) - 1) // 2).astype(np.int64)
        x = bound - r
        y = x + k - r * (r + 1) // 2
        x2, y2 = x * x, y * y
        c = w * w + x2 + y2
        disc = 3 * (c * c - 2 * (w**4 + x2 * x2 + y2 * y2))
        root = np.sqrt(np.maximum(disc, 0)).astype(np.int64)
        square = (root * root == disc) | ((root - 1) ** 2 == disc) | ((root + 1) ** 2 == disc)
        yield from zip(x[square].tolist(), y[square].tolist())


def enumerate_solutions(bound: int) -> List[SolutionTuple]:
    """All nonzero solutions with entries in [0, bound], sorted ascending.

    The largest entry is not searched: with the three smaller values fixed,
    the relation is a quadratic in the square of the fourth, so z^2 comes
    from a closed form whose discriminant must be a square. A numpy filter
    proposes the (x, y) pairs of each smallest entry w with a square
    discriminant, and the exact relation confirms each z it gives.
    """
    if not 1 <= bound <= _MAX_BOUND:
        raise ValueError(f"bound must be in [1, {_MAX_BOUND}], got {bound}")
    found: List[Tuple[int, int, int, int]] = []
    for w in range(bound + 1):
        for x, y in _square_discriminant_pairs(w, bound):
            c = w * w + x * x + y * y
            r = math.isqrt(max(3 * (c * c - 2 * (w**4 + x**4 + y**4)), 0))
            # z^2 = (c +- r) / 2; z = 0 only in the zero tuple, which is not reported
            for z in {math.isqrt((c + r) // 2), math.isqrt(max(c - r, 0) // 2)}:
                if y <= z <= bound and z and is_solution(w, x, y, z):
                    found.append((w, x, y, z))
    return [SolutionTuple(t, math.gcd(*t) == 1) for t in sorted(found)]


def realizability_report(sol: SolutionTuple) -> Dict[str, object]:
    """Which entries of the quadruple can act as the triangle side.

    For each choice of side, tries to place a planar point at the remaining
    three distances from an equilateral triangle of that side. Reported for
    information only: the relation is necessary for realizability, not
    sufficient.
    """
    realizable: List[int] = []
    residuals: List[float] = []
    for i, side in enumerate(sol.values):
        rest = [v for k, v in enumerate(sol.values) if k != i]
        residuals.append(quadruple_residual(float(side), [float(v) for v in rest]))
        if side > 0 and realize_in_plane(float(side), *[float(v) for v in rest]) is not None:
            realizable.append(i)
    return {
        "values": list(sol.values),
        "primitive": sol.primitive,
        "side_positions_realizable": realizable,
        "relation_residuals": residuals,
    }
