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
from typing import Dict, Iterator, List, Set, Tuple

import numpy as np

from .geometry import quadruple_residual

# The scan visits about bound^3 / 12 (w, x, y) triples; its time grows as
# bound^3 and is 0.84 s at bound 1000 on one AMD EPYC core. Every int64 value
# of the filter stays below 27 * bound^4, under 2^53, so the float root of a
# perfect square rounds to its exact integer root.
_MAX_BOUND = 1_000
_STEP = 4096  # (w, x, y) triples one numpy step holds, in whole (w, x) rows


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


def _row_steps(bound: int) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The (w, x) rows of the scan, whole, grouped into steps of up to _STEP triples.

    Row (w, x), 0 <= w <= x <= bound, holds y = x .. min(bound, w + x): by
    Heron, c^2 - 2d is 16 times the squared area of the triangle with sides
    w, x, y, so past y = w + x the discriminant is negative. Each step is the
    w, x and length of its rows; a row longer than _STEP is a step alone.
    """
    w_all = np.arange(bound + 2, dtype=np.int64)
    first = w_all * (bound + 1) - w_all * (w_all - 1) // 2  # index of the first row of w
    start, total = 0, int(first[-1])  # rows before start are in steps already given
    while start < total:
        # a band of _STEP + 1 rows, across values of w, holds more triples than
        # one step takes, so it closes at least one step
        k = np.arange(start, min(start + _STEP + 1, total), dtype=np.int64)
        w = np.searchsorted(first, k, side="right") - 1
        x = w + k - first[w]
        n = np.minimum(bound - x, w) + 1
        ends = np.cumsum(n)
        lo = done = 0  # rows of the band already given, and their triples
        while lo < len(k):
            hi = max(int(np.searchsorted(ends, done + _STEP, side="right")), lo + 1)
            if hi == len(k) and start + hi < total:
                break  # the next band may still add rows to this step
            yield w[lo:hi], x[lo:hi], n[lo:hi]
            lo, done = hi, int(ends[hi - 1])
        start += lo


def _root(n: np.ndarray) -> np.ndarray:
    """The integer nearest sqrt(n), entrywise: the exact root of every perfect
    square below 2^53, even with a float root a few ulps off."""
    return np.rint(np.sqrt(n)).astype(np.int64)


def _square_triples(w: np.ndarray, x: np.ndarray, n: np.ndarray) -> Tuple[np.ndarray, ...]:
    """w, x, y, c and r of the triples in the rows whose discriminant is a square r^2.

    Rows are as _row_steps gives them: row (w[i], x[i]) holds y = x[i] ..
    x[i] + n[i] - 1.
    """
    first = np.cumsum(n) - n
    w, x = np.repeat(w, n), np.repeat(x, n)
    y = x + np.arange(len(x)) - np.repeat(first, n)
    w2, x2, y2 = w * w, x * x, y * y
    c = w2 + x2 + y2
    disc = 3 * (c * c - 2 * (w2 * w2 + x2 * x2 + y2 * y2))
    r = _root(disc)
    square = r * r == disc
    return w[square], x[square], y[square], c[square], r[square]


def enumerate_solutions(bound: int) -> List[SolutionTuple]:
    """All nonzero solutions with entries in [0, bound], sorted ascending.

    The largest entry is not searched: with the three smaller values fixed,
    the relation is a quadratic in the square of the fourth, so z^2 comes
    from a closed form whose discriminant must be a square. A numpy filter
    keeps the (w, x, y) triples with a square discriminant, solves each for
    the integer z it may give, and the exact relation confirms each tuple.
    """
    if not 1 <= bound <= _MAX_BOUND:
        raise ValueError(f"bound must be in [1, {_MAX_BOUND}], got {bound}")
    found: Set[Tuple[int, int, int, int]] = set()
    for rows in _row_steps(bound):
        w, x, y, c, r = _square_triples(*rows)
        # z^2 = (c +- r) / 2, and c - r >= 0 since c^2 <= 3d; r = 0 gives one z
        for twice in (c + r, c - r):
            z = _root(twice / 2)
            # z = 0 only in the zero tuple, which is not reported
            keep = (2 * z * z == twice) & (y <= z) & (z <= bound) & (z > 0)
            for t in zip(w[keep].tolist(), x[keep].tolist(), y[keep].tolist(), z[keep].tolist()):
                if is_solution(*t):
                    found.add(t)
    return [SolutionTuple(t, math.gcd(*t) == 1) for t in sorted(found)]


def realizability_report(sol: SolutionTuple) -> Dict[str, object]:
    """Which entries of the quadruple can act as the triangle side.

    Every positive entry can when the quadruple is a nonnegative solution of
    the exact relation, and none can otherwise: placing a planar point at the
    remaining three distances from an equilateral triangle of that side
    needs the relation, and with a positive side the relation is also
    sufficient. As a monic quadratic in the square of the third distance, its
    discriminant is 48 Area^2 of the triangle (side, d1, d2) (Heron), so a
    real root needs that triangle, and the roots are the squared distances of
    its two mirror-image points to the third vertex. The relation is
    symmetric, and entries up to 1000 have squares and fourth powers that sum
    exactly in floats, so its residual is the same for every side.
    """
    values = [float(v) for v in sol.values]
    residual = quadruple_residual(values[0], values[1:])
    solved = min(sol.values) >= 0 and is_solution(*sol.values)
    return {
        "values": list(sol.values),
        "primitive": sol.primitive,
        "side_positions_realizable": [i for i, v in enumerate(sol.values) if solved and v > 0],
        "relation_residuals": [residual] * len(values),
    }
