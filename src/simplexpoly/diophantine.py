"""Exhaustive integer solutions of (w^2+x^2+y^2+z^2)^2 = 3(w^4+x^4+y^4+z^4).

This is the integer form of the equilateral-triangle distance relation;
(3, 5, 7, 8) is the classic solution. The equation is symmetric and even in
each variable, so solutions are canonicalized as ascending quadruples of
nonnegative integers; it is homogeneous, so every multiple of a solution is
a solution.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .geometry import quadruple_residual, realize_in_plane


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


def _scan_prefixes(w_values: Tuple[int, ...], bound: int) -> List[Tuple[int, int, int, int]]:
    """All solutions (w, x, y, z) with w in w_values and w <= x <= y <= z <= bound.

    The largest element is not searched: with the three smaller values
    fixed, the relation is a quadratic in the square of the fourth, so z^2
    comes from the closed form and only a perfect-square test remains.
    """
    found: List[Tuple[int, int, int, int]] = []
    for w in w_values:
        w2, w4 = w * w, w**4
        for x in range(w, bound + 1):
            x2, x4 = x * x, x**4
            for y in range(x, bound + 1):
                c = w2 + x2 + y * y
                d = w4 + x4 + y**4
                disc = 3 * (c * c - 2 * d)
                if disc < 0:
                    continue
                r = math.isqrt(disc)
                if r * r != disc:
                    continue
                for num in {c + r, c - r}:
                    if num < 0 or num % 2:
                        continue
                    s = num // 2
                    z = math.isqrt(s)
                    if z * z == s and y <= z <= bound:
                        found.append((w, x, y, z))
    return found


def enumerate_solutions(bound: int, jobs: int = 1) -> List[SolutionTuple]:
    """All nonzero solutions with entries in [0, bound], sorted ascending.

    The outer loop over the smallest entry is sharded over ``jobs`` worker
    processes, at most one per CPU; results are merged and sorted, so the
    output does not depend on jobs.
    """
    if bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    w_values = tuple(range(bound + 1))
    if jobs > 1:
        shards = [w_values[k::jobs] for k in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = [t for part in pool.map(_scan_prefixes, shards, [bound] * jobs) for t in part]
    else:
        raw = _scan_prefixes(w_values, bound)
    tuples = sorted(set(raw) - {(0, 0, 0, 0)})
    return [
        SolutionTuple(t, math.gcd(*t) == 1)
        for t in tuples
    ]


def realizability_report(sol: SolutionTuple, tol: float = 1e-6) -> Dict[str, object]:
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
        if side > 0 and realize_in_plane(float(side), *[float(v) for v in rest], tol=tol) is not None:
            realizable.append(i)
    return {
        "values": list(sol.values),
        "primitive": sol.primitive,
        "side_positions_realizable": realizable,
        "relation_residuals": residuals,
    }


def scaling_class_representative(sol: SolutionTuple) -> Tuple[int, int, int, int]:
    """The primitive tuple generating this solution's scaling class."""
    g = math.gcd(*sol.values)
    if g == 0:
        return sol.values
    return tuple(v // g for v in sol.values)  # type: ignore[return-value]
