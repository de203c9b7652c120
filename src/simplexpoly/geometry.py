"""Floating-point checks of the simplex distance relation.

For a regular n-simplex of edge a and any point in its affine hull, the side
and the n+1 vertex distances satisfy

    (a^2 + d_1^2 + ... + d_{n+1}^2)^2 = (n+1) (a^4 + d_1^4 + ... + d_{n+1}^4).

This module builds explicit simplices, measures the residual of that
relation at affine points, and solves the classic fourth-distance puzzle
for the equilateral triangle (n = 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import List, Optional, Sequence, Tuple

import numpy as np

_REL_TOL = 1e-12
_WEIGHT_SUM_TOL = 1e-9
_REALIZE_TOL = 1e-6  # relative slack of the planar placement in realize_in_plane


@dataclass(frozen=True)
class RegularSimplex:
    """n+1 vertices in R^{n+1} with all pairwise distances equal to ``edge``."""

    n: int
    edge: float
    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = self.vertices
        if v.shape != (self.n + 1, self.n + 1):
            raise ValueError("expected n+1 vertices in R^{n+1}")
        for i in range(self.n + 1):
            for j in range(i + 1, self.n + 1):
                d = float(np.linalg.norm(v[i] - v[j]))
                if abs(d - self.edge) > _REL_TOL * self.edge:
                    raise ValueError(f"vertices {i}, {j} are {d} apart, not {self.edge}")
        if np.linalg.matrix_rank(v[1:] - v[0], tol=1e-9 * self.edge) != self.n:
            raise ValueError("vertices do not span an n-dimensional affine hull")


@dataclass(frozen=True)
class DistanceTuple:
    """Side, vertex distances, and the normalized relation residual."""

    side: float
    distances: Tuple[float, ...]
    residual: float


def regular_simplex(n: int, a: float) -> RegularSimplex:
    """Scaled-standard-basis embedding: vertex i is (a/sqrt(2)) e_i."""
    if n < 2:
        raise ValueError(f"simplex dimension must be at least 2, got {n}")
    if not (a > 0 and math.isfinite(a)):
        raise ValueError(f"edge length must be positive and finite, got {a}")
    vertices = (a / math.sqrt(2.0)) * np.eye(n + 1)
    return RegularSimplex(n, a, vertices)


def relation_value(side: float, distances: Sequence[float]) -> float:
    """Unnormalized relation defect (a^2 + sum d^2)^2 - (n+1)(a^4 + sum d^4)."""
    n_plus_1 = len(distances)
    sq = side * side + sum(d * d for d in distances)
    quart = side**4 + sum(d**4 for d in distances)
    return sq * sq - n_plus_1 * quart


def relation_residual(simplex: RegularSimplex, weights: Sequence[float]) -> DistanceTuple:
    """Distances from the affine point sum(w_i vertex_i) and the residual.

    Weights must sum to 1 (that is what membership in the affine hull
    means); negative weights are allowed. The residual is the relation
    defect normalized by edge^4, which makes it scale invariant.
    """
    if len(weights) != simplex.n + 1:
        raise ValueError(f"need {simplex.n + 1} weights, got {len(weights)}")
    total = math.fsum(weights)
    if abs(total - 1.0) > _WEIGHT_SUM_TOL:
        raise ValueError(f"weights sum to {total}, not 1: point is outside the affine hull")
    point = np.asarray(weights, dtype=float) @ simplex.vertices
    distances = tuple(float(np.linalg.norm(point - v)) for v in simplex.vertices)
    residual = relation_value(simplex.edge, distances) / simplex.edge**4
    return DistanceTuple(simplex.edge, distances, residual)


def random_affine_weights(n: int, rng: Random) -> List[float]:
    """Weights drawn uniformly from [-2, 3], normalized to sum 1.

    Draws are rejected while the raw sum is within 1 of zero: dividing by a
    near-zero sum would push the point so far out that double precision
    could not resolve the relation to the advertised 1e-9.
    """
    while True:
        raw = [rng.uniform(-2.0, 3.0) for _ in range(n + 1)]
        total = math.fsum(raw)
        if abs(total) >= 1.0:
            return [w / total for w in raw]


def solve_fourth_distance(known: Sequence[float]) -> List[float]:
    """All nonnegative values completing three known ones to a quadruple
    satisfying the equilateral-triangle relation (n = 2).

    The relation is symmetric in the side and the three distances, so the
    unknown may be either.

    With s the squared unknown, the relation is -2 s^2 + 2 C s + (C^2 - 3D)
    where C and D are the sums of squares and of fourth powers of the known
    values; the real nonnegative roots sqrt(s) are returned in ascending
    order (empty list when none exist).
    """
    if len(known) != 3:
        raise ValueError(f"exactly three known values required, got {len(known)}")
    if any(k < 0 or not math.isfinite(k) for k in known):
        raise ValueError("known values must be nonnegative and finite")
    c = sum(k * k for k in known)
    d = sum(k**4 for k in known)
    disc = 3.0 * (c * c - 2.0 * d)
    if disc < 0:
        return []
    root = math.sqrt(disc)
    solutions = []
    for s in ((c - root) / 2.0, (c + root) / 2.0):
        if s >= -1e-12 * max(c, 1.0):
            solutions.append(math.sqrt(max(s, 0.0)))
    return sorted(set(solutions))


def quadruple_residual(side: float, distances: Sequence[float]) -> float:
    """Relation defect normalized by the largest participating term."""
    n_plus_1 = len(distances)
    sq = side * side + sum(d * d for d in distances)
    quart = side**4 + sum(d**4 for d in distances)
    scale = max(1.0, sq * sq, abs(n_plus_1 * quart))
    return (sq * sq - n_plus_1 * quart) / scale


def realize_in_plane(side: float, d1: float, d2: float, d3: float) -> Optional[np.ndarray]:
    """A planar point at distances (d1, d2, d3) from the vertices of an
    equilateral triangle of the given side, or None if there is none.

    Intersects the circles around the first two vertices and checks the
    third distance; used to report which solution quadruples are
    geometrically realizable.
    """
    if side <= 0:
        return None
    # vertices (0, 0), (side, 0), and the apex below
    cx, cy = side / 2.0, side * math.sqrt(3.0) / 2.0
    x = (d1 * d1 - d2 * d2 + side * side) / (2.0 * side)
    y_sq = d1 * d1 - x * x
    if y_sq < -_REALIZE_TOL * max(d1 * d1, 1.0):
        return None
    y = math.sqrt(max(y_sq, 0.0))
    scale = max(side, d1, d2, d3, 1.0)
    for point in (np.array([x, y]), np.array([x, -y])):
        d = math.hypot(point[0] - cx, point[1] - cy)
        if abs(d - d3) <= _REALIZE_TOL * scale:
            return point
    return None
