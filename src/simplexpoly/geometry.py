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
from typing import List, Sequence, Tuple

import numpy as np

_REL_TOL = 1e-12
_WEIGHT_SUM_TOL = 1e-9
# nonzero lengths accepted: the relation's fourth powers, and their sums and
# squared sums at n = 1000, stay normal floats (a length above about 1e77 or
# below about 1e-77 has a fourth power that does not)
_LENGTHS = (1e-70, 1e70)


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
        if not math.isfinite(self.edge):
            raise ValueError(f"edge {self.edge} is not finite")
        if not np.isfinite(v).all():
            i, j = np.argwhere(~np.isfinite(v))[0]
            raise ValueError(f"vertex {i} has coordinate {j} = {v[i, j]}, which is not finite")
        # each squared edge |u_i - u_j|^2 = G_ii + G_jj - 2 G_ij from the Gram matrix G
        # of u = v - v[0]: (n+1)^2 floats, not the (n+1)^3 of all pairwise differences
        u = v - v[0]
        d = u @ u.T  # mostly in place: an (n+1)^2 temporary is 8 MB at n = 1000
        sq = d.diagonal().copy()
        d *= -2.0
        d += sq[:, None] + sq
        bad = np.abs(np.sqrt(np.maximum(d, 0.0, out=d), out=d) - self.edge) > _REL_TOL * self.edge
        for i, j in np.argwhere(np.triu(bad, 1))[:1]:  # the first bad pair in row-major order
            d_ij = float(np.linalg.norm(v[j] - v[i]))
            raise ValueError(f"vertices {i}, {j} are {d_ij} apart, not {self.edge}")
        if np.linalg.matrix_rank(u[1:], tol=1e-9 * self.edge) != self.n:
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
    if not _LENGTHS[0] <= a <= _LENGTHS[1]:
        raise ValueError(f"edge length must lie in [{_LENGTHS[0]:g}, {_LENGTHS[1]:g}], got {a}")
    vertices = (a / math.sqrt(2.0)) * np.eye(n + 1)
    return RegularSimplex(n, a, vertices)


def _relation_sides(side: float, distances: Sequence[float]) -> Tuple[float, float]:
    """The relation's two sides, (a^2 + sum d^2)^2 and (n+1)(a^4 + sum d^4)."""
    sq = side * side + sum(d * d for d in distances)
    quart = side**4 + sum(d**4 for d in distances)
    return sq * sq, len(distances) * quart


def relation_value(side: float, distances: Sequence[float]) -> float:
    """Unnormalized relation defect (a^2 + sum d^2)^2 - (n+1)(a^4 + sum d^4)."""
    lhs, rhs = _relation_sides(side, distances)
    return lhs - rhs


def relation_residual(simplex: RegularSimplex, weights: Sequence[float]) -> DistanceTuple:
    """Distances from the affine point sum(w_i vertex_i) and the residual.

    Weights must sum to 1 (that is what membership in the affine hull
    means); negative weights are allowed, non-finite ones are not. The
    residual is the relation defect over edge^4, so it is scale invariant.
    """
    if len(weights) != simplex.n + 1:
        raise ValueError(f"need {simplex.n + 1} weights, got {len(weights)}")
    if not all(map(math.isfinite, weights)):
        raise ValueError("weights must be finite")
    total = math.fsum(weights)
    if abs(total - 1.0) > _WEIGHT_SUM_TOL:
        raise ValueError(f"weights sum to {total}, not 1: point is outside the affine hull")
    diff = np.asarray(weights, dtype=float) @ simplex.vertices - simplex.vertices
    # per vertex the dot np.linalg.norm(diff[i]) takes, batched: the same bits, unlike axis=1
    distances = tuple(np.sqrt(diff[:, None, :] @ diff[:, :, None]).ravel().tolist())
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
    if any(k and not _LENGTHS[0] <= k <= _LENGTHS[1] for k in known):
        raise ValueError(f"nonzero known values must lie in [{_LENGTHS[0]:g}, {_LENGTHS[1]:g}]")
    c = sum(k * k for k in known)
    d = sum(k**4 for k in known)
    disc = 3.0 * (c * c - 2.0 * d)
    if disc < 0:
        return []
    root = math.sqrt(disc)
    solutions = []
    for s in ((c - root) / 2.0, (c + root) / 2.0):
        if s >= -1e-12 * max(c, 1.0):
            # s within rounding of zero, a few eps * c, is 0, not a root 1e-8 of the scale
            solutions.append(math.sqrt(s) if s > 1e-15 * c else 0.0)
    return sorted(set(solutions))


def quadruple_residual(side: float, distances: Sequence[float]) -> float:
    """Relation defect normalized by the largest participating term."""
    lhs, rhs = _relation_sides(side, distances)
    return (lhs - rhs) / max(1.0, lhs, abs(rhs))
