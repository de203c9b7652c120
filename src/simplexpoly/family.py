"""Constructors for the quartic distance family and Cayley-Menger determinants.

The central object is the quartic

    g = (a^2 + x_1^2 + ... + x_m^2)^2 - t (a^4 + x_1^4 + ... + x_m^4)

with scalar parameters a, t from the coefficient field, together with the
symbolic Cayley-Menger determinant of an n-simplex and the substitution
machinery that produces the special simplex families from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Tuple

from .field import RATIONAL, FieldElement, FieldSpec
from .poly import Polynomial


class InternalCheckError(RuntimeError):
    """An internal exact identity failed; signals an implementation bug."""


@dataclass(frozen=True)
class GParams:
    """Parameters of the quartic family: field, variable count, and a, t."""

    field: FieldSpec
    m: int
    a: FieldElement
    t: FieldElement

    def __post_init__(self) -> None:
        if self.m < 3:
            raise ValueError(f"the family is only classified for m >= 3, got m={self.m}")
        if self.a.spec != self.field or self.t.spec != self.field:
            raise ValueError("parameters a, t must live in the coefficient field")

    @staticmethod
    def of(field: FieldSpec, m: int, a, t) -> "GParams":
        """Coerce integer or literal parameters through the canonical ring map."""
        return GParams(field, m, field.coerce(a), field.coerce(t))


def build_g(params: GParams) -> Polynomial:
    """The quartic (a^2 + sum x_i^2)^2 - t (a^4 + sum x_i^4), expanded."""
    field, m = params.field, params.m
    squares = Polynomial.constant(field, m, params.a**2)
    fourths = Polynomial.constant(field, m, params.a**4)
    for i in range(m):
        x = Polynomial.variable(field, m, i)
        squares = squares + x**2
        fourths = fourths + x**4
    return squares**2 - fourths.scale(params.t)


def build_f(field: FieldSpec, m: int, t) -> Polynomial:
    """The homogeneous member (sum x_i^2)^2 - t sum x_i^4 (the a = 0 case)."""
    return build_g(GParams.of(field, m, 0, t))


def g_names(m: int) -> Tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(m))


# -- Cayley-Menger -------------------------------------------------------------


@dataclass(frozen=True)
class CayleyMengerRing:
    """Variable bookkeeping for the ring k[x_{i,j} : 1 <= i < j <= n+1].

    Positions are assigned in lexicographic order of the index pairs, with
    the symmetric convention x_{i,j} = x_{j,i} and x_{j,j} = 0 applied at
    construction.
    """

    n: int

    def __post_init__(self) -> None:
        if not 2 <= self.n <= 6:
            raise ValueError(f"simplex dimension must be in 2..6, got {self.n}")

    @property
    def arity(self) -> int:
        return (self.n + 1) * self.n // 2

    def position(self, i: int, j: int) -> int:
        """Ring position of x_{i,j} for vertex labels 1 <= i != j <= n+1."""
        if i == j or not (1 <= i <= self.n + 1 and 1 <= j <= self.n + 1):
            raise ValueError(f"bad edge ({i}, {j}) for n={self.n}")
        if i > j:
            i, j = j, i
        prior = sum(self.n + 1 - k for k in range(1, i))
        return prior + (j - i - 1)

    def pairs(self) -> List[Tuple[int, int]]:
        return [
            (i, j)
            for i in range(1, self.n + 2)
            for j in range(i + 1, self.n + 2)
        ]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(f"x{i}{j}" for i, j in self.pairs())


def cayley_menger(n: int, field: FieldSpec = RATIONAL) -> Polynomial:
    """The symbolic Cayley-Menger determinant of an n-simplex.

    The bordered (n+2)x(n+2) matrix has zero diagonal, ones in row and
    column 0, and squared edge variables elsewhere; the determinant is
    expanded by memoized cofactor (Laplace) expansion.
    """
    ring = CayleyMengerRing(n)
    size = n + 2
    zero = Polynomial.zero(field, ring.arity)
    one = Polynomial.constant(field, ring.arity, 1)
    entries: List[List[Polynomial]] = []
    for i in range(size):
        row = []
        for j in range(size):
            if i == j:
                row.append(zero)
            elif i == 0 or j == 0:
                row.append(one)
            else:
                row.append(Polynomial.variable(field, ring.arity, ring.position(i, j), 2))
        entries.append(row)

    memo: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Polynomial] = {}

    def minor(rows: Tuple[int, ...], cols: Tuple[int, ...]) -> Polynomial:
        key = (rows, cols)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if len(rows) == 1:
            result = entries[rows[0]][cols[0]]
        else:
            result = zero
            r = rows[0]
            rest_rows = rows[1:]
            for pos, c in enumerate(cols):
                e = entries[r][c]
                if e.is_zero():
                    continue
                sub = minor(rest_rows, cols[:pos] + cols[pos + 1 :])
                term = e * sub
                result = result + (term if pos % 2 == 0 else -term)
        memo[key] = result
        return result

    idx = tuple(range(size))
    return minor(idx, idx)


def prekite_names(n: int) -> Tuple[str, ...]:
    return ("x",) + tuple(f"y{i}" for i in range(1, n + 1))


def prekite_reduction(n: int, field: FieldSpec = RATIONAL) -> Tuple[Polynomial, Polynomial]:
    """Collapse all base edges of the Cayley-Menger determinant to one length.

    Substitutes x_{i,j} -> x for 1 <= i < j <= n while keeping the apex
    edges x_{n+1,j} distinct (position j in the target ring), producing the
    determinant M* of the one-parameter "pre-kite" simplex. Returns
    (M*, H) with H = n (x^4 + sum y_j^4) - (x^2 + sum y_j^2)^2, after
    asserting the exact identity M* = (-x^2)^(n-2) H.
    """
    if n < 3:
        raise ValueError(f"pre-kite reduction requires n >= 3, got {n}")
    ring = CayleyMengerRing(n)
    target_arity = n + 1
    x = Polynomial.variable(field, target_arity, 0)
    images: Dict[int, Polynomial] = {}
    for i, j in ring.pairs():
        if j <= n:
            images[ring.position(i, j)] = x
        else:
            images[ring.position(i, j)] = Polynomial.variable(field, target_arity, i)
    m_star = cayley_menger(n, field).substitute(images, arity=target_arity)

    sq = x**2
    quart = x**4
    for i in range(1, target_arity):
        y = Polynomial.variable(field, target_arity, i)
        sq = sq + y**2
        quart = quart + y**4
    h = quart.scale(n) - sq**2

    if m_star != ((-(x**2)) ** (n - 2)) * h:
        raise InternalCheckError(
            f"pre-kite identity failed for n={n}: M* != (-x^2)^{n - 2} H"
        )
    return m_star, h


class SubstitutionRule(Enum):
    """Replacement applied to each squared edge variable x_{i,j}^2."""

    SUM = "sum"  # x_i + x_j
    PRODUCT = "product"  # x_i * x_j
    SUM_SQUARED = "sum-squared"  # (x_i + x_j)^2
    MIXED_QUADRATIC = "mixed-quadratic"  # x_i^2 + x_i x_j + x_j^2


def special_family_substitution(
    n: int, rule: SubstitutionRule, field: FieldSpec = RATIONAL
) -> Polynomial:
    """Cayley-Menger determinant with each x_{i,j}^2 replaced by a vertex form.

    The result lives in the vertex-variable ring k[x_1, ..., x_{n+1}]. Only
    the substitution machinery is provided; classifying the resulting
    families is out of scope.
    """
    ring = CayleyMengerRing(n)
    arity = n + 1

    def image(i: int, j: int) -> Polynomial:
        xi = Polynomial.variable(field, arity, i - 1)
        xj = Polynomial.variable(field, arity, j - 1)
        if rule is SubstitutionRule.SUM:
            return xi + xj
        if rule is SubstitutionRule.PRODUCT:
            return xi * xj
        if rule is SubstitutionRule.SUM_SQUARED:
            return (xi + xj) ** 2
        if rule is SubstitutionRule.MIXED_QUADRATIC:
            return xi**2 + xi * xj + xj**2
        raise ValueError(f"unknown substitution rule {rule!r}")

    images = {ring.position(i, j): image(i, j) for i, j in ring.pairs()}
    return cayley_menger(n, field).substitute_squares(images, arity)
