"""Constructors for the quartic distance family and Cayley-Menger determinants.

The central object is the quartic

    g = (a^2 + x_1^2 + ... + x_m^2)^2 - t (a^4 + x_1^4 + ... + x_m^4)

with scalar parameters a, t from the coefficient field, together with the
symbolic Cayley-Menger determinant of an n-simplex and the pre-kite and
special simplex families, which are determinants of the same bordered matrix
with other squared-edge entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, ClassVar, Dict, List, Tuple

from .field import RATIONAL, FieldElement, FieldSpec
from .poly import _ONE, Polynomial, _monomial_key, _packed


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
    """The quartic (a^2 + sum x_i^2)^2 - t (a^4 + sum x_i^4), expanded.

    The expansion is a^4 (1-t) + 2a^2 sum x_i^2 + (1-t) sum x_i^4
    + 2 sum_{i<j} x_i^2 x_j^2, written term by term; each of the four
    coefficients is computed, and tested for zero, once.
    """
    field, m = params.field, params.m
    a2 = params.a**2
    one_minus_t = field.one() - params.t
    constant, square, fourth = (a2 * a2 * one_minus_t).value, (a2 * 2).value, one_minus_t.value
    zero, two = field.ops.zero, field.from_int(2).value  # 2 != 0: no field has char 2
    terms = {_ONE: constant} if constant != zero else {}
    if square != zero:
        terms.update(dict.fromkeys([_monomial_key(i, 2) for i in range(m)], square))
    for i in range(m):
        if fourth != zero:
            terms[_monomial_key(i, 4)] = fourth
        terms.update(dict.fromkeys([_monomial_key(i, 2, j, 2) for j in range(i + 1, m)], two))
    return Polynomial(field, m, terms)


def build_f(field: FieldSpec, m: int, t) -> Polynomial:
    """The homogeneous member (sum x_i^2)^2 - t sum x_i^4 (the a = 0 case)."""
    return build_g(GParams.of(field, m, 0, t))


def discriminant_check(field: FieldSpec, m: int, t) -> bool:
    """Verify the closed-form discriminant of the two-variable reduction.

    Rewrites the homogeneous quartic in the last two variables as a quadratic
    in v (with u, v their elementary symmetric functions), computes its
    discriminant symbolically, and compares it with
    8t((t-1)u^4 - 2 S2 u^2 + (2-t) S4 + S2^2) exactly, where S2, S4 are the
    power sums of the remaining variables.
    """
    if field.characteristic() == 2:
        raise ValueError("discriminant identity requires characteristic != 2")
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    t = field.coerce(t)
    if t.is_zero() or t == field.from_int(2):
        raise ValueError("discriminant identity requires t not in {0, 2}")

    f = build_f(field, m, t)
    reduced = f.symmetric_reduce(m - 2, m - 1)
    assert reduced is not None  # f is symmetric in every variable pair
    v_pos = m - 1

    coeffs = {0: {}, 1: {}, 2: {}}
    for exps, c in reduced.terms.items():
        e = exps[v_pos]
        if e > 2:
            return False
        stripped = list(exps)
        stripped[v_pos] = 0
        coeffs[e][tuple(stripped)] = c
    a0, a1, a2 = (Polynomial.from_terms(field, m, coeffs[e]) for e in range(3))
    disc = a1 * a1 - a2 * a0 * 4

    u = Polynomial.variable(field, m, m - 2)
    rest = [1] * (m - 2) + [0, 0]
    s2 = Polynomial.diagonal(field, 0, rest, 2)
    s4 = Polynomial.diagonal(field, 0, rest, 4)
    expected = (
        u**4 * (t - field.one()) - s2 * u**2 * 2 + s4.scale(field.from_int(2) - t) + s2**2
    ).scale(t * 8)
    return disc == expected


# -- Cayley-Menger -------------------------------------------------------------


@dataclass(frozen=True)
class CayleyMengerRing:
    """Variable bookkeeping for the ring k[x_{i,j} : 1 <= i < j <= n+1].

    Positions are assigned in lexicographic order of the index pairs, with
    the symmetric convention x_{i,j} = x_{j,i} and x_{j,j} = 0 applied at
    construction.
    """

    n: int
    max_n: ClassVar[int] = 6  # largest dimension whose determinant is built

    def __post_init__(self) -> None:
        if not 2 <= self.n <= self.max_n:
            raise ValueError(f"simplex dimension must be in 2..{self.max_n}, got {self.n}")

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


# an edge entry as (coefficient, {position: exponent}) terms, integers only
EdgeImage = List[Tuple[int, Dict[int, int]]]


def _bordered_determinant(
    field: FieldSpec, arity: int, n: int, edge: Callable[[int, int], EdgeImage]
) -> Polynomial:
    """Determinant of the bordered (n+2)x(n+2) Cayley-Menger matrix.

    The matrix has zero diagonal, ones in row and column 0, and the squared
    edge entry edge(i, j) at (i, j) and (j, i) for 1 <= i < j <= n+1, each
    with integer coefficients in ``arity`` variables. It is expanded over Z
    by memoized cofactor (Laplace) expansion along the rows in order. Each
    monomial is packed into one int, its degree in the top byte above one
    byte per exponent (position 0 highest), so a monomial product is one
    integer addition and int order is grlex. The result is mapped into the
    field at the end, in descending grlex order, dropping the terms that
    vanish there.
    """
    CayleyMengerRing(n)  # refuses n outside 2..max_n
    size = n + 2
    entries = [[{} if i == j else {0: 1} for j in range(size)] for i in range(size)]
    top = 0
    for i in range(1, size):
        for j in range(i + 1, size):
            image = edge(i, j)
            top = max([top] + [sum(powers.values()) for _, powers in image])
            entries[i][j] = entries[j][i] = {_packed(arity, powers): c for c, powers in image}
    # a minor's term is a product of at most n+1 edge entries; past 255 an
    # exponent would carry into its neighbour's byte
    if (n + 1) * top > 255:
        raise ValueError(f"entries of degree {top} overflow the packed exponents at n={n}")

    # the rows of a minor are the last len(cols) rows, so its columns identify it
    memo: Dict[Tuple[int, ...], Dict[int, int]] = {}

    def minor(cols: Tuple[int, ...]) -> Dict[int, int]:
        if cols in memo:
            return memo[cols]
        r = size - len(cols)
        if len(cols) == 1:
            result = entries[r][cols[0]]
        else:
            result = {}
            get = result.get
            for pos, c in enumerate(cols):
                if not entries[r][c]:
                    continue
                sub = minor(cols[:pos] + cols[pos + 1 :])
                for e1, c1 in entries[r][c].items():
                    c1 = -c1 if pos % 2 else c1
                    for e2, c2 in sub.items():
                        e = e1 + e2
                        result[e] = get(e, 0) + c1 * c2
            result = {key: c for key, c in result.items() if c}
        memo[cols] = result
        return result

    det = minor(tuple(range(size)))
    memo.clear()  # free the minors before the determinant is converted
    return Polynomial.from_packed(field, arity, det)


def cayley_menger(n: int, field: FieldSpec = RATIONAL) -> Polynomial:
    """The symbolic Cayley-Menger determinant of an n-simplex.

    Every squared edge entry is x_{i,j}^2, in the ring of ``CayleyMengerRing(n)``.
    """
    ring = CayleyMengerRing(n)
    return _bordered_determinant(
        field, ring.arity, n, lambda i, j: [(1, {ring.position(i, j): 2})]
    )


def prekite_names(n: int) -> Tuple[str, ...]:
    return ("x",) + tuple(f"y{i}" for i in range(1, n + 1))


def prekite_reduction(n: int, field: FieldSpec = RATIONAL) -> Tuple[Polynomial, Polynomial]:
    """The Cayley-Menger determinant with all base edges of one length.

    The base edges x_{i,j}, 1 <= i < j <= n, all become x, while the apex
    edges x_{j,n+1} stay distinct as y_j (position j of the ring in x, y_1,
    ..., y_n); this is the determinant M* of the one-parameter "pre-kite"
    simplex. Returns (M*, H) with H = n (x^4 + sum y_j^4) - (x^2 + sum y_j^2)^2,
    after asserting the exact identity M* = (-x^2)^(n-2) H.
    """
    if n < 3:
        raise ValueError(f"pre-kite reduction requires n >= 3, got {n}")
    target_arity = n + 1
    x = Polynomial.variable(field, target_arity, 0)
    m_star = _bordered_determinant(
        field,
        target_arity,
        n,
        lambda i, j: [(1, {0 if j <= n else i: 2})],
    )
    h = -build_f(field, target_arity, n)

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

    The result lives in the vertex-variable ring k[x_1, ..., x_{n+1}].
    Classifying the resulting families is out of scope.
    """
    arity = n + 1

    def image(i: int, j: int) -> EdgeImage:
        i, j = i - 1, j - 1
        if rule is SubstitutionRule.SUM:
            return [(1, {i: 1}), (1, {j: 1})]
        if rule is SubstitutionRule.PRODUCT:
            return [(1, {i: 1, j: 1})]
        if rule is SubstitutionRule.SUM_SQUARED:
            return [(1, {i: 2}), (2, {i: 1, j: 1}), (1, {j: 2})]
        if rule is SubstitutionRule.MIXED_QUADRATIC:
            return [(1, {i: 2}), (1, {i: 1, j: 1}), (1, {j: 2})]
        raise ValueError(f"unknown substitution rule {rule!r}")

    return _bordered_determinant(field, arity, n, image)
