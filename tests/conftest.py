"""Shared helpers: deterministic random generators for field and ring values,
and plain reference implementations that tests compare the library against."""

import math
from fractions import Fraction
from random import Random
from itertools import compress
from operator import add
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import strategies as st

from simplexpoly.field import (
    CYCLOTOMIC,
    CYCLOTOMIC_KIND,
    PRIME_KIND,
    RATIONAL,
    RATIONAL_KIND,
    FieldElement,
    FieldSpec,
    element_to_text,
    prime_field,
)
from simplexpoly.geometry import quadruple_residual
from simplexpoly.poly import Monomial, Polynomial, default_names

ALL_FIELDS = [RATIONAL, prime_field(3), prime_field(5), prime_field(7), CYCLOTOMIC]


@pytest.fixture(params=ALL_FIELDS, ids=repr)
def any_field(request) -> FieldSpec:
    return request.param


@pytest.fixture
def small_arrays(monkeypatch):
    """numpy refuses to allocate any array over 10 MB for the test's duration.

    A missing size check then fails the test instead of exhausting memory.
    """
    limit = 10 * 2**20

    def guard(alloc):
        def guarded(shape, dtype=float, *args, **kwargs):
            size = int(np.prod(shape, dtype=object)) * np.dtype(dtype).itemsize
            if size > limit:
                raise MemoryError(f"test refuses a {size}-byte array")
            return alloc(shape, dtype, *args, **kwargs)

        return guarded

    for name in ("zeros", "ones", "empty"):
        monkeypatch.setattr(np, name, guard(getattr(np, name)))


def random_element(spec: FieldSpec, rng: Random, max_abs: int = 9) -> FieldElement:
    """A small random element, for randomized identity checks and tests."""
    if spec.kind == PRIME_KIND:
        return FieldElement(spec, rng.randrange(spec.p))
    if spec.kind == RATIONAL_KIND:
        return FieldElement(
            spec, Fraction(rng.randint(-max_abs, max_abs), rng.randint(1, max_abs))
        )
    return FieldElement(
        spec,
        (
            Fraction(rng.randint(-max_abs, max_abs), rng.randint(1, max_abs)),
            Fraction(rng.randint(-max_abs, max_abs), rng.randint(1, max_abs)),
        ),
    )


def canonical(spec, v) -> bool:
    """v is a payload of spec in canonical form: an int residue over F_p,
    rationals as int when integral and Fraction otherwise (never a float)."""
    if spec.kind == PRIME_KIND:
        return type(v) is int and 0 <= v < spec.p
    rational = lambda x: type(x) is int or (type(x) is Fraction and x.denominator != 1)
    if spec.kind == CYCLOTOMIC_KIND:
        return type(v) is tuple and len(v) == 2 and all(map(rational, v))
    return rational(v)


@st.composite
def elements(draw, spec):
    """An element of spec, often with a non-integral rational part."""
    num, den = draw(st.integers(-20, 20)), draw(st.integers(1, 6))
    if spec.kind == PRIME_KIND:
        return spec.from_int(num)
    if spec.kind == CYCLOTOMIC_KIND:
        return spec.omega_element(Fraction(num, den), Fraction(draw(st.integers(-20, 20)), den))
    return spec.from_fraction(Fraction(num, den))


def random_polynomial(
    field: FieldSpec,
    arity: int,
    rng: Random,
    max_exp: int = 3,
    max_terms: int = 5,
    nonzero: bool = False,
) -> Polynomial:
    while True:
        raw = {}
        for _ in range(rng.randint(0, max_terms)):
            exps = tuple(rng.randint(0, max_exp) for _ in range(arity))
            raw[exps] = random_element(field, rng)
        p = Polynomial.from_terms(field, arity, raw)
        if not (nonzero and p.is_zero()):
            return p


def grlex_key(exps: Monomial) -> tuple:
    """Sort key for the graded-lexicographic order on exponent tuples."""
    return (sum(exps), exps)


def evaluate(p: Polynomial, point: Sequence[FieldElement]) -> FieldElement:
    """The value of p at point, term by term over the dense exponent tuples."""
    if len(point) != p.arity:
        raise ValueError("point arity mismatch")
    total = p.field.zero()
    for exps, c in p.terms.items():
        v = c
        for x, e in zip(point, exps):
            if e:
                v = v * x**e
        total = total + v
    return total


def substitute(
    p: Polynomial, images: Mapping[int, Polynomial], arity: Optional[int] = None
) -> Polynomial:
    """Ring map sending variable i of p to images[i].

    Unmapped variables go to the same-position variable of the target ring,
    whose arity defaults to p's. All images must live in the target ring.
    """
    target_arity = p.arity if arity is None else arity
    full: Dict[int, Polynomial] = {}
    for i in range(p.arity):
        img = images.get(i)
        if img is None:
            if i >= target_arity:
                raise ValueError(f"variable {i} has no image and no slot in target ring")
            img = Polynomial.variable(p.field, target_arity, i)
        elif img.field != p.field or img.arity != target_arity:
            raise ValueError("substitution image lives in the wrong ring")
        full[i] = img
    powers: Dict[Tuple[int, int], Polynomial] = {}

    def power(i: int, e: int) -> Polynomial:
        key = (i, e)
        if key not in powers:
            powers[key] = full[i] ** e
        return powers[key]

    acc: Dict[tuple, FieldElement] = {}
    for exps, c in p.terms.items():
        term = Polynomial.constant(p.field, target_arity, c)
        for i, e in enumerate(exps):
            if e:
                term = term * power(i, e)
        dense_accumulate(acc, term.terms.items())
    return Polynomial.from_terms(p.field, target_arity, acc)


def reference_bordered_determinant(
    field: FieldSpec, arity: int, n: int, edge: Callable[[int, int], Polynomial]
) -> Polynomial:
    """Determinant of the bordered Cayley-Menger matrix with entries edge(i, j),
    by cofactor expansion along the first row in Polynomial arithmetic.

    Minors are memoized by their columns, since their rows are always the
    last ones; without it n = 6 takes 8! products per term.
    """
    size = n + 2
    zero = Polynomial.zero(field, arity)
    one = Polynomial.constant(field, arity, 1)
    entries = [[zero if i == j else one for j in range(size)] for i in range(size)]
    for i in range(1, size):
        for j in range(i + 1, size):
            entries[i][j] = entries[j][i] = edge(i, j)
    memo: Dict[Tuple[int, ...], Polynomial] = {}

    def minor(cols: Tuple[int, ...]) -> Polynomial:
        if cols not in memo:
            row = entries[size - len(cols)]
            if len(cols) == 1:
                memo[cols] = row[cols[0]]
            else:
                total = zero
                for pos, c in enumerate(cols):
                    term = row[c] * minor(cols[:pos] + cols[pos + 1 :])
                    total = total - term if pos % 2 else total + term
                memo[cols] = total
        return memo[cols]

    return minor(tuple(range(size)))


def _reference_coeff_text(c: FieldElement) -> Tuple[bool, str]:
    """(negative?, magnitude text); wraps mixed Q(w) coefficients in parens."""
    if c.spec.kind == CYCLOTOMIC_KIND:
        r, s = c.value
        if r != 0 and s != 0:
            return False, f"({element_to_text(c)})"
        if r < 0 or (r == 0 and s < 0):
            return True, element_to_text(-c)
        return False, element_to_text(c)
    text = element_to_text(c)
    if text.startswith("-"):
        return True, text[1:]
    return False, text


def reference_poly_to_text(p: Polynomial, names: Optional[Sequence[str]] = None) -> str:
    """poly_to_text term by term: each coefficient rendered where it occurs,
    each term looked up by its monomial in descending grlex order."""
    names = tuple(names) if names is not None else default_names(p.arity)
    if p.is_zero():
        return "0"
    pieces = []
    for exps in sorted(p.terms, key=grlex_key, reverse=True):
        neg, mag = _reference_coeff_text(p.terms[exps])
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in compress(zip(names, exps), exps)
        ]
        if not factors:
            body = mag
        elif mag == "1":
            body = "*".join(factors)
        else:
            body = "*".join([mag] + factors)
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces)


TEXT_FIELDS = [RATIONAL, CYCLOTOMIC, prime_field(3), prime_field(7), prime_field(101)]
TEXT_NAMES = ["x", "y2", "alpha", "b_c", "z", "u", "T"]


@st.composite
def polynomials_with_names(draw) -> Tuple[Polynomial, Optional[Tuple[str, ...]]]:
    """A polynomial over a text-test field and its names (None for the defaults).

    Its coefficients come from a pool of up to four values: a term holds
    either the pool's object for its value, shared with other terms, or a
    fresh object of the same value. Over Q(w) the pool mixes pure rationals,
    pure multiples of w and mixed values.
    """
    field = draw(st.sampled_from(TEXT_FIELDS))
    arity = draw(st.integers(1, 4))
    small = st.integers(-3, 3)
    values = draw(st.lists(st.tuples(small, st.integers(1, 3), small), min_size=1, max_size=4))

    def element(v: Tuple[int, int, int]) -> FieldElement:
        num, den, w_part = v
        if field.kind == PRIME_KIND:
            return field.from_int(num)
        if field.kind == RATIONAL_KIND:
            return field.from_fraction(Fraction(num, den))
        return field.omega_element(Fraction(num, den), w_part)

    pool = [element(v) for v in values]
    raw = {}
    for _ in range(draw(st.integers(0, 8))):
        exps = tuple(draw(st.lists(st.integers(0, 3), min_size=arity, max_size=arity)))
        i = draw(st.integers(0, len(pool) - 1))
        raw[exps] = element(values[i]) if draw(st.booleans()) else pool[i]
    names = draw(st.none() | st.lists(st.sampled_from(TEXT_NAMES), min_size=arity,
                                      max_size=arity, unique=True).map(tuple))
    return Polynomial.from_terms(field, arity, raw), names


# -- dense reference arithmetic ---------------------------------------------------
#
# Polynomials as plain {exponent tuple: coefficient} dicts, the store of the
# library before monomials were kept sparse; the differential tests in
# test_poly.py compare the library with these.

Dense = Dict[Monomial, FieldElement]


def dense_accumulate(terms: Dense, items) -> Dense:
    for exps, c in items:
        c = terms[exps] + c if exps in terms else c
        if c.is_zero():
            terms.pop(exps, None)
        else:
            terms[exps] = c
    return terms


def dense_mul(a: Dense, b: Dense) -> Dense:
    return dense_accumulate(
        {}, ((tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in a.items() for e2, c2 in b.items())
    )


def dense_divide(a: Dense, d: Dense) -> Optional[Dense]:
    """a / d by division under grlex, or None when the remainder is not zero."""
    dlm = max(d, key=grlex_key)
    rem, quot = dict(a), {}
    while rem:
        rlm = max(rem, key=grlex_key)
        shift = tuple(x - y for x, y in zip(rlm, dlm))
        if min(shift) < 0:
            return None
        c = quot[shift] = rem[rlm] / d[dlm]
        dense_accumulate(rem, ((tuple(map(add, shift, e)), -c * k) for e, k in d.items()))
    return quot


def dense_symmetric_reduce(
    a: Dense, field: FieldSpec, arity: int, i: int, j: int
) -> Optional[Dense]:
    """Polynomial.symmetric_reduce, on exponent tuples throughout."""

    def swap(e: Monomial) -> Monomial:
        e = list(e)
        e[i], e[j] = e[j], e[i]
        return tuple(e)

    if {swap(e): c for e, c in a.items()} != a:
        return None
    unit = [tuple(int(k == v) for k in range(arity)) for v in (i, j)]
    u, v = ({e: field.one()} for e in unit)
    sums = [{(0,) * arity: field.from_int(2)}, u]
    acc: Dense = {}
    for e, c in a.items():
        k, l = e[i], e[j]
        if k < l:
            continue
        while len(sums) <= k - l:
            sums.append(dense_accumulate(dense_mul(u, sums[-1]),
                                         ((e2, -c2) for e2, c2 in dense_mul(v, sums[-2]).items())))
        rest = list(e)
        rest[i], rest[j] = 0, l
        base = {tuple(rest): c}
        dense_accumulate(acc, (dense_mul(base, sums[k - l]) if k > l else base).items())
    return acc


DIFFERENTIAL_FIELDS = [RATIONAL, prime_field(7), CYCLOTOMIC]


@st.composite
def dense_polynomials(draw, field: FieldSpec, arity: int, max_terms: int = 6) -> Dense:
    """Up to max_terms terms with exponents 0..6; zero coefficients are drawn
    too, and dropped, so the term order is that of the draw."""
    small = st.integers(-3, 3)
    raw = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.lists(st.integers(0, 6), min_size=arity, max_size=arity)))
        num, den, w_part = draw(small), draw(st.integers(1, 3)), draw(small)
        if field.kind == CYCLOTOMIC_KIND:
            raw[exps] = field.omega_element(Fraction(num, den), w_part)
        else:
            raw[exps] = field.from_fraction(Fraction(num, den))
    return {e: c for e, c in raw.items() if not c.is_zero()}


polynomial_rings = st.tuples(st.sampled_from(DIFFERENTIAL_FIELDS), st.integers(1, 6))


def reference_simplex_error(n: int, edge: float, vertices: np.ndarray, rel_tol: float) -> Optional[str]:
    """The message RegularSimplex raises for these vertices, or None if it
    accepts them: each pair's distance by its own norm, in row-major order,
    then the rank of the edge vectors at vertex 0."""
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            d = float(np.linalg.norm(vertices[j] - vertices[i]))
            if abs(d - edge) > rel_tol * edge:
                return f"vertices {i}, {j} are {d} apart, not {edge}"
    if np.linalg.matrix_rank(vertices[1:] - vertices[0], tol=1e-9 * edge) != n:
        return "vertices do not span an n-dimensional affine hull"
    return None


def _reference_realize_in_plane(side: float, d1: float, d2: float, d3: float) -> Optional[np.ndarray]:
    if side <= 0:
        return None
    cx, cy = side / 2.0, side * math.sqrt(3.0) / 2.0
    x = (d1 * d1 - d2 * d2 + side * side) / (2.0 * side)
    y_sq = d1 * d1 - x * x
    if y_sq < -1e-6 * max(d1 * d1, 1.0):
        return None
    y = math.sqrt(max(y_sq, 0.0))
    scale = max(side, d1, d2, d3, 1.0)
    for point in (np.array([x, y]), np.array([x, -y])):
        d = math.hypot(point[0] - cx, point[1] - cy)
        if abs(d - d3) <= 1e-6 * scale:
            return point
    return None


def reference_realizability_report(sol) -> Dict[str, object]:
    """diophantine.realizability_report with one numpy point per candidate."""
    realizable = []
    residuals = []
    for i, side in enumerate(sol.values):
        rest = [v for k, v in enumerate(sol.values) if k != i]
        residuals.append(quadruple_residual(float(side), [float(v) for v in rest]))
        if side > 0 and _reference_realize_in_plane(float(side), *[float(v) for v in rest]) is not None:
            realizable.append(i)
    return {
        "values": list(sol.values),
        "primitive": sol.primitive,
        "side_positions_realizable": realizable,
        "relation_residuals": residuals,
    }
