"""Shared helpers: deterministic random generators for field and ring values,
and plain reference implementations that tests compare the library against."""

from fractions import Fraction
from random import Random
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np
import pytest

from simplexpoly.field import (
    CYCLOTOMIC,
    PRIME_KIND,
    RATIONAL,
    RATIONAL_KIND,
    FieldElement,
    FieldSpec,
    prime_field,
)
from simplexpoly.poly import Polynomial, _accumulate

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
        _accumulate(acc, term.terms.items())
    return Polynomial(p.field, target_arity, acc)


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
