"""Shared helpers: deterministic random generators for field and ring values."""

from fractions import Fraction
from random import Random

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
from simplexpoly.poly import Polynomial

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
