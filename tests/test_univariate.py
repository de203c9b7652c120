"""The dense F_p core and the factor-degree sieve built on it."""

from math import inf
from random import Random

import pytest

from simplexpoly import _univariate as U
from simplexpoly import oracle
from simplexpoly.field import prime_field
from simplexpoly.poly import parse_polynomial

from conftest import random_polynomial

PRIMES = (5, 7, 11, 13)


def _random_poly(rng, p, degree):
    return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]


@pytest.mark.parametrize("p", PRIMES)
def test_arithmetic_identities(p):
    rng = Random(p)
    for _ in range(50):
        a, b = _random_poly(rng, p, rng.randrange(8)), _random_poly(rng, p, rng.randrange(1, 6))
        quot, rem = U.divide(a, b, p)
        assert len(rem) < len(b)
        total = U.mul(quot, b, p) + [0] * len(a)
        for i, c in enumerate(rem):
            total[i] += c
        assert U.trim([c % p for c in total]) == a
        g = U.gcd(U.mul(a, b, p), b, p)
        assert g == U.monic(b, p)
        e, f = rng.randrange(40), _random_poly(rng, p, rng.randrange(1, 5))
        power = [1]
        for _ in range(e):
            power = U.divide(U.mul(power, a, p), f, p)[1]
        assert U.pow_mod(a, e, f, p) == U.divide(power, f, p)[1]


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # raised inside sympy
@pytest.mark.parametrize("p", PRIMES)
def test_factor_degrees_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    y = sympy.symbols("y")
    rng, checked = Random(100 + p), 0
    while checked < 40:
        f = _random_poly(rng, p, rng.randrange(1, 13))
        poly = sympy.Poly(list(reversed(f)), y, modulus=p)
        if not U.is_squarefree(f, p):
            assert sympy.gcd(poly, poly.diff(y)).degree() > 0
            continue
        _, factors = sympy.factor_list(poly)
        assert U.factor_degrees(f, p) == sorted(g.degree() for g, _ in factors)
        assert all(e == 1 for _, e in factors)
        checked += 1


def test_squarefree_test_sees_repeated_factors():
    p = 7
    f = U.mul([1, 1], [3, 0, 1], p)  # (y + 1)(y^2 + 3)
    assert U.is_squarefree(f, p)
    assert not U.is_squarefree(U.mul(f, [1, 1], p), p)
    assert not U.is_squarefree([1] + [0] * 6 + [1], p)  # y^7 + 1 = (y + 1)^7


@pytest.mark.parametrize("q", PRIMES)
def test_sieve_never_closes_a_factor_degree(q):
    # A * B with deg A = d has a divisor of degree d, so d stays open
    field, rng, closed = prime_field(q), Random(q), 0
    for _ in range(25):
        arity = rng.choice((2, 3))
        factors = []
        while len(factors) < 2:
            f = random_polynomial(field, arity, rng, max_exp=(3, 2)[arity - 2], nonzero=True)
            if f.degree():
                factors.append(f)
        a, b = factors
        p = a * b
        if p.degree() > oracle._SIEVE_MAX_DEGREE:
            continue
        cap = p.degree() // 2
        opened = oracle._open_degrees(p, cap, inf)
        for d in (a.degree(), b.degree()):
            if d <= cap:
                assert d in opened, (p, d)
        closed += cap - len(opened)
    assert closed  # the sieve did close the degrees no factor has


def test_sieve_runs_for_q_at_least_5_up_to_its_degree_bound():
    # a univariate input keeps its factor degrees on every line, so a sieve
    # over F_3 would close both degrees of the irreducible x^4 + x + 2; x^2 + 2
    # is irreducible over F_5, since -2 is no square there
    quartic = parse_polynomial("x^4+x+2", prime_field(3), 1, ["x"])
    assert oracle._open_degrees(quartic, 2, inf) == {1, 2}
    quadratic = parse_polynomial("x^2+2", prime_field(5), 1, ["x"])
    assert oracle._open_degrees(quadratic, 1, inf) == set()
    # a power past the bound is left alone, whatever its factors
    high = quadratic ** (oracle._SIEVE_MAX_DEGREE // 2 + 1)
    assert oracle._open_degrees(high, 3, inf) == {1, 2, 3}
