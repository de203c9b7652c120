"""The dense F_q core and the factor-degree sieve built on it."""

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
    rng, F = Random(p), U.field(p)
    for _ in range(50):
        a, b = _random_poly(rng, p, rng.randrange(8)), _random_poly(rng, p, rng.randrange(1, 6))
        quot, rem = F.divide(a, b)
        assert len(rem) < len(b)
        total = F.mul(quot, b) + [0] * len(a)
        for i, c in enumerate(rem):
            total[i] += c
        assert U.trim([c % p for c in total]) == a
        g = F.gcd(F.mul(a, b), b)
        assert g == F.monic(b)
        e, f = rng.randrange(40), _random_poly(rng, p, rng.randrange(1, 5))
        power = [1]
        for _ in range(e):
            power = F.divide(F.mul(power, a), f)[1]
        assert F.pow_mod(a, e, f) == F.divide(power, f)[1]


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # raised inside sympy
@pytest.mark.parametrize("p", PRIMES)
def test_factor_degrees_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    y = sympy.symbols("y")
    rng, checked, F = Random(100 + p), 0, U.field(p)
    while checked < 40:
        f = _random_poly(rng, p, rng.randrange(1, 13))
        poly = sympy.Poly(list(reversed(f)), y, modulus=p)
        if not F.is_squarefree(f):
            assert sympy.gcd(poly, poly.diff(y)).degree() > 0
            continue
        _, factors = sympy.factor_list(poly)
        assert F.factor_degrees(f) == sorted(g.degree() for g, _ in factors)
        assert all(e == 1 for _, e in factors)
        checked += 1


F27 = U.field(27)


def _f27_mul_reference(a, b):
    """a b in F_3[z]/(modulus), on base-3 digits."""
    product = [0] * 5
    for i in range(3):
        for j in range(3):
            product[i + j] += a // 3**i % 3 * (b // 3**j % 3)
    for top in (4, 3):
        c = product[top]
        for j, m in enumerate(F27.modulus):
            product[top - 3 + j] -= c * m
    return sum(c % 3 * 3**i for i, c in enumerate(product[:3]))


def _f27_value(f, x):
    """f(x) by Horner's rule on the field's tables."""
    value = 0
    for c in reversed(f):
        value = F27.add_table[F27.mul_table[value][x]][c]
    return value


def test_f27_modulus_is_the_first_irreducible_cubic():
    # a cubic over F_3 is irreducible iff it has no root in F_3
    def has_root(tail):
        return any((x**3 + sum(c * x**i for i, c in enumerate(tail))) % 3 == 0 for x in range(3))

    tails = [[index // 3**i % 3 for i in range(3)] for index in range(27)]
    first = next(tail for tail in tails if not has_root(tail))
    assert F27.modulus == first + [1]
    assert (F27.p, F27.k, F27.order) == (3, 3, 27)


def test_f27_field_axioms():
    add, mul, neg, inv = F27.add_table, F27.mul_table, F27.neg_table, F27.inv_table
    for a in range(27):
        assert add[a][neg[a]] == 0 and add[a][0] == a and mul[a][1] == a
        # digit by digit mod 3, and the product of digit polynomials mod the modulus
        assert all(add[a][b] == sum((a // 3**i + b // 3**i) % 3 * 3**i for i in range(3)) for b in range(27))
        assert all(mul[a][b] == _f27_mul_reference(a, b) for b in range(27))
        if a:
            assert mul[a][inv[a]] == 1
    rng = Random(27)
    for _ in range(500):
        a, b, c = (rng.randrange(27) for _ in range(3))
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]] and mul[a][b] == mul[b][a]
        assert add[add[a][b]][c] == add[a][add[b][c]]


def test_only_prime_powers_are_fields():
    assert U.field(7).order == 7 and U.field(9).order == 9
    with pytest.raises(ValueError, match="no field has 12 elements"):
        U.field(12)


def test_factor_degrees_over_f27_match_the_factors_multiplied():
    # quadratics and cubics with no root in F_27 are irreducible there
    rng, checked = Random(2727), 0
    while checked < 60:
        factors, degree = [], 0
        while degree < rng.randrange(2, 13):
            d = rng.choice((1, 1, 2, 3))
            f = [rng.randrange(27) for _ in range(d)] + [1]
            if degree + d > 12 or f in factors:
                continue
            if d > 1 and any(_f27_value(f, x) == 0 for x in range(27)):
                continue
            factors.append(f)
            degree += d
        product = [rng.randrange(1, 27)]
        for f in factors:
            product = F27.mul(product, f)
        assert len(product) == degree + 1
        assert F27.is_squarefree(product)
        assert F27.factor_degrees(product) == sorted(len(f) - 1 for f in factors)
        assert not F27.is_squarefree(F27.mul(product, factors[0]))
        checked += 1


def test_f27_arithmetic_identities():
    rng = Random(31)
    for _ in range(50):
        a = [rng.randrange(27) for _ in range(rng.randrange(8))] + [rng.randrange(1, 27)]
        b = [rng.randrange(27) for _ in range(rng.randrange(1, 6))] + [rng.randrange(1, 27)]
        quot, rem = F27.divide(a, b)
        assert len(rem) < len(b)
        total = F27.mul(quot, b) + [0] * len(a)
        for i, c in enumerate(rem):
            total[i] = F27.add_table[total[i]][c]
        assert U.trim(total) == a
        assert F27.gcd(F27.mul(a, b), b) == F27.monic(b)
        x = rng.randrange(27)
        assert _f27_value(F27.mul(a, b), x) == F27.mul_table[_f27_value(a, x)][_f27_value(b, x)]


def test_squarefree_test_sees_repeated_factors():
    F = U.field(7)
    f = F.mul([1, 1], [3, 0, 1])  # (y + 1)(y^2 + 3)
    assert F.is_squarefree(f)
    assert not F.is_squarefree(F.mul(f, [1, 1]))
    assert not F.is_squarefree([1] + [0] * 6 + [1])  # y^7 + 1 = (y + 1)^7


@pytest.mark.parametrize("q", (3,) + PRIMES)
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


def test_sieve_runs_up_to_its_degree_bound():
    # a univariate input keeps its factor degrees on every line: the
    # irreducible x^4 + x + 2 over F_3 stays irreducible over F_27, since 4
    # and 3 are coprime, so both degrees close; x^2 + 2 is irreducible over
    # F_5, since -2 is no square there
    quartic = parse_polynomial("x^4+x+2", prime_field(3), 1, ["x"])
    assert oracle._open_degrees(quartic, 2, inf) == set()
    quadratic = parse_polynomial("x^2+2", prime_field(5), 1, ["x"])
    assert oracle._open_degrees(quadratic, 1, inf) == set()
    # a power past the bound is left alone, whatever its factors
    high = quadratic ** (oracle._SIEVE_MAX_DEGREE // 2 + 1)
    assert oracle._open_degrees(high, 3, inf) == {1, 2, 3}
