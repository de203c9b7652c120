"""Acceptance suite: one test per criterion, each printing its own pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines; a
failed assertion turns the criterion's line into a pytest failure.
"""

import math
from fractions import Fraction
from itertools import product
from random import Random

from simplexpoly.field import (
    CYCLOTOMIC,
    RATIONAL,
    prime_field,
    primitive_cube_root,
)
from simplexpoly.poly import Polynomial
from simplexpoly.family import (
    CayleyMengerRing,
    GParams,
    build_f,
    cayley_menger,
    prekite_reduction,
)
from simplexpoly.classify import (
    FactorizationCertificate,
    Irreducible,
    classify_diagonal_quadratic,
    classify_g,
    verify_certificate,
)
from simplexpoly import discriminant_check
from simplexpoly.oracle import (
    FactorFound,
    NoFactorFound,
    SearchBudget,
    brute_force_factor_search,
)
from simplexpoly.geometry import (
    random_affine_weights,
    regular_simplex,
    relation_residual,
    solve_fourth_distance,
)
from simplexpoly.diophantine import enumerate_solutions, is_solution

from conftest import evaluate

Q = RATIONAL


def _passed(n: int, message: str) -> None:
    print(f"\nACCEPTANCE CRITERION {n}: PASS - {message}", flush=True)


def _variables(field, arity):
    return [Polynomial.variable(field, arity, i) for i in range(arity)]


def test_criterion_1_identity_suite():
    # four-linear-factor identity
    x, y, z = _variables(Q, 3)
    heron = (x + y + z) * (-x + y + z) * (x - y + z) * (x + y - z)
    assert build_f(Q, 3, 2) == heron

    # conjugate quadratic identity over Q(w) and over F_7 with root 2
    for field in (CYCLOTOMIC, prime_field(7)):
        omega = primitive_cube_root(field)
        if field == prime_field(7):
            assert omega.value == 2
        xs = _variables(field, 3)
        f1 = xs[0] ** 2 + (xs[1] ** 2).scale(omega) + (xs[2] ** 2).scale(omega**2)
        f2 = xs[0] ** 2 + (xs[1] ** 2).scale(omega**2) + (xs[2] ** 2).scale(omega)
        assert (f1 * f2).scale(-2) == build_f(field, 3, 3)

    # closed form of the two-variable symmetric reduction
    for m, t in [(3, 3), (4, 5), (5, 7)]:
        tt = Q.from_int(t)
        f = build_f(Q, m, t)
        reduced = f.symmetric_reduce(m - 2, m - 1)
        u = Polynomial.variable(Q, m, m - 2)
        v = Polynomial.variable(Q, m, m - 1)
        s2 = Polynomial.zero(Q, m)
        s4 = Polynomial.zero(Q, m)
        for i in range(m - 2):
            xi = Polynomial.variable(Q, m, i)
            s2 = s2 + xi**2
            s4 = s4 + xi**4
        expected = (
            (v**2).scale(Q.from_int(4) - tt * 2)
            - ((u**2).scale(Q.one() - tt) + s2) * v * 4
            + s2**2
            + (u**4).scale(Q.one() - tt)
            + s2 * u**2 * 2
            - s4.scale(tt)
        )
        assert reduced == expected

    # closed form of its discriminant in v
    for field, m, t in [(Q, 3, 3), (Q, 4, 5), (prime_field(7), 3, 4)]:
        assert discriminant_check(field, m, t)

    # planar Cayley-Menger factorization
    ring = CayleyMengerRing(2)
    zz = Polynomial.variable(Q, 3, ring.position(1, 2))
    yy = Polynomial.variable(Q, 3, ring.position(1, 3))
    xx = Polynomial.variable(Q, 3, ring.position(2, 3))
    assert cayley_menger(2) == -(
        (xx + yy + zz) * (-xx + yy + zz) * (xx - yy + zz) * (xx + yy - zz)
    )

    # pre-kite collapse for n = 3, 4, 5
    for n in (3, 4, 5):
        m_star, h = prekite_reduction(n)
        top = Polynomial.variable(Q, n + 1, 0)
        assert m_star == ((-(top**2)) ** (n - 2)) * h

    _passed(1, "all exact identities hold with zero tolerance")


def test_criterion_2_cayley_menger_invariants():
    for n in range(2, 6):
        m = cayley_menger(n)
        assert m.is_homogeneous() == (True, 2 * n)
        ones = [Q.one()] * CayleyMengerRing(n).arity
        assert evaluate(m, ones) == Q.from_int((-1) ** (n - 1) * (n + 1))
    _passed(2, "determinants are homogeneous of degree 2n with all-ones value (-1)^(n-1)(n+1), n = 2..5")


def test_criterion_3_differential_classification():
    checked = 0
    # small fields: full candidate space, both offsets
    for q in (3, 5):
        field = prime_field(q)
        for a, t in product((0, 1), range(q)):
            verdict = classify_g(GParams.of(field, 3, a, t))
            outcome = brute_force_factor_search(verdict.input)
            assert isinstance(outcome, (FactorFound, NoFactorFound)), (q, a, t)
            reducible = isinstance(verdict, FactorizationCertificate)
            assert isinstance(outcome, FactorFound) == reducible, (q, a, t)
            if reducible:
                assert outcome.factor * outcome.quotient == verdict.input
            checked += 1
    # larger fields: homogeneous fast path, a = 0
    for q in (7, 13):
        field = prime_field(q)
        for t in range(q):
            verdict = classify_g(GParams.of(field, 3, 0, t))
            outcome = brute_force_factor_search(
                verdict.input, SearchBudget(homogeneous_only=True)
            )
            reducible = isinstance(verdict, FactorizationCertificate)
            assert isinstance(outcome, FactorFound) == reducible, (q, t)
            if reducible:
                assert outcome.factor * outcome.quotient == verdict.input
            omega_fired = reducible and verdict.rule.tag == "OmegaCase"
            assert omega_fired == (t == 3 and q % 3 == 1), (q, t)
            checked += 1
    # every t: m = 4 with a = 0 (the homogeneous search space) and a = 1,
    # and m = 3, a = 1 over the larger fields, all with the full search
    rows = [(q, 4, a) for a in (0, 1) for q in (3, 5, 7)] + [(7, 3, 1), (13, 3, 1)]
    for q, m, a in rows:
        field = prime_field(q)
        for t in range(q):
            verdict = classify_g(GParams.of(field, m, a, t))
            outcome = brute_force_factor_search(verdict.input)
            assert isinstance(outcome, (FactorFound, NoFactorFound)), (q, m, a, t)
            reducible = isinstance(verdict, FactorizationCertificate)
            assert isinstance(outcome, FactorFound) == reducible, (q, m, a, t)
            if reducible:
                assert outcome.factor * outcome.quotient == verdict.input
            checked += 1
    _passed(3, f"classifier and exhaustive search agree on all {checked} inputs")


def test_criterion_4_diagonal_quadratic_suite():
    rng = Random(41)
    agreements = 0
    for q in (3, 5):
        field = prime_field(q)
        nonzero = list(range(1, q))
        # m = 1 and m = 2: every coefficient tuple with nonzero square terms
        for m in (1, 2):
            for coeffs in product(range(q), *([nonzero] * m)):
                verdict = classify_diagonal_quadratic(field, list(coeffs))
                outcome = brute_force_factor_search(verdict.input)
                assert isinstance(outcome, FactorFound) == isinstance(
                    verdict, FactorizationCertificate
                ), (q, coeffs)
                agreements += 1
        # m = 3: 500 random tuples
        for _ in range(500):
            coeffs = [rng.randrange(q)] + [rng.choice(nonzero) for _ in range(3)]
            verdict = classify_diagonal_quadratic(field, coeffs)
            outcome = brute_force_factor_search(verdict.input)
            assert isinstance(outcome, FactorFound) == isinstance(
                verdict, FactorizationCertificate
            ), (q, coeffs)
            agreements += 1
    _passed(4, f"diagonal quadratic classification matches brute force on {agreements} inputs")


def test_criterion_5_geometry():
    for n in range(2, 6):
        simplex = regular_simplex(n, 1.0)
        rng = Random(100 + n)
        worst = max(
            abs(relation_residual(simplex, random_affine_weights(n, rng)).residual)
            for _ in range(1000)
        )
        assert worst < 1e-9, (n, worst)
    roots = solve_fourth_distance([3.0, 4.0, 5.0])
    assert any(abs(r - math.sqrt(25 + 12 * math.sqrt(3))) < 1e-9 for r in roots)
    assert any(abs(r - 6.766432567) < 1e-8 for r in roots)
    roots = solve_fourth_distance([5.0, 7.0, 8.0])
    assert any(abs(r - 3.0) < 1e-9 for r in roots)
    _passed(5, "relation residuals below 1e-9 on 4000 affine points; puzzle roots reproduced")


def test_criterion_6_diophantine():
    sols20 = enumerate_solutions(20)
    values20 = [s.values for s in sols20]
    assert (0, 1, 1, 1) in values20
    assert (3, 5, 7, 8) in values20
    assert (6, 10, 14, 16) in values20
    for s in sols20:
        assert is_solution(*s.values)
    values10 = {s.values for s in enumerate_solutions(10)}
    assert values10 <= set(values20)
    # exactness against an independent quadruple-loop enumeration
    expected = [
        (w, x, y, z)
        for w in range(21)
        for x in range(w, 21)
        for y in range(x, 21)
        for z in range(y, 21)
        if (w, x, y, z) != (0, 0, 0, 0) and is_solution(w, x, y, z)
    ]
    assert values20 == expected
    _passed(
        6,
        f"{len(values20)} solutions up to 20 match the quadruple-loop oracle "
        "(note the primitive (7, 8, 13, 15) beyond the named classes)",
    )


def test_criterion_7_certificate_soundness_fuzz():
    rng = Random(2024)
    fields = [Q, prime_field(3), prime_field(5), prime_field(7), prime_field(13), CYCLOTOMIC]
    verdicts = 0
    certificates = 0
    for _ in range(1000):
        field = fields[rng.randrange(len(fields))]
        m = rng.randint(3, 5)
        if field.kind == "rational":
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            t = Fraction(rng.randint(-6, 9), rng.randint(1, 4))
        else:
            a = rng.randint(-6, 6)
            t = rng.randint(-6, 9)
        verdict = classify_g(GParams.of(field, m, a, t))
        verdicts += 1
        assert verdict is not None
        if isinstance(verdict, FactorizationCertificate):
            certificates += 1
            assert verify_certificate(verdict)
        else:
            assert isinstance(verdict, Irreducible)
    assert verdicts == 1000
    _passed(7, f"1000 fuzz inputs produced verdicts; all {certificates} certificates verified")
