import hashlib
from fractions import Fraction
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, strategies as st

from simplexpoly import family
from simplexpoly.field import CYCLOTOMIC, RATIONAL, FieldElement, prime_field
from simplexpoly.poly import Polynomial, _key, _packed, poly_to_text
from simplexpoly.family import (
    CayleyMengerRing,
    GParams,
    InternalCheckError,
    SubstitutionRule,
    build_f,
    build_g,
    cayley_menger,
    prekite_reduction,
    special_family_substitution,
)

from conftest import evaluate, random_element, reference_bordered_determinant, substitute

Q = RATIONAL


def variables(field, arity):
    return [Polynomial.variable(field, arity, i) for i in range(arity)]


class TestBuildG:
    def test_heron_instance(self):
        x, y, z = variables(Q, 3)
        heron = (x + y + z) * (-x + y + z) * (x - y + z) * (x + y - z)
        assert build_g(GParams.of(Q, 3, 0, 2)) == heron

    def test_t_zero_collapses_to_square(self):
        x, y, z = variables(Q, 3)
        q = Polynomial.constant(Q, 3, 1) + x**2 + y**2 + z**2
        assert build_g(GParams.of(Q, 3, 1, 0)) == q * q

    def test_m4_t3_coefficients(self):
        g = build_g(GParams.of(Q, 4, 0, 3))
        assert g.coefficient((4, 0, 0, 0)).value == Fraction(-2)
        assert g.coefficient((2, 2, 0, 0)).value == Fraction(2)

    def test_m_below_three_rejected(self):
        with pytest.raises(ValueError):
            GParams.of(Q, 2, 0, 2)

    def test_parameters_must_match_field(self):
        with pytest.raises(ValueError):
            GParams(Q, 3, prime_field(5).one(), Q.one())

    def test_leading_component_forgets_offset(self):
        # the top-degree part of the a != 0 member is the a = 0 member
        rng = Random(2)
        for m in (3, 4):
            for _ in range(10):
                a = random_element(Q, rng)
                t = random_element(Q, rng)
                g = build_g(GParams(Q, m, a, t))
                if g.is_zero():
                    continue
                assert g.leading_homogeneous_component() == build_g(
                    GParams(Q, m, Q.zero(), t)
                )


def count_calls(monkeypatch, cls, name):
    """Record the second argument of every call of cls.name from now on."""
    calls = []
    method = getattr(cls, name)

    def counted(self, other):
        calls.append(other)
        return method(self, other)

    monkeypatch.setattr(cls, name, counted)
    return calls


def expanded_g(params):
    """g through the general product, as (a^2 + sum x_i^2)^2 - t (a^4 + sum x_i^4)."""
    ones = [1] * params.m
    squares = Polynomial.diagonal(params.field, params.a**2, ones, 2)
    fourths = Polynomial.diagonal(params.field, params.a**4, ones, 4)
    return squares * squares - fourths.scale(params.t)


class TestBuildGClosedForm:
    @pytest.mark.parametrize(
        "field", [prime_field(3), prime_field(5), prime_field(101), Q, CYCLOTOMIC], ids=repr
    )
    def test_matches_general_expansion(self, field):
        other_t = [Fraction(7, 2)]
        if field == CYCLOTOMIC:
            other_t.append(CYCLOTOMIC.omega_element(Fraction(1, 2), Fraction(-3)))
        for m in range(3, 9):
            for t in [0, 1, 2, 3] + other_t:
                for a in (0, 2, Fraction(-1, 2)):
                    params = GParams.of(field, m, a, t)
                    g, expected = build_g(params), expanded_g(params)
                    assert g == expected, (m, a, t)
                    # the same term order too, so nothing that walks the terms changes
                    assert list(g.terms) == list(expected.terms), (m, a, t)

    def test_makes_no_polynomial_product(self, monkeypatch):
        calls = count_calls(monkeypatch, Polynomial, "__mul__")
        for m in (3, 10, 40):
            build_g(GParams.of(Q, m, 1, 5))
            build_f(Q, m, 2)
        assert calls == []

    @pytest.mark.parametrize("field", [prime_field(101), Q, CYCLOTOMIC], ids=repr)
    def test_field_products_do_not_grow_with_m(self, monkeypatch, field):
        counts = []
        for m in (3, 10, 40, 117):
            params = GParams.of(field, m, 2, 5)
            calls = count_calls(monkeypatch, FieldElement, "__mul__")
            build_g(params)
            monkeypatch.undo()
            counts.append(len(calls))
        assert counts == [counts[0]] * 4
        assert counts[0] <= 8


# sha256 of poly_to_text(cayley_menger(n, field)), recorded before the
# determinant expansion was rewritten to accumulate each minor in one map
CM_TEXT_SHA256 = {
    ("Q", 2): "cbf0626274b9ff5888f7a6af864c2a2f4cf19dd828195983f10411da62129bc3",
    ("Q", 3): "ea3a8f75c837560effaccd628242cd69aefcf31ebf3b5dd7e6faca5c0e58a181",
    ("Q", 4): "5cf4f1160b4e826a98f0c0989673aa7604e6501679729c27c51d711682b2272f",
    ("Q", 5): "833bfc0d9a69bd822f3ba12a4b5b1ebe21d7f7cad287c12ad0de90add9974b35",
    ("Q", 6): "4907cc7aa24f0a6115c694ba1859c0dfd944c0365d677473fed96bcef75a864d",
    ("F7", 2): "18255495141650e830d0cf21dfa04e3e04dc1c0251d1d9ee182d84203c407c42",
    ("F7", 3): "394ce1fe929e4d241f79ffd34ea31c3fcacf57571b88dcbf86474f58c18c2836",
    ("F7", 4): "55de512df7429a37642ad7fd64403b93204a8e05175d1b42eef350a099bfa7dd",
    ("F7", 5): "c1eae075f71f2bbf2af5796ce179ab55d178113cc94e99c2ddb93dc773ea0021",
    ("F7", 6): "206974d6d785971e2c69fe6206b24c09b4281c86683a10bdef6c05a912864e06",
}


class TestCayleyMenger:
    @pytest.mark.parametrize("key", sorted(CM_TEXT_SHA256), ids=lambda k: f"{k[0]}-n{k[1]}")
    def test_text_pinned(self, key):
        field = Q if key[0] == "Q" else prime_field(7)
        text = poly_to_text(cayley_menger(key[1], field))
        assert hashlib.sha256(text.encode()).hexdigest() == CM_TEXT_SHA256[key]

    def test_no_field_products(self, monkeypatch):
        # every entry of the bordered matrix is 1 or a monomial with
        # coefficient 1, so the expansion only adds and negates (38,547
        # products when each product went through the general loop)
        calls = count_calls(monkeypatch, FieldElement, "__mul__")
        cayley_menger(6, Q)
        assert calls == []

    def test_n2_is_negated_heron(self):
        ring = CayleyMengerRing(2)
        z = Polynomial.variable(Q, 3, ring.position(1, 2))
        y = Polynomial.variable(Q, 3, ring.position(1, 3))
        x = Polynomial.variable(Q, 3, ring.position(2, 3))
        expected = -((x + y + z) * (-x + y + z) * (x - y + z) * (x + y - z))
        assert cayley_menger(2) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_all_ones_evaluation(self, n):
        ring = CayleyMengerRing(n)
        value = evaluate(cayley_menger(n), [Q.one()] * ring.arity)
        assert value == Q.from_int((-1) ** (n - 1) * (n + 1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_homogeneous_of_degree_2n(self, n):
        assert cayley_menger(n).is_homogeneous() == (True, 2 * n)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cayley_menger(1)
        with pytest.raises(ValueError):
            cayley_menger(7)

    def test_vertex_relabeling_invariance(self):
        # any permutation of vertex labels permutes edge variables and fixes M
        for n in (2, 3):
            ring = CayleyMengerRing(n)
            m = cayley_menger(n)
            for sigma in permutations(range(1, n + 2)):
                perm = [0] * ring.arity
                for i, j in ring.pairs():
                    perm[ring.position(i, j)] = ring.position(sigma[i - 1], sigma[j - 1])
                assert m.permute_variables(perm) == m

    def test_scaling_at_random_points(self):
        f13 = prime_field(13)
        rng = Random(9)
        for n in (2, 3):
            ring = CayleyMengerRing(n)
            m = cayley_menger(n, f13)
            for _ in range(100):
                point = [random_element(f13, rng) for _ in range(ring.arity)]
                lam = random_element(f13, rng)
                scaled = evaluate(m, [lam * x for x in point])
                assert scaled == lam ** (2 * n) * evaluate(m, point)

    def test_position_indexing(self):
        ring = CayleyMengerRing(3)
        assert ring.position(1, 2) == 0
        assert ring.position(2, 1) == 0  # symmetric convention
        assert ring.position(3, 4) == ring.arity - 1
        with pytest.raises(ValueError):
            ring.position(1, 1)

    def test_over_prime_field(self):
        f5 = prime_field(5)
        m = cayley_menger(3, f5)
        assert m.field == f5
        assert evaluate(m, [f5.one()] * 6) == f5.from_int(4)


class TestPrekite:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_identity_holds(self, n):
        m_star, h = prekite_reduction(n)
        x = Polynomial.variable(Q, n + 1, 0)
        assert m_star == ((-(x**2)) ** (n - 2)) * h

    def test_core_is_negated_family_member(self):
        # H for n = 3 equals minus the homogeneous quartic with t = 3 in 4 variables
        _, h = prekite_reduction(3)
        assert h == -build_f(Q, 4, 3)
        x, *ys = [Polynomial.variable(Q, 4, i) for i in range(4)]
        squares = x**2 + sum((y**2 for y in ys), Polynomial.zero(Q, 4))
        fourths = x**4 + sum((y**4 for y in ys), Polynomial.zero(Q, 4))
        assert h == fourths.scale(3) - squares**2

    def test_division_recovers_core(self):
        m_star, h = prekite_reduction(4)
        x = Polynomial.variable(Q, 5, 0)
        assert m_star.exact_divide((-(x**2)) ** 2) == h

    def test_requires_n_at_least_three(self):
        with pytest.raises(ValueError):
            prekite_reduction(2)

    def test_over_prime_field(self):
        m_star, h = prekite_reduction(3, prime_field(7))
        assert m_star.field == prime_field(7)

    def test_failed_identity_is_internal_error(self, monkeypatch):
        monkeypatch.setattr(family, "build_f", lambda field, m, t: build_f(field, m, t + 1))
        with pytest.raises(InternalCheckError):
            prekite_reduction(3)


class TestSpecialSubstitution:
    def test_product_rule_degree(self):
        p = special_family_substitution(2, SubstitutionRule.PRODUCT)
        assert p.arity == 3
        assert p.degree() == 4

    def test_sum_squared_matches_numeric_evaluation(self):
        # at all vertex variables 1 the rule (x_i + x_j)^2 gives every edge value 2
        p = special_family_substitution(2, SubstitutionRule.SUM_SQUARED)
        m = cayley_menger(2)
        assert evaluate(p, [Q.one()] * 3) == evaluate(m, [Q.from_int(2)] * 3)

    @pytest.mark.parametrize("rule", list(SubstitutionRule))
    def test_zero_vertices_match_zero_edges(self, rule):
        p = special_family_substitution(2, rule)
        zeros = {i: Polynomial.zero(Q, 3) for i in range(3)}
        m0 = substitute(cayley_menger(2), zeros)
        assert substitute(p, zeros) == m0

    def test_sum_rule_halves_degree(self):
        p = special_family_substitution(2, SubstitutionRule.SUM)
        assert p.degree() == 2

    def test_dimension_out_of_range(self):
        for n in (1, 7):
            with pytest.raises(ValueError):
                special_family_substitution(n, SubstitutionRule.SUM)
        with pytest.raises(ValueError):
            prekite_reduction(7)

    def test_rule_must_be_a_substitution_rule(self):
        with pytest.raises(ValueError):
            special_family_substitution(3, "sum")


RULE_IMAGES = {
    SubstitutionRule.SUM: lambda xi, xj: xi + xj,
    SubstitutionRule.PRODUCT: lambda xi, xj: xi * xj,
    SubstitutionRule.SUM_SQUARED: lambda xi, xj: (xi + xj) ** 2,
    SubstitutionRule.MIXED_QUADRATIC: lambda xi, xj: xi**2 + xi * xj + xj**2,
}


@pytest.mark.parametrize("field", [Q, CYCLOTOMIC, prime_field(13)], ids=repr)
class TestSubstitutedDeterminant:
    """Each family equals the expanded Cayley-Menger determinant, then substituted."""

    def test_special_families(self, field):
        for n in (2, 3, 4):
            ring = CayleyMengerRing(n)
            m = cayley_menger(n, field)
            assert all(e % 2 == 0 for exps in m.terms for e in exps)
            halved = Polynomial.from_terms(
                field, ring.arity, {tuple(e // 2 for e in exps): c for exps, c in m.terms.items()}
            )
            xs = variables(field, n + 1)
            for rule, image in RULE_IMAGES.items():
                images = {
                    ring.position(i, j): image(xs[i - 1], xs[j - 1]) for i, j in ring.pairs()
                }
                expected = substitute(halved, images, n + 1)
                assert special_family_substitution(n, rule, field) == expected, (n, rule)

    def test_prekite(self, field):
        for n in (3, 4):
            ring = CayleyMengerRing(n)
            x, *ys = variables(field, n + 1)
            images = {
                ring.position(i, j): x if j <= n else ys[i - 1] for i, j in ring.pairs()
            }
            m_star, _ = prekite_reduction(n, field)
            assert m_star == substitute(cayley_menger(n, field), images, n + 1), n


KERNEL_FIELDS = [Q, CYCLOTOMIC, prime_field(3), prime_field(5), prime_field(7), prime_field(101)]


def reference_families(field, n):
    """(name, determinant, edge images as Polynomials) for every family at n."""
    ring = CayleyMengerRing(n)
    edges = {(i, j): Polynomial.variable(field, ring.arity, ring.position(i, j)) ** 2
             for i, j in ring.pairs()}
    yield "cayley-menger", lambda: cayley_menger(n, field), ring.arity, edges
    xs = variables(field, n + 1)
    if n >= 3:
        kite = {(i, j): xs[0 if j <= n else i] ** 2 for i, j in ring.pairs()}
        yield "prekite", lambda: prekite_reduction(n, field)[0], n + 1, kite
    for rule, image in RULE_IMAGES.items():
        edges = {(i, j): image(xs[i - 1], xs[j - 1]) for i, j in ring.pairs()}
        yield rule.value, lambda: special_family_substitution(n, rule, field), n + 1, edges


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_kernel_matches_reference_expansion(field, n):
    """The packed integer expansion equals a cofactor expansion in field arithmetic."""
    for name, build, arity, edges in reference_families(field, n):
        expected = reference_bordered_determinant(field, arity, n, lambda i, j: edges[i, j])
        assert build().terms == expected.terms, (name, n)


def test_kernel_drops_coefficients_that_vanish_in_the_field():
    # over Z these determinants have coefficients divisible by 3
    f3 = prime_field(3)
    assert special_family_substitution(4, SubstitutionRule.MIXED_QUADRATIC, f3).is_zero()
    assert not special_family_substitution(4, SubstitutionRule.MIXED_QUADRATIC, Q).is_zero()
    for build in (
        lambda f: special_family_substitution(4, SubstitutionRule.PRODUCT, f),
        lambda f: prekite_reduction(4, f)[0],
    ):
        assert (len(build(Q).terms), len(build(f3).terms)) == (15, 10)


def test_kernel_refuses_exponents_past_one_byte():
    # a minor multiplies up to n+1 entries: (2+1) * 85 = 255 still fits a
    # byte; past it x1's exponent would carry into x2's byte unnoticed
    x = Polynomial.variable(Q, 2, 0)
    for degree in (1, 85):
        got = family._bordered_determinant(Q, 2, 2, lambda i, j: [(1, {0: degree})])
        assert got == reference_bordered_determinant(Q, 2, 2, lambda i, j: x**degree)
    for degree in (86, 200):
        with pytest.raises(ValueError, match="overflow"):
            family._bordered_determinant(Q, 2, 2, lambda i, j: [(1, {0: degree})])


@pytest.mark.parametrize("field", [Q, CYCLOTOMIC, prime_field(3), prime_field(101)], ids=repr)
def test_kernel_store_is_built_descending(field):
    # so the sorts of poly_to_text and terms_descending each find one run
    for n in range(2, 7):
        for name, build, _, _ in reference_families(field, n):
            store = list(build()._store)
            assert store == sorted(store, reverse=True), (name, n)


@st.composite
def packable_pairs(draw):
    """Two exponent tuples in one arity, each of total degree at most 255;
    half the time the second permutes the first."""
    arity = draw(st.integers(1, 21))

    def exponents():
        exps, left = [], 255
        for _ in range(arity):
            exps.append(draw(st.integers(0, left)))
            left -= exps[-1]
        return draw(st.permutations(exps))

    a = tuple(exponents())
    return a, tuple(draw(st.permutations(a)) if draw(st.booleans()) else exponents())


@given(packable_pairs())
def test_packed_order_is_key_order(pair):
    a, b = pair
    arity = len(a)
    pa, pb = (_packed(arity, dict(enumerate(e))) for e in pair)
    assert (pa < pb) == (_key(a) < _key(b))
    assert (pa == pb) == (a == b)
    assert list(Polynomial.from_packed(Q, arity, {pa: 1})._store) == [_key(a)]
