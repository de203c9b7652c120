import re
from fractions import Fraction
from operator import add
from random import Random

import pytest
from hypothesis import given, strategies as st

from simplexpoly.field import CYCLOTOMIC, RATIONAL, FieldElement, prime_field
from simplexpoly.poly import (
    Polynomial,
    _exps,
    _key,
    parse_polynomial,
    poly_to_text,
)

from conftest import (
    canonical,
    dense_accumulate,
    dense_divide,
    dense_mul,
    dense_polynomials,
    dense_symmetric_reduce,
    elements,
    evaluate,
    grlex_key,
    polynomial_rings,
    polynomials_with_names,
    random_element,
    random_polynomial,
    reference_poly_to_text,
    substitute,
)

Q = RATIONAL
F5 = prime_field(5)
# malformed polynomial text, and the error it raises
MALFORMED = {
    "": "empty polynomial text",
    "x+": "dangling sign",
    "(x": "unbalanced parentheses",
    "x)": "unbalanced parentheses",
    "x**y": "empty factor in term 'x**y'",
    "x+-y": "dangling sign",
    "-": "dangling sign",
    "-*x": "empty factor in term '*x'",
    "x*": "empty factor in term 'x*'",
    "(1+2))*x": "unbalanced parentheses",
    ")x(": "unbalanced parentheses",
    "x^2+z": "unknown factor 'z': the variables are x, y",
    "w*x": "unknown factor 'w': the variables are x, y",
    "x*nan^2": "unknown factor 'nan^2'",
}


def variables(field, arity):
    return [Polynomial.variable(field, arity, i) for i in range(arity)]


class TestRingOps:
    def test_difference_of_squares(self):
        x, y = variables(Q, 2)
        assert (x + y) * (x - y) == x**2 - y**2

    def test_heron_product(self):
        x, y, z = variables(Q, 3)
        lhs = (x + y + z) * (-x + y + z) * (x - y + z) * (x + y - z)
        rhs = (x**2 + y**2 + z**2) ** 2 - (x**4 + y**4 + z**4).scale(2)
        assert lhs == rhs

    def test_omega_product(self):
        w = CYCLOTOMIC.omega_element(0, 1)
        x, y, z = variables(CYCLOTOMIC, 3)
        f1 = x**2 + (y**2).scale(w) + (z**2).scale(w * w)
        f2 = x**2 + (y**2).scale(w * w) + (z**2).scale(w)
        lhs = (f1 * f2).scale(-2)
        rhs = (x**2 + y**2 + z**2) ** 2 - (x**4 + y**4 + z**4).scale(3)
        assert lhs == rhs

    def test_ring_mismatch(self):
        with pytest.raises(ValueError):
            variables(Q, 2)[0] + variables(Q, 3)[0]
        with pytest.raises(ValueError):
            variables(Q, 2)[0] * variables(F5, 2)[0]

    def test_ring_axioms_random(self, any_field):
        rng = Random(3)
        for _ in range(200):
            p = random_polynomial(any_field, 2, rng)
            q = random_polynomial(any_field, 2, rng)
            r = random_polynomial(any_field, 2, rng)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p + q == q + p

    def test_pow_matches_repeated_mul(self):
        x, y = variables(Q, 2)
        p = x + y.scale(2)
        assert p**0 == Polynomial.constant(Q, 2, 1)
        assert Polynomial.zero(Q, 2) ** 0 == Polynomial.constant(Q, 2, 1)
        expected = p
        for n in range(1, 8):
            assert p**n == expected
            expected = expected * p

    def test_pow_multiplication_count(self, monkeypatch):
        x, y = variables(Q, 2)
        p = x + y.scale(2)
        calls = []
        mul = Polynomial.__mul__

        def counted(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", counted)
        for n, expected in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)]:
            calls.clear()
            p**n
            assert len(calls) == expected, n


    def test_single_term_operand_matches_general_product(self, any_field):
        def general(p, q):
            # the double loop over term pairs, without the single-term path
            terms = dense_accumulate(
                {},
                (
                    (tuple(map(add, e1, e2)), c1 * c2)
                    for e1, c1 in p.terms.items()
                    for e2, c2 in q.terms.items()
                ),
            )
            return Polynomial.from_terms(p.field, p.arity, terms)

        rng = Random(13)
        # 1, -1 and other values (F_3 has none: there 2 = -1)
        coefficients = dict.fromkeys(any_field.from_int(k) for k in (1, -1, 2, 4))
        for c in coefficients:
            for exps in [(0, 0, 0), (1, 0, 0), (0, 2, 3), (4, 1, 1)]:
                monomial = Polynomial.from_terms(any_field, 3, {exps: c})
                for _ in range(10):
                    q = random_polynomial(any_field, 3, rng)
                    expected = general(monomial, q)
                    assert monomial * q == expected
                    assert q * monomial == expected


class TestDiagonal:
    def test_matches_hand_built_sum(self, any_field):
        rng = Random(11)
        for power in (1, 2, 4):
            const = random_element(any_field, rng)
            coeffs = [random_element(any_field, rng) for _ in range(4)]
            expected = Polynomial.constant(any_field, 4, const)
            for i, c in enumerate(coeffs):
                expected = expected + Polynomial.variable(any_field, 4, i, power).scale(c)
            assert Polynomial.diagonal(any_field, const, coeffs, power) == expected

    def test_zero_coefficients_dropped(self, any_field):
        p = Polynomial.diagonal(any_field, 0, [1] * 3 + [0, 0], 2)
        assert p.arity == 5
        assert set(p.terms) == {(2, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 2, 0, 0)}
        assert Polynomial.diagonal(any_field, 0, [0, 0], 4).is_zero()

    def test_power_below_one_rejected(self):
        for power in (0, -1):
            with pytest.raises(ValueError):
                Polynomial.diagonal(Q, 1, [1, 1], power)


class TestStructure:
    def test_leading_homogeneous_simple(self):
        x = Polynomial.variable(Q, 1, 0)
        p = x**2 + x.scale(3) + Polynomial.constant(Q, 1, 1)
        assert p.leading_homogeneous_component() == x**2

    def test_leading_homogeneous_of_zero_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.zero(Q, 2).leading_homogeneous_component()

    def test_leading_component_multiplicative(self):
        # the leading homogeneous component of a product is the product of components
        rng = Random(11)
        checked = 0
        while checked < 200:
            p = random_polynomial(F5, 3, rng, nonzero=True)
            q = random_polynomial(F5, 3, rng, nonzero=True)
            prod = p * q
            if prod.is_zero():
                continue  # cannot happen over a field, guards the invariant
            assert (
                prod.leading_homogeneous_component()
                == p.leading_homogeneous_component() * q.leading_homogeneous_component()
            )
            checked += 1

    def test_is_homogeneous(self):
        x, y = variables(Q, 2)
        assert (x**2 * y + y**3).is_homogeneous() == (True, 3)
        assert (x**2 + x).is_homogeneous() == (False, None)
        assert Polynomial.zero(Q, 2).is_homogeneous() == (True, None)

    @pytest.mark.parametrize("field", [Q, CYCLOTOMIC, F5], ids=repr)
    def test_sparse_terms_rebuild_the_polynomial(self, field):
        rng = Random(29)
        for _ in range(50):
            p = random_polynomial(field, 3, rng)
            raw = {}
            for pairs, payload in p.sparse_terms():
                assert [v for v, _ in pairs] == sorted({v for v, _ in pairs})
                assert all(e > 0 for _, e in pairs)
                exps = [0] * 3
                for v, e in pairs:
                    exps[v] = e
                raw[tuple(exps)] = FieldElement(field, payload)
            assert len(raw) == len(p.terms)
            assert Polynomial.from_terms(field, 3, raw) == p
        assert Polynomial.constant(field, 3, 2).sparse_terms() == [([], field.from_int(2).value)]
        assert Polynomial.zero(field, 3).sparse_terms() == []

    def test_degree_of_zero_is_none(self):
        assert Polynomial.zero(Q, 2).degree() is None

    def test_evaluate(self):
        x, y = variables(Q, 2)
        p = x**2 + y.scale(3)
        assert evaluate(p, [Q.from_int(2), Q.from_int(-1)]) == Q.from_int(1)


class TestSubstitute:
    def test_zero_image(self):
        x, y = variables(Q, 2)
        assert substitute(x + y, {0: Polynomial.zero(Q, 2)}) == y

    def test_pin_last_variable_to_one(self):
        # the four-variable homogeneous quartic at x4 = 1 is the a = 1 member
        from simplexpoly.family import GParams, build_f, build_g

        f = build_f(Q, 4, 5)
        pinned_ring = Polynomial.constant(Q, 4, 1)
        h = substitute(f, {3: pinned_ring})
        g = build_g(GParams.of(Q, 3, 1, 5))
        lifted = substitute(g, {}, arity=4)
        assert h == lifted

    def test_halved_exponents_take_squared_images(self, any_field):
        # on an even polynomial, x_i -> y_i is x_i -> y_i^2 on the halved exponents
        rng = Random(31)
        for _ in range(20):
            half = random_polynomial(any_field, 3, rng, max_exp=2)
            p = Polynomial.from_terms(
                any_field, 3, {tuple(2 * e for e in exps): c for exps, c in half.terms.items()}
            )
            images = {
                i: random_polynomial(any_field, 2, rng, max_exp=1, max_terms=3)
                for i in range(3)
            }
            squares = {i: y**2 for i, y in images.items()}
            assert substitute(half, squares, 2) == substitute(p, images, 2)

    def test_wrong_ring_image_rejected(self):
        x, _ = variables(Q, 2)
        with pytest.raises(ValueError):
            substitute(x, {0: Polynomial.variable(Q, 3, 0)})


class TestPermute:
    def test_swap(self):
        x, y, z = variables(Q, 3)
        assert (y**2 - z**2).permute_variables([0, 2, 1]) == z**2 - y**2

    def test_symmetric_quartic_invariant_under_all_permutations(self):
        from itertools import permutations

        from simplexpoly.family import build_f

        f = build_f(Q, 3, 7)
        for perm in permutations(range(3)):
            assert f.permute_variables(list(perm)) == f

    def test_cycle_on_heron_factor(self):
        # sigma: x -> y -> x applied to (x+y+z)(-x+y+z) swaps the two sign patterns
        x, y, z = variables(Q, 3)
        alpha = (x + y + z) * (-x + y + z)
        sigma = [1, 0, 2]
        assert alpha.permute_variables(sigma) == (x + y + z) * (x - y + z)

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            variables(Q, 2)[0].permute_variables([0, 0])

    def test_inverse_permutation_roundtrip(self, any_field):
        rng = Random(5)
        perm = [2, 0, 3, 1]
        inverse = [perm.index(i) for i in range(4)]
        for _ in range(50):
            p = random_polynomial(any_field, 4, rng)
            assert p.permute_variables(perm).permute_variables(inverse) == p


class TestArgumentChecks:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: Polynomial.from_terms(Q, 2, {(1,): Q.one()}),
            lambda: Polynomial.from_terms(Q, 2, {(1, 0, 0): Q.one()}),
            lambda: Polynomial.from_terms(Q, 2, {(1, -1): Q.one()}),
            lambda: Polynomial.from_terms(Q, 2, {(1, 0): F5.one()}),
            lambda: Polynomial.variable(F5, 3, 3),
            lambda: Polynomial.variable(F5, 3, -1),
            lambda: Polynomial.zero(Q, 2).leading_coefficient(),
            lambda: variables(Q, 2)[0] ** -1,
            lambda: variables(Q, 2)[0].symmetric_reduce(0, 0),
            lambda: variables(Q, 2)[0].symmetric_reduce(0, 2),
            lambda: poly_to_text(variables(Q, 2)[0], ["x", "x"]),
            lambda: poly_to_text(variables(Q, 2)[0], ["x"]),
            lambda: parse_polynomial("x", Q, 2, ["x", ""]),
            lambda: parse_polynomial("x", Q, 2, ["x", "1"]),
            lambda: parse_polynomial("x", Q, 2, ["x", " y"]),
            lambda: parse_polynomial("x", Q, 2, ["x", "y^2"]),
        ],
        ids=[
            "short-monomial",
            "long-monomial",
            "negative-exponent",
            "foreign-coefficient",
            "variable-past-arity",
            "negative-variable",
            "leading-coefficient-of-zero",
            "negative-power",
            "reduce-same-position",
            "reduce-past-arity",
            "repeated-name",
            "too-few-names",
            "empty-name",
            "numeric-name",
            "spaced-name",
            "power-name",
        ],
    )
    def test_bad_arguments_rejected(self, call):
        with pytest.raises(ValueError):
            call()


class TestExactDivide:
    def test_difference_of_squares(self):
        x, y = variables(Q, 2)
        assert (x**2 - y**2).exact_divide(x - y) == x + y

    def test_heron_quotient(self):
        x, y, z = variables(Q, 3)
        heron = (x + y + z) * (-x + y + z) * (x - y + z) * (x + y - z)
        assert heron.exact_divide(x + y + z) == (-x + y + z) * (x - y + z) * (x + y - z)

    def test_non_divisor_returns_none(self):
        x, y = variables(Q, 2)
        assert (x**2 + y**2).exact_divide(x + y) is None

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            variables(Q, 2)[0].exact_divide(Polynomial.zero(Q, 2))

    def test_product_division_roundtrip(self, any_field):
        rng = Random(13)
        done = 0
        while done < 200:
            p = random_polynomial(any_field, 3, rng)
            d = random_polynomial(any_field, 3, rng, nonzero=True)
            assert (p * d).exact_divide(d) == p
            done += 1


class TestSymmetricReduce:
    def test_power_sum_four(self):
        y, z = variables(Q, 2)
        u, v = variables(Q, 2)
        reduced = (y**4 + z**4).symmetric_reduce(0, 1)
        assert reduced == (u**2 - v.scale(2)) ** 2 - (v**2).scale(2)

    def test_quartic_family_reduction_closed_form(self):
        # the (y, z)-reduction of the homogeneous quartic, for several m and t
        from simplexpoly.family import build_f

        for m, t in [(3, Fraction(3)), (4, Fraction(5)), (5, Fraction(1, 2))]:
            f = build_f(Q, m, t)
            reduced = f.symmetric_reduce(m - 2, m - 1)
            assert reduced is not None
            u = Polynomial.variable(Q, m, m - 2)
            v = Polynomial.variable(Q, m, m - 1)
            s2 = Polynomial.zero(Q, m)
            s4 = Polynomial.zero(Q, m)
            for i in range(m - 2):
                x = Polynomial.variable(Q, m, i)
                s2 = s2 + x**2
                s4 = s4 + x**4
            tt = Q.coerce(t)
            expected = (
                (v**2).scale(Q.from_int(4) - tt * 2)
                - (u**2).scale((Q.one() - tt) * 4) * v
                - s2 * v * 4
                + s2**2
                + (u**4).scale(Q.one() - tt)
                + s2 * u**2 * 2
                - s4.scale(tt)
            )
            assert reduced == expected

    def test_antisymmetric_returns_none(self):
        y, z = variables(Q, 2)
        assert (y - z).symmetric_reduce(0, 1) is None

    def test_roundtrip_resubstitution(self, any_field):
        rng = Random(17)
        done = 0
        while done < 100:
            p = random_polynomial(any_field, 3, rng)
            sym = p + p.permute_variables([0, 2, 1])  # force (x2, x3) symmetry
            reduced = sym.symmetric_reduce(1, 2)
            assert reduced is not None
            y = Polynomial.variable(any_field, 3, 1)
            z = Polynomial.variable(any_field, 3, 2)
            assert substitute(reduced, {1: y + z, 2: y * z}) == sym
            done += 1


class TestTextFormat:
    def test_examples(self):
        x, y, z = variables(Q, 3)
        p = x**2 - y.scale(Fraction(1, 2)) + Polynomial.constant(Q, 3, -3)
        text = poly_to_text(p, ["x", "y", "z"])
        assert text == "x^2 - 1/2*y - 3"
        assert parse_polynomial(text, Q, 3, ["x", "y", "z"]) == p

    def test_zero(self):
        assert poly_to_text(Polynomial.zero(Q, 2)) == "0"
        assert parse_polynomial("0", Q, 2).is_zero()

    def test_cyclotomic_coefficients_parenthesized(self):
        w = CYCLOTOMIC.omega_element(1, 2)
        x = Polynomial.variable(CYCLOTOMIC, 1, 0)
        text = poly_to_text(x.scale(w), ["x"])
        assert text == "(1+2*w)*x"
        assert parse_polynomial(text, CYCLOTOMIC, 1, ["x"]) == x.scale(w)

    def test_w_reserved_in_cyclotomic_rings(self):
        with pytest.raises(ValueError):
            poly_to_text(Polynomial.zero(CYCLOTOMIC, 1), ["w"])

    @pytest.mark.parametrize("text", list(MALFORMED))
    def test_malformed_text_rejected(self, text):
        with pytest.raises(ValueError, match=re.escape(MALFORMED[text])):
            parse_polynomial(text, Q, 2, ["x", "y"])

    def test_w_is_a_literal_over_q_w_only(self):
        x, y = variables(CYCLOTOMIC, 2)
        w = CYCLOTOMIC.omega_element(0, 1)
        assert parse_polynomial("w*x - y^2", CYCLOTOMIC, 2, ["x", "y"]) == x.scale(w) - y**2
        with pytest.raises(ValueError, match="unknown factor 'u': the variables are x, y"):
            parse_polynomial("w*u", CYCLOTOMIC, 2, ["x", "y"])

    def test_roundtrip_random(self, any_field):
        rng = Random(23)
        names = ["alpha", "b2", "c"]
        for _ in range(100):
            p = random_polynomial(any_field, 3, rng)
            text = poly_to_text(p, names)
            assert parse_polynomial(text, any_field, 3, names) == p

    @given(polynomials_with_names())
    def test_matches_reference_renderer(self, case):
        p, names = case
        assert poly_to_text(p, names) == reference_poly_to_text(p, names)

    @pytest.mark.parametrize(
        "field, build, names, expected",
        [
            (Q, lambda x, y: Polynomial.constant(Q, 2, -3), None, "-3"),
            (Q, lambda x, y: Polynomial.constant(Q, 2, 1), None, "1"),
            (Q, lambda x, y: Polynomial.constant(Q, 2, -1), None, "-1"),
            (Q, lambda x, y: -x + y.scale(-1) - Polynomial.constant(Q, 2, 1), None,
             "-x1 - x2 - 1"),
            (F5, lambda x, y: x * y.scale(4) + Polynomial.constant(F5, 2, 1), ["u", "v"],
             "4*u*v + 1"),
            (CYCLOTOMIC, lambda x, y: x.scale(CYCLOTOMIC.omega_element(0, -1)) + y, ["s", "t"],
             "-w*s + t"),
            (CYCLOTOMIC, lambda x, y: (x * y).scale(CYCLOTOMIC.omega_element(-1, -2)) - y**2,
             ["a", "b"], "(-1-2*w)*a*b - b^2"),
            (CYCLOTOMIC, lambda x, y: Polynomial.constant(
                CYCLOTOMIC, 2, CYCLOTOMIC.omega_element(Fraction(1, 2), 3)), None, "(1/2+3*w)"),
        ],
    )
    def test_signs_units_and_cyclotomic_literals(self, field, build, names, expected):
        p = build(*variables(field, 2))
        assert poly_to_text(p, names) == reference_poly_to_text(p, names) == expected


@st.composite
def ring_and_polynomials(draw, count: int, max_terms: int = 6):
    field, arity = draw(polynomial_rings)
    return field, arity, [draw(dense_polynomials(field, arity, max_terms)) for _ in range(count)]


def poly(field, arity, dense):
    return Polynomial.from_terms(field, arity, dense)


def dense(p):
    return dict(p.terms.items())


class TestSparseMatchesDense:
    """The sparse store against the dense reference arithmetic of conftest.py,
    in 1-6 variables over Q, F_7 and Q(w), exponents up to 6."""

    @given(ring_and_polynomials(2))
    def test_ring_operations(self, case):
        field, arity, (a, b) = case
        p, q = poly(field, arity, a), poly(field, arity, b)
        negated = {e: -c for e, c in b.items()}
        assert dense(p + q) == dense_accumulate(dict(a), b.items())
        assert dense(p - q) == dense_accumulate(dict(a), negated.items())
        assert dense(p * q) == dense_mul(a, b)
        assert dense(-q) == negated

    @given(ring_and_polynomials(1, max_terms=4), st.integers(0, 3))
    def test_power(self, case, n):
        field, arity, (a,) = case
        expected = {(0,) * arity: field.one()}
        for _ in range(n):
            expected = dense_mul(expected, a)
        assert dense(poly(field, arity, a) ** n) == expected

    @given(ring_and_polynomials(3))
    def test_exact_divide(self, case):
        field, arity, (a, b, d) = case
        if not d:
            return
        product = dense_mul(a, d)
        assert dense(poly(field, arity, product).exact_divide(poly(field, arity, d))) == a
        quotient = poly(field, arity, b).exact_divide(poly(field, arity, d))
        expected = dense_divide(b, d)
        assert (quotient is None) == (expected is None)
        if quotient is not None:
            assert dense(quotient) == expected

    @given(ring_and_polynomials(1), st.data())
    def test_symmetric_reduce(self, case, data):
        field, arity, (a,) = case
        if arity < 2:
            return
        i, j = data.draw(st.lists(st.integers(0, arity - 1), min_size=2, max_size=2, unique=True))
        mirror = {}
        for e, c in a.items():  # half of the draws made symmetric in (i, j)
            e = list(e)
            e[i], e[j] = e[j], e[i]
            mirror[tuple(e)] = c
        if data.draw(st.booleans()):
            a = dense_accumulate(dict(a), mirror.items())
        reduced = poly(field, arity, a).symmetric_reduce(i, j)
        expected = dense_symmetric_reduce(a, field, arity, i, j)
        assert (reduced is None) == (expected is None)
        if reduced is not None:
            assert dense(reduced) == expected

    @given(ring_and_polynomials(1), st.integers(1, 3), st.randoms(use_true_random=False))
    def test_structure(self, case, k, rng):
        field, arity, (a,) = case
        p = poly(field, arity, a)
        degrees = {sum(e) for e in a}
        assert p.degree() == (max(degrees) if a else None)
        assert p.is_homogeneous() == ((True, degrees.pop()) if len(degrees) == 1 else (not a, None))
        if a:
            top = max(map(sum, a))
            top_terms = {e: c for e, c in a.items() if sum(e) == top}
            assert dense(p.leading_homogeneous_component()) == top_terms
            assert p.leading_coefficient() == a[max(a, key=grlex_key)]
        assert dense(p.inflate(k)) == {tuple(k * x for x in e): c for e, c in a.items()}
        perm = rng.sample(range(arity), arity)
        permuted = {}
        for e, c in a.items():
            image = [0] * arity
            for i, x in enumerate(e):
                image[perm[i]] = x
            permuted[tuple(image)] = c
        assert dense(p.permute_variables(perm)) == permuted

    @given(ring_and_polynomials(1))
    def test_terms_view(self, case):
        field, arity, (a,) = case
        view = poly(field, arity, a).terms
        assert len(view) == len(a)
        assert list(view) == list(a)
        assert list(view.items()) == list(a.items())
        assert list(view.values()) == list(a.values())
        assert view == a and a == view
        assert all(e in view and view[e] == c for e, c in a.items())
        absent = [(7,) * arity, (0,) * (arity + 1), (1,) * (arity - 1)]
        assert not any(e in view for e in absent)
        with pytest.raises(KeyError):
            view[(7,) * arity]

    @given(ring_and_polynomials(1))
    def test_text_round_trip(self, case):
        field, arity, (a,) = case
        p = poly(field, arity, a)
        assert parse_polynomial(poly_to_text(p), field, arity) == p

    @given(st.integers(1, 6).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 6)] * n), min_size=2, max_size=2)))
    def test_key_order_is_grlex(self, pair):
        a, b = pair
        assert (_key(a) < _key(b)) == (grlex_key(a) < grlex_key(b))
        assert (_key(a) == _key(b)) == (a == b)
        assert _exps(_key(a), len(a)) == a


class TestPayloadArithmetic:
    """Polynomial arithmetic on raw payloads against the FieldElement-level
    dense reference, over Q and Q(w) with non-integral values and over F_7."""

    @given(ring_and_polynomials(3, max_terms=4), st.integers(0, 3), st.data())
    def test_operations_match_elements(self, case, n, data):
        field, arity, (a, b, d) = case
        p, q = poly(field, arity, a), poly(field, arity, b)
        c = data.draw(elements(field))
        power = {(0,) * arity: field.one()}
        for _ in range(n):
            power = dense_mul(power, a)
        results = [
            (p + q, dense_accumulate(dict(a), b.items())),
            (p * q, dense_mul(a, b)),
            (p**n, power),
            (p.scale(c), {e: k * c for e, k in a.items() if not (k * c).is_zero()}),
            (p.map_coefficients(field.ops.inverse), {e: k.inverse() for e, k in a.items()}),
        ]
        if d:
            results.append((poly(field, arity, dense_mul(a, d)).exact_divide(poly(field, arity, d)), a))
        for result, expected in results:
            assert dense(result) == expected
            assert all(canonical(field, v) for v in result._store.values())

    @given(st.sampled_from([RATIONAL, CYCLOTOMIC]), st.integers(-9, 9), st.integers(1, 3))
    def test_integral_fraction_builds_the_same_polynomial(self, field, k, arity):
        # through the scalar API, and through a FieldElement holding Fraction(k)
        x = Polynomial.variable(field, arity, 0)
        as_fraction = x.scale(Fraction(3 * k, 3)) + Polynomial.constant(field, arity, Fraction(k))
        as_int = x.scale(k) + Polynomial.constant(field, arity, k)
        raw = Fraction(k) if field == RATIONAL else (Fraction(k), Fraction(0))
        exps = (1,) + (0,) * (arity - 1)
        wrapped = Polynomial.from_terms(field, arity, {exps: FieldElement(field, raw)})
        for p, q in [(as_fraction, as_int), (wrapped, as_int - Polynomial.constant(field, arity, k))]:
            assert p == q and hash(p) == hash(q) and poly_to_text(p) == poly_to_text(q)
