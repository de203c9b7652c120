from fractions import Fraction
from random import Random

import pytest

from simplexpoly.field import CYCLOTOMIC, RATIONAL, prime_field
from simplexpoly.poly import (
    Polynomial,
    elementary_symmetric,
    parse_polynomial,
    poly_to_text,
)

from conftest import random_polynomial

Q = RATIONAL
F5 = prime_field(5)


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
        assert p**3 == p * p * p


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

    def test_degree_of_zero_is_none(self):
        assert Polynomial.zero(Q, 2).degree() is None

    def test_evaluate(self):
        x, y = variables(Q, 2)
        p = x**2 + y.scale(3)
        assert p.evaluate([Q.from_int(2), Q.from_int(-1)]) == Q.from_int(1)


class TestSubstitute:
    def test_zero_image(self):
        x, y = variables(Q, 2)
        assert (x + y).substitute({0: Polynomial.zero(Q, 2)}) == y

    def test_pin_last_variable_to_one(self):
        # the four-variable homogeneous quartic at x4 = 1 is the a = 1 member
        from simplexpoly.family import GParams, build_f, build_g

        f = build_f(Q, 4, 5)
        pinned_ring = Polynomial.constant(Q, 4, 1)
        h = f.substitute({3: pinned_ring})
        g = build_g(GParams.of(Q, 3, 1, 5))
        lifted = g.substitute({}, arity=4)
        assert h == lifted

    def test_substitute_squares_matches_substitute(self, any_field):
        # x_i^2 -> y_i^2 on an even polynomial is the same map as x_i -> y_i
        rng = Random(31)
        for _ in range(20):
            half = random_polynomial(any_field, 3, rng, max_exp=2)
            p = Polynomial(
                any_field, 3, {tuple(2 * e for e in exps): c for exps, c in half.terms.items()}
            )
            images = {
                i: random_polynomial(any_field, 2, rng, max_exp=1, max_terms=3)
                for i in range(3)
            }
            squares = {i: y**2 for i, y in images.items()}
            assert p.substitute_squares(squares, 2) == p.substitute(images, 2)

    def test_substitute_squares_requires_even(self):
        x, y = variables(Q, 2)
        with pytest.raises(ValueError):
            (x * y**2).substitute_squares({0: x, 1: y}, 2)
        assert (x**2).substitute_squares({0: y, 1: x}, 2) == y

    def test_wrong_ring_image_rejected(self):
        x, _ = variables(Q, 2)
        with pytest.raises(ValueError):
            x.substitute({0: Polynomial.variable(Q, 3, 0)})


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
            assert reduced.substitute({1: y + z, 2: y * z}) == sym
            done += 1


class TestElementarySymmetric:
    def test_examples(self):
        x, y, z = variables(Q, 3)
        assert elementary_symmetric(Q, 3, 2) == x * y + y * z + z * x
        x2, y2 = variables(Q, 2)
        assert elementary_symmetric(Q, 2, 1) == x2 + y2
        w4 = variables(Q, 4)
        assert elementary_symmetric(Q, 4, 4) == w4[0] * w4[1] * w4[2] * w4[3]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            elementary_symmetric(Q, 3, 0)
        with pytest.raises(ValueError):
            elementary_symmetric(Q, 3, 4)


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

    def test_roundtrip_random(self, any_field):
        rng = Random(23)
        names = ["alpha", "b2", "c"]
        for _ in range(100):
            p = random_polynomial(any_field, 3, rng)
            text = poly_to_text(p, names)
            assert parse_polynomial(text, any_field, 3, names) == p
