from fractions import Fraction
from itertools import permutations
from random import Random

import pytest

from simplexpoly.field import RATIONAL, prime_field, random_element
from simplexpoly.poly import Polynomial
from simplexpoly.family import (
    CayleyMengerRing,
    GParams,
    SubstitutionRule,
    build_f,
    build_g,
    cayley_menger,
    prekite_reduction,
    special_family_substitution,
)

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


class TestCayleyMenger:
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
        value = cayley_menger(n).evaluate([Q.one()] * ring.arity)
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
                scaled = m.evaluate([lam * x for x in point])
                assert scaled == lam ** (2 * n) * m.evaluate(point)

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
        assert m.evaluate([f5.one()] * 6) == f5.from_int(4)


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


class TestSpecialSubstitution:
    def test_product_rule_degree(self):
        p = special_family_substitution(2, SubstitutionRule.PRODUCT)
        assert p.arity == 3
        assert p.degree() == 4

    def test_sum_squared_matches_numeric_evaluation(self):
        # at all vertex variables 1 the rule (x_i + x_j)^2 gives every edge value 2
        p = special_family_substitution(2, SubstitutionRule.SUM_SQUARED)
        m = cayley_menger(2)
        assert p.evaluate([Q.one()] * 3) == m.evaluate([Q.from_int(2)] * 3)

    @pytest.mark.parametrize("rule", list(SubstitutionRule))
    def test_zero_vertices_match_zero_edges(self, rule):
        p = special_family_substitution(2, rule)
        zeros = {i: Polynomial.zero(Q, 3) for i in range(3)}
        m0 = cayley_menger(2).substitute_squares(zeros, 3)
        assert p.substitute(zeros) == m0

    def test_sum_rule_halves_degree(self):
        p = special_family_substitution(2, SubstitutionRule.SUM)
        assert p.degree() == 2
