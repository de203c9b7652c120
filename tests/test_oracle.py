from random import Random
from types import SimpleNamespace

import pytest

from simplexpoly import oracle
from simplexpoly.field import RATIONAL, prime_field
from simplexpoly.poly import Polynomial, poly_to_text
from simplexpoly.family import GParams, build_f, build_g, prekite_reduction
from simplexpoly.classify import FactorizationCertificate, classify_g
from simplexpoly.oracle import (
    BudgetExceeded,
    FactorFound,
    NoFactorFound,
    SearchBudget,
    brute_force_factor_search,
    discriminant_check,
)

from conftest import random_polynomial

Q = RATIONAL
F3, F5, F7 = prime_field(3), prime_field(5), prime_field(7)


class TestBruteForceSearch:
    def test_heron_finds_first_linear_factor(self):
        outcome = brute_force_factor_search(build_f(F5, 3, 2))
        assert isinstance(outcome, FactorFound)
        assert poly_to_text(outcome.factor, ["x", "y", "z"]) == "x + y + z"
        assert outcome.factor * outcome.quotient == build_f(F5, 3, 2)

    def test_irreducible_offset_quartic(self):
        outcome = brute_force_factor_search(build_g(GParams.of(F5, 3, 1, 1)))
        assert isinstance(outcome, NoFactorFound)
        assert outcome.candidates_tried == 2441405  # 155 linear + 2441250 quadratic

    def test_omega_quartic_splits_only_when_root_exists(self):
        found = brute_force_factor_search(build_f(F7, 3, 3))
        assert isinstance(found, FactorFound)
        # the only monic quadratic divisors are the two conjugate forms
        cert = classify_g(GParams.of(F7, 3, 0, 3))
        assert found.factor in {f.polynomial for f in cert.factors}
        missing = brute_force_factor_search(build_f(F5, 3, 3))
        assert isinstance(missing, NoFactorFound)

    def test_factor_divides_input(self):
        rng = Random(3)
        hits = 0
        while hits < 20:
            p = random_polynomial(F3, 2, rng, max_exp=2, nonzero=True)
            if p.degree() < 2:
                continue
            outcome = brute_force_factor_search(p)
            if isinstance(outcome, FactorFound):
                hits += 1
                assert p.exact_divide(outcome.factor) == outcome.quotient

    def test_search_is_deterministic(self):
        p = build_f(F7, 3, 3)
        outcomes = {brute_force_factor_search(p) for _ in range(3)}
        assert len(outcomes) == 1

    def test_field_size_budget(self):
        outcome = brute_force_factor_search(
            build_f(F7, 3, 2), SearchBudget(max_field_size=5)
        )
        assert isinstance(outcome, BudgetExceeded)

    def test_homogeneous_only_refuses_inhomogeneous(self):
        outcome = brute_force_factor_search(
            build_g(GParams.of(F5, 3, 1, 1)), SearchBudget(homogeneous_only=True)
        )
        assert isinstance(outcome, BudgetExceeded)

    def test_candidate_space_budget(self):
        outcome = brute_force_factor_search(
            build_g(GParams.of(F5, 3, 1, 1)), SearchBudget(max_candidates=1000)
        )
        assert isinstance(outcome, BudgetExceeded)

    def test_degree_cap_found_versus_exhausted(self):
        heron = build_f(F5, 3, 2)
        assert isinstance(
            brute_force_factor_search(heron, SearchBudget(max_degree=1)), FactorFound
        )
        capped = brute_force_factor_search(build_f(F5, 3, 3), SearchBudget(max_degree=1))
        assert isinstance(capped, BudgetExceeded)  # linear space exhausted, not the full one

    def test_time_limit(self):
        outcome = brute_force_factor_search(
            build_g(GParams.of(F5, 3, 1, 1)), SearchBudget(time_limit=0.0)
        )
        assert isinstance(outcome, BudgetExceeded)

    def test_time_limit_holds_between_divisions(self, monkeypatch):
        # the clock jumps past the deadline as soon as one division has run;
        # the search must stop there, not finish the candidate chunk
        divisions = []
        exact_divide = Polynomial.exact_divide

        def counting_divide(self, d):
            divisions.append(d)
            return exact_divide(self, d)

        monkeypatch.setattr(Polynomial, "exact_divide", counting_divide)
        monkeypatch.setattr(
            oracle, "time", SimpleNamespace(monotonic=lambda: 100.0 if divisions else 0.0)
        )
        outcome = brute_force_factor_search(
            build_g(GParams.of(F5, 3, 1, 1)), SearchBudget(time_limit=1.0)
        )
        assert outcome == BudgetExceeded("time limit exceeded")
        assert len(divisions) == 1

    def test_rational_input_rejected(self):
        with pytest.raises(ValueError):
            brute_force_factor_search(build_f(Q, 3, 2))

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            brute_force_factor_search(Polynomial.constant(F5, 2, 3))

    def test_linear_input_has_no_proper_factor(self):
        outcome = brute_force_factor_search(Polynomial.variable(F5, 2, 0))
        assert isinstance(outcome, NoFactorFound)
        assert outcome.candidates_tried == 0

    def test_agreement_with_classifier_f3_full(self):
        # every t in F_3, both offsets, the full (non-homogeneous) search space
        for a in (0, 1):
            for t in range(3):
                verdict = classify_g(GParams.of(F3, 3, a, t))
                outcome = brute_force_factor_search(verdict.input)
                assert isinstance(outcome, (FactorFound, NoFactorFound))
                assert isinstance(outcome, FactorFound) == isinstance(
                    verdict, FactorizationCertificate
                ), (a, t)

    def test_certificate_factors_are_atoms_for_the_search(self):
        # neither the Heron linear factors nor the omega quadratics split further
        for t, q in ((2, F5), (3, F7)):
            cert = classify_g(GParams.of(q, 3, 0, t))
            for f in cert.factors:
                sub = brute_force_factor_search(f.polynomial)
                assert isinstance(sub, NoFactorFound)


class TestDiscriminantCheck:
    @pytest.mark.parametrize(
        "field,m,t",
        [(Q, 3, 3), (Q, 4, 5), (F7, 3, 4), (Q, 5, -1), (F3, 4, 1), (prime_field(13), 3, 7)],
    )
    def test_identity_holds(self, field, m, t):
        assert discriminant_check(field, m, t)

    def test_precondition_guards(self):
        with pytest.raises(ValueError):
            discriminant_check(Q, 3, 0)
        with pytest.raises(ValueError):
            discriminant_check(Q, 3, 2)
        with pytest.raises(ValueError):
            discriminant_check(Q, 2, 3)
        with pytest.raises(ValueError):
            discriminant_check(F7, 3, 9)  # 9 = 2 in F_7


class TestRandomIdentityTest:
    """The paper's identities, decided by exact polynomial equality."""

    def test_heron_identity(self):
        x, y, z = (Polynomial.variable(Q, 3, i) for i in range(3))
        rhs = (x + y + z) * (-x + y + z) * (x - y + z) * (x + y - z)
        assert build_f(Q, 3, 2) == rhs

    def test_prekite_identity(self):
        m_star, h = prekite_reduction(3)
        x = Polynomial.variable(Q, 4, 0)
        assert m_star == (-(x**2)) * h

    def test_wrong_parameter_detected(self):
        x, y, z = (Polynomial.variable(Q, 3, i) for i in range(3))
        rhs = (x + y + z) * (-x + y + z) * (x - y + z) * (x + y - z)
        assert build_f(Q, 3, 3) != rhs
