from itertools import product
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest

from simplexpoly import oracle
from simplexpoly.field import RATIONAL, prime_field
from simplexpoly.poly import Polynomial, grlex_key, parse_polynomial, poly_to_text
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

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_degree": 0}, {"max_degree": -1}, {"time_limit": -1.0}, {"time_limit": float("nan")}],
    )
    def test_out_of_range_budget_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SearchBudget(**kwargs)

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

    def test_time_limit_holds_during_table_builds(self, monkeypatch):
        # the clock passes the deadline once the first accept-table build
        # starts; the build must stop there, before any division runs
        divisions, started, built = [], [], []
        exact_divide, accept_tables = Polynomial.exact_divide, oracle._accept_tables

        def counting_divide(self, d):
            divisions.append(d)
            return exact_divide(self, d)

        def recording_tables(*args):
            started.append(args)
            built.append(accept_tables(*args))
            return built[-1]

        monkeypatch.setattr(Polynomial, "exact_divide", counting_divide)
        monkeypatch.setattr(oracle, "_accept_tables", recording_tables)
        monkeypatch.setattr(
            oracle, "time", SimpleNamespace(monotonic=lambda: 100.0 if started else 0.0)
        )
        outcome = brute_force_factor_search(
            build_g(GParams.of(F5, 3, 1, 1)), SearchBudget(time_limit=1.0)
        )
        assert outcome == BudgetExceeded("time limit exceeded")
        assert len(built) == 1 and built[0] is None
        assert divisions == []

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


    def test_work_counters_pinned(self, monkeypatch):
        # pinned on purpose: a change to the filter lines or the enumeration
        # moves these counts, and should say why (the 2-line filter made 8,747)
        divisions = []
        exact_divide = Polynomial.exact_divide

        def counting_divide(self, d):
            divisions.append(d)
            return exact_divide(self, d)

        monkeypatch.setattr(Polynomial, "exact_divide", counting_divide)
        outcome = brute_force_factor_search(build_g(GParams.of(F3, 3, 1, 1)))
        assert outcome == NoFactorFound(29523)
        assert len(divisions) == 151

    def test_accept_tables_are_budgeted(self, small_arrays):
        # the candidate space (about 4 M) fits, and x^4 + y^4 has no linear
        # factor over F_1999, but a quadratic's table of 1999^3 bytes does
        # not: refused before that table is allocated
        p = parse_polynomial("x^4+y^4", prime_field(1999), 2, ["x", "y"])
        outcome = brute_force_factor_search(
            p, SearchBudget(max_field_size=2000, homogeneous_only=True)
        )
        assert outcome == BudgetExceeded(
            f"accept table of {1999**3} bytes for degree 2 exceeds budget "
            f"{oracle._MAX_TABLE_BYTES}"
        )

    def test_table_budget_spares_low_degree_factors(self, small_arrays):
        # the budget counts the tables of the degrees the search reaches:
        # 13^8-byte tables for degree 7 never matter when x + 1 divides
        x = ["x", "y"]
        p = parse_polynomial("x^12-1", prime_field(13), 1, x[:1])
        outcome = brute_force_factor_search(p)
        assert outcome.factor == parse_polynomial("x+1", prime_field(13), 1, x[:1])
        p = parse_polynomial("x^10+y^10", prime_field(11), 2, x)
        outcome = brute_force_factor_search(p, SearchBudget(homogeneous_only=True))
        assert outcome.factor == parse_polynomial("x^2+y^2", prime_field(11), 2, x)

    def test_tables_over_budget_use_fewer_lines(self, small_arrays):
        # a quintic's table over F_13 is 13^6 bytes: eight of them exceed the
        # budget, one fits, so degree 5 is searched with one filter line
        F13, x = prime_field(13), ["x", "y"]
        f = parse_polynomial("x^5+8*x*y^4+y^5", F13, 2, x)
        g = parse_polynomial("x^5+7*x*y^4+2*y^5", F13, 2, x)
        assert len(oracle._filter_lines(f * g, 13, 10)) == oracle._LINES
        assert 13**6 <= oracle._MAX_TABLE_BYTES < oracle._LINES * 13**6
        outcome = brute_force_factor_search(f * g, SearchBudget(homogeneous_only=True))
        assert outcome == FactorFound(g, f)


def _reference_search(p: Polynomial):
    """The search without the line filter: every monic candidate, in order.

    Enumeration as documented in ``oracle``: degrees ascending, then blocks
    from the latest leading monomial (descending grlex) to the first, then
    tail coefficient vectors in ascending lexicographic order. Each candidate
    is tested by the division algorithm for one divisor, run on dense
    coefficient arrays for a batch of candidates at once; it divides p when
    the remainder is zero. The first divisor's quotient comes from
    ``Polynomial.exact_divide``. Dividing every candidate with
    ``exact_divide`` itself would take minutes on the F_5, a = 1 inputs.
    """
    q, arity, deg = p.field.p, p.arity, p.degree()
    homogeneous, _ = p.is_homogeneous()
    space = sorted(
        (e for e in product(range(deg + 1), repeat=arity) if sum(e) <= deg),
        key=grlex_key,
        reverse=True,
    )
    index = {e: i for i, e in enumerate(space)}
    target = np.zeros(len(space), dtype=np.int64)
    for e, c in p.terms.items():
        target[index[e]] = c.value
    tried = 0
    for d in range(1, deg // 2 + 1):
        monos = [e for e in space if sum(e) == d or (sum(e) < d and not homogeneous)]
        for lead in reversed([i for i, e in enumerate(monos) if sum(e) == d]):
            lm, tail_monos = monos[lead], monos[lead + 1 :]
            # one step per monomial mu, descending: if lm divides mu, cancel
            # the coefficient of mu with a multiple of the candidate; if not,
            # that coefficient is final, and must be zero
            steps = []
            for mu in space:
                shift = [a - b for a, b in zip(mu, lm)]
                rows = None
                if min(shift) >= 0:
                    rows = [index[tuple(map(sum, zip(shift, nu)))] for nu in tail_monos]
                steps.append((index[mu], rows))
            n_block = q ** len(tail_monos)
            places = q ** np.arange(len(tail_monos) - 1, -1, -1)
            for start in range(0, n_block, 1 << 14):
                idx = np.arange(start, min(start + (1 << 14), n_block))
                tails = idx // places[:, None] % q  # one column per candidate
                rem = np.repeat(target[:, None], len(idx), axis=1)
                for row, rows in steps:
                    if rows is None:
                        keep = rem[row] == 0
                        rem, tails = rem[:, keep], tails[:, keep]
                    else:
                        rem[rows] = (rem[rows] - rem[row] * tails) % q
                tried += len(idx)
                if tails.shape[1]:
                    coeffs = [1] + tails[:, 0].tolist()
                    terms = {e: p.field.from_int(c) for e, c in zip(monos[lead:], coeffs)}
                    cand = Polynomial.from_terms(p.field, arity, terms)
                    return FactorFound(cand, p.exact_divide(cand))
    return NoFactorFound(tried)


CRITERION_3_PARAMS = [(q, a, t) for q in (3, 5) for a in (0, 1) for t in range(q)] + [
    (q, 0, t) for q in (7, 13) for t in range(q)
]


def _random_inputs(count):
    # degrees small enough for the reference: d <= 3 in one variable, d <= 2
    # in two, linear candidates in three
    rng = Random(29)
    while count:
        arity = rng.choice((1, 2, 3))
        field = prime_field(rng.choice((3, 5)))
        p = random_polynomial(field, arity, rng, max_exp=(7, 2, 1)[arity - 1], nonzero=True)
        if p.degree() > 0:
            count -= 1
            yield p


class TestSearchMatchesReference:
    """The filtered search is sound: it finds exactly what trial division finds."""

    @pytest.mark.parametrize("q, a, t", CRITERION_3_PARAMS)
    def test_criterion_3_inputs(self, q, a, t):
        p = build_g(GParams.of(prime_field(q), 3, a, t))
        assert brute_force_factor_search(p) == _reference_search(p)

    def test_random_polynomials(self):
        for p in _random_inputs(120):
            assert brute_force_factor_search(p) == _reference_search(p), p

    def test_factor_beyond_the_first_chunk(self):
        # over F_5 a chunk holds 5^7 tails, so the xy and xz coefficients of
        # a quadratic candidate x^2 + ... are fixed per chunk; here xz = 1
        names = ["x", "y", "z"]
        first = parse_polynomial("x^2+x*z+y+1", F5, 3, names)
        p = first * parse_polynomial("x^2+x*y+z^2+2", F5, 3, names)
        outcome = brute_force_factor_search(p)
        assert outcome == _reference_search(p)
        assert outcome.factor == first

    def test_inputs_without_filter_lines(self):
        # (x^q - x)(y^q - y) restricts to zero on every axis-parallel line
        x, y = (Polynomial.variable(F3, 2, i) for i in range(2))
        vanishing = (x**3 - x) * (y**3 - y)
        for p in (vanishing, vanishing * (x + y + Polynomial.constant(F3, 2, 1))):
            assert oracle._filter_lines(p, 3, p.degree()) == []
            assert brute_force_factor_search(p) == _reference_search(p)


def test_line_matrix_restriction_matches_evaluation():
    q = 5
    field = prime_field(q)
    rng = Random(17)
    for _ in range(30):
        p = random_polynomial(field, 3, rng, nonzero=True)
        coords, vy = (rng.randrange(q), rng.randrange(q)), rng.randrange(3)
        mat = oracle._line_matrix(list(p.terms), coords, vy, q, p.degree())
        restricted = mat @ [c.value for c in p.terms.values()] % q
        for y in range(q):
            point = list(coords)
            point.insert(vy, y)
            value = p.evaluate([field.from_int(v) for v in point])
            assert sum(int(c) * y**k for k, c in enumerate(restricted)) % q == value.value


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
