import tracemalloc
from itertools import product
from math import inf
from random import Random
from types import SimpleNamespace
from typing import Optional

import numpy as np
import pytest

from simplexpoly import _univariate, oracle
from simplexpoly.field import CHAR2, RATIONAL, prime_field
from simplexpoly.poly import Polynomial, parse_polynomial, poly_to_text
from simplexpoly.family import GParams, build_f, build_g, prekite_reduction
from simplexpoly.classify import FactorizationCertificate, classify_g
from simplexpoly import discriminant_check
from simplexpoly.oracle import (
    BudgetExceeded,
    FactorFound,
    NoFactorFound,
    SearchBudget,
    brute_force_factor_search,
)

from conftest import evaluate, grlex_key, random_polynomial

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

    def test_candidate_budget_counts_leading_form_runs(self):
        # over F_13 the forms of degree 1 and 2 number 183 + 402,234; the
        # leading form (x^2 + y^2 + z^2)^2 has one quadratic divisor, whose
        # run holds 13^4 candidates, and no linear one
        p = build_g(GParams.of(prime_field(13), 3, 1, 0))
        assert brute_force_factor_search(p, SearchBudget(max_candidates=430977)) == (
            BudgetExceeded("candidate space through degree 2 exceeds budget 430977")
        )
        outcome = brute_force_factor_search(p, SearchBudget(max_candidates=430978))
        assert outcome.factor * outcome.factor == p

    def test_candidate_budget_charged_degree_by_degree(self):
        # the 31 linear forms over F_5 fit the budget and hold x + y + z;
        # the 3,906 quadratic ones would not, but are never reached
        outcome = brute_force_factor_search(build_f(F5, 3, 2), SearchBudget(max_candidates=100))
        assert isinstance(outcome, FactorFound)
        assert poly_to_text(outcome.factor, ["x", "y", "z"]) == "x + y + z"

    def test_refusal_at_degree_one_starts_no_search(self, monkeypatch):
        # the charge comes first: a refused input gets no filter lines
        searches, search = [], oracle._Search
        monkeypatch.setattr(oracle, "_Search", lambda *args: searches.append(args) or search(*args))
        outcome = brute_force_factor_search(build_f(F5, 3, 2), SearchBudget(max_candidates=30))
        assert outcome == BudgetExceeded("candidate space through degree 1 exceeds budget 30")
        assert searches == []

    def test_time_limit(self):
        outcome = brute_force_factor_search(
            build_g(GParams.of(F5, 3, 1, 1)), SearchBudget(time_limit=0.0)
        )
        assert isinstance(outcome, BudgetExceeded)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_degree": 0},
            {"max_degree": -1},
            {"time_limit": -1.0},
            {"time_limit": float("nan")},
            {"time_limit": float("inf")},
        ],
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
        # t = 2: the leading form is the Heron product, so divisions run;
        # for t = 1 the leading-form filter leaves none to run
        outcome = brute_force_factor_search(
            build_g(GParams.of(F5, 3, 1, 2)), SearchBudget(time_limit=1.0)
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
            try:
                built.append(accept_tables(*args))
            except oracle._Refused:
                built.append("raised")
                raise
            return built[-1]

        monkeypatch.setattr(Polynomial, "exact_divide", counting_divide)
        monkeypatch.setattr(oracle, "_accept_tables", recording_tables)
        monkeypatch.setattr(
            oracle, "time", SimpleNamespace(monotonic=lambda: 100.0 if started else 0.0)
        )
        # t = 2: the leading form is the Heron product, whose degree 1 the
        # sieve leaves open, so tables are built; for t = 1 none is
        outcome = brute_force_factor_search(
            build_g(GParams.of(F5, 3, 1, 2)), SearchBudget(time_limit=1.0)
        )
        assert outcome == BudgetExceeded("time limit exceeded")
        assert len(started) == 1 and built == ["raised"]
        assert divisions == []

    def test_time_limit_holds_within_a_table_build(self, monkeypatch):
        # x^2000 + 1 over F_3: its leading form's degree-1 table is one chunk
        # of tails, long-divided in 2,000 steps; the clock passes the deadline
        # at its second reading inside the build, which must stop there and
        # not finish the chunk
        started, readings, built = [], [], []
        accept_tables = oracle._accept_tables

        def recording_tables(*args):
            started.append(args)
            try:
                built.append(accept_tables(*args))
            except oracle._Refused:
                built.append("raised")
                raise
            return built[-1]

        def monotonic():
            if started:
                readings.append(None)
            return 100.0 if len(readings) > 1 else 0.0

        monkeypatch.setattr(oracle, "_accept_tables", recording_tables)
        monkeypatch.setattr(oracle, "time", SimpleNamespace(monotonic=monotonic))
        outcome = brute_force_factor_search(
            parse_polynomial("x^2000+1", F3, 1, ["x"]), SearchBudget(time_limit=1.0)
        )
        assert outcome == BudgetExceeded("time limit exceeded")
        assert built == ["raised"] and len(readings) == 2

    def test_time_limit_holds_while_candidates_are_counted(self, monkeypatch):
        # x^100000 + 1 over F_3 has 50,000 candidate degrees, and summing their
        # q^d tails up front once took seconds; the clock passes the deadline
        # right after it is set, so the search must stop before any search starts
        clock, searches, search = iter([0.0]), [], oracle._Search
        monkeypatch.setattr(oracle, "time", SimpleNamespace(monotonic=lambda: next(clock, 100.0)))
        monkeypatch.setattr(oracle, "_Search", lambda *args: searches.append(args) or search(*args))
        outcome = brute_force_factor_search(
            parse_polynomial("x^100000+1", F3, 1, ["x"]), SearchBudget(time_limit=1.0)
        )
        assert outcome == BudgetExceeded("time limit exceeded")
        assert searches == []

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
        # moves these counts, and should say why (the 2-line filter made
        # 8,747 divisions on the m = 3 input; eight lines without
        # leading-form runs made 151 there and 21,479 on the m = 4 input).
        # The factor-degree sieve closes every degree of both inputs on
        # F_27-lines, so the filter's counts are taken with every degree open
        divisions = []
        exact_divide = Polynomial.exact_divide

        def counting_divide(self, d):
            divisions.append(d)
            return exact_divide(self, d)

        monkeypatch.setattr(Polynomial, "exact_divide", counting_divide)
        inputs = [build_g(GParams.of(F3, 3, 1, 1)), build_g(GParams.of(F3, 4, 1, 2))]
        outcomes = [NoFactorFound(29523), NoFactorFound(7174452)]
        assert [brute_force_factor_search(p) for p in inputs] == outcomes
        assert divisions == []
        monkeypatch.setattr(oracle, "_open_degrees", lambda p, cap, deadline: set(range(1, cap + 1)))
        for p, outcome, count in zip(inputs, outcomes, (6, 33)):
            divisions.clear()
            assert brute_force_factor_search(p) == outcome
            assert len(divisions) == count

    def test_accept_tables_are_budgeted(self, small_arrays):
        # the candidate space (about 4 M) fits, and x^4 + y^4 has no linear
        # factor over F_1999, but a quadratic's table of 1999^3 bytes does
        # not: refused before that table is allocated
        p = parse_polynomial("x^4+y^4", prime_field(1999), 2, ["x", "y"])
        outcome = brute_force_factor_search(
            p, SearchBudget(homogeneous_only=True)
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

    def test_table_budget_checked_before_filter_lines(self, small_arrays):
        # over F_1000003 the degree-1 table alone exceeds the budget, and the
        # refusal comes before any filter line is restricted
        q = 1000003
        p = parse_polynomial("x^2+y^2", prime_field(q), 2, ["x", "y"])
        outcome = brute_force_factor_search(p)
        assert outcome == BudgetExceeded(
            f"accept table of {q**2} bytes for degree 1 exceeds budget 8388608"
        )

    def test_filter_lines_are_budgeted(self, small_arrays):
        # the eight filter lines' int64 restrictions of x^2000000 + 1 would be
        # 128 MB: refused before the sieve or _filter_lines allocates them
        p = parse_polynomial("x^2000000+1", F3, 1, ["x"])
        size = oracle._LINES * 2000001 * 8
        assert brute_force_factor_search(p) == BudgetExceeded(
            f"filter lines of {size} bytes for input degree 2000000 exceed budget "
            f"{oracle._MAX_TABLE_BYTES}"
        )

    def test_filter_lines_hold_no_table_of_q_rows(self, small_arrays):
        # every residue's powers up to the input degree would be 2003 * 20001
        # entries, 320 MB; the restrictions alone are 8 * 20001
        q = 2003
        p = parse_polynomial("x^20000+y^20000", prime_field(q), 2, ["x", "y"])
        lines = oracle._filter_lines(p, q, 20000)
        assert len(lines) == oracle._LINES
        for vy, (c,), restricted in lines:
            assert restricted[0] == pow(c, 20000, q) and restricted[20000] == 1
            assert not restricted[1:20000].any()

    def test_filter_lines_hold_no_map_of_every_term(self):
        # a (deg+1) x terms map per line would be 8 * 81 * 3321 entries, 17 MB
        names = ["x", "y"]
        text = "+".join(f"x^{i}*y^{j}" for i in range(81) for j in range(81 - i))
        p = parse_polynomial(text, F3, 2, names)
        tracemalloc.start()
        try:
            lines = oracle._filter_lines(p, 3, 80)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lines and peak < 4 * 2**20
        for vy, (c,), restricted in lines:
            expected = [0] * 81
            for e in p.terms:
                expected[e[vy]] += c ** e[1 - vy]
            assert restricted.tolist() == [v % 3 for v in expected]


class TestFactorDegreeSieve:
    """The sieve skips only degrees with no divisor, so it changes no outcome."""

    @pytest.mark.parametrize(
        "q, m, offsets",
        [pytest.param(q, 3, (0, 1, 2), id=str(q)) for q in (3, 5, 7, 11, 13)]
        # inhomogeneous inputs past m = 3, whose own sieve stops at the last
        # degree their leading form leaves open
        + [pytest.param(5, 4, (1, 2), id="5-m4")],
    )
    def test_same_outcomes_with_every_degree_open(self, monkeypatch, q, m, offsets):
        inputs = [build_g(GParams.of(prime_field(q), m, a, t)) for a in offsets for t in range(q)]
        sieved = [brute_force_factor_search(p) for p in inputs]
        monkeypatch.setattr(oracle, "_open_degrees", lambda p, cap, deadline: set(range(1, cap + 1)))
        assert [brute_force_factor_search(p) for p in inputs] == sieved

    def test_same_outcomes_with_every_degree_open_over_f3_at_m4(self, monkeypatch):
        inputs = [build_g(GParams.of(F3, 4, a, t)) for a in (0, 1) for t in range(3)]
        sieved = [brute_force_factor_search(p) for p in inputs]
        monkeypatch.setattr(oracle, "_open_degrees", lambda p, cap, deadline: set(range(1, cap + 1)))
        assert [brute_force_factor_search(p) for p in inputs] == sieved

    @staticmethod
    def _record(monkeypatch):
        """The name of each filter-line build, accept-table build and division, in order."""
        made = []
        for owner, name in (
            (oracle, "_filter_lines"), (oracle, "_accept_tables"), (Polynomial, "exact_divide")
        ):
            def recording(*args, call=getattr(owner, name), name=name):
                made.append(name)
                return call(*args)

            monkeypatch.setattr(owner, name, recording)
        return made

    def test_irreducible_input_is_decided_without_a_search(self, monkeypatch):
        # every degree is closed: the 47,079,608 forms of degree 1 and 2 are
        # charged, none is enumerated (the search alone took 0.18 s)
        made = self._record(monkeypatch)
        outcome = brute_force_factor_search(build_g(GParams.of(F7, 4, 0, 3)))
        assert outcome == NoFactorFound(47079608)
        assert made == []

    @pytest.mark.parametrize("a, candidates", [(0, 7174574), (1, 5230176600)])
    def test_f3_m5_is_decided_without_a_division(self, monkeypatch, a, candidates):
        # F_27-lines close every degree of g for a = 0, and of its leading form
        # for a = 1, past which g's own search has no degree, though g's lines
        # leave degree 1 open (each a took about 1 s)
        made = self._record(monkeypatch)
        outcome = brute_force_factor_search(build_g(GParams.of(F3, 5, a, 2)))
        assert outcome == NoFactorFound(candidates)
        assert made == []

    def test_closed_leading_form_leaves_no_degree_to_search(self, monkeypatch):
        # the sieve closes both degrees of the leading form, so no run can hold
        # a divisor, while g's own lines leave degree 1 open
        made = self._record(monkeypatch)
        outcome = brute_force_factor_search(build_g(GParams.of(F5, 3, 1, 1)))
        assert outcome == NoFactorFound(2441405)
        assert made == []

    def test_closed_degree_is_charged_to_the_table_budget(self, monkeypatch):
        # x^4 + x*y^3 + y^4 is irreducible over F_211, so the sieve closes
        # degrees 1 and 2; the degree-2 table of 211^3 bytes is refused all the same
        q = 211
        p = parse_polynomial("x^4+x*y^3+y^4", prime_field(q), 2, ["x", "y"])
        assert oracle._open_degrees(p, 2, inf) == set()
        refused = BudgetExceeded(
            f"accept table of {q**3} bytes for degree 2 exceeds budget {oracle._MAX_TABLE_BYTES}"
        )
        assert brute_force_factor_search(p) == refused
        monkeypatch.setattr(oracle, "_open_degrees", lambda p, cap, deadline: set(range(1, cap + 1)))
        assert brute_force_factor_search(p) == refused

    def test_sieve_restricts_to_no_line_past_the_last_closure(self, monkeypatch):
        # the irreducible F_7, m = 4, t = 3 quartic: its first line closes
        # degrees 1 and 2, and the sieve restricts it to no second line, nor
        # to any line when no degree is asked for
        p, field = build_g(GParams.of(F7, 4, 0, 3)), _univariate.field(7)
        lines, restrictions = [], field.restrictions
        monkeypatch.setattr(
            field, "restrictions", lambda *a: (lines.append(r) or r for r in restrictions(*a))
        )
        assert oracle._open_degrees(p, 2, inf) == set() and len(lines) == 1
        assert oracle._open_degrees(p, 0, inf) == set() and len(lines) == 1

    def test_closed_degree_below_an_open_one_builds_only_tables(self, monkeypatch):
        # (x^2 + 2 y^2)(x^2 + 3 y^2) over F_5: the sieve closes degree 1 and
        # leaves 2 open, so degree 1 builds its accept tables, which degree 2
        # extends, but no low-pattern codes of its own
        x = ["x", "y"]
        f, g = (parse_polynomial(t, F5, 2, x) for t in ("x^2+2*y^2", "x^2+3*y^2"))
        assert oracle._open_degrees(f * g, 2, inf) == {2}
        codes, tables = [], []
        low_codes, accept_tables = oracle._low_codes, oracle._accept_tables
        monkeypatch.setattr(oracle, "_low_codes", lambda *a: codes.append(a) or low_codes(*a))
        monkeypatch.setattr(
            oracle, "_accept_tables", lambda *a: tables.append(a) or accept_tables(*a)
        )
        outcome = brute_force_factor_search(f * g, SearchBudget(homogeneous_only=True))
        assert outcome == FactorFound(f, g)
        assert [a[2] for a in tables] == [1, 2] and len(codes) == 1

    def test_restriction_matches_evaluation(self):
        rng = Random(23)
        for q in (5, 13):
            field = prime_field(q)
            for _ in range(20):
                p = random_polynomial(field, 3, rng, nonzero=True)
                point, direction = [rng.randrange(q) for _ in "xyz"], [rng.randrange(q) for _ in "xyz"]
                lines = [(point, direction)]
                (restricted,) = _univariate.field(q).restrictions(p.sparse_terms(), lines)
                assert len(restricted) <= p.degree() + 1
                for s in range(q):
                    line = [field.from_int(c + s * v) for c, v in zip(point, direction)]
                    assert sum(c * s**k for k, c in enumerate(restricted)) % q == evaluate(p, line).value


    def test_restriction_over_f27_matches_evaluation(self):
        # F_3 inputs up to the sieve's degree 12, whose z-width 25 is not a
        # multiple of 3, restricted to lines of F_27^3, each point of the
        # line evaluated on the field's tables
        F27, rng = _univariate.field(27), Random(27)
        add, mul = F27.add_table, F27.mul_table
        inputs = [random_polynomial(F3, 3, rng, max_exp=4, nonzero=True) for _ in range(20)]
        inputs.append(parse_polynomial("x^4*y^4*z^4+2*x^12+y^5*z^7+x+1", F3, 3, list("xyz")))
        assert max(p.degree() for p in inputs) == 12
        for p in inputs:
            point, direction = [rng.randrange(27) for _ in "xyz"], [rng.randrange(27) for _ in "xyz"]
            (restricted,) = F27.restrictions(p.sparse_terms(), [(point, direction)])
            assert len(restricted) <= p.degree() + 1
            for s in range(27):
                line = [add[c][mul[s][v]] for c, v in zip(point, direction)]
                value = 0
                for exps, c in p.terms.items():
                    term = c.value
                    for x, e in zip(line, exps):
                        for _ in range(e):
                            term = mul[term][x]
                    value = add[value][term]
                at_s = 0
                for c in reversed(restricted):
                    at_s = add[mul[at_s][s]][c]
                assert at_s == value


def _reference_search(p: Polynomial, degree: Optional[int] = None):
    """The search without the line filter: every monic candidate, in order.

    Enumeration as documented in ``oracle``: degrees ascending, then blocks
    from the latest leading monomial (descending grlex) to the first, then
    tail coefficient vectors in ascending lexicographic order. Each candidate
    is tested by the division algorithm for one divisor, run on dense
    coefficient arrays for a batch of candidates at once; it divides p when
    the remainder is zero. The first divisor's quotient comes from
    ``Polynomial.exact_divide``. Dividing every candidate with
    ``exact_divide`` itself would take minutes on the F_5, a = 1 inputs.

    With a degree, the list of (index, divisor) for every monic divisor of
    that degree instead, in order; the index is the divisor's coefficient
    vector read as one base-q number, the first monomial most significant.
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
    tried, divisors = 0, []
    for d in range(1, deg // 2 + 1) if degree is None else [degree]:
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
                for tail in tails.T.tolist():
                    coeffs = [1] + tail
                    terms = {e: p.field.from_int(c) for e, c in zip(monos[lead:], coeffs)}
                    cand = Polynomial.from_terms(p.field, arity, terms)
                    if degree is None:
                        return FactorFound(cand, p.exact_divide(cand))
                    divisors.append((n_block + int(places @ tail), cand))
    return NoFactorFound(tried) if degree is None else divisors


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


class TestDivisorSequence:
    """_Search.divisors yields every monic divisor, in strictly ascending index."""

    F13 = prime_field(13)
    # over F_13 the quadratic forms' chunks hold 13^4 indices (low = 4): x*z +
    # y^2 falls below 13^4, x*y on it and x^2 + y*z past it; of the linear
    # forms, y falls below 13^2 and x on it
    HOMOGENEOUS = [("x^2+y*z", "x*z+y^2"), ("x", "y", "x^2+y*z")]

    @staticmethod
    def _product(field, factors, names):
        p = Polynomial.constant(field, len(names), 1)
        for text in factors:
            p = p * parse_polynomial(text, field, len(names), names)
        return p

    @staticmethod
    def _sequences(p, leading=None):
        """{d: [(index, factor)]} from one _Search, degrees ascending."""
        search, sequences = oracle._Search(p, p.degree() // 2, inf), {}
        for d in range(1, p.degree() // 2 + 1):
            runs = None if leading is None else [i for i, _ in leading.divisors(d)]
            sequences[d] = []
            for index, found in search.divisors(d, runs):
                assert found.factor * found.quotient == p
                sequences[d].append((index, found.factor))
        return sequences

    def _check(self, p, leading=None):
        got = self._sequences(p, leading)
        assert got == {d: _reference_search(p, d) for d in got}
        for sequence in got.values():
            indices = [index for index, _ in sequence]
            assert all(a < b for a, b in zip(indices, indices[1:]))
        return got

    @pytest.mark.parametrize("factors", HOMOGENEOUS)
    def test_homogeneous(self, factors):
        p = self._product(self.F13, factors, ["x", "y", "z"])
        got = self._check(p)
        first_chunk = {1: 13**2, 2: 13**4}  # the indices q^low of each degree
        past = {i >= first_chunk[d] for d, sequence in got.items() for i, _ in sequence}
        assert past == {False, True}

    @pytest.mark.parametrize("factors", HOMOGENEOUS)
    def test_homogeneous_small_chunks(self, monkeypatch, factors):
        # chunks of 13^2 indices: each range [13^t, 2 * 13^t), t >= 2, splits
        monkeypatch.setattr(oracle, "_CHUNK", 13**2)
        self._check(self._product(self.F13, factors, ["x", "y", "z"]))

    @pytest.mark.parametrize("chunk", [oracle._CHUNK, 5**2])
    def test_runs_of_several_leading_forms(self, monkeypatch, chunk):
        # the leading form x^3*y^2 has the degree-2 divisors x^2, x*y and y^2,
        # each a run of 5^3 candidates (split in chunks of 5^2 under the patch)
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        p = self._product(F5, ["x^2+2*y+1", "x*y+x+3", "y+1"], ["x", "y"])
        leading = oracle._Search(p.leading_homogeneous_component(), 2, inf)
        forms = oracle._Search(leading.p, 2, inf)
        assert [len(list(forms.divisors(d))) for d in (1, 2)] == [2, 3]
        got = self._check(p, leading)
        assert [len(s) for s in got.values()] == [1, 2]
        # without runs every degree-d candidate is tried, with the same result
        assert self._sequences(p) == got


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
            value = evaluate(p, [field.from_int(v) for v in point])
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
        with pytest.raises(ValueError):
            discriminant_check(CHAR2, 3, 3)


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
