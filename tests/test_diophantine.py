import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import reference_realizability_report
from simplexpoly import diophantine
from simplexpoly.diophantine import (
    SolutionTuple,
    enumerate_solutions,
    is_solution,
    realizability_report,
)


def _reference_scan(bound):
    """enumerate_solutions as a scalar closed-form loop over every (w, x, y)."""
    found = []
    for w in range(bound + 1):
        w2, w4 = w * w, w**4
        for x in range(w, bound + 1):
            x2, x4 = x * x, x**4
            for y in range(x, bound + 1):
                c = w2 + x2 + y * y
                d = w4 + x4 + y**4
                disc = 3 * (c * c - 2 * d)
                if disc < 0:
                    continue
                r = math.isqrt(disc)
                if r * r != disc:
                    continue
                for num in {c + r, c - r}:
                    if num < 0 or num % 2:
                        continue
                    s = num // 2
                    z = math.isqrt(s)
                    if z * z == s and y <= z <= bound:
                        found.append((w, x, y, z))
    tuples = sorted(set(found) - {(0, 0, 0, 0)})
    return [SolutionTuple(t, math.gcd(*t) == 1) for t in tuples]


@pytest.fixture(scope="module")
def reference():
    return {b: _reference_scan(b) for b in list(range(1, 61)) + [150]}


def _is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


def _no_scan(bound):
    raise AssertionError("a refused bound must not start the scan")


class TestIsSolution:
    def test_classic_quadruple(self):
        assert is_solution(3, 5, 7, 8)
        assert (3**2 + 5**2 + 7**2 + 8**2) ** 2 == 21609 == 3 * 7203

    def test_counterexample(self):
        assert not is_solution(1, 2, 3, 4)

    def test_degenerate_zero(self):
        assert is_solution(0, 0, 0, 0)

    def test_vertex_family(self):
        for k in range(1, 6):
            assert is_solution(0, k, k, k)

    @given(st.permutations([3, 5, 7, 8]))
    def test_symmetric_in_arguments(self, perm):
        assert is_solution(*perm)

    @given(
        w=st.integers(-20, 20), x=st.integers(-20, 20),
        y=st.integers(-20, 20), z=st.integers(-20, 20),
    )
    def test_even_in_each_argument(self, w, x, y, z):
        assert is_solution(w, x, y, z) == is_solution(abs(w), abs(x), abs(y), abs(z))


class TestEnumerate:
    def test_bound_ten_contents(self):
        values = [s.values for s in enumerate_solutions(10)]
        assert (3, 5, 7, 8) in values
        assert (0, 1, 1, 1) in values
        assert all(v[0] == 0 or v == (3, 5, 7, 8) for v in values)

    def test_bound_twenty_includes_doubled_classic(self):
        values = [s.values for s in enumerate_solutions(20)]
        assert (6, 10, 14, 16) in values
        doubled = next(s for s in enumerate_solutions(20) if s.values == (6, 10, 14, 16))
        assert not doubled.primitive

    def test_all_outputs_are_solutions(self):
        for s in enumerate_solutions(30):
            assert is_solution(*s.values)
            assert s.values == tuple(sorted(s.values))
            assert s.primitive == (math.gcd(*s.values) == 1)

    def test_matches_quadruple_loop_oracle(self):
        bound = 25
        expected = [
            (w, x, y, z)
            for w in range(bound + 1)
            for x in range(w, bound + 1)
            for y in range(x, bound + 1)
            for z in range(y, bound + 1)
            if (w, x, y, z) != (0, 0, 0, 0) and is_solution(w, x, y, z)
        ]
        assert [s.values for s in enumerate_solutions(bound)] == expected

    def test_monotone_in_bound(self):
        small = {s.values for s in enumerate_solutions(10)}
        large = {s.values for s in enumerate_solutions(20)}
        assert small <= large

    def test_scaling_closure(self):
        bound = 24
        values = {s.values for s in enumerate_solutions(bound)}
        for v in values:
            k = 2
            scaled = tuple(k * c for c in v)
            if max(scaled) <= bound:
                assert scaled in values

    def test_zero_tuple_excluded(self):
        assert all(s.values != (0, 0, 0, 0) for s in enumerate_solutions(5))

    @pytest.mark.parametrize("step", [diophantine._STEP, 37])
    def test_matches_scalar_reference(self, monkeypatch, reference, step):
        # with 37-triple steps, rows of up to 76 triples are steps alone and
        # short rows share steps across values of w
        monkeypatch.setattr(diophantine, "_STEP", step)
        for bound, expected in reference.items():
            assert enumerate_solutions(bound) == expected, bound

    @pytest.mark.parametrize("step", [1, 2, 37])
    def test_steps_hold_whole_rows(self, monkeypatch, step):
        monkeypatch.setattr(diophantine, "_STEP", step)
        for bound in (1, 2, 17, 60):
            rows = []
            for w, x, n in diophantine._row_steps(bound):
                assert n.sum() <= step or len(n) == 1
                rows += zip(w.tolist(), x.tolist(), n.tolist())
            # row (w, x) holds y = x .. min(bound, w + x)
            assert rows == [
                (w, x, min(bound, w + x) - x + 1)
                for w in range(bound + 1)
                for x in range(w, bound + 1)
            ]

    @pytest.mark.parametrize("step", [1, 2, 37, diophantine._STEP])
    def test_steps_are_full(self, monkeypatch, step):
        # rows are built in bands, but a step closes only when the next row
        # does not fit, as if the rows were packed one by one
        monkeypatch.setattr(diophantine, "_STEP", step)
        for bound in (1, 17, 60, 200):
            steps = [n.tolist() for _, _, n in diophantine._row_steps(bound)]
            for held, following in zip(steps, steps[1:]):
                assert sum(held) + following[0] > step

    @given(st.lists(st.integers(0, 10**6), min_size=3, max_size=3))
    def test_negative_discriminant_exactly_past_the_triangle(self, sides):
        # why rows stop at y = w + x: past it the discriminant has no root
        w, x, y = sorted(sides)
        c = w * w + x * x + y * y
        d = w**4 + x**4 + y**4
        assert (c * c - 2 * d < 0) == (y > w + x)

    @staticmethod
    def _filter_vs_scalar_scan(bound, ws):
        """The filter's square triples in the rows of ws, against an exact
        scalar scan of the same w that runs y to the bound, past the cut at
        y = w + x; returns the triples the rows hold and the scan visits."""
        exact, visited = [], 0
        for w in ws:
            for x in range(w, bound + 1):
                for y in range(x, bound + 1):
                    c = w * w + x * x + y * y
                    disc = 3 * (c * c - 2 * (w**4 + x**4 + y**4))
                    visited += 1
                    if _is_square(disc):
                        exact.append((w, x, y, c, math.isqrt(disc)))
        w_rows, x_rows, n_rows = (np.concatenate(p) for p in zip(*diophantine._row_steps(bound)))
        mine = np.isin(w_rows, ws)
        got = diophantine._square_triples(w_rows[mine], x_rows[mine], n_rows[mine])
        assert sorted(zip(*(v.tolist() for v in got))) == exact
        return int(n_rows[mine].sum()), visited, len(exact)

    def test_filter_is_exact_at_the_largest_bound(self):
        # the largest discriminants, up to 9 * bound^4, have exact int64 values
        # and float roots; for w >= bound / 2 the rows run y to the bound
        bound = diophantine._MAX_BOUND
        held, visited, squares = self._filter_vs_scalar_scan(bound, range(bound - 100, bound + 1))
        assert held == visited
        assert squares == 109

    def test_cut_loses_no_square(self):
        # below bound / 2 the rows stop at y = w + x < bound for x < bound - w
        bound = diophantine._MAX_BOUND
        w = 400
        held, visited, squares = self._filter_vs_scalar_scan(bound, [w])
        assert visited - held == (bound - 2 * w) * (bound - 2 * w + 1) // 2
        assert squares > 0

    def test_pinned_bound_400(self):
        # recorded from the scan over every (w, x, y) before the triangle cut
        solutions = enumerate_solutions(400)
        assert len(solutions) == 621
        assert sum(s.primitive for s in solutions) == 57
        text = json.dumps([[list(s.values), s.primitive] for s in solutions])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9e397fa9fd5a1bedff4ab9a140faf046595d8fa874e441ae32890a4b426492ae"
        )

    def test_bad_bound(self, monkeypatch):
        monkeypatch.setattr(diophantine, "_row_steps", _no_scan)
        for bound in (0, diophantine._MAX_BOUND + 1):
            with pytest.raises(ValueError):
                enumerate_solutions(bound)

    def test_largest_bound_accepted(self, monkeypatch):
        monkeypatch.setattr(diophantine, "_row_steps", lambda bound: iter(()))
        assert enumerate_solutions(diophantine._MAX_BOUND) == []


class TestRealizability:
    def test_classic_quadruple_realizes_with_largest_side(self):
        sol = SolutionTuple((3, 5, 7, 8), True)
        report = realizability_report(sol)
        assert 3 in report["side_positions_realizable"]
        assert all(abs(r) < 1e-9 for r in report["relation_residuals"])

    def test_matches_reference_report(self):
        for s in enumerate_solutions(400):
            assert realizability_report(s) == reference_realizability_report(s), s.values

    def test_near_miss_not_realizable(self):
        # off the relation by one in the last entry, within a relative 1e-6 of
        # (3, 5, 7, 8) scaled by a million
        sol = SolutionTuple((3000000, 5000000, 7000000, 8000001), False)
        assert not is_solution(*sol.values)
        assert realizability_report(sol)["side_positions_realizable"] == []

    def test_negative_entry_not_realizable(self):
        # the relation is even in each entry, but a distance is never negative
        sol = SolutionTuple((-3, 5, 7, 8), True)
        assert is_solution(*sol.values)
        assert realizability_report(sol)["side_positions_realizable"] == []

    def test_every_nonzero_side_realizable_up_to_300(self):
        # with a positive side the relation is also sufficient: in the square of
        # the third distance its discriminant is 48 Area^2 of (side, d1, d2)
        solutions = enumerate_solutions(300)
        assert len(solutions) == 454
        for s in solutions:
            report = realizability_report(s)
            assert report["side_positions_realizable"] == [i for i, v in enumerate(s.values) if v]
            assert report["relation_residuals"] == [0.0] * 4

    def test_every_enumerated_tuple_reported(self):
        # with a positive side the relation is also sufficient (asserted up to
        # 300 above); here every tuple, zero sides included, gets a report
        for s in enumerate_solutions(10):
            report = realizability_report(s)
            assert set(report["side_positions_realizable"]) <= {0, 1, 2, 3}

