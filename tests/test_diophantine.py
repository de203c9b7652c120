import math

import pytest
from hypothesis import given, strategies as st

from simplexpoly import diophantine
from simplexpoly.diophantine import (
    SolutionTuple,
    enumerate_solutions,
    is_solution,
    realizability_report,
    scaling_class_representative,
)


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

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            enumerate_solutions(0)

    def test_jobs_match_serial(self):
        serial = enumerate_solutions(16)
        assert enumerate_solutions(16, jobs=3) == serial

    def test_bad_jobs(self):
        with pytest.raises(ValueError):
            enumerate_solutions(5, jobs=0)

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        # a fake pool runs the shards in-process and records the worker count
        workers = []

        class FakePool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(diophantine, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(diophantine.os, "cpu_count", lambda: 4)
        assert enumerate_solutions(16, jobs=1000) == enumerate_solutions(16)
        assert workers == [4]


class TestRealizability:
    def test_classic_quadruple_realizes_with_largest_side(self):
        sol = SolutionTuple((3, 5, 7, 8), True)
        report = realizability_report(sol)
        assert 3 in report["side_positions_realizable"]
        assert all(abs(r) < 1e-9 for r in report["relation_residuals"])

    def test_every_enumerated_tuple_reported(self):
        # the relation is necessary, not sufficient: report, never assert
        for s in enumerate_solutions(10):
            report = realizability_report(s)
            assert set(report["side_positions_realizable"]) <= {0, 1, 2, 3}

    def test_scaling_class(self):
        assert scaling_class_representative(SolutionTuple((6, 10, 14, 16), False)) == (
            3, 5, 7, 8,
        )
