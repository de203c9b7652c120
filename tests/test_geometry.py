import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from simplexpoly.geometry import (
    quadruple_residual,
    random_affine_weights,
    realize_in_plane,
    regular_simplex,
    relation_residual,
    relation_value,
    solve_fourth_distance,
)


class TestRegularSimplex:
    def test_triangle(self):
        s = regular_simplex(2, 1.0)
        for i in range(3):
            for j in range(i + 1, 3):
                assert math.isclose(
                    float(np.linalg.norm(s.vertices[i] - s.vertices[j])), 1.0,
                    rel_tol=1e-12,
                )

    def test_tetrahedron_edge_two(self):
        s = regular_simplex(3, 2.0)
        distances = [
            float(np.linalg.norm(s.vertices[i] - s.vertices[j]))
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        assert len(distances) == 6
        assert all(math.isclose(d, 2.0, rel_tol=1e-12) for d in distances)

    def test_affine_hull_dimension(self):
        s = regular_simplex(5, 1.0)
        assert np.linalg.matrix_rank(s.vertices[1:] - s.vertices[0]) == 5

    @pytest.mark.parametrize("n,a", [(1, 1.0), (2, 0.0), (2, -3.0), (2, math.inf)])
    def test_invalid_parameters(self, n, a):
        with pytest.raises(ValueError):
            regular_simplex(n, a)


class TestRelationResidual:
    def test_at_a_vertex(self):
        s = regular_simplex(3, 1.5)
        dt = relation_residual(s, [1.0, 0.0, 0.0, 0.0])
        assert dt.distances[0] == 0.0
        assert all(math.isclose(d, 1.5, rel_tol=1e-12) for d in dt.distances[1:])
        assert abs(dt.residual) < 1e-12

    def test_centroid_large_edge(self):
        s = regular_simplex(2, 8.0)
        dt = relation_residual(s, [1.0 / 3.0] * 3)
        assert abs(dt.residual) < 1e-9

    def test_weights_must_sum_to_one(self):
        s = regular_simplex(2, 1.0)
        with pytest.raises(ValueError):
            relation_residual(s, [0.5, 0.5, 0.5])
        with pytest.raises(ValueError):
            relation_residual(s, [1.0, 0.0])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_thousand_random_affine_points(self, n):
        s = regular_simplex(n, 1.0)
        rng = Random(n)
        worst = max(
            abs(relation_residual(s, random_affine_weights(n, rng)).residual)
            for _ in range(1000)
        )
        assert worst < 1e-9

    def test_vertex_relabeling_keeps_distances(self):
        s = regular_simplex(3, 2.0)
        rng = Random(5)
        w = random_affine_weights(3, rng)
        base = relation_residual(s, w)
        rolled = relation_residual(s, w[1:] + w[:1])
        assert sorted(base.distances) == pytest.approx(sorted(rolled.distances))
        assert base.residual == pytest.approx(rolled.residual, abs=1e-12)

    def test_scaling_invariance(self):
        w = random_affine_weights(3, Random(7))
        residuals = [
            relation_residual(regular_simplex(3, lam), w).residual
            for lam in (0.01, 1.0, 100.0)
        ]
        assert max(residuals) - min(residuals) < 1e-9

    def test_consistency_with_symbolic_family(self):
        # numeric quadruples satisfying the relation kill the t = 3 family
        # member with the side as a fourth variable, exactly over Q
        from simplexpoly.family import build_f
        from simplexpoly.field import RATIONAL

        f = build_f(RATIONAL, 4, 3)
        s = regular_simplex(2, 1.25)
        rng = Random(11)
        for _ in range(25):
            dt = relation_residual(s, random_affine_weights(2, rng))
            point = [RATIONAL.coerce(Fraction(v)) for v in (dt.side,) + dt.distances]
            value = float(f.evaluate(point).value)
            scale = max(1.0, (dt.side**2 + sum(d * d for d in dt.distances)) ** 2)
            assert abs(value) / scale < 1e-9


class TestSolveFourthDistance:
    def test_three_four_five(self):
        solutions = solve_fourth_distance([3.0, 4.0, 5.0])
        target = math.sqrt(25 + 12 * math.sqrt(3.0))
        other = math.sqrt(25 - 12 * math.sqrt(3.0))
        assert any(abs(v - target) < 1e-9 for v in solutions)
        assert any(abs(v - other) < 1e-9 for v in solutions)

    def test_five_seven_eight(self):
        solutions = solve_fourth_distance([5.0, 7.0, 8.0])
        assert any(abs(v - 3.0) < 1e-9 for v in solutions)

    def test_eighty_hundred_onefifty(self):
        solutions = solve_fourth_distance([80.0, 100.0, 150.0])
        assert len(solutions) == 2
        for v in solutions:
            assert abs(quadruple_residual(v, [80.0, 100.0, 150.0])) < 1e-9

    def test_all_solutions_satisfy_relation(self):
        rng = Random(13)
        for _ in range(200):
            known = [rng.uniform(0.0, 20.0) for _ in range(3)]
            for v in solve_fourth_distance(known):
                assert abs(quadruple_residual(v, known)) < 1e-9

    def test_no_solution_is_empty_list(self):
        assert solve_fourth_distance([0.0, 0.0, 10.0]) == []

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_fourth_distance([1.0, 2.0])
        with pytest.raises(ValueError):
            solve_fourth_distance([-1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            solve_fourth_distance([1.0, 2.0, math.inf])

    def test_vertex_distance_pattern(self):
        # distances (0, a, a) from a vertex force the side itself as a solution
        solutions = solve_fourth_distance([0.0, 2.0, 2.0])
        assert any(abs(v - 2.0) < 1e-12 for v in solutions)


class TestRealizeInPlane:
    def test_classic_quadruple(self):
        point = realize_in_plane(8.0, 3.0, 5.0, 7.0)
        assert point is not None

    def test_relation_without_realization(self):
        # (0, 1, 1, 1) satisfies the relation with side 0 only; side 1 with
        # distances (0, 1, 1) realizes at a vertex
        assert realize_in_plane(1.0, 0.0, 1.0, 1.0) is not None

    def test_far_distances_rejected(self):
        assert realize_in_plane(1.0, 10.0, 10.0, 30.0) is None

    def test_relation_value_zero_on_solutions(self):
        assert relation_value(8.0, [3.0, 5.0, 7.0]) == 0.0
