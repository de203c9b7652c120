import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import evaluate, reference_simplex_error
from simplexpoly import geometry
from simplexpoly.geometry import (
    RegularSimplex,
    quadruple_residual,
    random_affine_weights,
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

    def test_vertices_checked(self):
        from simplexpoly.geometry import RegularSimplex

        vertices = regular_simplex(3, 1.0).vertices
        with pytest.raises(ValueError):
            RegularSimplex(3, 1.0, vertices[:, :3])
        moved = vertices.copy()
        moved[3] *= 2  # vertex 3 moves away from the other three
        with pytest.raises(ValueError):
            RegularSimplex(3, 1.0, moved)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_edge_or_vertex_named(self, bad):
        # a NaN distance passed the edge test, and the rank check then failed in the SVD
        vertices = regular_simplex(3, 1.0).vertices
        with pytest.raises(ValueError, match=f"^edge {bad} is not finite$"):
            RegularSimplex(3, bad, vertices)
        moved = vertices.copy()
        moved[2, 1] = bad
        with pytest.raises(ValueError, match=f"^vertex 2 has coordinate 1 = {bad}, which is not finite$"):
            RegularSimplex(3, 1.0, moved)


def _simplex_error(n, edge, vertices):
    try:
        RegularSimplex(n, edge, vertices)
    except ValueError as exc:
        return str(exc)
    return None


class TestSimplexCheckMatchesPairwiseNorms:
    """RegularSimplex accepts and rejects as a check of each pair's own norm
    would, and names the same first bad pair with the same distance."""

    @given(
        n=st.integers(2, 12),
        scale=st.sampled_from([0.75, 1.0, 2.5]),
        offset=st.sampled_from([0.0, 1e6]),
        move=st.none() | st.tuples(st.integers(0, 12), st.integers(0, 12),
                                   st.floats(1e-9, 1e-2), st.booleans()),
    )
    @settings(max_examples=200, deadline=None)
    def test_regular_translated_and_perturbed(self, n, scale, offset, move):
        # scale * e_i + offset is exact for these scales, so the translated
        # simplex stays regular to the last bit
        vertices = scale * np.eye(n + 1) + offset
        if move is not None:
            # one coordinate of one vertex: only the edge to vertex c moves
            # to first order (by delta / 2), the others by delta^2 / 4
            k, c, delta, up = move
            vertices[k % (n + 1), c % (n + 1)] += (delta if up else -delta) * scale
        edge = scale * math.sqrt(2.0)
        want = reference_simplex_error(n, edge, vertices, geometry._REL_TOL)
        assert _simplex_error(n, edge, vertices) == want
        assert (want is None) == (move is None)

    @pytest.mark.parametrize("n", [2, 5, 11])
    def test_translated_standard_embedding(self, n):
        # a + 1e6 rounds each coordinate: both checks see the same rounded edges
        vertices = regular_simplex(n, 2.0).vertices + 1e6
        want = reference_simplex_error(n, 2.0, vertices, geometry._REL_TOL)
        assert _simplex_error(n, 2.0, vertices) == want

    def test_nearly_coincident_vertices(self):
        # a rotated simplex with vertex 3 moved to 1e-14 from vertex 1: the
        # Gram formula's squared edge (1, 3) can round below zero, and the
        # edge is still named, not left to the rank check
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))
        vertices = q.copy()
        vertices[3] = vertices[1] + 1e-14
        want = reference_simplex_error(3, math.sqrt(2.0), vertices, geometry._REL_TOL)
        assert want.startswith("vertices 1, 3 are ")
        assert _simplex_error(3, math.sqrt(2.0), vertices) == want

    @pytest.mark.parametrize("case", ["coincident", "collinear", "repeated vertex"])
    def test_rank_deficient(self, monkeypatch, case):
        n = 3
        if case == "coincident":
            vertices = np.ones((n + 1, n + 1))
        elif case == "collinear":
            vertices = np.outer(np.arange(n + 1.0), np.ones(n + 1))
        else:
            vertices = np.eye(n + 1)
            vertices[3] = vertices[1]
        for rel_tol in (geometry._REL_TOL, 10.0):
            # a tolerance of 10 passes every edge and leaves the rank check
            monkeypatch.setattr(geometry, "_REL_TOL", rel_tol)
            want = reference_simplex_error(n, math.sqrt(2.0), vertices, rel_tol)
            assert want is not None
            assert _simplex_error(n, math.sqrt(2.0), vertices) == want
        assert want == "vertices do not span an n-dimensional affine hull"

    def test_names_the_first_bad_pair_in_row_major_order(self):
        # only the edges (0, 4) and (1, 2) move; by columns (1, 2) comes first
        vertices = np.eye(5)
        vertices[4, 0] += 1e-7
        vertices[2, 1] -= 1e-7  # the other edges at 2 move by 1e-14 / 4
        error = _simplex_error(4, math.sqrt(2.0), vertices)
        assert error.startswith("vertices 0, 4 are ")
        assert error == reference_simplex_error(4, math.sqrt(2.0), vertices, geometry._REL_TOL)


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

    @given(n=st.integers(2, 12) | st.just(200), edge=st.floats(0.01, 100.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_distances_match_per_vertex_norms(self, n, edge, seed):
        s = regular_simplex(n, edge)
        weights = random_affine_weights(n, Random(seed))
        point = np.asarray(weights, dtype=float) @ s.vertices
        want = tuple(float(np.linalg.norm(point - v)) for v in s.vertices)
        assert relation_residual(s, weights).distances == want  # bit for bit

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_refused(self, bad):
        s = regular_simplex(2, 1.0)
        for weights in ([bad, 0.5, 0.5], [0.5, bad, 0.5], [0.5, 0.5, bad]):
            with pytest.raises(ValueError, match="weights must be finite"):
                relation_residual(s, weights)
        with pytest.raises(ValueError, match="weights must be finite"):
            relation_residual(s, [math.inf, -math.inf, 1.0])

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

    def test_relation_value_zero_on_solutions(self):
        assert relation_value(8.0, [3.0, 5.0, 7.0]) == 0.0

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
            value = float(evaluate(f, point).value)
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
