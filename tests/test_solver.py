"""Unit-ball Dirichlet solver against the closed-form torsion benchmark."""

import math

import numpy as np
import pytest

from fracheat.core import FracParams
from fracheat.errors import DomainValidationError, GridCoarseError
from fracheat.fields import torsion_profile, torsion_rhs_constant
from fracheat.quadrature import QuadratureScheme
from fracheat.solver import (
    BallProblem,
    Solution,
    _offset_table_1d,
    _offset_table_2d,
    assemble_dirichlet_matrix,
    nonlinearity_by_name,
    residual_field,
    solve_steady,
)

P1 = FracParams(1, 0.5)
SCH = QuadratureScheme()


def make_problem(K=129, f="one", n=1, s=0.5):
    return BallProblem(FracParams(n, s), K, nonlinearity_by_name(f))


class TestNonlinearity:
    def test_registry_hypotheses(self):
        assert nonlinearity_by_name("one").hypothesis_ok
        assert nonlinearity_by_name("zero").hypothesis_ok
        assert nonlinearity_by_name("one-minus-half-u").hypothesis_ok
        assert nonlinearity_by_name("one").derivative_consistent

    def test_violating_instance_recorded(self):
        from fracheat.solver import Nonlinearity

        bad = Nonlinearity(lambda u: -1.0 + 2.0 * u, lambda u: np.full_like(u, 2.0), "bad")
        assert not bad.hypothesis_ok

    def test_inconsistent_derivative_recorded(self):
        from fracheat.solver import Nonlinearity

        lying = Nonlinearity(lambda u: u**2, lambda u: np.zeros_like(u), "lying")
        assert not lying.derivative_consistent

    def test_polynomial(self):
        f = nonlinearity_by_name("custom-polynomial", coeffs=[1.0, -0.25, 0.1])
        u = np.array([0.0, 1.0, 2.0])
        assert np.allclose(f.f(u), 1.0 - 0.25 * u + 0.1 * u * u)
        assert f.derivative_consistent

    def test_unknown_name(self):
        with pytest.raises(DomainValidationError):
            nonlinearity_by_name("cubic-banana")


class TestProblemValidation:
    def test_odd_points(self):
        with pytest.raises(DomainValidationError):
            make_problem(K=128)

    def test_dimension_cap(self):
        with pytest.raises(DomainValidationError):
            BallProblem(FracParams(3, 0.5), 9, nonlinearity_by_name("one"))

    def test_grid_symmetry(self):
        prob = make_problem(K=17)
        ax = prob.axis
        assert np.allclose(ax, -ax[::-1])
        assert ax[(len(ax) - 1) // 2] == 0.0

    def test_grid_layout(self):
        for n in (1, 2):
            prob = make_problem(K=9, n=n)
            nodes = prob.nodes()
            assert prob.shape == (9,) * n and nodes.shape == (9**n, n)
            # node k sits at the C-order grid position k
            idx = np.unravel_index(np.arange(nodes.shape[0]), prob.shape)
            assert np.array_equal(nodes, np.stack([prob.axis[i] for i in idx], axis=-1))
            mask = prob.interior_mask()
            assert np.array_equal(mask, np.linalg.norm(nodes, axis=1) < 1.0 - 1e-9)
            vals = np.arange(1.0, mask.sum() + 1.0)
            full = prob.full_values(vals)
            assert full.shape == prob.shape
            assert np.array_equal(full.ravel()[mask], vals)
            assert not np.any(full.ravel()[~mask])


class TestAssembly1D:
    def test_reflection_equivariance_exact(self):
        A = assemble_dirichlet_matrix(make_problem(K=65), SCH)
        assert np.array_equal(A, np.flip(np.flip(A, 0), 1))

    def test_sign_structure(self):
        A = assemble_dirichlet_matrix(make_problem(K=65), SCH)
        off = A - np.diag(np.diag(A))
        assert off.max() <= 0.0
        assert np.diag(A).min() > 0.0

    def test_indicator_action_positive(self):
        A = assemble_dirichlet_matrix(make_problem(K=65), SCH)
        action = A @ np.ones(A.shape[0])
        assert np.all(action > 0.0)

    def test_torsion_row_action(self):
        prob = make_problem(K=129)
        A = assemble_dirichlet_matrix(prob, SCH)
        tor = torsion_profile(1, 0.5)
        samples = tor.eval(prob.interior_nodes())
        action = A @ samples
        xs = prob.interior_nodes()[:, 0]
        inner = np.abs(xs) <= 0.8
        assert np.max(np.abs(action[inner] - 1.0)) <= 5e-2

    def test_grid_too_coarse(self):
        with pytest.raises(GridCoarseError):
            assemble_dirichlet_matrix(make_problem(K=5),
                                      QuadratureScheme(target_tol=1e-9))


@pytest.mark.parametrize("n, K", [(1, 17), (2, 9)])
def test_matrix_gathers_offset_table(n, K):
    # reference loop: entry (a, b) read from the table at the offset b - a
    prob = make_problem(K=K, n=n)
    A = assemble_dirichlet_matrix(prob, SCH)
    table = (_offset_table_1d if n == 1 else _offset_table_2d)(prob, SCH)
    centre = np.array(table.shape) // 2
    idx = np.argwhere(prob.interior_mask().reshape(prob.shape))
    ref = np.array([[table[tuple(b - a + centre)] for b in idx] for a in idx])
    assert np.array_equal(A, ref)


class TestSolve1D:
    def test_zero_rhs(self):
        sol = solve_steady(make_problem(K=33, f="zero"), SCH)
        assert sol.converged
        assert np.max(np.abs(sol.values)) == 0.0
        assert sol.residual_inf == 0.0

    def test_torsion_values(self):
        prob = make_problem(K=129)
        sol = solve_steady(prob, SCH, theta=1.0)
        assert sol.converged and sol.iterations <= 2  # single solve for constant f
        xs = prob.interior_nodes()[:, 0]
        u0 = sol.values[np.argmin(np.abs(xs))]
        u6 = sol.values[np.argmin(np.abs(xs - 0.6))]
        assert u0 == pytest.approx(1.0, abs=2e-2)
        assert u6 == pytest.approx(0.8, abs=2e-2)
        assert sol.positivity_ok and sol.hypothesis_ok

    def test_solution_even_and_monotone(self):
        prob = make_problem(K=129)
        sol = solve_steady(prob, SCH, theta=1.0)
        assert np.max(np.abs(sol.values - sol.values[::-1])) <= 1e-12
        mid = len(sol.values) // 2
        right = sol.values[mid:]
        assert np.all(np.diff(right) <= 1e-12)

    def test_damping_independent_fixed_point(self):
        prob = make_problem(K=65, f="one-minus-half-u")
        a = solve_steady(prob, SCH, theta=0.5)
        b = solve_steady(prob, SCH, theta=1.0)
        assert a.converged and b.converged
        assert np.max(np.abs(a.values - b.values)) <= 1e-6
        assert np.all(a.values > 0.0) and np.all(a.values < 1.0)

    def test_nonconvergence_flagged(self):
        prob = make_problem(K=33, f="one")
        sol = solve_steady(prob, SCH, theta=0.8, max_iter=2, tol=1e-14)
        assert not sol.converged

    def test_negative_branch_flagged(self):
        from fracheat.solver import Nonlinearity

        neg = Nonlinearity(lambda u: np.full_like(u, -1.0), lambda u: np.zeros_like(u), "neg")
        prob = BallProblem(P1, 33, neg)
        sol = solve_steady(prob, SCH, theta=1.0)
        assert not sol.positivity_ok
        assert not prob.f.hypothesis_ok

    def test_divergence_returns_best_iterate(self):
        # f(u) = 1 - 8u makes the undamped iteration blow up to inf and nan
        prob = BallProblem(P1, 17, nonlinearity_by_name("custom-polynomial", [1, -8]))
        sol = solve_steady(prob, SCH, theta=1.0, max_iter=400)
        assert not sol.converged
        assert np.all(np.isfinite(sol.values)) and math.isfinite(sol.residual_inf)


class TestResidualField:
    def test_zero_solution(self):
        prob = make_problem(K=33, f="zero")
        sol = solve_steady(prob, SCH)
        res = residual_field(prob, sol, SCH)
        assert np.max(res) == 0.0

    def test_torsion_samples_residual(self):
        prob = make_problem(K=129)
        tor = torsion_profile(1, 0.5)
        samples = tor.eval(prob.interior_nodes())
        sol = Solution(values=samples, residual_inf=0.0, iterations=0, converged=True,
                       positivity_ok=True, hypothesis_ok=True)
        res = residual_field(prob, sol, SCH)
        xs = prob.interior_nodes()[:, 0]
        assert np.max(res[np.abs(xs) <= 0.8]) <= 5e-2

    def test_refinement_decreases_median(self):
        tor = torsion_profile(1, 0.5)
        medians = []
        for K in (129, 257):
            prob = make_problem(K=K)
            samples = tor.eval(prob.interior_nodes())
            sol = Solution(values=samples, residual_inf=0.0, iterations=0, converged=True,
                           positivity_ok=True, hypothesis_ok=True)
            medians.append(float(np.median(residual_field(prob, sol, SCH))))
        assert medians[1] <= medians[0]


class TestTwoDimensions:
    def test_positivity_refers_to_returned_iterate(self):
        # f(u) = 1 - 2u overshoots below zero on the way, then settles positive
        prob = BallProblem(FracParams(2, 0.5), 9,
                           nonlinearity_by_name("custom-polynomial", [1, -2]))
        sol = solve_steady(prob, SCH, theta=1.0)
        assert np.min(sol.values) == pytest.approx(0.166, abs=1e-3)
        assert sol.positivity_ok

    def test_assembly_structure(self):
        prob = make_problem(K=17, n=2)
        A = assemble_dirichlet_matrix(prob, SCH)
        off = A - np.diag(np.diag(A))
        assert off.max() <= 0.0
        assert np.diag(A).min() > 0.0

    def test_residual_field(self):
        prob = make_problem(K=9, n=2)
        sol = solve_steady(prob, SCH, theta=1.0)
        res = residual_field(prob, sol, SCH)
        # the solution has a square-root edge at the sphere; stay inside |x| <= 0.8
        inner = np.linalg.norm(prob.interior_nodes(), axis=1) <= 0.8
        assert np.max(res[inner]) <= 5e-2
        sub = np.array([0, 7, 12, len(sol.values) - 1])
        assert np.array_equal(residual_field(prob, sol, SCH, node_subset=sub), res[sub])

    def test_matrix_reflection_equivariance(self):
        prob = make_problem(K=17, n=2)
        A = assemble_dirichlet_matrix(prob, SCH)
        K = prob.points_per_axis
        idx = np.flatnonzero(prob.interior_mask())
        pos = {f: r for r, f in enumerate(idx)}
        perm = np.array([pos[(K - 1 - f // K) * K + f % K] for f in idx])
        assert np.max(np.abs(A[np.ix_(perm, perm)] - A)) <= 1e-14

    def test_torsion_center_value(self):
        prob = make_problem(K=17, n=2)
        sol = solve_steady(prob, SCH, theta=1.0)
        full = sol.full_values(prob)
        center = full[8, 8]
        exact = 1.0 / torsion_rhs_constant(2, 0.5)  # = 2/pi
        assert exact == pytest.approx(2.0 / math.pi, rel=1e-12)
        assert center == pytest.approx(exact, abs=3e-2)

    def test_solution_hyperoctahedral_symmetry(self):
        prob = make_problem(K=17, n=2)
        sol = solve_steady(prob, SCH, theta=1.0)
        full = sol.full_values(prob)
        assert np.max(np.abs(full - full.T)) <= 1e-12
        assert np.max(np.abs(full - full[::-1, :])) <= 1e-12
        assert np.max(np.abs(full - full[:, ::-1])) <= 1e-12
