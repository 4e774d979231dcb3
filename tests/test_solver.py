"""Unit-ball Dirichlet solver against the closed-form torsion benchmark."""

import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

from fracheat import quadrature, solver
from fracheat.core import FracParams
from fracheat.errors import (
    DomainValidationError,
    GridCoarseError,
    SingularMatrixError,
    ToleranceError,
)
from fracheat.fields import SpaceField, torsion_profile, torsion_rhs_constant
from fracheat.quadrature import QuadratureScheme, fractional_laplacian_pointwise
from fracheat.solver import (
    BallProblem,
    Solution,
    _class_block,
    _offset_table,
    _offset_table_1d,
    _offset_table_2d,
    _table_product,
    _table_rows,
    assemble_dirichlet_matrix,
    nonlinearity_by_name,
    residual_field,
    solve_steady,
)

P1 = FracParams(1, 0.5)
SCH = QuadratureScheme()


def make_problem(K=129, f="one", n=1, s=0.5):
    return BallProblem(FracParams(n, s), K, nonlinearity_by_name(f))


def table_rows(prob):
    return _table_rows(prob, _offset_table(prob, SCH))


def fft_tol(prob, u):
    """Rounding bound of the FFT product A u: 32 eps ||table||_1 ||u||_inf."""
    return 32.0 * np.finfo(float).eps * np.sum(np.abs(_offset_table(prob, SCH))) * np.max(np.abs(u))


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

    @pytest.mark.parametrize("name, coeffs, message", [
        ("one", [5, 7], "takes no coeffs"), ("zero", [], "takes no coeffs"),
        ("one-minus-half-u", [1.0], "takes no coeffs"),
        ("custom-polynomial", [], "at least one coefficient")])
    def test_coefficients_only_where_they_mean_something(self, name, coeffs, message):
        # each of these once built a right-hand side, ignoring the coefficients or
        # solving f = 1 for an empty list
        with pytest.raises(DomainValidationError, match=message):
            nonlinearity_by_name(name, coeffs)

    @pytest.mark.parametrize("coeffs", [None, [2.5], [1.0, -0.25, 0.1], [0.3, -1.0, 0.0, 0.7, -0.05]])
    def test_polynomial_bits_of_horner(self, coeffs):
        # the former hand-written Horner pair, against numpy.polynomial's
        cs = [float(c) for c in (coeffs or [1.0])]
        u = np.concatenate([np.linspace(-3.0, 3.0, 601), [0.0, -0.0, 1e-300, -1e30]])
        f_want, fp_want = np.zeros_like(u), np.zeros_like(u)
        for c in reversed(cs):
            f_want = f_want * u + c
        for k, c in reversed(list(enumerate(cs))):
            if k >= 1:
                fp_want = fp_want * u + k * c
        f = nonlinearity_by_name("custom-polynomial", coeffs)
        assert f.f(u).tobytes() == f_want.tobytes()
        assert f.f_prime(u).tobytes() == fp_want.tobytes()


class TestProblemValidation:
    def test_odd_points(self):
        with pytest.raises(DomainValidationError):
            make_problem(K=128)

    def test_dimension_cap(self):
        with pytest.raises(DomainValidationError):
            BallProblem(FracParams(3, 0.5), 9, nonlinearity_by_name("one"))

    def test_points_per_axis_is_stored_as_int(self):
        prob = BallProblem(FracParams(1, 0.5), 9.0, nonlinearity_by_name("one"))
        assert type(prob.points_per_axis) is int and prob.shape == (9,) and len(prob.axis) == 9
        for K in (9.5, "9", True):
            with pytest.raises(DomainValidationError, match="points_per_axis must be an integer"):
                BallProblem(FracParams(1, 0.5), K, nonlinearity_by_name("one"))

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

    @pytest.mark.parametrize("count", [44, 46])
    def test_full_values_needs_one_value_per_interior_node(self, count):
        prob = make_problem(K=9, n=2)  # 45 interior nodes
        vals = np.ones(count)
        sol = Solution(values=vals, residual_inf=0.0, iterations=0, converged=True,
                       positivity_ok=True, hypothesis_ok=True)
        with pytest.raises(DomainValidationError, match="45 interior nodes"):
            prob.full_values(vals)
        with pytest.raises(DomainValidationError, match="45 interior nodes"):
            sol.full_values(prob)
        with pytest.raises(DomainValidationError, match="45 interior nodes"):
            residual_field(prob, sol, SCH)
        with pytest.raises(DomainValidationError):
            prob.full_values(np.ones((45, 1)))


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
        with pytest.raises(GridCoarseError):
            solve_steady(make_problem(K=5), QuadratureScheme(target_tol=1e-9))


def _fft_len(m):
    """The former rule: the least length >= m with no prime factor above 5."""
    while True:
        rest = m
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return m
        m += 1


def test_fft_length_is_the_least_five_smooth():
    assert all(scipy.fft.next_fast_len(m, real=True) == _fft_len(m) for m in range(1, 5001))


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


class TestParitySolve:
    """The solve on the one class it needs: vectors even under every signed axis permutation."""

    @pytest.mark.parametrize("n, K", [(1, 17), (1, 65), (2, 9), (2, 17), (2, 33)])
    def test_matches_dense_lu(self, n, K):
        # fully symmetric right-hand sides: one random value per orbit, on-axis nodes included
        prob = make_problem(K=K, n=n)
        A = assemble_dirichlet_matrix(prob, SCH)
        B, cols, rows = _class_block(prob, table_rows(prob))
        lu_class = scipy.linalg.lu_factor(B)
        lu = scipy.linalg.lu_factor(A)
        rng = np.random.default_rng(K)
        for _ in range(3):
            r = rng.standard_normal(rows.size)[cols]
            dense = scipy.linalg.lu_solve(lu, r)
            one_class = scipy.linalg.lu_solve(lu_class, r[rows])[cols]
            assert np.max(np.abs(one_class - dense)) / np.max(np.abs(dense)) <= 1e-13

    @pytest.mark.parametrize("n, K", [(1, 17), (2, 9), (2, 17)])
    def test_orbit_map(self, n, K):
        prob = make_problem(K=K, n=n)
        rep, off, mask = prob.orbits(), prob.offsets(), prob.interior_mask()
        assert np.array_equal(off[rep], np.sort(np.abs(off), axis=1))
        group = [(list(perm), np.array(signs)) for perm in itertools.permutations(range(n))
                 for signs in itertools.product((-1, 1), repeat=n)]
        assert len(group) == 2**n * math.factorial(n)
        # every node is a signed axis permutation of its representative ...
        images = np.stack([signs * off[rep][:, perm] for perm, signs in group])
        assert np.all(np.any(np.all(images == off, axis=2), axis=0))
        # ... and every signed axis permutation of a node has the same representative
        for perm, signs in group:
            moved = np.ravel_multi_index(tuple((signs * off[:, perm] + K // 2).T), prob.shape)
            assert np.array_equal(rep[moved], rep)
        assert np.all(mask[rep[mask]])
        # the class block is square, one row and one column per orbit, its rows the representatives'
        B, cols, rows = _class_block(prob, table_rows(prob))
        interior = np.flatnonzero(mask)
        M = np.unique(rep[mask]).size
        assert B.shape == (M, M) and rows.shape == (M,) and cols.shape == (interior.size,)
        assert np.array_equal(interior[rows][cols], rep[mask])
        assert np.array_equal(cols[rows], np.arange(rows.size))

    @pytest.mark.parametrize("n, K", [(1, 17), (2, 9), (2, 17), (2, 33)])
    def test_reduced_operator_from_table_is_the_matrix_reduced(self, n, K):
        prob = make_problem(K=K, n=n)
        from_table = _class_block(prob, table_rows(prob))
        from_matrix = _class_block(prob, assemble_dirichlet_matrix(prob, SCH).__getitem__)
        for a, b in zip(from_table, from_matrix):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n, K", [(1, 17), (1, 65), (2, 9), (2, 17), (2, 33)])
    def test_reduced_operator_applies_the_matrix(self, n, K):
        prob = make_problem(K=K, n=n)
        A = assemble_dirichlet_matrix(prob, SCH)
        B, cols, rows = _class_block(prob, table_rows(prob))
        rng = np.random.default_rng(K)
        for _ in range(3):
            v = rng.standard_normal(rows.size)
            dense = (A @ v[cols])[rows]
            assert np.max(np.abs(B @ v - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_blocks_come_from_the_supplied_matrix(self):
        prob = make_problem(K=17, n=2, f="one")
        A = assemble_dirichlet_matrix(prob, SCH)
        a = solve_steady(prob, SCH, theta=1.0, matrix=A)
        b = solve_steady(prob, SCH, theta=1.0, matrix=2.0 * A)
        assert a.converged and b.converged
        assert np.max(np.abs(2.0 * b.values - a.values)) <= 1e-13 * np.max(a.values)

    @pytest.mark.parametrize("n, K, f", [(1, 33, "one"), (2, 17, "one-minus-half-u")])
    def test_supplied_matrix_gives_the_same_bits(self, n, K, f):
        prob = make_problem(K=K, n=n, f=f)
        a = solve_steady(prob, SCH)
        b = solve_steady(prob, SCH, matrix=assemble_dirichlet_matrix(prob, SCH))
        assert np.array_equal(a.values, b.values)
        assert a.iterations == b.iterations
        # the table's every-row product is an FFT, the matrix's a row gather: equal up to rounding
        assert abs(a.residual_inf - b.residual_inf) <= fft_tol(prob, a.values)

    @pytest.mark.parametrize("n, K, breaks", [
        pytest.param(1, 33, "reflections", id="1-33"),
        pytest.param(2, 17, "reflections", id="2-17"),
        pytest.param(2, 17, "diagonal swap", id="2-17-swap"),
    ])
    def test_asymmetric_matrix_never_converges_wrongly(self, n, K, breaks):
        prob = make_problem(K=K, n=n, f="one-minus-half-u")
        A = assemble_dirichlet_matrix(prob, SCH)
        B = A.copy()
        if breaks == "reflections":
            B[2, 9] += 0.5 * A[2, 2]  # breaks every reflection symmetry
        else:
            # heavier diagonal where |x1| > |x2|: every reflection keeps that set, the swap does not
            mask = prob.interior_mask()
            off = prob.offsets()[mask]
            B[np.diag_indices_from(B)] *= np.where(np.abs(off[:, 0]) > np.abs(off[:, 1]), 1.5, 1.0)
            interior_of = np.cumsum(mask) - 1
            images = ((off * [-1, 1], True), (off * [1, -1], True), (off[:, ::-1], False))
            for image, kept in images:
                g = interior_of[np.ravel_multi_index(tuple((image + K // 2).T), prob.shape)]
                assert np.array_equal(B[np.ix_(g, g)], B) == kept
        sol = solve_steady(prob, SCH, matrix=B)
        # the iterate stays fully symmetric, which B's solution is not, and the
        # reported residual is B's own, so the solve cannot report convergence
        true_res = np.max(np.abs(prob.f.eval_extended(sol.values) - B @ sol.values))
        assert sol.residual_inf == true_res
        assert not sol.converged and true_res > 1e-8
        # the class block converges on its own; only the every-row pass sees the asymmetry
        assert sol.iterations <= 30

    @pytest.mark.parametrize("n, K", [(1, 33), (2, 17)])
    def test_residual_covers_every_row(self, n, K):
        prob = make_problem(K=K, n=n, f="one-minus-half-u")
        sol = solve_steady(prob, SCH)
        A = assemble_dirichlet_matrix(prob, SCH)
        dense = np.max(np.abs(prob.f.eval_extended(sol.values) - A @ sol.values))
        assert abs(sol.residual_inf - dense) <= fft_tol(prob, sol.values)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("n, K", [(1, 33), (1, 257), (1, 1025), (2, 17), (2, 33), (2, 129)])
    def test_fft_product_is_the_matrix_product(self, n, K, s):
        prob = make_problem(K=K, n=n, s=s)
        u = np.random.default_rng(K).standard_normal(int(np.count_nonzero(prob.interior_mask())))
        # A @ u in blocks of gathered rows, so n = 2 K = 129 never holds its 1.3 GB matrix
        rows_of = table_rows(prob)
        dense = np.concatenate([rows_of(slice(lo, lo + 256)) @ u for lo in range(0, len(u), 256)])
        got = _table_product(prob, _offset_table(prob, SCH), u)
        assert np.max(np.abs(got - dense)) <= fft_tol(prob, u)

    @pytest.mark.parametrize("n, K", [(1, 33), (2, 17)])
    def test_asymmetric_table_never_converges_wrongly(self, monkeypatch, n, K):
        name = "_offset_table_1d" if n == 1 else "_offset_table_2d"
        build = getattr(solver, name)

        def lopsided(problem, sch):
            table = build(problem, sch)
            c = table.shape[0] // 2
            table[(c + 1,) + (c + 2,) * (n - 1)] += 0.5 * table[(c,) * n]  # no reflection keeps it
            return table

        monkeypatch.setattr(solver, name, lopsided)
        prob = make_problem(K=K, n=n, f="one-minus-half-u")
        sol = solve_steady(prob, SCH)
        A = assemble_dirichlet_matrix(prob, SCH)
        assert not np.array_equal(A, A.T)
        true_res = np.max(np.abs(prob.f.eval_extended(sol.values) - A @ sol.values))
        assert abs(sol.residual_inf - true_res) <= fft_tol(prob, sol.values)
        assert not sol.converged and true_res > 1e-8
        assert sol.iterations <= 30

    @pytest.mark.parametrize("where", ["centre", "crop corner", "beyond the crop"])
    def test_non_finite_table_rejected(self, monkeypatch, where):
        prob = make_problem(K=17, n=2, f="one")
        clean = solve_steady(prob, SCH)
        build = solver._offset_table_2d

        def spoiled(problem, sch):
            table = build(problem, sch)
            c, K = table.shape[0] // 2, problem.points_per_axis
            # the crop corner is read by no pair of interior nodes, but an FFT spreads it everywhere
            at = {"centre": 0, "crop corner": K - 1, "beyond the crop": K}[where]
            table[c + at, c - at] = np.nan
            return table

        monkeypatch.setattr(solver, "_offset_table_2d", spoiled)
        if where == "beyond the crop":
            sol = solve_steady(prob, SCH)
            assert np.array_equal(sol.values, clean.values) and sol.converged
        else:
            with pytest.raises(SingularMatrixError):
                solve_steady(prob, SCH)

    def test_peak_memory_below_half_the_matrix(self):
        prob = make_problem(K=65, n=2, f="one")
        A = assemble_dirichlet_matrix(prob, SCH)
        n_orbits = np.unique(prob.orbits()[prob.interior_mask()]).size
        tracemalloc.start()
        try:
            sol = solve_steady(prob, SCH, theta=1.0, matrix=A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.converged
        # below an N x M array of orbit columns, let alone half the matrix
        assert peak < n_orbits * len(A) * 8 < 0.5 * A.nbytes

    def test_no_matrix_is_formed_without_one(self):
        prob = make_problem(K=65, n=2, f="one")
        n_int = int(np.count_nonzero(prob.interior_mask()))
        n_orbits = np.unique(prob.orbits()[prob.interior_mask()]).size
        tracemalloc.start()
        try:
            sol = solve_steady(prob, SCH)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.converged
        assert peak < n_orbits * n_int * 8 < 0.25 * n_int * n_int * 8

    def test_non_finite_matrix_rejected(self):
        prob = make_problem(K=17, n=2)
        A = assemble_dirichlet_matrix(prob, SCH)
        A[0, -1] = np.nan  # in a row that is not a representative's
        with pytest.raises(SingularMatrixError):
            solve_steady(prob, SCH, matrix=A)
        A = assemble_dirichlet_matrix(prob, SCH)
        A[len(A) // 2, 3] = np.inf  # in the centre node's row, which the class block holds
        with pytest.raises(SingularMatrixError):
            solve_steady(prob, SCH, matrix=A)

    def test_matrix_of_another_problem_rejected(self):
        A = assemble_dirichlet_matrix(make_problem(K=33), SCH)
        with pytest.raises(DomainValidationError):
            solve_steady(make_problem(K=17), SCH, matrix=A)


class TestResidualField:
    @pytest.mark.parametrize("subset", [[-1], [1.7], [99], [[0, 1]]])
    def test_node_subset_validated(self, subset):
        prob = make_problem(K=17, f="zero")
        sol = solve_steady(prob, SCH)
        with pytest.raises(DomainValidationError):
            residual_field(prob, sol, SCH, node_subset=np.array(subset))

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


def _residual_case(n, K, subset):
    prob = make_problem(K=K, n=n)
    sol = solve_steady(prob, SCH, theta=1.0)
    nodes = np.linspace(0, len(sol.values) - 1, 64).astype(int) if subset else None
    return prob, sol, nodes


@functools.lru_cache(maxsize=None)
def _per_node_residual(n, K, subset):
    """residual_field node by node through fractional_laplacian_pointwise."""
    prob, sol, nodes = _residual_case(n, K, subset)
    h = prob.h
    full = sol.full_values(prob)
    grid = np.pad(full, 1)
    interior = np.flatnonzero(prob.interior_mask())
    rows = np.arange(len(interior)) if nodes is None else nodes
    g = solver.interpolant_field(prob, full)
    sch = dataclasses.replace(SCH, r_min=(0.5 * h) ** 2)
    breaks = (np.arange(1, K) * h).tolist() if n == 1 else None
    rhs = prob.f.eval_extended(sol.values)
    out = []
    for row in rows:
        at = tuple(prob.offsets()[interior[row]] + K // 2 + 1)
        # nodal second difference, neighbours summed in the order +e1, -e1, +e2, -e2
        curv = 0.0
        for axis in range(n):
            for step in (1, -1):
                curv += grid[tuple(i + step * (a == axis) for a, i in enumerate(at))]
        curv = (curv - 2.0 * n * grid[at]) / (h * h)
        ov = fractional_laplacian_pointwise(g, prob.nodes()[interior[row]], prob.p, sch,
                                            breakpoints=breaks, curvature=curv)
        out.append(abs(ov.value - rhs[row]))
    return np.array(out)


def _counting_interpolant(monkeypatch, sizes):
    """Make residual_field's interpolant record the point count of every evaluation."""
    class Counted(SpaceField):
        def eval(self, x):
            sizes.append(len(x))
            return super().eval(x)

    build = solver.interpolant_field

    def counted(*args):
        g = build(*args)
        return Counted(*(getattr(g, f.name) for f in dataclasses.fields(SpaceField)))

    monkeypatch.setattr(solver, "interpolant_field", counted)


class TestBatchedResidual:
    """residual_field sweeps all its nodes at once, with the bits of the node-by-node loop."""

    @pytest.mark.parametrize("small_runs", [False, True], ids=["default-runs", "small-runs"])
    @pytest.mark.parametrize("n, K, subset", [(1, 33, False), (2, 17, False), (2, 33, True)],
                             ids=["n1-K33", "n2-K17", "n2-K33-64-nodes"])
    def test_matches_per_node_loop(self, monkeypatch, n, K, subset, small_runs):
        prob, sol, nodes = _residual_case(n, K, subset)
        want = _per_node_residual(n, K, subset)
        sizes = []
        _counting_interpolant(monkeypatch, sizes)
        if small_runs:
            # at most 2,000 points per field call, where one n = 2 node needs more
            monkeypatch.setattr(quadrature, "_FIELD_BLOCK", 2_000)
        got = residual_field(prob, sol, SCH, node_subset=nodes)
        assert got.tobytes() == want.tobytes()
        if small_runs:
            assert len(sizes) > 20
            # a call over the cap holds one node alone: its point and two per cell
            assert all(m <= 2_000 or m % 2 == 1 for m in sizes)

    def test_few_field_calls(self, monkeypatch):
        prob, sol, nodes = _residual_case(2, 33, True)
        sizes = []
        _counting_interpolant(monkeypatch, sizes)
        residual_field(prob, sol, SCH, node_subset=nodes)
        # one field call per node and pass before: 128
        cap = quadrature._FIELD_BLOCK
        assert max(sizes) <= cap
        assert len(sizes) <= 2 * math.ceil(sum(sizes) / cap)

    def test_empty_subset_evaluates_nothing(self, monkeypatch):
        prob, sol, _ = _residual_case(2, 17, False)
        sizes = []
        _counting_interpolant(monkeypatch, sizes)
        res = residual_field(prob, sol, SCH, node_subset=np.array([], dtype=int))
        assert res.shape == (0,) and sizes == []

    def test_tolerance_gate(self):
        prob, sol, _ = _residual_case(2, 17, False)
        with pytest.raises(ToleranceError, match="exceeds target_tol"):
            residual_field(prob, sol, QuadratureScheme(target_tol=1e-12),
                           node_subset=np.array([0, 5]))

    def test_non_finite_values_rejected(self):
        prob, sol, _ = _residual_case(2, 17, False)
        values = sol.values.copy()
        values[3] = np.nan
        with pytest.raises(DomainValidationError, match="finite"):
            residual_field(prob, dataclasses.replace(sol, values=values), SCH)


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
        flip1 = np.array([pos[(K - 1 - f // K) * K + f % K] for f in idx])
        flip2 = np.array([pos[(f // K) * K + K - 1 - f % K] for f in idx])
        assert np.array_equal(A[np.ix_(flip1, flip1)], A)
        assert np.array_equal(A[np.ix_(flip2, flip2)], A)
        assert np.array_equal(A.T, A)

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
        assert np.array_equal(full, full.T)
        assert np.array_equal(full, full[::-1, :])
        assert np.array_equal(full, full[:, ::-1])
