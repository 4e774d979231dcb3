"""Reflections, comparison fields, folding identity, cutoffs and scaling laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss

from fracheat import planes
from fracheat.core import FracParams, SpaceTimePoint, gamma_abs_neg, normalization_constant
from fracheat.errors import (
    AlignmentError,
    AntisymmetryError,
    DomainValidationError,
    OverlapError,
)
from fracheat.fields import (
    SpaceTimeField,
    antisymmetrize,
    gaussian_bump,
    random_spacetime_bump,
    torsion_profile,
)
from fracheat.planes import (
    PlaneConfig,
    _fold_panel_edges,
    antisymmetric_fold_residual,
    build_antisym_bump,
    build_cutoff_eta,
    narrow_region_check,
    reflect,
    snap_lambda,
    symmetry_and_monotonicity_report,
    unbounded_mp_probe,
    verify_lemma_scaling,
    w_lambda_field,
)
from fracheat.quadrature import (
    QuadratureScheme,
    _capped_edges,
    _fd_heat,
    _tensor_rule,
    master_operator_pointwise,
)
from fracheat.solver import BallProblem, nonlinearity_by_name, solve_steady
from test_quadrature import _counting

P1 = FracParams(1, 0.5)
SCH = QuadratureScheme()


def _unit(v):
    return v / np.linalg.norm(v)


def torsion_solution(K=129):
    prob = BallProblem(P1, K, nonlinearity_by_name("one"))
    sol = solve_steady(prob, SCH, theta=1.0)
    return prob, sol.full_values(prob)


def grid_samples(problem, field):
    return problem.full_values(field.eval(problem.interior_nodes())).ravel()


class TestReflect:
    def test_spec_example(self):
        cfg = PlaneConfig([1.0, 0.0], -0.2)
        assert np.allclose(reflect(np.array([0.3, 0.1]), cfg), [-0.7, 0.1])

    def test_fixed_points(self):
        cfg = PlaneConfig([0.0, 1.0], 0.4)
        x = np.array([1.3, 0.4])
        assert np.allclose(reflect(x, cfg), x)

    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=2),
           st.floats(min_value=-2, max_value=2))
    @settings(max_examples=60, deadline=None)
    def test_involution(self, x, lam):
        cfg = PlaneConfig([1.0, 0.0], lam)
        x = np.asarray(x)
        assert np.max(np.abs(reflect(reflect(x, cfg), cfg) - x)) <= 1e-14

    def test_isometry(self):
        rng = np.random.default_rng(0)
        cfg = PlaneConfig(np.array([3.0, 4.0]) / 5.0, 0.7)
        for _ in range(40):
            x, y = rng.uniform(-3, 3, size=(2, 2))
            d0 = np.linalg.norm(x - y)
            d1 = np.linalg.norm(reflect(x, cfg) - reflect(y, cfg))
            assert d1 == pytest.approx(d0, abs=1e-12)

    def test_same_side_reflection_inequality(self):
        rng = np.random.default_rng(1)
        lam = -0.3
        cfg = PlaneConfig([1.0, 0.0], lam)
        for _ in range(60):
            x = np.array([rng.uniform(-3, lam - 1e-9), rng.uniform(-3, 3)])
            y = np.array([rng.uniform(-3, lam - 1e-9), rng.uniform(-3, 3)])
            assert np.linalg.norm(x - y) < np.linalg.norm(x - reflect(y, cfg)) + 1e-15

    def test_bad_direction(self):
        with pytest.raises(DomainValidationError):
            PlaneConfig([1.0, 1.0], 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bits_of_the_broadcast_formula(self, n):
        rng = np.random.default_rng(n)
        pts = rng.uniform(-3.0, 3.0, size=(3000, n))
        directions = [np.eye(n)[0], -np.eye(n)[n - 1]]
        if n > 1:
            directions += [np.ones(n) / math.sqrt(n), _unit(rng.normal(size=n))]
        for e in directions:
            cfg = PlaneConfig(e, -0.3)
            old = pts + 2.0 * (cfg.lam - pts @ cfg.direction)[:, None] * cfg.direction[None, :]
            assert np.array_equal(reflect(pts, cfg), old)
            # a single point is one row, whose matrix product may round differently
            one = pts[:1] + 2.0 * (cfg.lam - pts[:1] @ cfg.direction)[:, None] * cfg.direction
            assert np.array_equal(reflect(pts[0], cfg), one[0])


class TestWLambda:
    def test_even_data_lambda_zero(self):
        prob, full = torsion_solution(K=65)
        data = w_lambda_field(prob, full, PlaneConfig([1.0], 0.0))
        assert np.max(np.abs(data.w_values)) <= 1e-12

    def test_torsion_positive(self):
        prob, full = torsion_solution(K=65)
        data = w_lambda_field(prob, full, PlaneConfig([1.0], -0.5))
        assert np.min(data.w_values) >= 0.0
        interior = np.einsum("ij,ij->i", data.node_coords, data.node_coords) < 1.0 - 1e-12
        assert np.all(data.w_values[interior] > 0.0)

    def test_antisymmetry_on_pairs(self):
        prob, full = torsion_solution(K=65)
        cfg = PlaneConfig([1.0], -0.25)
        data = w_lambda_field(prob, full, cfg)
        vals = np.asarray(full, dtype=float)
        ax = prob.axis
        for coords, w in zip(data.node_coords[:5], data.w_values[:5]):
            mirrored = reflect(coords, cfg)
            i = int(round((coords[0] - ax[0]) / prob.h))
            j = int(round((mirrored[0] - ax[0]) / prob.h))
            w_mirror = vals[i] - vals[j]
            assert w == pytest.approx(-w_mirror, abs=1e-15)

    def test_misaligned_lambda(self):
        prob, full = torsion_solution(K=65)
        with pytest.raises(AlignmentError):
            w_lambda_field(prob, full, PlaneConfig([1.0], -0.23))

    def test_non_axis_direction(self):
        prob, full = torsion_solution(K=65)
        with pytest.raises(AlignmentError):
            w_lambda_field(prob, full, PlaneConfig(np.array([1.0, 1.0]) / math.sqrt(2), 0.0))


class TestNarrowRegion:
    def test_torsion_passes_both_orientations(self):
        prob, full = torsion_solution()
        h = prob.h
        lams = [snap_lambda(v, h) for v in (-0.9, -0.7, -0.5, -0.3, -0.1)] + [-h / 2]
        for direction in ([1.0], [-1.0]):
            rep = narrow_region_check(prob, full, lams, direction=direction, tol_geom=1e-10)
            assert rep.passed
            assert rep.lambda_star >= -h
            assert all(r.strict_positive_interior for r in rep.records)

    def test_zero_field_passes(self):
        prob, _ = torsion_solution(K=33)
        full = np.zeros(prob.points_per_axis)
        rep = narrow_region_check(prob, full, [-0.5, -0.25], tol_geom=1e-12)
        assert rep.passed is False or rep.lambda_star >= -prob.h
        assert all(r.min_w == 0.0 for r in rep.records)

    def test_plane_at_grid_edge_is_empty(self):
        # no node lies strictly left of lam = -1, so Sigma_lambda is empty
        prob, full = torsion_solution(K=9)
        data = w_lambda_field(prob, full, PlaneConfig([1.0], -1.0))
        assert data.w_values.size == 0 and data.node_coords.shape == (0, 1)
        rep = narrow_region_check(prob, full, [-1.0, -0.5])
        edge = rep.records[0]
        assert edge.lam == -1.0 and edge.min_w == 0.0 and edge.passed
        assert rep.lambda_star == -0.5

    def test_two_dimensional_sweep(self):
        p2 = FracParams(2, 0.5)
        prob = BallProblem(p2, 17, nonlinearity_by_name("one"))
        sol = solve_steady(prob, SCH, theta=1.0)
        full = sol.full_values(prob)
        h = prob.h
        lams = [snap_lambda(v, h) for v in (-0.75, -0.5, -0.25)] + [-h / 2]
        for d in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]):
            rep = narrow_region_check(prob, full, lams, direction=d, tol_geom=1e-10)
            assert rep.passed
            assert rep.lambda_star >= -h

    def test_shifted_profile_detected(self):
        prob, _ = torsion_solution(K=129)
        shifted = torsion_profile(1, 0.5, shift=[0.2])
        full = grid_samples(prob, shifted)
        h = prob.h
        lams = [snap_lambda(v, h) for v in (-0.9, -0.7, -0.5, -0.3, -0.1)] + [-h / 2]
        flagged = False
        for direction in ([1.0], [-1.0]):
            rep = narrow_region_check(prob, full, lams, direction=direction, tol_geom=1e-3)
            flagged = flagged or not rep.passed
        assert flagged


class TestSymmetryReport:
    def test_exact_solution(self):
        prob, full = torsion_solution()
        rep = symmetry_and_monotonicity_report(prob, full)
        assert rep.symmetry_defect <= 1e-12
        assert rep.monotonicity_violations == 0

    def test_noise_detected(self):
        # near the origin the radial decrement is O(h^2), far below the noise
        prob, full = torsion_solution(K=129)
        rng = np.random.default_rng(3)
        noisy = full + 1e-3 * rng.standard_normal(full.shape)
        rep = symmetry_and_monotonicity_report(prob, noisy, tol_geom=1e-8)
        assert rep.monotonicity_violations > 0
        assert rep.symmetry_defect > 1e-4

    def test_2d_orbits(self):
        p2 = FracParams(2, 0.5)
        prob = BallProblem(p2, 9, nonlinearity_by_name("one"))
        K = prob.points_per_axis
        ax = prob.axis
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        radial = np.maximum(1.0 - X**2 - Y**2, 0.0)
        rep = symmetry_and_monotonicity_report(prob, radial)
        assert rep.symmetry_defect == 0.0
        assert rep.monotonicity_violations == 0


class TestFoldResidual:
    CFG = PlaneConfig([1.0], 0.0)

    def test_zero_field(self):
        w = SpaceTimeField(lambda X, t: np.zeros(X.shape[0]), n=1, sup_bound=0.0,
                          space_scale=1.0,
                          space_support=(np.array([-2.0]), np.array([2.0])))
        fr = antisymmetric_fold_residual(w, self.CFG, SpaceTimePoint([-0.5], 0.2), P1, SCH)
        assert fr.residual == 0.0

    def test_gaussian_antisymmetric(self):
        base = gaussian_bump(1, center=[-0.6], width=0.5, t_center=0.0, t_width=0.7)
        w = antisymmetrize(base, lambda X: reflect(X, self.CFG))
        fr = antisymmetric_fold_residual(w, self.CFG, SpaceTimePoint([-0.5], 0.3), P1, SCH)
        assert fr.residual <= fr.combined_tol
        assert fr.residual <= 5e-3

    def test_sine_bump(self):
        w = SpaceTimeField(
            lambda X, t: np.sin(np.pi * X[:, 0]) * np.exp(-(t**2)),
            n=1, sup_bound=1.0, space_scale=0.5,
            space_support=(np.array([-8.0]), np.array([8.0])), t_support=(-10.0, 10.0))
        fr = antisymmetric_fold_residual(w, self.CFG, SpaceTimePoint([-0.4], 0.1), P1, SCH)
        assert fr.residual <= fr.combined_tol
        assert fr.residual <= 5e-3

    def test_n2_field(self):
        cfg = PlaneConfig([1.0, 0.0], 0.0)
        base = gaussian_bump(2, center=[-0.7, 0.2], width=0.6, t_center=0.0, t_width=0.8)
        w = antisymmetrize(base, lambda X: reflect(X, cfg))
        fr = antisymmetric_fold_residual(w, cfg, SpaceTimePoint([-0.5, 0.1], 0.2),
                                         FracParams(2, 0.5), SCH)
        assert fr.residual <= fr.combined_tol
        assert fr.residual <= 2e-2

    def test_rejects_non_antisymmetric(self):
        w = gaussian_bump(1, center=[-0.5], width=0.5, t_width=0.6)
        with pytest.raises(AntisymmetryError):
            antisymmetric_fold_residual(w, self.CFG, SpaceTimePoint([-0.4], 0.0), P1, SCH)

    def test_zero_at_minimum_sign(self):
        # for w >= 0 on Sigma with w(q) = 0 the folded form collapses to
        # an integral against K(q - y^lambda) - K(q - y) < 0
        cfg = PlaneConfig([1.0], -0.1)
        phi = build_antisym_bump([0.6], 0.4, cfg)
        eta = build_cutoff_eta(0.0, 1.0)
        w = SpaceTimeField(lambda X, t: -phi.eval(X) * eta.eval(t), n=1, sup_bound=1.0,
                           space_scale=0.1,
                           space_support=(np.array([-1.2]), np.array([1.0])),
                           t_support=(-1.0, 1.0))
        for xq in (-0.3, -0.45, -1.3):
            q = SpaceTimePoint([xq], 0.2)
            assert w.at(np.array([xq]), 0.2) == 0.0
            fr = antisymmetric_fold_residual(w, cfg, q, P1, SCH)
            assert fr.whole_space < 0.0
            assert fr.folded < 0.0
            assert fr.residual <= 2e-3

    def test_rejects_wrong_side(self):
        base = gaussian_bump(1, center=[-0.6], width=0.5, t_width=0.7)
        w = antisymmetrize(base, lambda X: reflect(X, self.CFG))
        with pytest.raises(DomainValidationError):
            antisymmetric_fold_residual(w, self.CFG, SpaceTimePoint([0.5], 0.0), P1, SCH)


def _per_lag_fold(w, cfg, q, p, sch):
    """The folded value with one field call per lag, the order of the sums kept."""
    axis_idx, sign = cfg.axis()
    x, t = q.x, q.t
    s = p.s
    w_q = w.at(x, t)
    r_cut = sch.r_max
    if w.t_support is not None:
        r_cut = min(r_cut, max(t - w.t_support[0], 4.0 * sch.r_min))
    edges = _capped_edges(sch.r_min, r_cut, sch.nodes_per_decade)
    zn, wn = hermgauss(sch.hermite_order)
    gl_x, gl_w = np.polynomial.legendre.leggauss(8)
    feature = w.space_scale if math.isfinite(w.space_scale) else 1.0
    q_par = sign * x[axis_idx]
    q_refl = 2.0 * cfg.lam - q_par
    total = 0.0
    for r, dw in zip(0.5 * (edges[:-1] + edges[1:]), np.diff(edges)):
        sigma = 2.0 * math.sqrt(r)
        lo = min(q_par - 8.0 * sigma, cfg.lam - 8.0 * sigma)
        edges_y = _fold_panel_edges(lo, cfg.lam, [q_par, q_refl], sigma, feature)
        y_mid = 0.5 * (edges_y[:-1] + edges_y[1:])
        y_half = 0.5 * np.diff(edges_y)
        axes_nodes = [(y_mid[:, None] + y_half[:, None] * gl_x[None, :]).ravel()]
        axes_weights = [(y_half[:, None] * gl_w[None, :]).ravel()]
        if w.n == 2:
            axes_nodes.append(x[1 - axis_idx] + sigma * zn)
            axes_weights.append(wn * sigma)
        rule, wts = _tensor_rule(axes_nodes, axes_weights)
        y_par = rule[:, 0]
        pts = np.empty_like(rule)
        pts[:, axis_idx] = sign * y_par
        if w.n == 2:
            pts[:, 1 - axis_idx] = rule[:, 1]
        vals = w.eval(pts, np.full(pts.shape[0], t - r))
        k_dir = np.exp(-((q_par - y_par) ** 2) / (4.0 * r))
        k_ref = np.exp(-((q_par - (2.0 * cfg.lam - y_par)) ** 2) / (4.0 * r))
        integrand = (w_q - vals) * k_dir + (w_q + vals) * k_ref
        total += dw * r ** (-(p.n / 2.0 + 1.0 + s)) * float(np.dot(wts, integrand))
    folded = normalization_constant(p) * total
    gam = gamma_abs_neg(s)
    folded += _fd_heat(w, x, t) * sch.r_min ** (1.0 - s) / ((1.0 - s) * gam)
    folded += w_q * r_cut ** (-s) / (s * gam)
    return folded


class TestChunkedFold:
    """The fold evaluates runs of lags per field call and keeps the bits of a per-lag loop."""

    CASES = [
        # (direction, centre, x, t, t_width); the last one's history is cut by t_support
        ([1.0], [-0.65], [-0.55], 0.2, 0.8),
        ([1.0, 0.0], [-0.65, 0.2], [-0.55, 0.0], 0.2, 0.8),
        ([-1.0, 0.0], [0.6, -0.1], [0.5, 0.1], 0.1, 0.8),
        ([0.0, 1.0], [0.1, -0.6], [0.0, -0.5], 0.2, 0.8),
        ([1.0], [-0.6], [-0.4], -1.5, 0.5),
    ]

    @staticmethod
    def _fold_field(direction, centre, tw):
        cfg = PlaneConfig(direction, 0.0)
        base = gaussian_bump(len(direction), center=centre, width=0.55, t_width=tw)
        return cfg, antisymmetrize(base, lambda X: reflect(X, cfg))

    @pytest.mark.parametrize("case", CASES)
    def test_bits_of_the_per_lag_loop(self, case):
        direction, centre, x, t, tw = case
        cfg, w = self._fold_field(direction, centre, tw)
        q, p = SpaceTimePoint(x, t), FracParams(len(direction), 0.5)
        fr = antisymmetric_fold_residual(w, cfg, q, p, SCH)
        assert fr.folded == _per_lag_fold(w, cfg, q, p, SCH)
        assert fr.whole_space == master_operator_pointwise(w, q, p, SCH).value

    def test_runs_spanning_several_calls(self, monkeypatch):
        cfg, w = self._fold_field([1.0], [-0.65], 0.8)
        q = SpaceTimePoint([-0.55], 0.2)
        whole, calls = [], []
        master_operator_pointwise(_counting(w, whole), q, P1, SCH)
        # at most 2,000 points per call, where one lag holds up to about 1,500
        monkeypatch.setattr(planes, "_EVAL_CHUNK", 8 * 2000)
        fr = antisymmetric_fold_residual(_counting(w, calls), cfg, q, P1, SCH)
        assert fr.folded == _per_lag_fold(w, cfg, q, P1, SCH)
        assert len(calls) - len(whole) > 20
        # only the whole-space value's own calls may hold more
        assert sum(m > 2000 for m in calls) == sum(m > 2000 for m in whole)

    def test_n1_fold_makes_few_field_calls(self):
        cfg, w = self._fold_field([1.0], [-0.65], 0.8)
        q = SpaceTimePoint([-0.55], 0.2)
        whole, calls = [], []
        master_operator_pointwise(_counting(w, whole), q, P1, SCH)
        antisymmetric_fold_residual(_counting(w, calls), cfg, q, P1, SCH)
        # beyond the whole-space value: the antisymmetry probe, w(q), the
        # folded lags in one run and the heat stencil; one call per lag before
        assert len(calls) - len(whole) <= 10


class TestCutoffs:
    def test_eta_plateau_and_support(self):
        eta = build_cutoff_eta(0.5, 1.2)
        r_sq = 1.44
        assert eta.eval(np.array([0.5]))[0] == 1.0
        assert eta.eval(np.array([0.5 + 0.49 * r_sq]))[0] == 1.0
        assert eta.eval(np.array([0.5 + 1.01 * r_sq]))[0] == 0.0
        ts = np.linspace(0.5 - 2 * r_sq, 0.5 + 2 * r_sq, 10_000)
        vals = eta.eval(ts)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_bump_peak_and_antisymmetry(self):
        cfg = PlaneConfig([1.0], -0.1)
        bump = build_antisym_bump([0.6], 0.4, cfg)
        assert bump.eval(np.array([[0.6]]))[0] == 1.0
        rng = np.random.default_rng(4)
        xs = rng.uniform(-3, 3, size=(1000, 1))
        total = bump.eval(xs) + bump.eval(reflect(xs, cfg))
        assert np.max(np.abs(total)) <= 1e-14

    def test_bump_support(self):
        cfg = PlaneConfig([1.0], -0.1)
        bump = build_antisym_bump([0.6], 0.4, cfg)
        # outside both balls of radius 0.2 around 0.6 and its mirror -0.8
        for x in (0.35, 0.85, -0.55, -1.05, 2.0):
            assert bump.eval(np.array([[x]]))[0] == 0.0

    def test_overlap_rejected(self):
        cfg = PlaneConfig([1.0], 0.0)
        with pytest.raises(OverlapError):
            build_antisym_bump([0.1], 0.4, cfg)


class TestLemmaScaling:
    def test_time_cutoff_slope(self):
        fit = verify_lemma_scaling("time-cutoff", [0.5, 1.0, 2.0, 5.0], 0.5, P1, SCH)
        assert abs(fit.slope + 1.0) <= 0.15

    def test_doubling_ratio(self):
        fit = verify_lemma_scaling("time-cutoff", [0.5, 1.0, 2.0, 4.0], 0.5, P1, SCH)
        for lo, hi in zip(fit.sup_values[:-1], fit.sup_values[1:]):
            assert hi / lo == pytest.approx(0.5, rel=0.1)

    def test_spacetime_cutoff_slope(self):
        fit = verify_lemma_scaling("spacetime-cutoff", [0.5, 1.0, 2.0, 5.0], 0.25, P1, SCH)
        assert abs(fit.slope + 0.5) <= 0.15

    def test_validation(self):
        with pytest.raises(DomainValidationError):
            verify_lemma_scaling("time-cutoff", [1.0, 2.0, 3.0], 0.5, P1, SCH)
        with pytest.raises(DomainValidationError):
            verify_lemma_scaling("time-cutoff", [1.0, 2.0, 3.0, 4.0], 0.5, P1, SCH)
        with pytest.raises(DomainValidationError):
            verify_lemma_scaling("sideways-cutoff", [0.5, 1.0, 2.0, 5.0], 0.5, P1, SCH)


class TestMpProbe:
    CFG = PlaneConfig([1.0], 0.0)

    def test_nonpositive_field_trivial(self):
        w = SpaceTimeField(lambda X, t: -np.exp(-np.sum(X * X, -1) - t * t) * 0.0, n=1,
                          sup_bound=0.0, space_scale=1.0,
                          space_support=(np.array([-4.0]), np.array([4.0])))
        rep = unbounded_mp_probe(w, self.CFG, [([-0.5], 0.0), ([-1.0], 0.3)], P1, SCH)
        assert len(rep.hypothesis_points) == 0
        assert not rep.counterexample_candidate

    def test_positive_bump_not_flagged(self):
        # at the positive maximum the folded form makes the operator positive,
        # so the hypothesis fails there and no contradiction arises
        base = gaussian_bump(1, center=[-0.7], width=0.5, t_center=0.0, t_width=0.8)
        w = antisymmetrize(base, lambda X: reflect(X, self.CFG))
        samples = [([-0.7], 0.0), ([-0.5], 0.1), ([-1.2], -0.2), ([-0.9], 0.4)]
        rep = unbounded_mp_probe(w, self.CFG, samples, P1, SCH, tol=1e-3)
        assert rep.max_w > 0.0
        assert rep.hypothesis_violations >= 1
        assert not rep.counterexample_candidate

    def test_random_sweep_no_candidates(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            base = random_spacetime_bump(rng, 1)
            w = antisymmetrize(base, lambda X: reflect(X, self.CFG))
            samples = [([float(rng.uniform(-3.0, -0.05))], float(rng.uniform(-1, 1)))
                       for _ in range(6)]
            rep = unbounded_mp_probe(w, self.CFG, samples, P1, SCH, tol=1e-3)
            assert not rep.counterexample_candidate
