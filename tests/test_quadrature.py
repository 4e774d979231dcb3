"""Pointwise operator quadratures against analytic and spectral oracles."""

import ast
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from fracheat import quadrature, solver
from fracheat.core import FracParams, SpaceTimePoint, integrated_kernel_constant
from fracheat.errors import AdmissibilityError, DomainValidationError, ToleranceError
from fracheat.fields import (
    ZERO_BALL,
    SpaceField,
    SpaceTimeField,
    TimeField,
    constant_field,
    gaussian_bump,
    linear_combination,
    plane_wave,
    random_space_bump,
    random_spacetime_bump,
    random_time_field,
    antisymmetrize,
    torsion_profile,
)
from fracheat.planes import PlaneConfig, antisymmetric_fold_residual, reflect
from fracheat.quadrature import (
    QuadratureScheme,
    _axis_average,
    _capped_edges,
    _fd_laplacian,
    _folded_average,
    _gauss_rule,
    _hermite_axis,
    _panel_axis,
    _panel_axes,
    _two_pass,
    fractional_laplacian_pointwise,
    marchaud_left,
    marchaud_right,
    master_operator_pointwise,
    truncation_tail_bound,
)
from fracheat.solver import (
    BallProblem,
    interpolant_field,
    nonlinearity_by_name,
    residual_field,
    solve_steady,
)

P1 = FracParams(1, 0.5)
SCH = QuadratureScheme()


class TestScheme:
    def test_invariants(self):
        with pytest.raises(DomainValidationError):
            QuadratureScheme(r_min=1.0, r_max=0.5)
        with pytest.raises(DomainValidationError):
            QuadratureScheme(nodes_per_decade=2)
        with pytest.raises(DomainValidationError):
            QuadratureScheme(hermite_order=2)

    def test_refine_doubles(self):
        assert SCH.refine().nodes_per_decade == 2 * SCH.nodes_per_decade

    def test_infinite_r_max_rejected(self):
        # the lag cells of the first pass would overflow
        with pytest.raises(DomainValidationError, match="finite"):
            QuadratureScheme(r_max=math.inf)

    def test_nan_target_tol_rejected(self):
        # nan <= 0 is False, and worst > nan is False too, so the gate would never fire
        with pytest.raises(DomainValidationError, match="target_tol"):
            QuadratureScheme(target_tol=math.nan)

    @pytest.mark.parametrize("kwargs", [{"hermite_order": 20.5}, {"nodes_per_decade": 16.5},
                                        {"hermite_order": "20"}])
    def test_fractional_rule_sizes_rejected(self, kwargs):
        with pytest.raises(DomainValidationError, match="must be an integer"):
            QuadratureScheme(**kwargs)

    def test_integral_floats_stored_as_int(self):
        sch = QuadratureScheme(hermite_order=20.0, nodes_per_decade=np.int64(16))
        assert sch == SCH and type(sch.hermite_order) is type(sch.nodes_per_decade) is int
        u, q = gaussian_bump(1), SpaceTimePoint([0.1], 0.0)
        assert master_operator_pointwise(u, q, P1, sch) == master_operator_pointwise(u, q, P1, SCH)


class TestTailBound:
    def test_zero_bound(self):
        assert truncation_tail_bound(0.0, 1e4, 0.5) == 0.0

    def test_value(self):
        # 2 * 1 * (1e4)^{-1/2} / (0.5 * 2 sqrt(pi)), straight from the formula
        assert truncation_tail_bound(1.0, 1e4, 0.5) == pytest.approx(
            0.011283791670955126, rel=1e-12
        )

    @given(st.floats(min_value=1.0, max_value=1e5), st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_rmax(self, r_max, s):
        assert truncation_tail_bound(1.0, 2 * r_max, s) < truncation_tail_bound(1.0, r_max, s)


class TestMasterOperator:
    def test_constant_annihilation(self):
        ov = master_operator_pointwise(constant_field(1, 1.0), SpaceTimePoint([0.2], 0.1), P1, SCH)
        assert ov.value == 0.0
        assert abs(ov.value) <= ov.est_error

    def test_plane_wave_value(self):
        # symbol (i + 1)^{1/2} at the origin: 2^{1/4} cos(pi/8)
        u = plane_wave(1, [1.0], 1.0)
        ov = master_operator_pointwise(u, SpaceTimePoint([0.0], 0.0), P1, SCH)
        assert ov.value == pytest.approx(1.0986841134678098, abs=1e-3)

    @pytest.mark.parametrize("x, t", [([0.1], math.inf), ([0.1], -math.inf), ([0.1], math.nan),
                                      ([math.inf], 0.0), ([0.1, math.nan], 0.0)])
    def test_non_finite_point_rejected(self, x, t):
        # such a point once gave OperatorValue(0.0, 0.0505) for t = +-inf and x = inf
        with pytest.raises(DomainValidationError, match="finite"):
            master_operator_pointwise(gaussian_bump(len(x)), SpaceTimePoint(x, t),
                                      FracParams(len(x), 0.5), SCH)

    def test_est_error_floor(self):
        u = plane_wave(1, [1.0], 1.0)
        ov = master_operator_pointwise(u, SpaceTimePoint([0.0], 0.0), P1, SCH)
        assert ov.est_error >= truncation_tail_bound(1.0, SCH.r_max, P1.s)

    def test_reduction_to_laplacian(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            g = random_space_bump(rng, 1)
            x0 = rng.uniform(-0.5, 0.5, size=1)
            m = master_operator_pointwise(g.as_spacetime(), SpaceTimePoint(x0, 0.4), P1, SCH)
            l = fractional_laplacian_pointwise(g, x0, P1, SCH)
            assert abs(m.value - l.value) <= min(1e-3, m.est_error + l.est_error)

    def test_reduction_to_marchaud(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            h = random_time_field(rng)
            t0 = float(rng.uniform(-0.5, 0.5))
            m = master_operator_pointwise(h.as_spacetime(1), SpaceTimePoint([0.0], t0), P1, SCH)
            ml = marchaud_left(h, t0, 0.5, SCH)
            assert abs(m.value - ml.value) <= 1e-6

    def test_linearity(self):
        rng = np.random.default_rng(4)
        u = random_space_bump(rng, 1).as_spacetime()
        v = gaussian_bump(1, center=[0.3], width=0.7, t_width=0.8)
        a, b = 1.7, -0.6
        q = SpaceTimePoint([0.1], 0.2)
        combo = linear_combination([u, v], [a, b])
        lhs = master_operator_pointwise(combo, q, P1, SCH)
        mu = master_operator_pointwise(u, q, P1, SCH)
        mv = master_operator_pointwise(v, q, P1, SCH)
        rhs = a * mu.value + b * mv.value
        budget = 2.0 * (lhs.est_error + abs(a) * mu.est_error + abs(b) * mv.est_error)
        assert abs(lhs.value - rhs) <= budget
        assert abs(lhs.value - rhs) <= 1e-3

    def test_local_limit_monotone(self):
        from fracheat.quadrature import _fd_heat

        u = gaussian_bump(1, width=0.8, t_width=0.9)
        q = SpaceTimePoint([0.3], 0.2)
        fd = _fd_heat(u, q.x, q.t)[1]
        errors = []
        for s in (0.9, 0.95, 0.99):
            ov = master_operator_pointwise(u, q, FracParams(1, s), SCH)
            errors.append(abs(ov.value - fd))
        assert errors[0] > errors[1] > errors[2]

    def test_tail_bound_soundness(self):
        # halving r_max moves the value by at most the smaller-r_max tail bound
        rng = np.random.default_rng(9)
        for _ in range(3):
            u = random_space_bump(rng, 1).as_spacetime()
            q = SpaceTimePoint([0.1], 0.0)
            small = QuadratureScheme(r_max=SCH.r_max / 2.0)
            v_big = master_operator_pointwise(u, q, P1, SCH).value
            v_small = master_operator_pointwise(u, q, P1, small).value
            assert abs(v_big - v_small) <= truncation_tail_bound(
                u.sup_bound, small.r_max, P1.s
            )

    def test_admissibility(self):
        u = SpaceTimeField(lambda X, t: np.exp(np.sum(X * X, -1)), n=1, sup_bound=math.inf,
                           space_scale=1.0)
        with pytest.raises(AdmissibilityError):
            master_operator_pointwise(u, SpaceTimePoint([0.0], 0.0), P1, SCH)

    def test_tolerance_error(self):
        u = plane_wave(1, [1.0], 1.0)
        tight = QuadratureScheme(target_tol=1e-9)
        with pytest.raises(ToleranceError):
            master_operator_pointwise(u, SpaceTimePoint([0.0], 0.0), P1, tight)


class TestMarchaud:
    def test_constant(self):
        h = TimeField(lambda t: np.full_like(t, 3.0), sup_bound=3.0)
        assert marchaud_left(h, 0.0, 0.5, SCH).value == 0.0
        assert marchaud_right(h, 0.0, 0.5, SCH).value == 0.0

    def test_exponential_left(self):
        # d^s e^t = e^t for every s: the integral is Gamma(1-s)/s = |Gamma(-s)|
        h = TimeField(lambda t: np.exp(t), sup_bound=1.0)
        assert marchaud_left(h, 0.0, 0.5, SCH).value == pytest.approx(1.0, abs=1e-5)
        assert marchaud_left(h, 0.0, 0.25, SCH).value == pytest.approx(1.0, abs=1e-5)

    def test_cosine_left(self):
        h = TimeField(lambda t: np.cos(t), sup_bound=1.0)
        got = marchaud_left(h, 0.0, 0.5, SCH).value
        assert got == pytest.approx(math.cos(math.pi / 4.0), abs=5e-5)

    def test_exponential_right(self):
        h = TimeField(lambda t: np.exp(-t), sup_bound=1.0)
        assert marchaud_right(h, 0.0, 0.5, SCH).value == pytest.approx(1.0, abs=1e-5)

    def test_time_reversal_duality(self):
        rng = np.random.default_rng(6)
        for _ in range(3):
            h = random_time_field(rng)
            t0 = float(rng.uniform(-0.5, 0.5))
            support = (2 * t0 - h.support[1], 2 * t0 - h.support[0])
            mirrored = TimeField(lambda tau, h=h, t0=t0: h.func(2 * t0 - tau),
                                 sup_bound=h.sup_bound, support=support)
            right = marchaud_right(h, t0, 0.4, SCH).value
            left = marchaud_left(mirrored, t0, 0.4, SCH).value
            assert right == pytest.approx(left, abs=1e-10)

    def test_order_domain(self):
        h = TimeField(lambda t: np.cos(t), sup_bound=1.0)
        with pytest.raises(DomainValidationError):
            marchaud_left(h, 0.0, 1.0, SCH)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("side", [marchaud_left, marchaud_right], ids=["left", "right"])
    def test_non_finite_time_rejected(self, side, t):
        # marchaud_left at t = inf once returned (0.0, 0.0408); no field call is made
        calls = []
        h = TimeField(lambda tau: calls.append(tau) or np.cos(tau), sup_bound=1.0)
        with pytest.raises(DomainValidationError, match="finite"):
            side(h, t, 0.5, SCH)
        assert calls == []

    def test_tolerance_error(self):
        h = TimeField(lambda t: np.cos(t), sup_bound=1.0)
        with pytest.raises(ToleranceError):
            marchaud_left(h, 0.0, 0.5, QuadratureScheme(target_tol=1e-9))


class TestFractionalLaplacian:
    def test_constant(self):
        g = SpaceField(lambda X: np.full(X.shape[0], 2.0), n=1, sup_bound=2.0)
        assert fractional_laplacian_pointwise(g, [0.3], P1, SCH).value == 0.0

    @pytest.mark.parametrize("x", [[math.inf], [-math.inf], [math.nan], [0.3, math.inf]])
    def test_non_finite_point_rejected(self, x):
        # inf once raised OverflowError in _capped_edges and NaN IndexError in reduceat
        sizes = []
        g = _counting(torsion_profile(len(x), 0.5), sizes)
        with pytest.raises(DomainValidationError, match="finite"):
            fractional_laplacian_pointwise(g, x, FracParams(len(x), 0.5), SCH)
        assert sizes == []

    def test_cosine_symbol(self):
        # |xi|^{2s} cos(0) at xi = 1; the residual error is the oscillatory
        # far tail, well inside the reported estimate
        g = SpaceField(lambda X: np.cos(X[:, 0]), n=1, sup_bound=1.0, space_scale=1.0)
        ov = fractional_laplacian_pointwise(g, [0.0], P1, SCH)
        assert ov.value == pytest.approx(1.0, abs=5e-4)
        assert abs(ov.value - 1.0) <= ov.est_error

    def test_torsion_constancy(self):
        # (-Lap)^{1/2} (1 - x^2)^{1/2} = 1 inside the ball for n = 1
        g = torsion_profile(1, 0.5)
        for x in np.linspace(-0.8, 0.8, 10):
            ov = fractional_laplacian_pointwise(g, [float(x)], P1, SCH)
            assert ov.value == pytest.approx(1.0, abs=1e-3)

    def test_n2_reduction(self):
        rng = np.random.default_rng(8)
        p2 = FracParams(2, 0.5)
        g = random_space_bump(rng, 2)
        x0 = np.array([0.1, -0.2])
        m = master_operator_pointwise(g.as_spacetime(), SpaceTimePoint(x0, 0.0), p2, SCH)
        l = fractional_laplacian_pointwise(g, x0, p2, SCH)
        assert abs(m.value - l.value) <= min(5e-3, m.est_error + l.est_error)


def _counting(fld, sizes):
    """The same field with every call of its callable recording the point count."""
    def func(X, *args):
        sizes.append(len(X))
        return fld.func(X, *args)
    return dataclasses.replace(fld, func=func)


def _refine_toward(edges, lo, hi, centres, steps):
    """Sorted union of the edges with every centre and centre +- step inside (lo, hi).

    The graded-edge rule one row at a time: without any such point the
    edges come back as they are, repeats included.
    """
    c = np.asarray(centres, dtype=float).reshape(-1, 1)
    extra = np.concatenate([c.ravel(), (c - steps).ravel(), (c + steps).ravel()])
    extra = extra[(extra > lo) & (extra < hi)]
    if extra.size == 0:
        return edges
    return np.unique(np.concatenate([edges, extra]))


def _reference_laplacian_pass(g, x, p, sch, breakpoints, curvature):
    """The Laplacian sweep direction by direction, two field calls per direction.

    Each direction's row is one segment sum, and the directions one weighted sum.
    """
    n, s = p.n, p.s
    a_ns = integrated_kernel_constant(p)
    g_x = float(g.eval(x.reshape(1, -1))[0])
    z_min = math.sqrt(sch.r_min)
    if g.exterior == ZERO_BALL:
        z_star = g.ball_radius + math.sqrt(x[0] * x[0] + x[1] * x[1])
    else:
        z_star = 2.0 * math.sqrt(sch.r_max)
    m_ang = 2 * sch.hermite_order
    ang = (np.arange(m_ang) + 0.5) * math.pi / m_ang
    thetas = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    row_sums = []
    pair_peak = 0.0
    for theta in thetas:
        cusps = list(breakpoints) if breakpoints is not None else []
        if g.exterior == ZERO_BALL:
            b = x[0] * theta[0] + x[1] * theta[1]
            disc = g.ball_radius**2 - ((x[0] * x[0] + x[1] * x[1]) - b * b)
            if disc > 0:
                root = math.sqrt(disc)
                cusps.extend([abs(-b + root), abs(-b - root), abs(b + root), abs(b - root)])
        inside = [c for c in cusps if z_min < c < z_star]
        edges = _refine_toward(_capped_edges(z_min, z_star, sch.nodes_per_decade), z_min, z_star,
                               inside, quadrature._CAP_FACTOR / sch.nodes_per_decade
                               / 2.0 ** np.arange(1, 9))
        zm = 0.5 * (edges[:-1] + edges[1:])
        zw = np.diff(edges)
        s_pair = (2.0 * g_x - g.eval(x[None, :] + zm[:, None] * theta[None, :])
                  - g.eval(x[None, :] - zm[:, None] * theta[None, :]))
        pair_peak = max(pair_peak, float(np.max(np.abs(s_pair))))
        row_sums.append(np.add.reduceat(zw * s_pair * zm ** (-1.0 - 2.0 * s), [0])[0])
    val = a_ns * np.sum(np.array(row_sums) * (math.pi / m_ang))
    lap = _fd_laplacian(g.eval, x, max(1e-4, 0.5 * z_min)) if curvature is None else curvature
    val -= a_ns * math.pi * (lap / n) * z_min ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    if pair_peak > 1e-14 * max(1.0, abs(g_x)):
        val += 2.0 * g_x * a_ns * math.pi * z_star ** (-2.0 * s) / (2.0 * s)
    if g.exterior == ZERO_BALL:
        return val, 0.0, 0.0
    return val, 0.0, 2.0 * g.sup_bound * a_ns * math.pi * z_star ** (-2.0 * s) / (2.0 * s)


def _gauss_sum(X):
    out = np.zeros(X.shape[0])
    for c, w, a in (((0.2, -0.1), 0.6, 0.9), ((-0.4, 0.3), 0.8, -0.5)):
        d = X - np.asarray(c)
        out += a * np.exp(-np.sum(d * d, axis=-1) / w**2)
    return out


def _ball_interpolant():
    problem = BallProblem(FracParams(2, 0.5), 9, nonlinearity_by_name("one"))
    return interpolant_field(problem, solve_steady(problem).full_values(problem))


def _torsion_in_time(n):
    """A time-dependent zero-ball field: the torsion profile times a Gaussian in t."""
    g = torsion_profile(n, 0.5).func
    return SpaceTimeField(lambda X, t: g(X) * np.exp(-((t - 0.2) ** 2) / 0.64), n=n,
                          exterior=ZERO_BALL, ball_radius=1.0, space_scale=0.5)


def _hermite_rule(x, sch):
    """Per lag r: one Gauss-Hermite axis x_k + 2 sqrt(r) z per coordinate, weights w / sqrt(pi)."""
    zn, wn = hermgauss(sch.hermite_order)
    return lambda r: [(x_k + 2.0 * math.sqrt(r) * zn, wn / math.sqrt(math.pi)) for x_k in x]


def _panel_rule(u, x, sch):
    """Per lag r: the panel axes of u, weights w exp(-(y - x_k)^2 / 4r) / sqrt(4 pi r)."""
    axes = list(zip(x, *_panel_axes(u, sch)))
    return lambda r: [(y, np.exp(-np.square(y - x_k) / (4.0 * r)) * w
                       / math.sqrt(4.0 * math.pi * r)) for x_k, y, w in axes]


def _per_lag_average(u, t, r_mid, rule):
    """The tensor-rule average with one field call per lag, summed one axis at a time."""
    out = np.empty_like(r_mid)
    for i, r in enumerate(r_mid):
        axes = rule(r)
        grids = np.meshgrid(*[y for y, _ in axes], indexing="ij")
        pts = np.stack([g.ravel() for g in grids]).T
        vals = u.eval(pts, np.full(len(pts), t - r)).reshape([len(w) for _, w in axes])
        for _, w in reversed(axes):
            vals = np.einsum("...j,j->...", vals, w)
        out[i] = vals
    return out


def _panel_points(u, sch):
    """Points per lag of the panel rule of u, counted as ``_master_passes`` counts them."""
    return math.prod(len(y) for y in _panel_axes(u, sch)[0])


def _hermite_axes(x, sch):
    """The library's Hermite rule at x, as ``_axis_average`` takes it."""
    return lambda rb: [_hermite_axis(x_k, rb, sch.hermite_order) for x_k in x]


def _panel_axes_of(u, x, sch):
    """The library's panel rule of u at x, as ``_axis_average`` takes it."""
    axes = list(zip(x, *_panel_axes(u, sch)))
    return lambda rb: [_panel_axis(x_k, rb, y, w) for x_k, y, w in axes]


class TestOneEvaluationPerPoint:
    """Each pass evaluates a field once per distinct point, with unchanged bits."""

    @pytest.mark.parametrize("field, points, breakpoints, curvature", [
        (torsion_profile(2, 0.5), [(0.3, 0.2), (0.7, 0.0), (-0.55, 0.6)], None, None),
        (torsion_profile(2, 0.5), [(0.25, -0.5)], (0.1, 0.4), -2.5),
        # outside the ball: 16 of the 40 directions miss the sphere and keep the shared edges
        (torsion_profile(2, 0.5), [(1.2, 0.3)], None, None),
        (SpaceField(_gauss_sum, n=2, sup_bound=1.4, space_scale=0.6), [(0.0, 0.0), (0.5, -0.3)],
         None, None),
        (_ball_interpolant(), [(0.0, 0.0), (0.25, 0.5)], None, -3.0),
    ], ids=["torsion", "torsion-breakpoints", "torsion-outside", "gauss-sum",
            "ball-interpolant"])
    def test_laplacian_matches_per_direction_loop(self, field, points, breakpoints, curvature):
        p2 = FracParams(2, 0.5)
        sch = QuadratureScheme(r_min=1e-4, nodes_per_decade=8)
        for x in np.asarray(points, dtype=float):
            got = fractional_laplacian_pointwise(field, x, p2, sch, breakpoints, curvature)
            want = _two_pass(lambda sc: _reference_laplacian_pass(field, x, p2, sc, breakpoints,
                                                                  curvature),
                             sch, field.sup_bound, p2.s)
            assert (got.value, got.est_error) == (want.value, want.est_error)

    @pytest.mark.parametrize("small_runs", [False, True], ids=["default-runs", "small-runs"])
    def test_kink_free_batch_matches_each_point_alone(self, monkeypatch, small_runs):
        # a global field without breakpoints: every point keeps the tiled shared cells
        sizes = []
        g = _counting(SpaceField(_gauss_sum, n=2, sup_bound=1.4, space_scale=0.6), sizes)
        X = np.array([[0.0, 0.0], [0.5, -0.3], [-0.7, 0.2], [0.1, 0.9], [1.3, -1.1]])
        p2 = FracParams(2, 0.5)
        # 8 directions: 785 field points per point, 1,569 in the refined pass
        sch = QuadratureScheme(r_min=1e-4, r_max=4.0, nodes_per_decade=8, hermite_order=4)
        if small_runs:
            monkeypatch.setattr(quadrature, "_FIELD_BLOCK", 2_000)
        curv = np.linspace(-2.0, 1.0, len(X))  # no finite-difference calls
        batch = quadrature._fractional_laplacian(g, X, p2, sch, curvature=curv)
        # one call per pass, or runs of two, two and one points, then of one point each
        assert len(sizes) == (8 if small_runs else 2)
        for i, x in enumerate(X):
            alone = quadrature._fractional_laplacian(g, x[None, :], p2, sch, curvature=curv[i:i + 1])
            assert (batch.value[i], batch.est_error[i]) == (alone.value[0], alone.est_error[0])

    def test_breakpoint_containers_give_the_same_bits(self):
        g, x, p2 = torsion_profile(2, 0.5), np.array([0.25, -0.5]), FracParams(2, 0.5)
        got = {kind: fractional_laplacian_pointwise(g, x, p2, SCH, breakpoints=kind((0.1, 0.4)))
               for kind in (tuple, list, np.array)}
        assert got[tuple] == got[list] == got[np.array]

    def test_laplacian_stencil_once_per_call(self):
        # refine keeps r_min, so both passes share one finite-difference curvature
        sizes = []
        g = _counting(torsion_profile(2, 0.5), sizes)
        fractional_laplacian_pointwise(g, np.array([0.3, 0.2]), FracParams(2, 0.5), SCH)
        assert sizes.count(5) == 1 and len(sizes) == 3

    @staticmethod
    def _inner_piece_calls(sizes, n):
        # one call of the 2n + 1 Laplacian stencil points, whose centre is u(q), and the
        # 2 slope points, and none of u(q), the stencil or the slope alone; every
        # average call holds whole lags of at least 8 points
        return [sizes.count(m) for m in (2 * n + 3, 1, 2 * n + 1, 2)]

    @pytest.mark.parametrize("n", [1, 2])
    def test_master_inner_piece_once_per_call(self, n):
        sizes = []
        u = _counting(gaussian_bump(n, width=0.7), sizes)
        master_operator_pointwise(u, SpaceTimePoint([0.3, 0.1][:n], 0.2), FracParams(n, 0.5), SCH)
        assert self._inner_piece_calls(sizes, n) == [1, 0, 0, 0]

    @pytest.mark.parametrize("side", [marchaud_left, marchaud_right])
    def test_marchaud_inner_piece_once_per_call(self, side):
        # h(t) and its two slope values in one call of 3 times; the lag cells hold more
        sizes = []
        side(_counting(random_time_field(np.random.default_rng(7)), sizes), 0.2, 0.5, SCH)
        assert [sizes.count(m) for m in (3, 1, 2)] == [1, 0, 0]

    @pytest.mark.parametrize("n", [1, 2])
    def test_fold_inner_piece_once_per_call(self, n):
        # the two whole-space passes and the folded pass share one set-up
        cfg = PlaneConfig([1.0] + [0.0] * (n - 1), 0.0)
        base = gaussian_bump(n, center=[-0.65, 0.2][:n], width=0.55, t_width=0.8)
        sizes = []
        w = _counting(antisymmetrize(base, lambda X: reflect(X, cfg)), sizes)
        antisymmetric_fold_residual(w, cfg, SpaceTimePoint([-0.55, 0.0][:n], 0.2),
                                    FracParams(n, 0.5), QuadratureScheme(nodes_per_decade=8))
        assert self._inner_piece_calls(sizes, n) == [1, 0, 0, 0]

    def test_laplacian_one_field_call_per_pass(self):
        sizes = []
        g = _counting(torsion_profile(2, 0.5), sizes)
        fractional_laplacian_pointwise(g, np.array([0.3, 0.2]), FracParams(2, 0.5), SCH,
                                       curvature=-1.0)
        assert len(sizes) == 2

    def test_static_panel_values_match_per_lag_values(self):
        u = gaussian_bump(2, center=[0.1, -0.2], width=0.8, t_width=None)
        x = np.array([0.3, 0.1])
        npts = _panel_points(u, SCH)
        # enough lags that the per-lag evaluation takes more than one block
        r_mid = np.geomspace(0.2, 500.0, 2 * quadrature._FIELD_BLOCK // npts + 7)
        static = _axis_average(u, 0.5, r_mid, _panel_axes_of(u, x, SCH))
        per_lag = _axis_average(dataclasses.replace(u, time_independent=False), 0.5, r_mid,
                                _panel_axes_of(u, x, SCH))
        assert static.tobytes() == per_lag.tobytes()

    def test_static_master_one_panel_call_per_pass(self):
        sizes = []
        u = _counting(gaussian_bump(2, t_width=None), sizes)
        master_operator_pointwise(u, SpaceTimePoint([0.2, 0.1], 0.0), FracParams(2, 0.5), SCH)
        coarse = _panel_points(u, SCH)
        fine = _panel_points(u, SCH.refine())
        # Gauss-Hermite calls hold 400 points per lag, never a multiple of the panel size
        assert [m for m in sizes if m % coarse == 0] == [coarse, fine]

    def test_panel_cost_guard_runs_before_any_evaluation(self):
        sizes = []
        u = _counting(gaussian_bump(3), sizes)
        with pytest.raises(DomainValidationError, match="7,077,888 points"):
            master_operator_pointwise(u, SpaceTimePoint([0.0] * 3, 0.0), FracParams(3, 0.5), SCH)
        assert sizes == []

    def test_infinite_support_box_rejected_before_any_evaluation(self):
        # the panel rule of such a box would overflow, so the field is not built at all
        with pytest.raises(DomainValidationError, match="finite entries"):
            dataclasses.replace(gaussian_bump(2), space_support=([-3.0, -3.0], [3.0, math.inf]))


# (field, evaluation point): global Gaussians, time-dependent zero-ball
# torsion profiles, time-independent Gaussians and a plane wave without a
# support box (whose panel rule is then the n-dimensional Gaussian's)
_AVERAGE_CASES = {
    "gauss-n1": (lambda: gaussian_bump(1, center=[0.1], width=0.8, t_center=0.2), [0.3]),
    "gauss-n2": (lambda: gaussian_bump(2, center=[0.1, 0.1], width=0.8, t_center=0.2),
                 [0.3, -0.2]),
    "torsion-t-n1": (lambda: _torsion_in_time(1), [0.3]),
    "torsion-t-n2": (lambda: _torsion_in_time(2), [0.3, -0.2]),
    "static-n1": (lambda: gaussian_bump(1, width=0.7, t_width=None), [0.3]),
    "static-n2": (lambda: gaussian_bump(2, width=0.7, t_width=None), [0.3, -0.2]),
    "plane-wave-n2": (lambda: plane_wave(2, [1.0, 1.0], 1.0), [0.3, -0.2]),
}


class TestFieldBlocks:
    """The axis average calls the field on blocks of lags, with the bits of one call per lag."""

    @staticmethod
    def _block(monkeypatch, small, per_lag):
        # small: two lags per block, so the last block of 23 lags holds one
        if small:
            monkeypatch.setattr(quadrature, "_FIELD_BLOCK", 3 * per_lag - 1)
        return max(quadrature._FIELD_BLOCK, per_lag)

    @pytest.mark.parametrize("small", [False, True], ids=["default-blocks", "small-blocks"])
    @pytest.mark.parametrize("case", list(_AVERAGE_CASES))
    def test_panel_average_bits(self, monkeypatch, case, small):
        build, x = _AVERAGE_CASES[case]
        u, x = build(), np.asarray(x)
        rule_field = u if u.space_support is not None else gaussian_bump(u.n)
        npts = _panel_points(rule_field, SCH)
        r_mid = np.geomspace(0.05, 400.0, 23 if small else 300)
        cap = self._block(monkeypatch, small, npts)
        sizes = []
        got = _axis_average(_counting(u, sizes), 0.1, r_mid, _panel_axes_of(rule_field, x, SCH))
        want = _per_lag_average(u, 0.1, r_mid, _panel_rule(rule_field, x, SCH))
        assert got.tobytes() == want.tobytes()
        assert max(sizes) <= cap
        if u.time_independent:
            assert sizes == [npts]
        elif small and u.exterior != ZERO_BALL:
            assert len(sizes) == 12  # eleven blocks of two lags, then one

    @pytest.mark.parametrize("small", [False, True], ids=["default-blocks", "small-blocks"])
    @pytest.mark.parametrize("case", list(_AVERAGE_CASES))
    def test_gh_average_bits(self, monkeypatch, case, small):
        build, x = _AVERAGE_CASES[case]
        u, x = build(), np.asarray(x)
        r_mid = np.geomspace(1e-6, 0.5, 23 if small else 300)
        cap = self._block(monkeypatch, small, SCH.hermite_order ** u.n)
        sizes = []
        got = _axis_average(_counting(u, sizes), 0.1, r_mid, _hermite_axes(x, SCH))
        want = _per_lag_average(u, 0.1, r_mid, _hermite_rule(x, SCH))
        assert got.tobytes() == want.tobytes()
        assert max(sizes) <= cap

    def test_lag_larger_than_a_block(self):
        # the refined panel rule of this packet holds 211,584 points per lag
        u = random_spacetime_bump(np.random.default_rng(13), 2)
        npts = _panel_points(u, SCH.refine())
        assert npts > quadrature._FIELD_BLOCK
        x = np.array([0.1, -0.2])
        r_mid = np.geomspace(0.3, 40.0, 11)
        sizes = []
        got = _axis_average(_counting(u, sizes), 0.1, r_mid, _panel_axes_of(u, x, SCH.refine()))
        want = _per_lag_average(u, 0.1, r_mid, _panel_rule(u, x, SCH.refine()))
        assert got.tobytes() == want.tobytes()
        assert sizes == [npts] * len(r_mid)

    @pytest.mark.parametrize("field, x, parent_points", [
        (lambda: gaussian_bump(1), [0.0], 100_033),
        (lambda: gaussian_bump(2), [0.0, 0.0], 16_489_655),
        (lambda: _torsion_in_time(1), [0.3], 1_605_143),
    ], ids=["gauss-n1", "gauss-n2", "torsion-t-n1"])
    def test_master_calls_stay_within_a_block(self, field, x, parent_points):
        u = field()
        sizes = []
        master_operator_pointwise(_counting(u, sizes), SpaceTimePoint(x, 0.1),
                                  FracParams(u.n, 0.5), SCH)
        one_lag = _panel_points(u, SCH.refine())
        assert max(sizes) <= max(quadrature._FIELD_BLOCK, one_lag)
        # the same points as with one field call per 2,000,000-point chunk, less the
        # 2n + 4 of the refined pass's u(q), stencil and slope, which the passes share,
        # and the u(q) point of the coarse pass, which is the stencil's centre
        assert sum(sizes) == parent_points

    @pytest.mark.parametrize("block", [1, 10**9], ids=["one-point", "unbounded"])
    def test_values_do_not_depend_on_the_blocks(self, monkeypatch, block):
        # each lag is summed on its own, so any block size gives the default's bits; the
        # coarser n = 2 fold keeps a one-call pass small
        cfg, p2 = PlaneConfig([1.0, 0.0], 0.0), FracParams(2, 0.5)
        w = antisymmetrize(gaussian_bump(2, center=[-0.65, 0.2], width=0.55, t_width=0.8),
                           lambda X: reflect(X, cfg))

        def values():
            return (master_operator_pointwise(_torsion_in_time(1), SpaceTimePoint([0.3], 0.1),
                                              P1, SCH),
                    master_operator_pointwise(gaussian_bump(2, width=0.7, t_width=None),
                                              SpaceTimePoint([0.3, -0.2], 0.1), p2, SCH),
                    antisymmetric_fold_residual(w, cfg, SpaceTimePoint([-0.55, 0.0], 0.2), p2,
                                                QuadratureScheme(nodes_per_decade=8)))

        default = values()
        monkeypatch.setattr(quadrature, "_FIELD_BLOCK", block)
        assert values() == default

    def test_traced_peak_of_a_default_n2_call(self):
        tracemalloc.start()
        try:
            master_operator_pointwise(gaussian_bump(2), SpaceTimePoint([0.0, 0.0], 0.0),
                                      FracParams(2, 0.5), SCH)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 113 MB with one field call per chunk of 2,000,000 points; about 19 MB in blocks
        assert peak < 40e6


# operator values whose lag sums exceed 10,000 cells, through plane-wave rows
_THREAD_SCRIPT = """
import numpy as np
from fracheat.core import FracParams, SpaceTimePoint
from fracheat.fields import TimeField, plane_wave
from fracheat.quadrature import QuadratureScheme, marchaud_left, master_operator_pointwise
sch = QuadratureScheme()
for ov in (master_operator_pointwise(plane_wave(2, [0.6, -0.8], 0.7),
                                     SpaceTimePoint([0.3, -0.2], 0.2), FracParams(2, 0.5), sch),
           master_operator_pointwise(plane_wave(1, [1.0], 1.0), SpaceTimePoint([0.3], 0.2),
                                     FracParams(1, 0.5), sch),
           marchaud_left(TimeField(np.cos), 0.3, 0.5, sch)):
    print(ov.value.hex(), ov.est_error.hex())
"""


def test_values_do_not_depend_on_the_blas_threads():
    # no field row and no lag sum goes through BLAS, whose sums split over its threads
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _THREAD_SCRIPT], env=env,
                             capture_output=True, text=True, check=True, timeout=300)
        outputs.append(run.stdout)
    assert len(outputs[0].splitlines()) == 3
    assert outputs[0] == outputs[1]


def _recording(fld, blocks):
    """The same field with every call of its callable recording its row count and
    whether each column of its points is contiguous."""
    def func(X, *args):
        blocks.append((len(X), all(X[:, k].flags.c_contiguous for k in range(X.shape[1]))))
        return fld.func(X, *args)
    return dataclasses.replace(fld, func=func)


class TestCoordinateMajorBlocks:
    """Every n = 2 block of points that reaches a field's callable has contiguous columns."""

    @staticmethod
    def _check(blocks):
        # blocks of one row are contiguous in any layout; the large ones make the test
        assert max(rows for rows, _ in blocks) > 1000
        assert all(ok for _, ok in blocks)

    @pytest.mark.parametrize("build", [
        lambda: gaussian_bump(2, center=[0.1, -0.1], width=0.8, t_center=0.2),
        lambda: gaussian_bump(2, width=0.7, t_width=None),
        lambda: _torsion_in_time(2),
        lambda: plane_wave(2, [1.0, 1.0], 1.0),
    ], ids=["gauss", "gauss-static", "torsion-t", "plane-wave"])
    def test_master_operator(self, build):
        blocks = []
        master_operator_pointwise(_recording(build(), blocks), SpaceTimePoint([0.3, -0.2], 0.1),
                                  FracParams(2, 0.5), SCH)
        self._check(blocks)

    def test_fold_both_sides(self):
        cfg = PlaneConfig([1.0, 0.0], 0.0)
        q = SpaceTimePoint([-0.55, 0.0], 0.2)
        blocks, folded = [], []
        base = _recording(gaussian_bump(2, center=[-0.65, 0.2], width=0.55, t_width=0.8), blocks)
        w = _recording(antisymmetrize(base, lambda X: reflect(X, cfg)), blocks)
        antisymmetric_fold_residual(w, cfg, q, FracParams(2, 0.5), SCH)
        self._check(blocks)
        # the folded side on its own: the half-space rule and its mirror image
        _folded_average(_recording(w, folded), *cfg.axis(), cfg.lam, q, SCH,
                        np.geomspace(1e-4, 50.0, 40))
        self._check(folded)

    @pytest.mark.parametrize("field", [torsion_profile(2, 0.5),
                                       random_space_bump(np.random.default_rng(3), 2)],
                             ids=["torsion", "space-bump"])
    def test_fractional_laplacian(self, field):
        blocks = []
        fractional_laplacian_pointwise(_recording(field, blocks), [0.3, 0.2], FracParams(2, 0.5),
                                       SCH)
        self._check(blocks)

    def test_residual_field(self, monkeypatch):
        blocks = []
        build = solver.interpolant_field
        monkeypatch.setattr(solver, "interpolant_field",
                            lambda *args: _recording(build(*args), blocks))
        problem = BallProblem(FracParams(2, 0.5), 9, nonlinearity_by_name("one"))
        residual_field(problem, solve_steady(problem, SCH, theta=1.0), SCH)
        self._check(blocks)


def _direct_average(u, q, sc):
    """The Gaussian average of a compact field, its panel rule built here from ``_panel_axes``."""
    panels = _panel_axes_of(u, q.x, sc)

    def average(r_mid):
        near = r_mid <= (0.5 * u.space_scale) ** 2
        out = np.empty_like(r_mid)
        out[near] = _axis_average(u, q.t, r_mid[near], _hermite_axes(q.x, sc))
        out[~near] = _axis_average(u, q.t, r_mid[~near], panels)
        return out, 0.0

    return average


class TestPanelRulesBuiltPerPass:
    """Each pass uses the panel rule of its own scheme, as a pass that builds it directly."""

    def test_master_operator(self):
        u, q, p = gaussian_bump(2, width=0.7), SpaceTimePoint([0.3, 0.1], 0.2), FracParams(2, 0.5)
        got = master_operator_pointwise(u, q, p, SCH)
        one_pass = quadrature._master_passes(u, q, p, SCH)[1]
        want = _two_pass(lambda sc: one_pass(sc, average=_direct_average(u, q, sc)), SCH, 1.0, 0.5)
        assert (got.value, got.est_error) == (want.value, want.est_error)

    def test_fold(self):
        cfg, q, p = PlaneConfig([1.0, 0.0], 0.0), SpaceTimePoint([-0.55, 0.0], 0.2), FracParams(2, 0.5)
        base = gaussian_bump(2, center=[-0.65, 0.2], width=0.55, t_width=0.8)
        w = antisymmetrize(base, lambda X: reflect(X, cfg))
        got = antisymmetric_fold_residual(w, cfg, q, p, SCH)
        one_pass = quadrature._master_passes(w, q, p, SCH)[1]
        passes = []

        def whole_pass(sc):
            passes.append(one_pass(sc, average=_direct_average(w, q, sc)))
            return passes[-1]

        whole = _two_pass(whole_pass, SCH, 2.0, 0.5)
        folded_coarse = one_pass(SCH, average=lambda r_mid: (
            _folded_average(w, 0, 1.0, 0.0, q, SCH, r_mid), 0.0))[0]
        folded = folded_coarse + (whole.value - passes[0][0])
        assert (got.whole_space, got.folded, got.combined_tol) == (
            whole.value, folded, 2.0 * whole.est_error)



def _time_hump(a, b):
    """(t - a)(b - t) on (a, b), zero elsewhere: a TimeField with support (a, b)."""
    return TimeField(lambda t: np.where((t > a) & (t < b), (t - a) * (b - t), 0.0),
                     sup_bound=0.25 * (b - a) ** 2, support=(a, b))


class TestSupportDeclarations:
    """Each support declaration is one rule, read in one place."""

    @pytest.mark.parametrize("npd", [8, 16, 32])
    def test_wide_zero_ball_box_ends_at_the_ball(self, npd):
        # a zero-ball box wider than the ball is stored as the ball's box, so the
        # panel rule and the master value are those of the ball-box field
        ball = dataclasses.replace(_torsion_in_time(2), t_support=(-6.0, 6.0))
        wide = dataclasses.replace(ball, space_support=(np.array([-1.5, -1.2]),
                                                        np.array([1.3, 1.5])))
        assert all(np.array_equal(e, [v, v]) for e, v in zip(wide.space_support, (-1.0, 1.0)))
        sch = QuadratureScheme(nodes_per_decade=npd)
        for got, want in zip(_panel_axes(wide, sch), _panel_axes(ball, sch)):
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        q, p2 = SpaceTimePoint([0.3, 0.2], 0.5), FracParams(2, 0.5)
        got = master_operator_pointwise(wide, q, p2, sch)
        want = master_operator_pointwise(ball, q, p2, sch)
        assert (got.value, got.est_error) == (want.value, want.est_error)

    def test_lag_cells_end_at_the_horizon(self, monkeypatch):
        # the support starts 1.5 r_min before t: Marchaud and the master operator of
        # the lifted field both end their lag cells there, at max(horizon, r_min)
        sch, t = QuadratureScheme(), 0.0
        h = _time_hump(t - 1.5 * sch.r_min, 1.0)
        horizon = t - h.support[0]
        ends = []

        def capped_edges(lo, hi, npd, cap_width=True):
            edges = _capped_edges(lo, hi, npd, cap_width)
            ends.append(edges[-1])
            return edges

        monkeypatch.setattr(quadrature, "_capped_edges", capped_edges)
        marchaud_left(h, t, 0.5, sch)
        assert ends == [max(horizon, sch.r_min)] * 2
        ends.clear()
        master_operator_pointwise(h.as_spacetime(1), SpaceTimePoint([0.0], t), P1, sch)
        assert ends == [max(horizon, sch.r_min)] * 2

    def test_one_reader_of_each_rule(self):
        # the exterior rule is read only by the fractional-Laplacian sweep, and the
        # lag cut is set only in _lag_integral
        tree = ast.parse(Path(quadrature.__file__).read_text())
        readers, cutters = set(), set()
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) and node.attr == "exterior":
                    readers.add(fn.name)
                if isinstance(node, ast.Name) and node.id == "r_cut" and isinstance(
                        node.ctx, ast.Store):
                    cutters.add(fn.name)
        assert readers == {"_laplacian_single_pass", "_fractional_laplacian"}
        assert cutters == {"_lag_integral"}


def _nan_master():
    u = SpaceTimeField(lambda X, t: np.full(X.shape[0], np.nan), n=1, sup_bound=1.0)
    return master_operator_pointwise(u, SpaceTimePoint([0.0], 0.0), P1, SCH)


def _nan_laplacian():
    g = SpaceField(lambda X: np.full(X.shape[0], np.nan), n=1, sup_bound=1.0)
    return fractional_laplacian_pointwise(g, [0.0], P1, SCH)


def _nan_marchaud():
    h = TimeField(lambda t: np.full_like(t, np.nan), sup_bound=1.0)
    return marchaud_left(h, 0.0, 0.5, SCH)


@pytest.mark.parametrize("evaluate", [_nan_master, _nan_laplacian, _nan_marchaud],
                         ids=["master", "laplacian", "marchaud"])
def test_non_finite_result_raises(evaluate):
    # nan > target_tol is False, so only an explicit finiteness gate stops it
    with pytest.raises(ToleranceError, match="non-finite"):
        evaluate()


def _unbounded_master():
    u = SpaceTimeField(lambda X, t: np.zeros(X.shape[0]), n=1, sup_bound=math.inf)
    return master_operator_pointwise(u, SpaceTimePoint([0.0], 0.0), P1, SCH)


def _unbounded_laplacian():
    g = SpaceField(lambda X: np.zeros(X.shape[0]), n=1, sup_bound=math.inf)
    return fractional_laplacian_pointwise(g, [0.0], P1, SCH)


def _unbounded_marchaud():
    h = TimeField(lambda t: np.zeros_like(t), sup_bound=math.inf)
    return marchaud_left(h, 0.0, 0.5, SCH)


@pytest.mark.parametrize("evaluate", [_unbounded_master, _unbounded_laplacian,
                                      _unbounded_marchaud],
                         ids=["master", "laplacian", "marchaud"])
def test_infinite_sup_bound_raises(evaluate):
    # the tail estimate needs a finite bound, so every operator refuses an infinite one
    with pytest.raises(AdmissibilityError, match="finite sup_bound"):
        evaluate()


class TestGaussRules:
    """One cached build per Gauss rule, bit-equal to numpy's and shared read-only."""

    @pytest.mark.parametrize("kind, build, order", [
        ("hermite", hermgauss, 20), ("hermite", hermgauss, 48),
        ("legendre", leggauss, 8), ("legendre", leggauss, 12)])
    def test_cached_rule_is_numpys(self, kind, build, order):
        nodes, weights = _gauss_rule(kind, order)
        want_nodes, want_weights = build(order)
        assert nodes.tobytes() == want_nodes.tobytes()
        assert weights.tobytes() == want_weights.tobytes()
        for arr in (nodes, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert _gauss_rule(kind, order)[0] is nodes

    def test_one_build_per_rule(self, monkeypatch):
        builds = []

        def counted(kind, build):
            def wrapper(order):
                builds.append((kind, order))
                return build(order)
            return wrapper

        monkeypatch.setattr(quadrature, "hermgauss", counted("hermite", hermgauss))
        monkeypatch.setattr(quadrature, "leggauss", counted("legendre", leggauss))
        _gauss_rule.cache_clear()
        try:
            # Hermite near lags and support panels beyond, in both passes of each call
            u = gaussian_bump(1, width=0.8, t_center=0.2)
            for x in (0.3, -0.2):
                master_operator_pointwise(u, SpaceTimePoint(np.array([x]), 0.1), P1, SCH)
        finally:
            _gauss_rule.cache_clear()
        assert sorted(builds) == [("hermite", SCH.hermite_order), ("legendre", 8)]


def _looped_capped_edges(lo, hi, npd, cap_width=True):
    """``_capped_edges`` as one loop step per geometric edge, the formula the array build keeps."""
    if hi <= lo:
        return np.array([lo, max(hi, lo)])
    cap = quadrature._CAP_FACTOR / npd
    ratio = 10.0 ** (1.0 / npd)
    switch = cap / (ratio - 1.0) if cap_width else hi
    edges, e = [lo], lo
    while e < min(hi, switch):
        e = min(e * ratio, hi)
        edges.append(e)
    if e < hi:
        count = int(math.ceil((hi - e) / cap))
        edges.extend(np.linspace(e, hi, count + 1)[1:])
    return np.asarray(edges)


class TestCappedEdges:
    """The lag edges built by one running product keep the bits of the loop."""

    @pytest.mark.parametrize("npd", [4, 16, 32])
    @pytest.mark.parametrize("cap_width", [True, False])
    def test_bits_of_the_loop(self, npd, cap_width):
        rng = np.random.default_rng(npd)
        switch = quadrature._CAP_FACTOR / npd / (10.0 ** (1.0 / npd) - 1.0)
        cases = [(1e-6, 500.0), (1e-6, 0.5 * switch), (1e-6, switch), (2.0 * switch, 500.0),
                 (0.3, 0.3), (0.3, 0.1), (0.3, np.nextafter(0.3, 1.0)), (0.3, 0.3 * (1 + 1e-12))]
        for lo in 10.0 ** rng.uniform(-8.0, 1.0, size=40):
            cases.append((lo, 10.0 ** rng.uniform(math.log10(lo) - 0.5, 2.8)))
        for lo, hi in cases:
            got = _capped_edges(lo, hi, npd, cap_width=cap_width)
            want = _looped_capped_edges(lo, hi, npd, cap_width=cap_width)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (lo, hi)

    def test_default_lag_grid(self):
        edges = _capped_edges(SCH.r_min, SCH.r_max, 2 * SCH.nodes_per_decade)
        assert edges.size == 20_165
        assert edges.tobytes() == _looped_capped_edges(
            SCH.r_min, SCH.r_max, 2 * SCH.nodes_per_decade).tobytes()


def _refine_draw(rng, k):
    """Rows for ``_refine_rows``: (base, size, lo, hi, centres, steps) of each row.

    The draws cycle through dyadic rows, whose refinement points land on
    each other and on edges, the sweep's shared radial edges with NaN and
    missing centres, and linspace rows with centres beyond (lo, hi) whose
    steps land inside, some of them a few ulps wide.
    """
    rows = []
    kind = k % 3
    npd = int(rng.choice([8, 16, 32]))
    hi_sweep = float(rng.uniform(0.5, 2.5))
    for _ in range(int(rng.integers(1, 7))):
        if kind == 0:
            lo = -float(rng.integers(0, 16)) / 8.0
            count = int(rng.integers(1, 24))
            hi = lo + count / 8.0
            base = np.linspace(lo, hi, count + 1)
            centres = rng.integers(-20, 20, size=int(rng.integers(0, 4))) / 8.0
            steps = 2.0 ** -rng.integers(0, 6) * np.arange(1, 9)
        elif kind == 1:
            lo, hi = 1e-3, hi_sweep
            base = _capped_edges(lo, hi, npd)
            centres = rng.uniform(0.0, 1.2 * hi, size=4)
            centres[rng.random(4) < 0.4] = np.nan
            steps = quadrature._CAP_FACTOR / npd / 2.0 ** np.arange(1, 9)
        else:
            hi = float(rng.uniform(-1.0, 1.0))
            if rng.random() < 0.25:
                lo = hi
                for _ in range(int(rng.integers(1, 4))):
                    lo = np.nextafter(lo, -math.inf)
            else:
                lo = hi - float(10.0 ** rng.uniform(-3.0, 1.0))
            count = int(rng.integers(1, 12))
            base = np.linspace(lo, hi, count + 1)
            span = hi - lo
            centres = rng.uniform(lo - 0.5 * span, hi + 0.5 * span, size=int(rng.integers(0, 3)))
            steps = span / count / 2.0 ** np.arange(1, 6)
        rows.append((base, base.size, lo, hi, centres, steps))
    return rows


class TestRefineRows:
    """One row-wise sort gives, row by row, the bits of the per-row rule."""

    @staticmethod
    def _check(rows):
        width = max(r[0].size for r in rows)
        base = np.full((len(rows), width + 1), 7.0)  # padding beyond each row's size
        extra = np.full((len(rows), max(np.size(c) * (1 + 2 * steps.size)
                                        for *_, c, steps in rows)), np.nan)
        for i, (b, size, lo, hi, c, steps) in enumerate(rows):
            base[i, :size] = b
            c = np.asarray(c, dtype=float).reshape(-1, 1)
            e = np.concatenate([c.ravel(), (c - steps).ravel(), (c + steps).ravel()])
            extra[i, :e.size] = e
        size = [r[1] for r in rows]
        lo = np.array([r[2] for r in rows])
        hi = np.array([r[3] for r in rows])
        edges, counts = quadrature._refine_rows(base, size, lo, hi, extra)
        mid, width = quadrature._cells(edges, counts)
        got_rows = np.split(edges, np.cumsum(counts)[:-1])
        assert len(got_rows) == len(rows)
        wants = [_refine_toward(b, lo, hi, c, steps) for b, _, lo, hi, c, steps in rows]
        for got, want in zip(got_rows, wants):
            assert got.tobytes() == want.tobytes()
        assert mid.tobytes() == np.concatenate([0.5 * (w[:-1] + w[1:]) for w in wants]).tobytes()
        assert width.tobytes() == np.concatenate([np.diff(w) for w in wants]).tobytes()
        return got_rows

    def test_bits_of_the_per_row_rule(self):
        rng = np.random.default_rng(18)
        refined = unrefined = 0
        for k in range(300):
            rows = _refine_draw(rng, k)
            got = self._check(rows)
            for row, (base, *_) in zip(got, rows):
                refined += row.size > base.size
                unrefined += row.size == base.size
        assert refined > 100 and unrefined > 100

    def test_rows_without_refinement_keep_repeats(self):
        # steps below the float spacing: numpy.linspace repeats edges and rounds
        # interior edges to hi; rows with nothing inside keep them all
        big = np.linspace(1e17, 1e17 + 64.0, 65)
        ulp = np.linspace(0.5, np.nextafter(0.5, 1.0), 6)
        assert np.unique(big).size < big.size and np.unique(ulp).size < ulp.size
        got = self._check([(big, 65, 1e17, 1e17 + 64.0, [0.0, 1.0], np.arange(1.0, 9.0)),
                           (ulp, 6, 0.5, ulp[-1], [0.25, 0.75], np.array([0.25])),
                           (np.linspace(0.0, 1.0, 5), 5, 0.0, 1.0, [0.3], np.array([0.1]))])
        assert got[0].tobytes() == big.tobytes() and got[1].tobytes() == ulp.tobytes()
        assert got[2].size == 8
