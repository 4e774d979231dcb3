"""Pointwise operator quadratures against analytic and spectral oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracheat.core import FracParams, SpaceTimePoint
from fracheat.errors import AdmissibilityError, DomainValidationError, ToleranceError
from fracheat.fields import (
    SpaceField,
    SpaceTimeField,
    TimeField,
    constant_field,
    gaussian_bump,
    linear_combination,
    plane_wave,
    random_space_bump,
    random_time_field,
    torsion_profile,
)
from fracheat.quadrature import (
    QuadratureScheme,
    fractional_laplacian_pointwise,
    marchaud_left,
    marchaud_right,
    master_operator_pointwise,
    parabolic_holder_seminorm,
    slowly_increasing_membership,
    truncation_tail_bound,
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
        fd = _fd_heat(u, q.x, q.t)
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

    def test_tolerance_error(self):
        h = TimeField(lambda t: np.cos(t), sup_bound=1.0)
        with pytest.raises(ToleranceError):
            marchaud_left(h, 0.0, 0.5, QuadratureScheme(target_tol=1e-9))


class TestFractionalLaplacian:
    def test_constant(self):
        g = SpaceField(lambda X: np.full(X.shape[0], 2.0), n=1, sup_bound=2.0)
        assert fractional_laplacian_pointwise(g, [0.3], P1, SCH).value == 0.0

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


class TestMembership:
    def test_bounded_is_member(self):
        u = gaussian_bump(1, width=1.0, t_width=None)
        verdict = slowly_increasing_membership(u, 0.0, P1, [10.0, 20.0, 40.0])
        assert verdict.verdict == "member"

    def test_zero_is_member(self):
        u = SpaceTimeField(lambda X, t: np.zeros(X.shape[0]), n=1, sup_bound=0.0)
        verdict = slowly_increasing_membership(u, 0.0, P1, [10.0, 20.0, 40.0])
        assert verdict.verdict == "member"
        assert all(e == 0.0 for e in verdict.estimates)

    def test_log_divergent_is_inconclusive(self):
        # u = |x| makes the weighted integral log-divergent: the ladder rises
        # too slowly for the divergence call and never stabilizes either
        u = SpaceTimeField(lambda X, t: np.abs(X[:, 0]), n=1, sup_bound=math.inf,
                           space_scale=1.0)
        verdict = slowly_increasing_membership(u, 0.0, P1, [10.0, 20.0, 40.0])
        assert verdict.verdict == "inconclusive"

    def test_gaussian_growth_diverges(self):
        u = SpaceTimeField(lambda X, t: np.exp(np.sum(X * X, -1)), n=1,
                           sup_bound=math.inf, space_scale=1.0)
        verdict = slowly_increasing_membership(u, 0.0, P1, [10.0, 20.0, 40.0])
        assert verdict.verdict == "diverges"
        finite = [e for e in verdict.estimates if math.isfinite(e)]
        for lo, hi in zip(finite[:-1], finite[1:]):
            assert hi / lo > 10.0

    def test_ladder_validation(self):
        u = constant_field(1, 1.0)
        with pytest.raises(DomainValidationError):
            slowly_increasing_membership(u, 0.0, P1, [10.0])
        with pytest.raises(DomainValidationError):
            slowly_increasing_membership(u, 0.0, P1, [20.0, 10.0])


class TestHolderSeminorm:
    BOX = ((np.array([-1.0]), np.array([1.0])), (-1.0, 1.0))

    def test_constant(self):
        u = constant_field(1, 4.0)
        assert parabolic_holder_seminorm(u, self.BOX, 0.5) == 0.0

    def test_linear_field(self):
        u = SpaceTimeField(lambda X, t: X[:, 0], n=1, sup_bound=1.0)
        got = parabolic_holder_seminorm(u, self.BOX, 0.5, pair_budget=10_000)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_alpha(self):
        # with parabolic pair distances below one, d^{2 alpha} shrinks as
        # alpha grows, so the sampled seminorm is nondecreasing in alpha
        u = SpaceTimeField(lambda X, t: np.sin(2 * X[:, 0]) * np.cos(t), n=1, sup_bound=1.0)
        box = ((np.array([-0.2]), np.array([0.2])), (-0.04, 0.04))
        hi = parabolic_holder_seminorm(u, box, 0.5, pair_budget=4000)
        lo = parabolic_holder_seminorm(u, box, 0.3, pair_budget=4000)
        assert hi >= lo - 1e-12

    def test_degenerate_box(self):
        u = constant_field(1, 1.0)
        with pytest.raises(DomainValidationError):
            parabolic_holder_seminorm(u, ((np.array([0.0]), np.array([0.0])), (-1.0, 1.0)), 0.5)
        with pytest.raises(DomainValidationError):
            parabolic_holder_seminorm(u, self.BOX, 0.7)
