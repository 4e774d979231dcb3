"""Kernel constants and closed forms against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracheat.core import (
    FracParams,
    SpaceTimePoint,
    as_real,
    gamma_abs_neg,
    heat_kernel,
    integrated_kernel_constant,
    integrated_time_kernel,
    normalization_constant,
    sq_dist,
)
from fracheat.errors import DomainValidationError


def gamma_integral_oracle(z: float) -> float:
    """Gamma(z) for z in (0, 2] straight from the defining integral."""
    val, _ = quad(lambda u: math.exp(z * u - math.exp(u)), -40.0, 15.0, limit=300)
    return val


class TestGammaAbsNeg:
    def test_half(self):
        # |Gamma(-1/2)| = Gamma(1/2) / (1/2) = 2 sqrt(pi)
        assert gamma_abs_neg(0.5) == pytest.approx(3.5449077018110318, rel=1e-13)

    def test_quarter_order(self):
        # Gamma(3/4) / 0.25, cross-checked against the defining integral
        oracle = gamma_integral_oracle(0.75) / 0.25
        assert gamma_abs_neg(0.25) == pytest.approx(oracle, rel=1e-9)
        assert gamma_abs_neg(0.25) == pytest.approx(4.9016668098607115, rel=1e-12)

    def test_continuity_near_half(self):
        for eps in (1e-9, -1e-9):
            assert abs(gamma_abs_neg(0.5 + eps) - gamma_abs_neg(0.5)) <= 1e-6

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.5])
    def test_domain(self, bad):
        with pytest.raises(DomainValidationError):
            gamma_abs_neg(bad)

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=60, deadline=None)
    def test_recurrence_identity(self, s):
        assert gamma_abs_neg(s) == pytest.approx(math.gamma(1.0 - s) / s, rel=1e-12)


class TestFracParams:
    def test_rejects_endpoints(self):
        for s in (0.0, 1.0):
            with pytest.raises(DomainValidationError):
                FracParams(1, s)
        with pytest.raises(DomainValidationError):
            FracParams(0, 0.5)

    def test_rejects_a_bool_dimension(self):
        # True == 1, but a bool is not a dimension
        with pytest.raises(DomainValidationError, match="dimension n"):
            FracParams(True, 0.5)

    def test_point_dimension(self):
        q = SpaceTimePoint([0.0, 1.0], 0.0)
        with pytest.raises(DomainValidationError):
            q.validate(FracParams(1, 0.5))
        q.validate(FracParams(2, 0.5))


class TestAsReal:
    @pytest.mark.parametrize("value", [0, -3, 0.25, np.float64(1.5), np.int64(7), 1e308])
    def test_finite_reals_pass(self, value):
        got = as_real(value, "v")
        assert type(got) is float and got == value

    @pytest.mark.parametrize("value", [True, False, "0.5", "x", None, [1.0], math.inf, -math.inf,
                                       math.nan, 10**400, np.bool_(True), 1j])
    def test_others_rejected(self, value):
        with pytest.raises(DomainValidationError, match="v must be a finite real number"):
            as_real(value, "v")


class TestNormalization:
    def test_n1_half(self):
        assert normalization_constant(FracParams(1, 0.5)) == pytest.approx(
            1.0 / (4.0 * math.pi), rel=1e-12
        )

    def test_n2_half(self):
        # 1 / ((4 pi) * 2 sqrt(pi)); frozen from the gamma oracle
        assert normalization_constant(FracParams(2, 0.5)) == pytest.approx(
            0.022448390265645823, rel=1e-12
        )

    @given(st.integers(min_value=1, max_value=4), st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=40, deadline=None)
    def test_positive(self, n, s):
        assert normalization_constant(FracParams(n, s)) > 0.0

    def test_constants_invariants(self):
        p = FracParams(2, 0.3)
        assert normalization_constant(p) == pytest.approx(
            1.0 / ((4 * math.pi) ** (p.n / 2) * gamma_abs_neg(p.s)), rel=1e-12
        )
        assert gamma_abs_neg(p.s) == pytest.approx(math.gamma(1 - p.s) / p.s, rel=1e-12)
        assert integrated_kernel_constant(p) > 0.0


class TestHeatKernel:
    def test_center_value(self):
        p = FracParams(1, 0.5)
        assert heat_kernel([0.0], 1.0, p) == pytest.approx(1.0 / (4 * math.pi), rel=1e-12)

    @given(
        st.floats(min_value=0.01, max_value=3.0),
        st.floats(min_value=0.01, max_value=3.0),
        st.floats(min_value=0.05, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_radial_decrease(self, a, b, r):
        p = FracParams(1, 0.4)
        lo, hi = sorted((a, b))
        # radii a few ulps apart give the same float in the kernel's log-space
        # formula; above a relative gap of 1e-9 the decrease is resolved
        if hi - lo < 1e-9 * hi:
            return
        assert heat_kernel([lo], r, p) > heat_kernel([hi], r, p)

    @given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_even(self, dx, r):
        p = FracParams(1, 0.6)
        assert heat_kernel([dx], r, p) == heat_kernel([-dx], r, p)

    def test_underflow_safe(self):
        p = FracParams(1, 0.5)
        assert heat_kernel([1.0], 1e-200, p) == 0.0

    def test_domain_errors(self):
        p = FracParams(1, 0.5)
        with pytest.raises(DomainValidationError):
            heat_kernel([0.0], 0.0, p)
        with pytest.raises(DomainValidationError):
            heat_kernel([0.0], -1.0, p)
        with pytest.raises(DomainValidationError):
            # machine-zero lag with no Gaussian damping would overflow
            heat_kernel([0.0], 1e-300, p)


class TestSqDist:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_bits_of_the_axis_sum(self, n):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(5000, n)) * rng.uniform(1e-3, 1e3, size=(5000, 1))
        for c in (rng.normal(size=n), 0.3, 0.0):
            d = X - c
            assert np.array_equal(sq_dist(X, c), np.sum(d * d, axis=-1))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_layout_leaves_the_bits(self, n):
        X = np.random.default_rng(n).uniform(-2.0, 2.0, size=(3000, n))
        X[::5, 0] = -0.0
        c = np.linspace(-0.3, 0.4, n)
        assert sq_dist(np.asfortranarray(X), c).tobytes() == sq_dist(X, c).tobytes()

    def test_heat_kernel_keeps_the_axis_sum(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3):
            p = FracParams(n, 0.5)
            dx = rng.uniform(-2.0, 2.0, size=(2000, n))
            r = rng.uniform(0.1, 2.0, size=2000)
            sq = np.sum(dx * dx, axis=-1)
            log_k = (math.log(normalization_constant(p)) - (n / 2.0 + 1.0 + 0.5) * np.log(r)
                     - sq / (4.0 * r))
            assert np.array_equal(heat_kernel(dx, r, p), np.exp(log_k))


def integrated_kernel_oracle(d: float, p: FracParams) -> float:
    c = normalization_constant(p)
    power = p.n / 2.0 + 1.0 + p.s

    def integrand(u):
        r = math.exp(u)
        return c * r ** (-power) * math.exp(-d * d / (4 * r)) * r

    val, _ = quad(integrand, -50.0, 50.0, limit=400)
    return val


class TestIntegratedTimeKernel:
    def test_unit_distance(self):
        p = FracParams(1, 0.5)
        assert integrated_time_kernel(1.0, p) == pytest.approx(1.0 / math.pi, rel=1e-12)
        assert integrated_kernel_constant(p) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_quadrature_consistency(self):
        p = FracParams(1, 0.5)
        d = 1.3
        assert integrated_time_kernel(d, p) == pytest.approx(
            integrated_kernel_oracle(d, p), rel=1e-6
        )

    @given(st.floats(min_value=0.05, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_scaling(self, d):
        p = FracParams(2, 0.3)
        ratio = integrated_time_kernel(2 * d, p) / integrated_time_kernel(d, p)
        assert ratio == pytest.approx(2.0 ** -(p.n + 2 * p.s), rel=1e-12)

    def test_domain_error(self):
        p = FracParams(1, 0.5)
        with pytest.raises(DomainValidationError):
            integrated_time_kernel(0.0, p)
        with pytest.raises(DomainValidationError):
            integrated_time_kernel(1e-200, p)


class TestReflectionInequality:
    def test_same_halfspace_pairs(self):
        # kernel comparison used throughout the moving-plane arguments
        rng = np.random.default_rng(5)
        p = FracParams(2, 0.5)
        lam = -0.2
        for _ in range(50):
            x = rng.uniform(-2.0, lam - 1e-6, size=2)
            y = rng.uniform(-2.0, lam - 1e-6, size=2)
            x[1:] = rng.uniform(-2.0, 2.0, size=1)
            y[1:] = rng.uniform(-2.0, 2.0, size=1)
            y_ref = y.copy()
            y_ref[0] = 2 * lam - y[0]
            d_direct = np.linalg.norm(x - y)
            d_reflected = np.linalg.norm(x - y_ref)
            assert d_direct < d_reflected + 1e-15
            if d_direct < d_reflected:
                r = rng.uniform(0.05, 5.0)
                assert heat_kernel(x - y, r, p) > heat_kernel(x - y_ref, r, p)
