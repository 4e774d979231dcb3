"""Field metadata, exterior rules, and the named registry."""

import math

import numpy as np
import pytest

from fracheat.errors import DomainValidationError
from fracheat.fields import (
    FIELD_NAMES,
    SpaceTimeField,
    build_field,
    gaussian_bump,
    mollifier,
    plateau_bump,
    spot_check,
    torsion_profile,
    torsion_rhs_constant,
)


class TestExteriorRule:
    def test_zero_ball_short_circuits(self):
        tor = torsion_profile(1, 0.5).as_spacetime()
        pts = np.array([[1.0], [1.5], [-2.0], [0.5]])
        vals = tor.eval(pts, np.zeros(4))
        assert vals[0] == 0.0 and vals[1] == 0.0 and vals[2] == 0.0
        assert vals[3] > 0.0

    def test_spot_check_passes_for_honest_fields(self):
        rng = np.random.default_rng(0)
        spot_check(torsion_profile(1, 0.5).as_spacetime(), rng)
        spot_check(gaussian_bump(2, width=0.7), rng)

    def test_spot_check_catches_bound_violation(self):
        liar = SpaceTimeField(lambda X, t: np.full(X.shape[0], 5.0), n=1, sup_bound=1.0)
        with pytest.raises(DomainValidationError, match="sup_bound"):
            spot_check(liar, np.random.default_rng(1))

    def test_spot_check_catches_time_dependence(self):
        liar = SpaceTimeField(lambda X, t: np.exp(-X[:, 0] ** 2) * np.cos(t), n=1,
                              time_independent=True)
        with pytest.raises(DomainValidationError, match="time_independent"):
            spot_check(liar, np.random.default_rng(1))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("name", FIELD_NAMES)
    def test_spot_check_passes_for_named_fields(self, name, n):
        spot_check(build_field(name, n, 0.5), np.random.default_rng(0))

    def test_spot_check_passes_for_static_named_fields(self):
        for params in ({"t_width": None}, {"rho": 0.0}):
            name = "gaussian-bump" if "t_width" in params else "plane-wave"
            fld = build_field(name, 2, 0.5, params)
            assert fld.time_independent
            spot_check(fld, np.random.default_rng(0))

    def test_unknown_exterior(self):
        with pytest.raises(DomainValidationError):
            SpaceTimeField(lambda X, t: np.zeros(X.shape[0]), n=1, exterior="mirror")


class TestProfiles:
    def test_mollifier_peak_and_support(self):
        assert mollifier(np.array([[0.0]]))[0] == 1.0
        assert mollifier(np.array([[1.0]]))[0] == 0.0
        assert mollifier(np.array([[2.0]]))[0] == 0.0

    def test_plateau_bump(self):
        assert plateau_bump(np.array([0.0]))[0] == 1.0
        assert plateau_bump(np.array([0.49]))[0] == 1.0
        assert plateau_bump(np.array([1.0]))[0] == 0.0
        mid = plateau_bump(np.array([0.75]))[0]
        assert 0.0 < mid < 1.0

    def test_torsion_constant_1d_half(self):
        assert torsion_rhs_constant(1, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_torsion_constant_2d_half(self):
        assert torsion_rhs_constant(2, 0.5) == pytest.approx(math.pi / 2.0, rel=1e-12)


class TestRegistry:
    @pytest.mark.parametrize("name", FIELD_NAMES)
    def test_all_names_build(self, name):
        field = build_field(name, 1, 0.5, None, np.random.default_rng(0))
        val = field.eval(np.array([[0.1]]), np.array([0.0]))
        assert np.isfinite(val).all()

    def test_unknown_name(self):
        with pytest.raises(DomainValidationError):
            build_field("sombrero", 1, 0.5)

    def test_shifted_torsion_asymmetric(self):
        field = build_field("shifted-torsion", 1, 0.5)
        left = field.eval(np.array([[-0.5]]), np.array([0.0]))[0]
        right = field.eval(np.array([[0.5]]), np.array([0.0]))[0]
        assert right > left
