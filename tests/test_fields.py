"""Field metadata, exterior rules, and the named registry."""

import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from fracheat.core import FracParams, sq_dist
from fracheat.errors import DomainValidationError
from fracheat.fields import (
    FIELD_NAMES,
    ZERO_BALL,
    SpaceField,
    SpaceTimeField,
    TimeField,
    antisymmetrize,
    build_field,
    gaussian_bump,
    linear_combination,
    mollifier,
    plane_wave,
    plateau_bump,
    polynomial_cutoff,
    random_space_bump,
    random_spacetime_bump,
    spot_check,
    torsion_profile,
    torsion_rhs_constant,
)
from fracheat.planes import PlaneConfig, reflect
from fracheat.solver import BallProblem, interpolant_field, nonlinearity_by_name, solve_steady


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

    @pytest.mark.parametrize("sup_bound", [1.0, math.inf])
    def test_spot_check_catches_nan(self, sup_bound):
        nan_field = SpaceTimeField(lambda X, t: np.full(X.shape[0], np.nan), n=1,
                                   sup_bound=sup_bound)
        with pytest.raises(DomainValidationError, match="NaN"):
            spot_check(nan_field, np.random.default_rng(1))
        # one NaN among finite samples is caught as well
        one_nan = SpaceTimeField(lambda X, t: np.where(X[:, 0] > 2.9, np.nan, 0.5), n=1)
        with pytest.raises(DomainValidationError, match="NaN"):
            spot_check(one_nan, np.random.default_rng(1))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_spot_check_catches_inf_under_a_finite_bound(self, sign):
        # at the largest float the bound check alone overflows to inf > inf and misses it
        inf_field = SpaceTimeField(lambda X, t: np.where(X[:, 0] > 0.0, sign * np.inf, 0.5), n=1,
                                   sup_bound=sys.float_info.max)
        with pytest.raises(DomainValidationError, match="infinite"):
            spot_check(inf_field, np.random.default_rng(1))
        # an unbounded field may take infinite values
        spot_check(dataclasses.replace(inf_field, sup_bound=math.inf), np.random.default_rng(1))

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
        with pytest.raises(DomainValidationError):
            SpaceField(lambda X: np.zeros(X.shape[0]), n=1, exterior="mirror")


class TestMetadataRules:
    """SpaceField and TimeField are checked by the rules of SpaceTimeField when built."""

    @pytest.mark.parametrize("radius", [None, 0.0, -1.0])
    def test_zero_ball_field_needs_a_radius(self, radius):
        with pytest.raises(DomainValidationError, match="ball_radius"):
            SpaceField(lambda X: np.zeros(X.shape[0]), n=1, exterior=ZERO_BALL, ball_radius=radius)
        with pytest.raises(DomainValidationError, match="ball_radius"):
            SpaceTimeField(lambda X, t: np.zeros(X.shape[0]), n=1, exterior=ZERO_BALL,
                           ball_radius=radius)

    @pytest.mark.parametrize("build", [
        lambda: SpaceTimeField(lambda X, t: np.zeros(X.shape[0]), n=1, sup_bound=-1.0),
        lambda: SpaceField(lambda X: np.zeros(X.shape[0]), n=1, sup_bound=-1.0),
        lambda: TimeField(lambda t: np.zeros_like(t), sup_bound=-1.0),
    ], ids=["spacetime", "space", "time"])
    def test_negative_sup_bound(self, build):
        with pytest.raises(DomainValidationError, match="sup_bound"):
            build()

    @pytest.mark.parametrize("build", [
        lambda b: SpaceTimeField(lambda X, t: np.zeros(X.shape[0]), n=1, sup_bound=b),
        lambda b: SpaceField(lambda X: np.zeros(X.shape[0]), n=1, sup_bound=b),
        lambda b: TimeField(lambda t: np.zeros_like(t), sup_bound=b),
    ], ids=["spacetime", "space", "time"])
    def test_nan_sup_bound_is_rejected_and_inf_kept(self, build):
        # NaN compares false against 0 and once passed the sign test
        with pytest.raises(DomainValidationError, match="sup_bound"):
            build(math.nan)
        assert build(math.inf).sup_bound == math.inf

    @pytest.mark.parametrize("build, message", [
        # the first three once gave 564.19 for 1.3402, 3.654 for 2.374 and a broadcast error
        (lambda: gaussian_bump(1, t_width=-1.0), "t_support"),
        (lambda: gaussian_bump(1, width=-0.5), "space_scale"),
        (lambda: gaussian_bump(1, center=[1.0, 2.0]), "center must have n = 1 entries"),
        (lambda: SpaceTimeField(lambda X, t: np.zeros(len(X)), n=1, t_support=(0.0, math.nan)),
         "t_support"),
        (lambda: SpaceTimeField(lambda X, t: np.zeros(len(X)), n=1, space_scale=0.0),
         "space_scale"),
        (lambda: SpaceField(lambda X: np.zeros(len(X)), n=1, space_scale=math.nan), "space_scale"),
        (lambda: SpaceField(lambda X: np.zeros(len(X)), n=2,
                            space_support=(np.zeros(2), np.array([1.0, 0.0]))), "space_support"),
        (lambda: SpaceField(lambda X: np.zeros(len(X)), n=2,
                            space_support=(np.zeros(3), np.ones(3))), "space_support"),
        (lambda: SpaceField(lambda X: np.zeros(len(X)), n=1, exterior=ZERO_BALL, ball_radius=1.0,
                            space_support=(np.array([0.5]), np.array([-0.5]))), "space_support"),
        (lambda: TimeField(lambda t: np.zeros_like(t), support=(1.0, 1.0)), "support"),
        (lambda: TimeField(lambda t: np.zeros_like(t), support=(2.0, -2.0)), "support"),
    ], ids=["t-width", "width", "center", "t-support-nan", "scale-zero", "scale-nan",
            "box-inverted", "box-size", "zero-ball-box", "time-empty", "time-inverted"])
    def test_inverted_metadata(self, build, message):
        with pytest.raises(DomainValidationError, match=message):
            build()

    @pytest.mark.parametrize("n", [1, 2])
    def test_zero_ball_support_box_survives_the_lift(self, n):
        g = SpaceField(lambda X: np.zeros(X.shape[0]), n=n, exterior=ZERO_BALL, ball_radius=0.75)
        lo, hi = g.space_support
        assert np.array_equal(lo, np.full(n, -0.75)) and np.array_equal(hi, np.full(n, 0.75))
        lifted = g.as_spacetime().space_support
        assert all(np.array_equal(a, b) for a, b in zip(g.space_support, lifted))

    def test_zero_ball_box_ends_at_the_ball(self):
        def build(box):
            return SpaceField(lambda X: np.zeros(X.shape[0]), n=2, exterior=ZERO_BALL,
                              ball_radius=0.75, space_support=box)

        lo, hi = build((np.array([-2.0, 0.1]), np.array([0.5, 3.0]))).space_support
        assert np.array_equal(lo, [-0.75, 0.1]) and np.array_equal(hi, [0.5, 0.75])
        inside = (np.array([-0.5, -0.5]), np.array([0.5, 0.25]))
        assert build(inside).space_support is inside
        with pytest.raises(DomainValidationError, match="space_support"):
            build((np.array([0.8, 0.0]), np.array([2.0, 1.0])))  # misses the ball

    def test_lift_copies_every_shared_field(self):
        g = random_space_bump(np.random.default_rng(4), 2)
        u = g.as_spacetime()
        for f in dataclasses.fields(SpaceField):
            if f.name != "func":
                assert getattr(u, f.name) is getattr(g, f.name)
        assert u.time_independent and u.t_support is None


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
        field = build_field(name, 1, 0.5)
        val = field.eval(np.array([[0.1]]), np.array([0.0]))
        assert np.isfinite(val).all()

    def test_unknown_name(self):
        with pytest.raises(DomainValidationError):
            build_field("sombrero", 1, 0.5)

    @pytest.mark.parametrize("name, defaults", [
        ("gaussian-bump", {"center": [0.0], "width": 1.0, "t_center": 0.0, "t_width": 1.0}),
        ("plane-wave", {"xi": [1.0], "rho": 1.0}),
        ("shifted-torsion", {"shift": [0.2]}),
        ("custom-polynomial-cutoff", {"coeffs": [1.0, -0.5]}),
        ("torsion-profile", {}),
    ])
    def test_only_declared_parameters_accepted(self, name, defaults):
        # every declared parameter, given at its default, builds the default field
        x, t = np.array([[0.3], [-0.4]]), np.array([0.1, 0.2])
        got, want = build_field(name, 1, 0.5, defaults), build_field(name, 1, 0.5)
        assert got.eval(x, t).tobytes() == want.eval(x, t).tobytes()
        # a misspelt width once built the default bump
        with pytest.raises(DomainValidationError, match=re.escape(f"accepted: {list(defaults)}")):
            build_field(name, 1, 0.5, {**defaults, "widht": 0.5})

    @pytest.mark.parametrize("params", [[1, 2], "width", 0.5, []])
    def test_params_must_be_an_object(self, params):
        with pytest.raises(DomainValidationError, match="must be an object"):
            build_field("gaussian-bump", 1, 0.5, params)

    @pytest.mark.parametrize("build, message", [
        (lambda: gaussian_bump(1, t_center=True), "t_center must"),
        (lambda: gaussian_bump(1, t_center="0.5"), "t_center must"),
        (lambda: gaussian_bump(1, t_center=math.nan), "t_center must"),
        (lambda: gaussian_bump(1, center=["0.1"]), "every entry of center"),
        (lambda: gaussian_bump(2, center=[0.1, True]), "every entry of center"),
        (lambda: gaussian_bump(1, width=math.nan), "width must"),
        (lambda: plane_wave(1, [1.0], True), "rho must"),
        (lambda: plane_wave(1, [1.0], "1"), "rho must"),
        (lambda: plane_wave(1, ["1"], 1.0), "every entry of xi"),
        (lambda: plane_wave(2, [1.0, math.inf], 1.0), "every entry of xi"),
        (lambda: plane_wave(1, [1.0, 2.0], 1.0), "xi must have n = 1 entries"),
        (lambda: torsion_profile(1, 0.5, shift=["0.2"]), "every entry of shift"),
        (lambda: torsion_profile(1, 0.5, shift=[0.2, 0.0]), "shift must have n = 1 entries"),
        (lambda: polynomial_cutoff(1, [True, -0.5]), "every entry of coeffs"),
        (lambda: nonlinearity_by_name("custom-polynomial", ["1", -0.5]), "every entry of coeffs"),
        (lambda: nonlinearity_by_name("custom-polynomial", [True]), "every entry of coeffs"),
    ])
    def test_parameter_numbers_are_finite_reals(self, build, message):
        with pytest.raises(DomainValidationError, match=message):
            build()

    # "2" once built a field of amplitude 2, True one of amplitude 1, and NaN failed
    # with the sup_bound message
    @pytest.mark.parametrize("coeff", ["2", True, math.nan], ids=["string", "bool", "nan"])
    def test_linear_combination_coefficients_are_finite_reals(self, coeff):
        with pytest.raises(DomainValidationError, match="every entry of coeffs"):
            linear_combination([gaussian_bump(1)], [coeff])

    def test_shifted_torsion_asymmetric(self):
        field = build_field("shifted-torsion", 1, 0.5)
        left = field.eval(np.array([[-0.5]]), np.array([0.0]))[0]
        right = field.eval(np.array([[0.5]]), np.array([0.0]))[0]
        assert right > left


class TestMemoryLayout:
    """The library fields give the same bits on row-major and coordinate-major points."""

    @staticmethod
    def _fields(n):
        cfg = PlaneConfig(np.eye(n)[0], 0.1)
        fields = {
            "gauss": gaussian_bump(n, center=np.full(n, 0.1), width=0.7, t_center=0.2),
            "gauss-static": gaussian_bump(n, width=0.7, t_width=None),
            "plane-wave": plane_wave(n, np.linspace(0.7, 1.3, n), 0.8),
            "torsion": torsion_profile(n, 0.5, shift=np.full(n, 0.1)).as_spacetime(),
            "space-bump": random_space_bump(np.random.default_rng(n), n).as_spacetime(),
            "spacetime-bump": random_spacetime_bump(np.random.default_rng(n), n),
            "antisymmetrized": antisymmetrize(gaussian_bump(n, center=np.full(n, -0.4)),
                                              lambda X: reflect(X, cfg)),
        }
        if n < 3:
            problem = BallProblem(FracParams(n, 0.5), 9, nonlinearity_by_name("one"))
            sol = solve_steady(problem)
            interpolant = interpolant_field(problem, sol.full_values(problem))
            fields["interpolant"] = interpolant.as_spacetime()
        return fields

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_row_and_column_major_bits(self, n):
        rng = np.random.default_rng(40 + n)
        X = rng.uniform(-1.5, 1.5, size=(2000, n))
        X[::7, -1] = -0.0
        t = rng.uniform(-1.0, 1.0, size=2000)
        for name, u in self._fields(n).items():
            want = u.eval(X, t)
            got = u.eval(np.asfortranarray(X), t)
            assert got.tobytes() == want.tobytes(), name
            # a prefix of a coordinate-major tile, as the panel average passes
            tiled = np.tile(X.T, (1, 2)).T[:1500]
            assert u.eval(tiled, t[:1500]).tobytes() == want[:1500].tobytes(), name

    @pytest.mark.parametrize("n", [2, 3])
    def test_plane_wave_rows_do_not_depend_on_the_block(self, n):
        # x . xi is summed one column at a time, so each row has the bits it has alone
        rng = np.random.default_rng(70 + n)
        X = rng.uniform(-2.0, 2.0, size=(2000, n))
        t = rng.uniform(-1.0, 1.0, size=2000)
        for _ in range(3):
            u = plane_wave(n, rng.normal(size=n), rng.uniform(-1.0, 1.0))
            alone = np.concatenate([u.eval(X[i:i + 1], t[i:i + 1]) for i in range(len(X))])
            for block in (X, np.asfortranarray(X)):
                assert u.eval(block, t).tobytes() == alone.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_ball_mask_is_the_sq_dist_rule(self, n):
        # rows within 3 ulps of the sphere; at n = 3 the mask once summed the squares
        # of a row-major copy, and 2,149 of 200,000 such rows fell on the other side
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(20_000, n))
        rows /= np.sqrt(sq_dist(rows, 0.0))[:, None]
        rows *= 1.0 + rng.integers(-3, 4, size=(len(rows), 1)) * np.finfo(float).eps
        inside = sq_dist(rows, 0.0) < 1.0
        ones = SpaceField(lambda X: np.ones(len(X)), n=n, exterior=ZERO_BALL, ball_radius=1.0)
        for layout in (np.ascontiguousarray, np.asfortranarray):
            np.testing.assert_array_equal(ones.eval(layout(rows)) == 1.0, inside)

    def test_callables_keep_their_inputs(self):
        X = np.random.default_rng(5).uniform(-1.0, 1.0, size=(50, 2))
        bump = gaussian_bump(2, t_center=0.2)
        assert np.array_equal(bump.func(X, 0.3), bump.eval(X, np.full(50, 0.3)))
        static = gaussian_bump(2, t_width=None)
        assert np.array_equal(static.func(X, None), static.eval(X, 0.0))
        packet = random_spacetime_bump(np.random.default_rng(6), 2)
        assert np.array_equal(packet.func(X, 0.3), packet.eval(X, np.full(50, 0.3)))

    def test_antisymmetrize_leaves_a_returned_view_alone(self):
        # a callable that returns a view of its points: the difference must not overwrite them
        linear = SpaceTimeField(lambda X, t: X[:, 0], n=2, sup_bound=math.inf)
        cfg = PlaneConfig([0.0, 1.0], 0.25)
        w = antisymmetrize(linear, lambda X: reflect(X, cfg))
        X = np.asfortranarray(np.random.default_rng(7).uniform(-1.0, 1.0, size=(40, 2)))
        before = X.copy()
        assert np.array_equal(w.eval(X, np.zeros(40)), np.zeros(40))
        assert np.array_equal(X, before)


class TestColumnwiseFormulas:
    """The library fields give the bits of the broadcast formulas they replaced."""

    @staticmethod
    def _sq(X, c):
        d = X - c
        return np.sum(d * d, axis=-1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fields_match_the_broadcast_formulas(self, n):
        rng = np.random.default_rng(20 + n)
        X = rng.uniform(-1.5, 1.5, size=(4000, n))
        t = rng.uniform(-1.0, 1.0, size=4000)
        c = rng.uniform(-0.5, 0.5, size=n)

        bump = gaussian_bump(n, center=c, width=0.7, t_center=0.1, t_width=0.9, amplitude=1.3)
        old = 1.3 * (np.exp(-self._sq(X, c) / 0.7**2) * np.exp(-((t - 0.1) ** 2) / 0.9**2))
        assert np.array_equal(bump.eval(X, t), old)

        shift = np.full(n, 0.2)
        sq = self._sq(X, shift)
        old = np.where(sq < 1.0, np.power(np.maximum(1.0 - sq, 0.0), 0.3), 0.0)
        inside = np.einsum("ij,ij->i", X, X) < 1.0
        assert np.array_equal(torsion_profile(n, 0.3, shift=shift).eval(X)[inside], old[inside])

        sq = self._sq(X, 0.0)
        old_moll = np.zeros(len(X))
        old_moll[sq < 1.0] = np.exp(1.0 + 1.0 / (sq[sq < 1.0] - 1.0))
        assert np.array_equal(mollifier(X), old_moll)
        old = ((0.25 * sq - 0.5) * sq + 1.0) * old_moll
        assert np.array_equal(polynomial_cutoff(n, [1.0, -0.5, 0.25]).eval(X)[inside],
                              old[inside])

        state = np.random.default_rng(7)
        g = random_space_bump(np.random.default_rng(7), n)
        k = int(state.integers(2, 4))
        centers = state.uniform(-0.8, 0.8, size=(k, n))
        widths = state.uniform(0.4, 0.9, size=k)
        amps = state.uniform(-1.0, 1.0, size=k)
        old = np.zeros(len(X))
        for cc, w, a in zip(centers, widths, amps):
            old += a * np.exp(-self._sq(X, cc) / w**2)
        assert np.array_equal(g.eval(X), old)

    @staticmethod
    def _times(kind, m, rng):
        """Time inputs of the shapes the quadratures and direct callers hand a field."""
        if kind == "scalar":
            return 0.3
        if kind == "zero-stride":
            return np.broadcast_to(np.array(-0.2), (m,))
        if kind == "distinct":
            return rng.uniform(-1.0, 1.0, size=m)
        if kind == "signed-zero-nan":
            values = np.array([0.0, -0.0, np.nan, np.nan, 0.0, 0.5, -0.0, np.nan])
            return np.repeat(values, [7, 3, 1, 4, 9, 2, 5, 1])[np.arange(m) % 32]
        counts = {"one-run": [m], "equal-runs": [m // 8] * 8,
                  "unequal-runs": [1, 37, 2, 600, m - 640]}[kind]
        return np.repeat(rng.uniform(-1.0, 1.0, size=len(counts)), counts)

    @pytest.mark.parametrize("kind", ["one-run", "equal-runs", "unequal-runs", "distinct",
                                      "zero-stride", "scalar", "signed-zero-nan"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_time_factor_per_run_keeps_the_pointwise_bits(self, n, kind):
        rng = np.random.default_rng(40 + n)
        X = rng.uniform(-1.5, 1.5, size=(2048, n))
        t = self._times(kind, len(X), rng)
        c = rng.uniform(-0.5, 0.5, size=n)
        # the sign rides on the divisor, as in fields._gauss, so a NaN keeps its sign bit
        time_gauss = np.exp((np.broadcast_to(t, len(X)) - 0.1) ** 2 / -(0.9**2))
        for amp in (1.0, 1.3):
            bump = gaussian_bump(n, center=c, width=0.7, t_center=0.1, t_width=0.9, amplitude=amp)
            old = amp * (np.exp(-self._sq(X, c) / 0.7**2) * time_gauss)
            assert bump.func(X, t).tobytes() == old.tobytes(), amp
            assert bump.eval(X, t).tobytes() == old.tobytes(), amp

        state = np.random.default_rng(9)
        packet = random_spacetime_bump(np.random.default_rng(9), n)
        space = random_space_bump(state, n)
        tc, tw = float(state.uniform(-0.5, 0.5)), float(state.uniform(0.6, 1.2))
        old = space.func(X) * np.exp((np.broadcast_to(t, len(X)) - tc) ** 2 / -(tw**2))
        assert packet.eval(X, t).tobytes() == old.tobytes()
