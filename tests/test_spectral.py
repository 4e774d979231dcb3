"""Fourier symbols and the periodic-grid operator."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracheat.core import FracParams, SpaceTimePoint
from fracheat.errors import DomainValidationError, ShapeMismatchError
from fracheat.fields import TimeField, gaussian_bump
from fracheat.quadrature import QuadratureScheme, marchaud_left, master_operator_pointwise
from fracheat.spectral import (
    GridField,
    TorusGrid,
    _symbol_grid,
    apply_operator_spectral,
    liouville_nullspace_dimension,
    marchaud_symbol,
    min_nonzero_symbol,
    project_onto_kernel,
    sample_field,
    spacetime_symbol,
)

P1 = FracParams(1, 0.5)
GRID = TorusGrid(1, 32, 10.0, 32, 10.0)


class TestSymbols:
    def test_marchaud_zero(self):
        assert marchaud_symbol(0.0, 0.5) == 0.0

    def test_marchaud_unit(self):
        z = marchaud_symbol(1.0, 0.5)
        assert abs(z) == pytest.approx(1.0, rel=1e-12)
        assert cmath.phase(z) == pytest.approx(-math.pi / 4.0, rel=1e-12)

    @given(st.floats(min_value=-5.0, max_value=5.0), st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=50, deadline=None)
    def test_conjugate_symmetry(self, rho, s):
        assert marchaud_symbol(-rho, s) == pytest.approx(
            marchaud_symbol(rho, s).conjugate(), rel=1e-12, abs=1e-15
        )

    def test_spacetime_zero_only_at_origin(self):
        assert spacetime_symbol([0.0], 0.0, 0.5) == 0.0
        assert abs(spacetime_symbol([0.0], 0.1, 0.5)) > 0.0
        assert abs(spacetime_symbol([0.1], 0.0, 0.5)) > 0.0

    def test_time_symbol_orientation(self):
        # left-derivative symbol: (i rho)^s = marchaud_symbol(-rho, s)
        rho = 1.7
        want = (1j * rho) ** 0.5
        assert spacetime_symbol([0.0], rho, 0.5) == pytest.approx(want, rel=1e-12)
        assert marchaud_symbol(-rho, 0.5) == pytest.approx(want, rel=1e-12)
        assert marchaud_symbol(rho, 0.5).conjugate() == pytest.approx(want, rel=1e-12)

    def test_space_reduction(self):
        assert spacetime_symbol([1.0], 0.0, 0.5) == pytest.approx(1.0 + 0.0j, rel=1e-12)

    @given(st.floats(min_value=-4.0, max_value=4.0), st.floats(min_value=-4.0, max_value=4.0))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_real_part(self, xi, rho):
        z = spacetime_symbol([xi], rho, 0.35)
        assert z.real >= -1e-15


class TestSymbolGrid:
    @staticmethod
    def _whole_grid(grid, s):
        # the power taken on every mode: |xi|^2 summed axis by axis over the grid
        freqs = grid.frequencies()
        xi_sq = np.zeros(grid.shape)
        for axis in range(grid.n):
            shape = [1] * (grid.n + 1)
            shape[axis] = grid.N_x
            xi_sq = xi_sq + (freqs[axis] ** 2).reshape(shape)
        sym = np.power(xi_sq + 1j * freqs[-1].reshape([1] * grid.n + [grid.N_t]), s)
        sym[(0,) * (grid.n + 1)] = 0.0
        return sym

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
    def test_bits_of_the_whole_grid_power(self, n, s):
        grid = TorusGrid(n, 16, 7.3, 12, 5.1)
        got = _symbol_grid(grid, FracParams(n, s))
        assert got.shape == grid.shape
        assert got.tobytes() == self._whole_grid(grid, s).tobytes()


class TestTorusGrid:
    def test_invariants(self):
        with pytest.raises(DomainValidationError):
            TorusGrid(1, 7, 1.0, 8, 1.0)
        with pytest.raises(DomainValidationError):
            TorusGrid(1, 8, 1.0, 9, 1.0)
        with pytest.raises(DomainValidationError):
            TorusGrid(1, 8, -1.0, 8, 1.0)

    @pytest.mark.parametrize("L_x, L_t", [(math.nan, 10.0), (10.0, math.nan)])
    def test_nan_period_rejected(self, L_x, L_t):
        # a NaN period passed a "<= 0" test and gave NaN frequencies
        with pytest.raises(DomainValidationError, match="L_[xt] must be a finite real number"):
            TorusGrid(1, 16, L_x, 16, L_t)

    @pytest.mark.parametrize("L_x, L_t", [(math.inf, 10.0), (10.0, math.inf)])
    def test_infinite_period_rejected(self, L_x, L_t):
        # an infinite period gave all-zero frequencies
        with pytest.raises(DomainValidationError, match="L_[xt] must be a finite real number"):
            TorusGrid(1, 16, L_x, 16, L_t)

    def test_grid_sizes_are_stored_as_int(self):
        grid = TorusGrid(1, 16.0, 10.0, np.int64(16), 10.0)
        assert grid == TorusGrid(1, 16, 10.0, 16, 10.0)
        assert type(grid.N_x) is type(grid.N_t) is int
        assert grid.frequencies()[0].shape == (16,)
        for N_x in (16.5, "16", True):
            with pytest.raises(DomainValidationError, match="N_x must be an integer"):
                TorusGrid(1, N_x, 10.0, 16, 10.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            GridField(np.zeros((4, 4)), GRID)


def _rolled_hermitian_part(arr):
    """(S(k) + conj(S(-k))) / 2, -k by rolling and flipping every axis: the former rule."""
    rev = arr
    for axis in range(arr.ndim):
        rev = np.roll(np.flip(rev, axis=axis), 1, axis=axis)
    return 0.5 * (arr + np.conj(rev))


class TestApplyOperator:
    # TorusGrid takes even N_x and N_t only; N_t / 2 odd and even, and N_x != N_t
    @pytest.mark.parametrize("n, N_x, N_t", [(1, 16, 10), (1, 12, 16), (2, 10, 8),
                                             (2, 8, 14), (3, 8, 10), (3, 10, 8)])
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
    def test_bits_of_the_rolled_hermitian_part(self, n, N_x, N_t, s):
        grid, p = TorusGrid(n, N_x, 7.3, N_t, 5.1), FracParams(n, s)
        data = GridField(np.random.default_rng(N_x + N_t).uniform(-1.0, 1.0, grid.shape), grid)
        want = np.fft.ifftn(_rolled_hermitian_part(_symbol_grid(grid, p)) * np.fft.fftn(data.values))
        out, residue = apply_operator_spectral(data, p)
        assert out.values.tobytes() == want.real.tobytes()
        assert residue == float(np.max(np.abs(want.imag)))

    def test_constant_to_zero(self):
        f = GridField(np.full(GRID.shape, 3.0), GRID)
        out, residue = apply_operator_spectral(f, P1)
        assert np.max(np.abs(out.values)) <= 1e-10
        assert residue <= 1e-10

    def test_single_mode_scaling(self):
        xs = GRID.space_coords()
        k = 2.0 * math.pi / GRID.L_x
        f = GridField(np.broadcast_to(np.cos(k * xs)[:, None], GRID.shape).copy(), GRID)
        out, _ = apply_operator_spectral(f, P1)
        expected = k ** (2 * P1.s) * f.values
        assert np.max(np.abs(out.values - expected)) <= 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(0)
        a = GridField(rng.uniform(-1, 1, GRID.shape), GRID)
        b = GridField(rng.uniform(-1, 1, GRID.shape), GRID)
        combo = GridField(2.0 * a.values - 0.5 * b.values, GRID)
        out_combo, _ = apply_operator_spectral(combo, P1)
        out_a, _ = apply_operator_spectral(a, P1)
        out_b, _ = apply_operator_spectral(b, P1)
        assert np.max(np.abs(out_combo.values - 2 * out_a.values + 0.5 * out_b.values)) <= 1e-10

    def test_translation_equivariance(self):
        rng = np.random.default_rng(1)
        f = GridField(rng.uniform(-1, 1, GRID.shape), GRID)
        out1, _ = apply_operator_spectral(f, P1)
        shifted = GridField(np.roll(f.values, 1, axis=0), GRID)
        out2, _ = apply_operator_spectral(shifted, P1)
        assert np.max(np.abs(np.roll(out1.values, 1, axis=0) - out2.values)) <= 1e-10

    def test_parseval_bound(self):
        rng = np.random.default_rng(2)
        f = GridField(rng.uniform(-1, 1, GRID.shape), GRID)
        out, _ = apply_operator_spectral(f, P1)
        freqs = GRID.frequencies()
        xi_max = float(np.max(np.abs(freqs[0])))
        rho_max = float(np.max(np.abs(freqs[-1])))
        sym_max = abs(spacetime_symbol([xi_max], rho_max, P1.s))
        assert np.sum(out.values**2) <= sym_max**2 * np.sum(f.values**2) * (1 + 1e-12)

    def test_dimension_mismatch(self):
        f = GridField(np.zeros(GRID.shape), GRID)
        with pytest.raises(ShapeMismatchError):
            apply_operator_spectral(f, FracParams(2, 0.5))

    def test_agreement_with_marchaud_on_time_fields(self):
        rho1 = 2.0 * math.pi / GRID.L_t
        h = TimeField(lambda t: np.cos(rho1 * t) + 0.3 * np.cos(2 * rho1 * t), sup_bound=1.3)
        ts = GRID.time_coords()
        f = GridField(np.broadcast_to(h.eval(ts)[None, :], GRID.shape).copy(), GRID)
        out, _ = apply_operator_spectral(f, P1)
        sch = QuadratureScheme(r_max=2000.0)
        for i_t in (3, 11):
            ml = marchaud_left(h, float(ts[i_t]), P1.s, sch)
            rel = abs(out.values[0, i_t] - ml.value) / max(abs(ml.value), 1e-6)
            assert rel <= 1e-3

    def test_agreement_with_quadrature_on_bump(self):
        # periodization of the whole-space field dominates the discrepancy
        grid = TorusGrid(1, 64, 24.0, 64, 24.0)
        u = gaussian_bump(1, center=[12.0], width=1.2, t_center=12.0, t_width=1.5)
        fld = sample_field(grid, lambda X, t: u.eval(X, t))
        out, _ = apply_operator_spectral(fld, P1)
        sch = QuadratureScheme()
        checked = 0
        for ix, it in ((32, 32), (30, 34), (34, 30), (28, 32), (32, 36)):
            x0 = grid.space_coords()[ix]
            t0 = grid.time_coords()[it]
            m = master_operator_pointwise(u, SpaceTimePoint([x0], t0), P1, sch)
            if abs(m.value) < 0.15:
                continue
            rel = abs(out.values[ix, it] - m.value) / abs(m.value)
            assert rel <= 1e-2
            checked += 1
        assert checked >= 3


class TestLiouville:
    @pytest.mark.parametrize("grid", [
        TorusGrid(1, 16, 8.0, 16, 8.0),
        TorusGrid(1, 32, 10.0, 64, 20.0),
        TorusGrid(2, 16, 8.0, 16, 8.0),
    ])
    def test_nullspace_dimension(self, grid):
        p = FracParams(grid.n, 0.5)
        assert liouville_nullspace_dimension(grid, p) == 1
        assert min_nonzero_symbol(grid, p) > 0.0

    def test_projection_returns_constant(self):
        rng = np.random.default_rng(3)
        f = GridField(rng.uniform(-1, 1, GRID.shape), GRID)
        proj = project_onto_kernel(f, P1)
        assert np.max(proj.values) - np.min(proj.values) <= 1e-10
        assert proj.values.flat[0] == pytest.approx(float(np.mean(f.values)), abs=1e-12)
