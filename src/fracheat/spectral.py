"""Discrete Fourier evaluation of the operator on periodic space-time grids.

On the torus the operator acts mode by mode: the coefficient of
exp(i (xi . x + rho t)) is multiplied by the principal-branch power
(i rho + |xi|^2)^s.  Since i rho + |xi|^2 always has nonnegative real part,
the argument stays in [-pi/2, pi/2] and the branch cut is never approached.
The time factor matches the left-sided Marchaud convention, i.e. the symbol
of the one-sided time derivative is (i rho)^s; this orientation is validated
against the lag quadrature on plane waves rather than assumed.

The torus is a desk-scale stand-in for the whole space: statements about
R^n x R (in particular the constancy of bounded null solutions) are probed
here in their discrete analogue and reported as such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FracParams, as_int, as_real, sq_dist
from .errors import DomainValidationError, ShapeMismatchError


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid with N_x points per space axis and N_t in time."""

    n: int
    N_x: int
    L_x: float
    N_t: int
    L_t: float

    def __post_init__(self):
        for name, rule in (("n", as_int), ("N_x", as_int), ("L_x", as_real), ("N_t", as_int),
                           ("L_t", as_real)):
            object.__setattr__(self, name, rule(getattr(self, name), name))
        if self.n < 1:
            raise DomainValidationError("n must be at least 1")
        for name, N in (("N_x", self.N_x), ("N_t", self.N_t)):
            if N < 8 or N % 2 != 0:
                raise DomainValidationError(f"{name} must be even and at least 8, got {N}")
        if not (self.L_x > 0 and self.L_t > 0):
            raise DomainValidationError("periods must be positive")

    @property
    def shape(self) -> tuple:
        return (self.N_x,) * self.n + (self.N_t,)

    def space_coords(self) -> np.ndarray:
        return np.arange(self.N_x) * (self.L_x / self.N_x)

    def time_coords(self) -> np.ndarray:
        return np.arange(self.N_t) * (self.L_t / self.N_t)

    def frequencies(self) -> tuple:
        """Angular frequencies per axis: n space axes then the time axis."""
        xi = 2.0 * np.pi * np.fft.fftfreq(self.N_x, d=self.L_x / self.N_x)
        rho = 2.0 * np.pi * np.fft.fftfreq(self.N_t, d=self.L_t / self.N_t)
        return (xi,) * self.n + (rho,)


@dataclass(frozen=True)
class GridField:
    """Real nodal values over a TorusGrid (space axes first, time last)."""

    values: np.ndarray
    grid: TorusGrid

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != self.grid.shape:
            raise ShapeMismatchError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}"
            )


def marchaud_symbol(rho, s: float):
    """Fourier multiplier (-i rho)^s of the right-sided time derivative.

    Principal branch: magnitude |rho|^s, argument -s * sign(rho) * pi / 2.
    Conjugate-symmetric in rho, and marchaud_symbol(-rho, s) = (i rho)^s is
    the left-sided multiplier.
    """
    rho_arr = np.asarray(rho, dtype=float)
    out = np.power(-1j * rho_arr + 0j, s)
    out = np.where(rho_arr == 0.0, 0.0 + 0.0j, out)
    return complex(out) if np.isscalar(rho) else out


def spacetime_symbol(xi, rho, s: float):
    """Principal-branch (i rho + |xi|^2)^s; vanishes only at xi = 0, rho = 0."""
    z = sq_dist(np.atleast_1d(xi), 0.0) + 1j * np.asarray(rho, dtype=float)
    out = np.power(z, s)
    out = np.where(z == 0.0, 0.0 + 0.0j, out)
    return complex(out) if out.ndim == 0 else out


def _symbol_grid(grid: TorusGrid, p: FracParams) -> np.ndarray:
    """(|xi|^2 + i rho)^s on every grid mode, 0 on the zero mode.

    The power is taken once per distinct |xi|^2 (summed over the axes in
    order, as a whole-grid sum would be) and time frequency, then gathered
    onto the modes: the same bits at a fraction of the powers.
    """
    freqs = grid.frequencies()
    space = (grid.N_x,) * grid.n
    xi_sq = np.zeros(space)
    for axis in range(grid.n):
        shape = [1] * grid.n
        shape[axis] = grid.N_x
        xi_sq = xi_sq + (freqs[axis] ** 2).reshape(shape)
    levels, level_of = np.unique(xi_sq, return_inverse=True)
    sym = np.power(levels[:, None] + 1j * freqs[-1][None, :], p.s)[level_of.reshape(space)]
    sym[tuple([0] * (grid.n + 1))] = 0.0
    return sym


def apply_operator_spectral(f: GridField, p: FracParams) -> tuple[GridField, float]:
    """Multiply every mode by the space-time symbol; returns (field, imag residue).

    The symbol is Hermitian-symmetrized first, S(k) -> (S(k) + conj(S(-k))) / 2,
    so real input maps to real output up to roundoff; the leftover
    imaginary magnitude is reported.
    """
    if f.grid.n != p.n:
        raise ShapeMismatchError(f"grid dimension {f.grid.n} != params dimension {p.n}")
    sym = _symbol_grid(f.grid, p)
    # off the time-Nyquist plane S(-k) is conj(S(k)) already.  On it the time
    # frequency aliases to itself, so S(-k) = S(k) and the Hermitian part is the
    # real part; this plane holds the only self-conjugate modes whose symbol is
    # not real (N_t is even, so the plane exists)
    sym[..., f.grid.N_t // 2] = sym[..., f.grid.N_t // 2].real
    spectrum = np.fft.fftn(f.values)
    out = np.fft.ifftn(sym * spectrum)
    residue = float(np.max(np.abs(out.imag)))
    return GridField(out.real, f.grid), residue


def liouville_nullspace_dimension(grid: TorusGrid, p: FracParams) -> int:
    """Number of grid modes annihilated by the symbol (exactly one: the mean)."""
    sym = _symbol_grid(grid, p)
    return int(np.count_nonzero(np.abs(sym) == 0.0))


def min_nonzero_symbol(grid: TorusGrid, p: FracParams) -> float:
    """Smallest |symbol| over the nonzero modes; positive by construction."""
    mags = np.abs(_symbol_grid(grid, p))
    return float(np.min(mags[mags > 0.0]))


def project_onto_kernel(f: GridField, p: FracParams) -> GridField:
    """Orthogonal projection of the data onto the operator's discrete kernel.

    Solving the homogeneous equation from arbitrary bounded data by
    removing every mode the symbol does not annihilate leaves the zero
    mode alone, i.e. a constant field: the discrete Liouville statement.
    """
    if f.grid.n != p.n:
        raise ShapeMismatchError(f"grid dimension {f.grid.n} != params dimension {p.n}")
    sym = _symbol_grid(f.grid, p)
    spectrum = np.fft.fftn(f.values)
    spectrum[np.abs(sym) != 0.0] = 0.0
    return GridField(np.fft.ifftn(spectrum).real, f.grid)


def sample_field(grid: TorusGrid, fn) -> GridField:
    """Sample fn(X, t) on the torus nodes (X of shape (m, n), t of shape (m,))."""
    axes = [grid.space_coords()] * grid.n + [grid.time_coords()]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh[:-1]], axis=-1)
    ts = mesh[-1].ravel()
    vals = np.asarray(fn(pts, ts), dtype=float).reshape(grid.shape)
    return GridField(vals, grid)
