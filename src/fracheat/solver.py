"""Collocation solver for the steady Dirichlet problem in the unit ball.

A time-independent u with (-Laplacian)^s u = f(u) in the ball and u = 0
outside solves the space-time problem for every t (the operator reduces to
the fractional Laplacian on time-independent fields), so the radial
symmetry and monotonicity statements can be exercised without a space-time
history discretization.

Discretization: uniform symmetric grid on [-1, 1]^n (odd point count, so
the origin is a node), nodal values interpolated piecewise-multilinearly,
zero at and outside the unit sphere.  ``BallProblem`` owns that layout:
node order, the ball rule and the scatter of interior values onto the grid.

The operator of the interpolant is translation-invariant, so the entry of
the collocation matrix for nodes a and b depends only on the lattice offset
b - a.  Each dimension builds one offset table, and the matrix is the
gather ``table[node_b - node_a]`` over the interior nodes:

* n = 1: the paired integrand is piecewise linear between grid radii, so
  every cell integrates in closed form against the kernel moments; the
  singular cell (0, h/2) uses a second-order Taylor model with the nodal
  second difference, and the zero exterior beyond radius 2 contributes its
  exact far-field integral.  The coefficients depend on |b - a| only, so
  the matrix is symmetric under every grid reflection by construction.
* n = 2: offset-lattice midpoint weights, with the kernel integrated
  exactly (tensor Gauss) over the cells nearest the singularity, the same
  square-cell Taylor model (its four neighbours folded into the table) and
  an exact annulus tail beyond radius 4, which joins the diagonal constant
  at the table's centre.  Each near-cell weight is computed once per offset
  orbit, so the table is bit-symmetric under the eight lattice symmetries.

Both tables are invariant under every signed axis permutation of the
lattice, and so is the ball, so the matrix commutes with that group and
Picard, started from zero, never leaves its fully symmetric vectors.
``solve_steady`` therefore iterates on one value per orbit of
``BallProblem.orbits()`` (M of them, about N / 8 at n = 2) with the M x M
class block summed from the representatives' rows of the offset table,
then checks every row with one product A u: an FFT correlation of the
table with the zero-padded grid values, O(N log N) (the Toeplitz/FFT
product of Duo, van Wyk & Zhang, J. Comput. Phys. 355, 2018), or a
streamed pass over the rows of a supplied matrix.  No N x N or N x M array
forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Optional

import numpy as np
import scipy.fft
import scipy.linalg
from numpy.polynomial import polynomial as poly

from .core import FracParams, as_int, as_real, as_reals, integrated_kernel_constant, sq_dist
from .errors import DomainValidationError, GridCoarseError, SingularMatrixError
from .fields import SpaceField, ZERO_BALL
from .quadrature import QuadratureScheme, _fractional_laplacian, _gauss_rule

_ROW_BLOCK = 16  # rows per gather of the matrix; small blocks stay in cache


@dataclass(frozen=True)
class Nonlinearity:
    """Right-hand side f with derivative, plus recorded hypothesis checks.

    The symmetry theorem asks for f in C^1([0, inf)) with f(0) >= 0 and
    f'(0) <= 0; construction records whether the instance satisfies that
    (and whether f_prime matches finite differences of f), it does not
    reject violations.
    """

    f: Callable[[np.ndarray], np.ndarray]
    f_prime: Callable[[np.ndarray], np.ndarray]
    provenance: str = "custom"
    hypothesis_ok: bool = dc_field(init=False, default=False)
    derivative_consistent: bool = dc_field(init=False, default=False)

    def __post_init__(self):
        f0 = float(self.f(np.zeros(1))[0])
        fp0 = float(self.f_prime(np.zeros(1))[0])
        object.__setattr__(self, "hypothesis_ok", f0 >= 0.0 and fp0 <= 0.0)
        us = np.linspace(0.0, 2.0, 41)
        d = 1e-4
        fd = (self.f(us + d) - self.f(us - d)) / (2 * d)
        ok = bool(np.max(np.abs(fd - self.f_prime(us))) <= 1e-5)
        object.__setattr__(self, "derivative_consistent", ok)

    def eval_extended(self, u: np.ndarray) -> np.ndarray:
        """f on [0, inf), linearly extended below zero (keeps iteration total)."""
        u = np.asarray(u, dtype=float)
        pos = np.maximum(u, 0.0)
        out = np.asarray(self.f(pos), dtype=float).copy()
        neg = u < 0.0
        if np.any(neg):
            f0 = float(self.f(np.zeros(1))[0])
            fp0 = float(self.f_prime(np.zeros(1))[0])
            out[neg] = f0 + fp0 * u[neg]
        return out


def _custom_polynomial(coeffs) -> Nonlinearity:
    cs = as_reals([1.0] if coeffs is None else coeffs, "coeffs").tolist()
    if not cs:
        raise DomainValidationError("custom-polynomial needs at least one coefficient")
    der = poly.polyder(cs)
    return Nonlinearity(lambda u: poly.polyval(u, cs), lambda u: poly.polyval(u, der),
                        f"custom-polynomial{cs}")


# the named right-hand sides without coefficients
_FIXED_NONLINEARITIES = {
    "zero": Nonlinearity(np.zeros_like, np.zeros_like, "zero"),
    "one": Nonlinearity(np.ones_like, np.zeros_like, "one"),
    "one-minus-half-u": Nonlinearity(
        lambda u: 1.0 - 0.5 * u, lambda u: np.full_like(u, -0.5), "one-minus-half-u"),
}


def nonlinearity_by_name(name: str, coeffs=None) -> Nonlinearity:
    """The named right-hand side; only ``custom-polynomial`` takes ``coeffs`` (default [1.0])."""
    if name == "custom-polynomial":
        return _custom_polynomial(coeffs)
    if name not in _FIXED_NONLINEARITIES:
        names = ", ".join([*_FIXED_NONLINEARITIES, "custom-polynomial"])
        raise DomainValidationError(f"unknown nonlinearity {name!r}; one of {names}")
    if coeffs is not None:
        raise DomainValidationError(f"nonlinearity {name!r} takes no coeffs, got {coeffs!r}")
    return _FIXED_NONLINEARITIES[name]


@dataclass(frozen=True)
class BallProblem:
    """Unit-ball Dirichlet problem on a symmetric uniform grid."""

    p: FracParams
    points_per_axis: int
    f: Nonlinearity

    def __post_init__(self):
        if self.p.n not in (1, 2):
            raise DomainValidationError("ball solver supports n in {1, 2}")
        K = as_int(self.points_per_axis, "points_per_axis")
        object.__setattr__(self, "points_per_axis", K)
        if K < 5 or K % 2 == 0:
            raise DomainValidationError(f"points_per_axis must be odd and at least 5, got {K}")

    @property
    def h(self) -> float:
        return 2.0 / (self.points_per_axis - 1)

    @property
    def axis(self) -> np.ndarray:
        return -1.0 + self.h * np.arange(self.points_per_axis)

    @property
    def shape(self) -> tuple:
        """Grid shape (K,) * n; node k of ``nodes()`` sits at the C-order position k."""
        return (self.points_per_axis,) * self.p.n

    def nodes(self) -> np.ndarray:
        """All grid nodes, shape (K^n, n); node k has grid indices ``offsets()[k] + K // 2``."""
        return self.axis[self.offsets() + self.points_per_axis // 2]

    @staticmethod
    def inside(pts: np.ndarray) -> np.ndarray:
        """The ball rule: which rows of ``pts`` lie strictly inside the unit sphere."""
        return sq_dist(pts, 0.0) < 1.0 - 1e-12

    def interior_mask(self) -> np.ndarray:
        return self.inside(self.nodes())

    def interior_nodes(self) -> np.ndarray:
        return self.nodes()[self.interior_mask()]

    def full_values(self, interior_values: np.ndarray) -> np.ndarray:
        """Interior-node values scattered onto the whole grid (exterior zero), shaped ``shape``.

        Raises DomainValidationError unless there is one value per interior node.
        """
        mask = self.interior_mask()
        n_int = int(np.count_nonzero(mask))
        if np.shape(interior_values) != (n_int,):
            raise DomainValidationError(
                f"values of shape {np.shape(interior_values)} do not match the {n_int} interior nodes")
        flat = np.zeros(mask.size)
        flat[mask] = interior_values
        return flat.reshape(self.shape)

    def offsets(self) -> np.ndarray:
        """Integer offset of every node from the centre node, shape (K^n, n), in ``nodes()`` order.

        The grid's index frame: node k sits at h * offsets()[k] up to
        rounding, so grid reflections and rays act on these integers exactly.
        """
        idx = np.moveaxis(np.indices(self.shape), 0, -1).reshape(-1, self.p.n)
        return idx - self.points_per_axis // 2

    def orbits(self) -> np.ndarray:
        """Flat index of each node's orbit representative, in ``nodes()`` order.

        The orbits are those of the 2^n n! signed axis permutations acting on
        ``offsets()``; the representative of an orbit is the node whose offset
        is sort(|offset|), the same for every member.
        """
        key = list(np.abs(self.offsets()).T + self.points_per_axis // 2)
        # odd-even transposition sort of whole columns: np.sort(axis=1) goes row by row, 4x slower
        for i in range(len(key)):
            for k in range(i % 2, len(key) - 1, 2):
                key[k], key[k + 1] = np.minimum(key[k], key[k + 1]), np.maximum(key[k], key[k + 1])
        return np.ravel_multi_index(tuple(key), self.shape)


@dataclass(frozen=True)
class Solution:
    values: np.ndarray
    residual_inf: float
    iterations: int
    converged: bool
    positivity_ok: bool
    hypothesis_ok: bool

    def full_values(self, problem: BallProblem) -> np.ndarray:
        """Values on the whole grid (exterior nodes zero), shaped ``problem.shape``."""
        return problem.full_values(self.values)


def _moments_1d(a: np.ndarray, b: np.ndarray, s: float, A: float):
    """Closed forms of Int_a^b A z^{-1-2s} dz and Int_a^b A z^{-2s} dz."""
    m0 = A * (a ** (-2.0 * s) - b ** (-2.0 * s)) / (2.0 * s)
    if abs(s - 0.5) < 1e-14:
        m1 = A * np.log(b / a)
    else:
        m1 = A * (b ** (1.0 - 2.0 * s) - a ** (1.0 - 2.0 * s)) / (1.0 - 2.0 * s)
    return m0, m1


def _require_fine_grid(cell_est: float, sch: QuadratureScheme) -> None:
    if cell_est > sch.target_tol:
        raise GridCoarseError(
            f"near-diagonal cell error estimate {cell_est:.2e} exceeds tolerance; refine the grid"
        )


def _offset_table_1d(problem: BallProblem, sch: QuadratureScheme) -> np.ndarray:
    """Row of the operator on the hat basis per offset -(K-1)..K-1 (length 2K-1)."""
    s = problem.p.s
    A = integrated_kernel_constant(problem.p)
    K = problem.points_per_axis
    h = problem.h

    _require_fine_grid(A * (0.5 * h) ** (4.0 - 2.0 * s) / ((4.0 - 2.0 * s) * h * h), sch)

    # coefficient per offset |k|; cells [k h, (k+1) h] reach out to radius 2
    coef = np.zeros(K)

    taylor = A * (0.5 * h) ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s) / (h * h)
    coef[0] += 2.0 * taylor
    coef[1] -= taylor

    m0h, m1h = _moments_1d(np.array([0.5 * h]), np.array([h]), s, A)
    coef[0] += 2.0 * m1h[0] / h
    coef[1] -= m1h[0] / h

    ks = np.arange(1, K - 1)
    m0, m1 = _moments_1d(ks * h, (ks + 1) * h, s, A)
    beta = ((ks + 1) * h * m0 - m1) / h
    gamma = (m1 - ks * h * m0) / h
    coef[0] += 2.0 * float(np.sum(m0))
    np.add.at(coef, ks, -beta)
    np.add.at(coef, ks + 1, -gamma)

    coef[0] += 2.0 * A * 2.0 ** (-2.0 * s) / (2.0 * s)
    return np.concatenate([coef[:0:-1], coef])


def _square_cell_integral(s: float) -> float:
    """Int over the unit square [-1/2,1/2]^2 of |w|^{-2s} dw (1-D quadrature)."""
    gl_x, gl_w = _gauss_rule("legendre", 12)
    theta = 0.125 * math.pi * (gl_x + 1.0)
    w = 0.125 * math.pi * gl_w
    vals = (2.0 * np.cos(theta)) ** (2.0 * s - 2.0) / (2.0 - 2.0 * s)
    return 8.0 * float(np.dot(w, vals))


def _offset_weights_2d(h: float, s: float, A: float, r_far: float) -> np.ndarray:
    """Integral of the kernel over each lattice cell within radius r_far.

    Midpoint for distant cells, tensor Gauss over the cells within three
    spacings of the singularity; the center cell weight is zero here (it is
    handled by the Taylor model), and so is every cell beyond r_far, whose
    annulus the caller integrates exactly.  Each near weight is computed once
    per offset orbit (0 <= i <= j) and written to all eight images, so the
    table is bit-symmetric under the axis reflections and the diagonal swap.
    """
    window = int(math.ceil(r_far / h))
    ii, jj = np.meshgrid(np.arange(-window, window + 1), np.arange(-window, window + 1),
                         indexing="ij")
    dist = h * np.sqrt(ii.astype(float) ** 2 + jj.astype(float) ** 2)
    with np.errstate(divide="ignore"):
        W = A * dist ** (-2.0 - 2.0 * s) * h * h
    W[window, window] = 0.0

    gl_x, gl_w = _gauss_rule("legendre", 12)
    WW = np.outer(gl_w, gl_w) * (0.5 * h) ** 2
    for j in range(1, 4):
        for i in range(j + 1):
            XX, YY = np.meshgrid(i * h + 0.5 * h * gl_x, j * h + 0.5 * h * gl_x, indexing="ij")
            R2 = XX * XX + YY * YY
            weight = A * float(np.sum(WW * R2 ** (-1.0 - s)))
            for a, b in ((i, j), (j, i)):
                for sa in (-1, 1):
                    for sb in (-1, 1):
                        W[window + sa * a, window + sb * b] = weight
    return np.where((ii * ii + jj * jj) * h * h <= r_far * r_far, W, 0.0)


def _offset_table_2d(problem: BallProblem, sch: QuadratureScheme) -> np.ndarray:
    """Matrix entry per lattice offset: -W, the Taylor neighbours, the diagonal at the centre."""
    s = problem.p.s
    A = integrated_kernel_constant(problem.p)
    h = problem.h

    _require_fine_grid(
        A * 2.0 * math.pi * (0.5 * h) ** (4.0 - 2.0 * s) / ((4.0 - 2.0 * s) * h * h), sch)

    r_far = 4.0
    W = _offset_weights_2d(h, s, A, r_far)
    window = W.shape[0] // 2
    w_total = float(np.sum(W))
    far_diag = A * 2.0 * math.pi * r_far ** (-2.0 * s) / (2.0 * s)

    taylor = A * _square_cell_integral(s) * h ** (2.0 - 2.0 * s) / 4.0 / (h * h)

    table = -W
    # Taylor neighbours (second-difference Laplacian stencil)
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        table[window + di, window + dj] -= taylor
    table[window, window] = w_total + far_diag + 4.0 * taylor
    return table


def _offset_table(problem: BallProblem, sch: QuadratureScheme) -> np.ndarray:
    """The dimension's offset table cropped to offsets -(K-1)..K-1 per axis, (2K-1)^n entries.

    Those are all the offsets between two grid nodes; the 2-D table spans
    the r_far window beyond them, which no matrix entry reads.
    """
    table = (_offset_table_1d if problem.p.n == 1 else _offset_table_2d)(problem, sch)
    c, K = table.shape[0] // 2, problem.points_per_axis
    return table[(slice(c - K + 1, c + K),) * problem.p.n]


def _table_rows(problem: BallProblem, table: np.ndarray) -> Callable:
    """The collocation matrix over the interior nodes, as a function ``rows -> block``.

    ``rows`` (index array or slice) picks the interior rows gathered; entry
    (a, b) is ``table[node_b - node_a]`` of the ``_offset_table``.
    """
    grid_idx = np.unravel_index(np.flatnonzero(problem.interior_mask()), problem.shape)
    # node positions in the table's flat frame: pos[b] - pos[a] + centre is the
    # flat index of offset b - a, since every offset fits the table
    pos = np.ravel_multi_index(grid_idx, table.shape)
    centre = np.ravel_multi_index(tuple(d // 2 for d in table.shape), table.shape)
    flat_table = table.ravel()
    return lambda rows: flat_table[pos[None, :] - pos[rows, None] + centre]


def _table_product(problem: BallProblem, table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A u over the interior nodes for the matrix of ``table``, as one FFT correlation.

    (A u)[a] = sum_b table[b - a] u[b] is, per axis, the linear convolution
    of the K grid values (exterior zero) with the reversed table of 2K - 1
    entries; node a reads entry a + K - 1 of that 3K - 2 long product.  A
    circular convolution of period L >= 2K - 1 wraps only entries outside
    K - 1 .. 2K - 2 onto each other, so the least 5-smooth L >= 2K - 1
    (``scipy.fft.next_fast_len``, where numpy.fft is fastest) suffices.
    """
    n, K = problem.p.n, problem.points_per_axis
    axes, size = tuple(range(n)), (scipy.fft.next_fast_len(2 * K - 1, real=True),) * n
    spectrum = (np.fft.rfftn(table[(slice(None, None, -1),) * n], size, axes=axes)
                * np.fft.rfftn(problem.full_values(u), size, axes=axes))
    conv = np.fft.irfftn(spectrum, size, axes=axes)
    return conv[(slice(K - 1, 2 * K - 1),) * n].ravel()[problem.interior_mask()]


def assemble_dirichlet_matrix(problem: BallProblem, sch: QuadratureScheme) -> np.ndarray:
    """Dense collocation matrix of (-Laplacian)^s over the interior nodes.

    The rows of ``_table_rows`` stacked; ``solve_steady`` does not need it.
    """
    n_int = int(np.count_nonzero(problem.interior_mask()))
    rows_of = _table_rows(problem, _offset_table(problem, sch))
    mat = np.empty((n_int, n_int))
    for lo in range(0, n_int, _ROW_BLOCK):
        mat[lo:lo + _ROW_BLOCK] = rows_of(slice(lo, lo + _ROW_BLOCK))
    return mat


def _class_block(problem: BallProblem, rows_of: Callable) -> tuple:
    """The operator reduced to fully symmetric vectors: the class block, as ``(B, cols, rows)``.

    Such a vector is v[cols], one value per orbit of ``BallProblem.orbits()``;
    ``rows`` are the representatives' interior rows.  B[a, b] sums row
    rows[a] of the matrix A, read through ``rows_of``, over the nodes of
    orbit b, so B @ v = (A @ v[cols])[rows] when A has the symmetry.
    """
    mask = problem.interior_mask()
    reps, cols = np.unique(problem.orbits()[mask], return_inverse=True)
    rows = (np.cumsum(mask) - 1)[reps]
    order = np.argsort(cols, kind="stable")
    starts = np.searchsorted(cols[order], np.arange(reps.size))
    B = np.empty((reps.size, reps.size))
    for lo in range(0, reps.size, _ROW_BLOCK):
        B[lo:lo + _ROW_BLOCK] = np.add.reduceat(
            rows_of(rows[lo:lo + _ROW_BLOCK])[:, order], starts, axis=1)
    return B, cols, rows


def solve_steady(problem: BallProblem, sch: Optional[QuadratureScheme] = None,
                 theta: float = 0.8, max_iter: int = 200, tol: float = 1e-8,
                 matrix: Optional[np.ndarray] = None) -> Solution:
    """Damped Picard iteration u <- u + theta A^{-1} (f(u) - A u) on the symmetric class.

    The ball and the operator are invariant under every signed axis
    permutation, and f acts pointwise, so from u = 0 every iterate is
    u = v[cols] for a class vector v.  The iteration runs on v alone with
    the LU of the M x M class block B of ``_class_block``, so the values
    are exactly symmetric.  The matrix rows come from ``matrix`` when given
    (square over the interior nodes), else from the offset table.  Every
    interior row then enters ``residual_inf`` = max |f(u) - A u|, so a
    matrix without the symmetry reports converged=False, never a wrong
    converged answer.  Without ``matrix`` the table, built once and shared
    with the class block, gives A u as one FFT correlation
    (``_table_product``), exact up to rounding, and a non-finite table
    entry raises ``SingularMatrixError`` before any work.  A supplied
    ``matrix`` gives A u as one product, and a non-finite product from a
    non-finite entry raises ``SingularMatrixError``.  With theta = 1 and a
    constant right-hand side the first iterate is already the solution.  Non-convergence,
    including a residual that overflows, returns the iterate of least class
    residual with converged=False; positivity_ok refers to that iterate.
    """
    theta, tol = as_real(theta, "theta"), as_real(tol, "tol")
    max_iter = as_int(max_iter, "max_iter")
    if not 0.0 < theta <= 1.0:
        raise DomainValidationError("damping theta must lie in (0, 1]")
    if not tol > 0.0:
        raise DomainValidationError(f"tol must be positive, got {tol!r}")
    if max_iter < 1:
        raise DomainValidationError(f"max_iter must be at least 1, got {max_iter}")
    n_int = int(np.count_nonzero(problem.interior_mask()))
    if matrix is not None and np.shape(matrix) != (n_int, n_int):
        raise DomainValidationError(
            f"matrix of shape {np.shape(matrix)} does not match the {n_int} interior nodes")
    if matrix is None:
        table = _offset_table(problem, sch or QuadratureScheme())
        if not np.all(np.isfinite(table)):
            raise SingularMatrixError("offset table has non-finite entries")
        rows_of = _table_rows(problem, table)
    else:
        matrix = np.asarray(matrix, dtype=float)
        rows_of = matrix.__getitem__
    B, cols, rows = _class_block(problem, rows_of)
    # a non-finite entry of B carries into its factors
    lu = scipy.linalg.lu_factor(B, overwrite_a=True, check_finite=False)
    if not np.all(np.isfinite(lu[0])):
        raise SingularMatrixError("class block or its factors have non-finite entries")

    v = np.zeros(rows.size)
    best_v, best_res = v, math.inf
    iterations = 0
    # a diverging iteration overflows; the non-finite residual ends it quietly
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, max_iter + 1):
            residual = problem.f.eval_extended(v) - B @ v
            res_inf = float(np.max(np.abs(residual)))
            if res_inf < best_res:
                best_res, best_v = res_inf, v
            if res_inf <= tol or not math.isfinite(res_inf):
                break
            v = v + theta * scipy.linalg.lu_solve(lu, residual)
        if float(np.max(np.abs(problem.f.eval_extended(v) - B @ v))) < best_res:
            best_v = v
        u = best_v[cols]
        # every row once: a row outside the class block shows an asymmetric or non-finite matrix
        if matrix is None:
            Au = _table_product(problem, table, u)
        else:
            Au = matrix @ u
            if not np.all(np.isfinite(Au)) and not np.all(np.isfinite(matrix)):
                raise SingularMatrixError("collocation matrix has non-finite entries")
        residual_inf = float(np.max(np.abs(problem.f.eval_extended(u) - Au)))
    return Solution(
        values=u,
        residual_inf=residual_inf,
        iterations=iterations,
        converged=residual_inf <= tol,
        positivity_ok=bool(np.all(u >= 0.0)),
        hypothesis_ok=problem.f.hypothesis_ok,
    )


def interpolant_field(problem: BallProblem, full_values: np.ndarray) -> SpaceField:
    """Piecewise-multilinear interpolant of nodal values, zero outside the ball."""
    ax = problem.axis
    vals = np.asarray(full_values, dtype=float)
    if problem.p.n == 1:
        def g(X):
            return np.interp(X[:, 0], ax, vals, left=0.0, right=0.0)
    else:
        # imported here: scipy.interpolate adds about 0.3 s to the package import
        from scipy.interpolate import RegularGridInterpolator

        g = RegularGridInterpolator((ax,) * problem.p.n, vals, method="linear",
                                    bounds_error=False, fill_value=0.0)
    return SpaceField(g, n=problem.p.n, exterior=ZERO_BALL,
                      sup_bound=float(np.max(np.abs(vals)) or 1.0),
                      ball_radius=1.0, space_scale=problem.h)


def residual_field(problem: BallProblem, solution: Solution, sch: QuadratureScheme,
                   node_subset: Optional[np.ndarray] = None) -> np.ndarray:
    """|operator(interpolant) - f(u)| at interior nodes via the quadrature path.

    Independent of the assembled matrix (midpoint cells against the kernel
    instead of closed-form moments), but sharing the singular-cell
    convention: a Taylor model on |z| < h/2 driven by the nodal second
    difference, since the interpolant itself is only Lipschitz at nodes.
    ``node_subset`` restricts evaluation to those interior-node positions
    (useful as a cheap discretization-error estimate on large grids); they
    must be integers in [0, N) for the N interior nodes.  The solution
    must hold N finite values.  The nodes go through one batched sweep
    that calls the interpolant once per run of nodes in each pass; an
    empty subset evaluates nothing.  Each value is the one
    ``fractional_laplacian_pointwise`` gives at its node with r_min =
    (h/2)^2, the grid radii as breakpoints at n = 1 and the nodal second
    difference as curvature.
    """
    interior = np.flatnonzero(problem.interior_mask())
    rows = np.arange(len(interior)) if node_subset is None else np.asarray(node_subset)
    if rows.ndim != 1 or rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0
                                        or rows.max() >= len(interior)):
        raise DomainValidationError(f"node_subset must be integer indices in [0, {len(interior)})")
    full = solution.full_values(problem)
    if not np.all(np.isfinite(full)):
        raise DomainValidationError("solution values must be finite")
    if rows.size == 0:
        return np.zeros(0)
    g = interpolant_field(problem, full)
    h = problem.h
    n = problem.p.n
    rhs = problem.f.eval_extended(solution.values)
    breaks = (np.arange(1, problem.points_per_axis) * h).tolist() if n == 1 else None

    # nodal second difference over the zero-padded grid, neighbours summed
    # in the order +e1, -e1, +e2, -e2
    padded = np.pad(full, 1)
    curv = np.zeros(full.shape)
    for axis in range(n):
        for step in (1, -1):
            window = [slice(1, -1)] * n
            window[axis] = slice(1 + step, padded.shape[axis] - 1 + step)
            curv += padded[tuple(window)]
    curv = ((curv - 2.0 * n * full) / (h * h)).ravel()

    flat_idx = interior[rows]
    ov = _fractional_laplacian(g, problem.nodes()[flat_idx], problem.p,
                               replace(sch, r_min=(0.5 * h) ** 2), breaks, curv[flat_idx])
    return np.abs(ov.value - rhs[rows])
