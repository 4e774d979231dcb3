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
  at the table's centre.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .core import FracParams, integrated_kernel_constant
from .errors import DomainValidationError, GridCoarseError, SingularMatrixError
from .fields import SpaceField, ZERO_BALL
from .quadrature import QuadratureScheme, fractional_laplacian_pointwise

_GL12 = np.polynomial.legendre.leggauss(12)
_ROW_BLOCK = 16  # rows per gather block of the matrix assembly; small blocks stay in cache


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


def nonlinearity_by_name(name: str, coeffs=None) -> Nonlinearity:
    if name == "zero":
        return Nonlinearity(lambda u: np.zeros_like(u), lambda u: np.zeros_like(u), "zero")
    if name == "one":
        return Nonlinearity(lambda u: np.ones_like(u), lambda u: np.zeros_like(u), "one")
    if name == "one-minus-half-u":
        return Nonlinearity(lambda u: 1.0 - 0.5 * u, lambda u: np.full_like(u, -0.5),
                            "one-minus-half-u")
    if name == "custom-polynomial":
        cs = [float(c) for c in (coeffs or [1.0])]

        def f(u):
            out = np.zeros_like(u)
            for c in reversed(cs):
                out = out * u + c
            return out

        def fp(u):
            out = np.zeros_like(u)
            for k, c in reversed(list(enumerate(cs))):
                if k >= 1:
                    out = out * u + k * c
            return out

        return Nonlinearity(f, fp, f"custom-polynomial{cs}")
    raise DomainValidationError(f"unknown nonlinearity {name!r}")


@dataclass(frozen=True)
class BallProblem:
    """Unit-ball Dirichlet problem on a symmetric uniform grid."""

    p: FracParams
    points_per_axis: int
    f: Nonlinearity

    def __post_init__(self):
        if self.p.n not in (1, 2):
            raise DomainValidationError("ball solver supports n in {1, 2}")
        K = self.points_per_axis
        if K < 5 or K % 2 == 0:
            raise DomainValidationError("points_per_axis must be odd and at least 5")

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
        """All grid nodes, shape (K^n, n)."""
        grids = np.meshgrid(*[self.axis] * self.p.n, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    @staticmethod
    def inside(pts: np.ndarray) -> np.ndarray:
        """The ball rule: which rows of ``pts`` lie strictly inside the unit sphere."""
        return np.einsum("ij,ij->i", pts, pts) < 1.0 - 1e-12

    def interior_mask(self) -> np.ndarray:
        return self.inside(self.nodes())

    def interior_nodes(self) -> np.ndarray:
        return self.nodes()[self.interior_mask()]

    def full_values(self, interior_values: np.ndarray) -> np.ndarray:
        """Interior-node values scattered onto the whole grid (exterior zero), shaped ``shape``."""
        mask = self.interior_mask()
        flat = np.zeros(mask.size)
        flat[mask] = interior_values
        return flat.reshape(self.shape)


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
    gl_x, gl_w = _GL12
    theta = 0.125 * math.pi * (gl_x + 1.0)
    w = 0.125 * math.pi * gl_w
    vals = (2.0 * np.cos(theta)) ** (2.0 * s - 2.0) / (2.0 - 2.0 * s)
    return 8.0 * float(np.dot(w, vals))


def _offset_weights_2d(h: float, s: float, A: float, r_far: float) -> np.ndarray:
    """Integral of the kernel over each lattice cell within radius r_far.

    Midpoint for distant cells, tensor Gauss over the cells within three
    spacings of the singularity; the center cell weight is zero here (it is
    handled by the Taylor model), and so is every cell beyond r_far, whose
    annulus the caller integrates exactly.
    """
    window = int(math.ceil(r_far / h))
    ii, jj = np.meshgrid(np.arange(-window, window + 1), np.arange(-window, window + 1),
                         indexing="ij")
    dist = h * np.sqrt(ii.astype(float) ** 2 + jj.astype(float) ** 2)
    with np.errstate(divide="ignore"):
        W = A * dist ** (-2.0 - 2.0 * s) * h * h
    W[window, window] = 0.0

    gl_x, gl_w = _GL12
    near = np.argwhere((np.abs(ii) <= 3) & (np.abs(jj) <= 3) & ((ii != 0) | (jj != 0)))
    for a, b in near:
        zi, zj = ii[a, b] * h, jj[a, b] * h
        xg = zi + 0.5 * h * gl_x
        yg = zj + 0.5 * h * gl_x
        XX, YY = np.meshgrid(xg, yg, indexing="ij")
        WW = np.outer(gl_w, gl_w) * (0.5 * h) ** 2
        R2 = XX * XX + YY * YY
        W[a, b] = A * float(np.sum(WW * R2 ** (-1.0 - s)))
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


def assemble_dirichlet_matrix(problem: BallProblem, sch: QuadratureScheme) -> np.ndarray:
    """Dense collocation matrix of (-Laplacian)^s over the interior nodes.

    Entry (a, b) is ``table[node_b - node_a]`` of the dimension's offset
    table; the gather runs in blocks of rows so no index array grows to
    the size of the matrix.
    """
    table = (_offset_table_1d if problem.p.n == 1 else _offset_table_2d)(problem, sch)
    grid_idx = np.unravel_index(np.flatnonzero(problem.interior_mask()), problem.shape)
    # node positions in the table's flat frame: pos[b] - pos[a] + centre is the
    # flat index of offset b - a, since every offset fits the table
    pos = np.ravel_multi_index(grid_idx, table.shape)
    centre = np.ravel_multi_index(tuple(d // 2 for d in table.shape), table.shape)
    flat_table = table.ravel()
    mat = np.empty((pos.size, pos.size))
    for lo in range(0, pos.size, _ROW_BLOCK):
        rows = pos[lo:lo + _ROW_BLOCK]
        mat[lo:lo + _ROW_BLOCK] = flat_table[pos[None, :] - rows[:, None] + centre]
    return mat


def solve_steady(problem: BallProblem, sch: Optional[QuadratureScheme] = None,
                 theta: float = 0.8, max_iter: int = 200, tol: float = 1e-8,
                 matrix: Optional[np.ndarray] = None) -> Solution:
    """Damped Picard iteration u <- u + theta A^{-1} (f(u) - A u).

    One factorization is reused across iterations.  With theta = 1 and a
    constant right-hand side the first iterate is already the solution.
    Non-convergence, including a residual that overflows to a non-finite
    value, returns the best iterate with converged=False; positivity_ok
    refers to that returned iterate.
    """
    if not 0.0 < theta <= 1.0:
        raise DomainValidationError("damping theta must lie in (0, 1]")
    sch = sch or QuadratureScheme()
    A = assemble_dirichlet_matrix(problem, sch) if matrix is None else matrix
    try:
        lu = scipy.linalg.lu_factor(A)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SingularMatrixError(f"collocation matrix factorization failed: {exc}") from exc
    if not np.all(np.isfinite(lu[0])):
        raise SingularMatrixError("collocation matrix factorization produced non-finite factors")

    n_int = A.shape[0]
    u = np.zeros(n_int)
    best_u, best_res = u.copy(), math.inf
    iterations = 0
    # a diverging iteration overflows; the non-finite residual ends it quietly
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, max_iter + 1):
            rhs = problem.f.eval_extended(u)
            residual = rhs - A @ u
            res_inf = float(np.max(np.abs(residual))) if n_int else 0.0
            if res_inf < best_res:
                best_res, best_u = res_inf, u.copy()
            if res_inf <= tol or not math.isfinite(res_inf):
                break
            u = u + theta * scipy.linalg.lu_solve(lu, residual)
        rhs = problem.f.eval_extended(u)
        res_inf = float(np.max(np.abs(rhs - A @ u))) if n_int else 0.0
    if res_inf < best_res:
        best_res, best_u = res_inf, u
    converged = best_res <= tol
    return Solution(
        values=best_u,
        residual_inf=best_res,
        iterations=iterations,
        converged=converged,
        positivity_ok=bool(np.all(best_u >= 0.0)),
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
    (useful as a cheap discretization-error estimate on large grids).
    """
    full = solution.full_values(problem)
    g = interpolant_field(problem, full)
    h = problem.h
    n = problem.p.n
    interior = np.flatnonzero(problem.interior_mask())
    rows = np.arange(len(interior)) if node_subset is None else np.asarray(node_subset, int)
    nodes = problem.nodes()
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

    sch_local = replace(sch, r_min=(0.5 * h) ** 2)
    out = np.zeros(len(rows))
    for pos, row in enumerate(rows):
        flat_idx = interior[row]
        ov = fractional_laplacian_pointwise(g, nodes[flat_idx], problem.p, sch_local,
                                            breakpoints=breaks, curvature=float(curv[flat_idx]))
        out[pos] = abs(ov.value - rhs[row])
    return out
