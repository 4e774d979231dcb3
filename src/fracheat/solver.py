"""Collocation solver for the steady Dirichlet problem in the unit ball.

A time-independent u with (-Laplacian)^s u = f(u) in the ball and u = 0
outside solves the space-time problem for every t (the operator reduces to
the fractional Laplacian on time-independent fields), so the radial
symmetry and monotonicity statements can be exercised without a space-time
history discretization.

Discretization: uniform symmetric grid on [-1, 1]^n (odd point count, so
the origin is a node), nodal values interpolated piecewise-multilinearly,
zero at and outside the unit sphere.  Row i of the collocation matrix is
the operator of that interpolant at node i:

* n = 1: the paired integrand is piecewise linear between grid radii, so
  every cell integrates in closed form against the kernel moments; the
  singular cell (0, h/2) uses a second-order Taylor model with the nodal
  second difference, and the zero exterior beyond radius 2 contributes its
  exact far-field integral.  Coefficients depend on |i - j| only, so the
  matrix is symmetric under every grid reflection by construction.
* n = 2: offset-lattice midpoint weights, with the kernel integrated
  exactly (tensor Gauss) over the cells nearest the singularity, the same
  square-cell Taylor model at the center, and an exact annulus tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .core import FracParams, integrated_kernel_constant
from .errors import DomainValidationError, GridCoarseError, SingularMatrixError
from .fields import SpaceField, ZERO_BALL
from .quadrature import QuadratureScheme, fractional_laplacian_pointwise

_GL12 = np.polynomial.legendre.leggauss(12)


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

    def nodes(self) -> np.ndarray:
        """All grid nodes, shape (K^n, n)."""
        ax = self.axis
        if self.p.n == 1:
            return ax.reshape(-1, 1)
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        return np.stack([X.ravel(), Y.ravel()], axis=-1)

    def interior_mask(self) -> np.ndarray:
        pts = self.nodes()
        return np.einsum("ij,ij->i", pts, pts) < 1.0 - 1e-12

    def interior_nodes(self) -> np.ndarray:
        return self.nodes()[self.interior_mask()]


@dataclass(frozen=True)
class Solution:
    values: np.ndarray
    residual_inf: float
    iterations: int
    converged: bool
    positivity_ok: bool
    hypothesis_ok: bool

    def full_values(self, problem: BallProblem) -> np.ndarray:
        """Values on the whole grid (exterior nodes zero), shaped per axis."""
        mask = problem.interior_mask()
        flat = np.zeros(mask.size)
        flat[mask] = self.values
        if problem.p.n == 1:
            return flat
        K = problem.points_per_axis
        return flat.reshape(K, K)


def _moments_1d(a: np.ndarray, b: np.ndarray, s: float, A: float):
    """Closed forms of Int_a^b A z^{-1-2s} dz and Int_a^b A z^{-2s} dz."""
    m0 = A * (a ** (-2.0 * s) - b ** (-2.0 * s)) / (2.0 * s)
    if abs(s - 0.5) < 1e-14:
        m1 = A * np.log(b / a)
    else:
        m1 = A * (b ** (1.0 - 2.0 * s) - a ** (1.0 - 2.0 * s)) / (1.0 - 2.0 * s)
    return m0, m1


def _assemble_1d(problem: BallProblem, sch: QuadratureScheme) -> np.ndarray:
    s = problem.p.s
    A = integrated_kernel_constant(problem.p)
    K = problem.points_per_axis
    h = problem.h

    cell_est = A * (0.5 * h) ** (4.0 - 2.0 * s) / ((4.0 - 2.0 * s) * h * h)
    if cell_est > sch.target_tol:
        raise GridCoarseError(
            f"near-diagonal cell error estimate {cell_est:.2e} exceeds tolerance; refine the grid"
        )

    # coefficient per offset k: row value of the operator on the hat basis
    n_cells = K - 1  # cells [k h, (k+1) h] out to radius 2
    coef = np.zeros(K + 1)

    taylor = A * (0.5 * h) ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s) / (h * h)
    coef[0] += 2.0 * taylor
    coef[1] -= taylor

    m0h, m1h = _moments_1d(np.array([0.5 * h]), np.array([h]), s, A)
    coef[0] += 2.0 * m1h[0] / h
    coef[1] -= m1h[0] / h

    ks = np.arange(1, n_cells)
    m0, m1 = _moments_1d(ks * h, (ks + 1) * h, s, A)
    beta = ((ks + 1) * h * m0 - m1) / h
    gamma = (m1 - ks * h * m0) / h
    coef[0] += 2.0 * float(np.sum(m0))
    np.add.at(coef, ks, -beta)
    np.add.at(coef, ks + 1, -gamma)

    coef[0] += 2.0 * A * 2.0 ** (-2.0 * s) / (2.0 * s)

    full = scipy.linalg.toeplitz(coef[:K])
    interior = problem.interior_mask()
    return full[np.ix_(interior, interior)]


def _square_cell_integral(s: float) -> float:
    """Int over the unit square [-1/2,1/2]^2 of |w|^{-2s} dw (1-D quadrature)."""
    gl_x, gl_w = _GL12
    theta = 0.125 * math.pi * (gl_x + 1.0)
    w = 0.125 * math.pi * gl_w
    vals = (2.0 * np.cos(theta)) ** (2.0 * s - 2.0) / (2.0 - 2.0 * s)
    return 8.0 * float(np.dot(w, vals))


def _offset_weights_2d(h: float, s: float, A: float, window: int) -> np.ndarray:
    """Integral of the kernel over each lattice cell in the offset window.

    Midpoint for distant cells, tensor Gauss over the cells within three
    spacings of the singularity; the center cell weight is zero here (it is
    handled by the Taylor model).
    """
    size = 2 * window + 1
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
    return W


def _assemble_2d(problem: BallProblem, sch: QuadratureScheme) -> np.ndarray:
    s = problem.p.s
    A = integrated_kernel_constant(problem.p)
    K = problem.points_per_axis
    h = problem.h

    cell_est = A * 2.0 * math.pi * (0.5 * h) ** (4.0 - 2.0 * s) / ((4.0 - 2.0 * s) * h * h)
    if cell_est > sch.target_tol:
        raise GridCoarseError(
            f"near-diagonal cell error estimate {cell_est:.2e} exceeds tolerance; refine the grid"
        )

    r_far = 4.0
    window = int(math.ceil(r_far / h))
    W = _offset_weights_2d(h, s, A, window)
    # keep only offsets inside the far radius; the annulus beyond is exact
    ii, jj = np.meshgrid(np.arange(-window, window + 1), np.arange(-window, window + 1),
                         indexing="ij")
    inside = (ii * ii + jj * jj) * h * h <= r_far * r_far
    W = np.where(inside, W, 0.0)
    w_total = float(np.sum(W))
    far_diag = A * 2.0 * math.pi * r_far ** (-2.0 * s) / (2.0 * s)

    taylor = A * _square_cell_integral(s) * h ** (2.0 - 2.0 * s) / 4.0 / (h * h)

    interior = problem.interior_mask()
    idx_of = -np.ones(K * K, dtype=int)
    idx_of[np.flatnonzero(interior)] = np.arange(int(interior.sum()))
    n_int = int(interior.sum())
    mat = np.zeros((n_int, n_int))

    int_flat = np.flatnonzero(interior)
    for row, flat in enumerate(int_flat):
        i, j = divmod(flat, K)
        mat[row, row] += w_total + far_diag + 4.0 * taylor
        # lattice neighbours within the window
        i_lo, i_hi = max(0, i - window), min(K - 1, i + window)
        j_lo, j_hi = max(0, j - window), min(K - 1, j + window)
        sub = W[i_lo - i + window:i_hi - i + window + 1,
                j_lo - j + window:j_hi - j + window + 1]
        block = (np.arange(i_lo, i_hi + 1)[:, None] * K + np.arange(j_lo, j_hi + 1)[None, :])
        cols = idx_of[block.ravel()]
        vals = sub.ravel()
        keep = cols >= 0
        np.subtract.at(mat[row], cols[keep], vals[keep])
        # Taylor neighbours (second-difference Laplacian stencil)
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            qi, qj = i + di, j + dj
            if 0 <= qi < K and 0 <= qj < K:
                c = idx_of[qi * K + qj]
                if c >= 0:
                    mat[row, c] -= taylor
    return mat


def assemble_dirichlet_matrix(problem: BallProblem, sch: QuadratureScheme) -> np.ndarray:
    """Dense collocation matrix of (-Laplacian)^s over the interior nodes."""
    if problem.p.n == 1:
        return _assemble_1d(problem, sch)
    return _assemble_2d(problem, sch)


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
    if problem.p.n == 1:
        vals = np.asarray(full_values, dtype=float)

        def g(X):
            return np.interp(X[:, 0], ax, vals, left=0.0, right=0.0)

        return SpaceField(g, n=1, exterior=ZERO_BALL, sup_bound=float(np.max(np.abs(vals)) or 1.0),
                          ball_radius=1.0, space_scale=problem.h)

    from scipy.interpolate import RegularGridInterpolator

    interp = RegularGridInterpolator((ax, ax), np.asarray(full_values, dtype=float),
                                     method="linear", bounds_error=False, fill_value=0.0)

    def g2(X):
        return interp(X)

    return SpaceField(g2, n=2, exterior=ZERO_BALL,
                      sup_bound=float(np.max(np.abs(full_values)) or 1.0),
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
    interior = np.flatnonzero(problem.interior_mask())
    rows = np.arange(len(interior)) if node_subset is None else np.asarray(node_subset, int)
    nodes = problem.nodes()
    K = problem.points_per_axis
    out = np.zeros(len(rows))
    rhs = problem.f.eval_extended(solution.values)
    flat = np.asarray(full, dtype=float).ravel()

    sch_local = QuadratureScheme(
        r_min=(0.5 * h) ** 2,
        r_max=sch.r_max,
        nodes_per_decade=sch.nodes_per_decade,
        hermite_order=sch.hermite_order,
        target_tol=sch.target_tol,
    )
    for pos, row in enumerate(rows):
        flat_idx = interior[row]
        x = nodes[flat_idx]
        if problem.p.n == 1:
            i = flat_idx
            curv = (flat[i + 1] + flat[i - 1] - 2.0 * flat[i]) / (h * h)
            breaks = (np.arange(1, K) * h).tolist()
        else:
            i, j = divmod(flat_idx, K)
            get = lambda a, b: flat[a * K + b] if 0 <= a < K and 0 <= b < K else 0.0
            curv = (get(i + 1, j) + get(i - 1, j) + get(i, j + 1) + get(i, j - 1)
                    - 4.0 * get(i, j)) / (h * h)
            breaks = None
        ov = fractional_laplacian_pointwise(g, x, problem.p, sch_local,
                                            breakpoints=breaks, curvature=curv)
        out[pos] = abs(ov.value - rhs[row])
    return out
