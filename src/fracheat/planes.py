"""Moving-plane machinery as executable diagnostics.

Reflections across a hyperplane, the antisymmetric comparison field
w(x, t) = u(x^lambda, t) - u(x, t), narrow-region and unbounded-domain
maximum-principle probes, the antisymmetric folding identity of the
operator over a half-space, the explicit cutoff/bump constructions, and
the dilation scaling law sup |op(cutoff_r)| ~ r^{-2s}.

Planes used against grid data are restricted to half-grid offsets along a
coordinate axis, so reflection maps nodes to nodes and the sign checks on
w carry no interpolation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .core import FracParams, SpaceTimePoint, gamma_abs_neg, normalization_constant
from .errors import (
    AlignmentError,
    AntisymmetryError,
    DomainValidationError,
    OverlapError,
)
from .fields import SpaceField, SpaceTimeField, TimeField, mollifier, plateau_bump
from .quadrature import (
    QuadratureScheme,
    _capped_edges,
    _fd_heat,
    _refine_toward,
    _tensor_rule,
    marchaud_left,
    master_operator_pointwise,
)
from .solver import BallProblem

_GL8 = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class PlaneConfig:
    """Reflection hyperplane: points x with x . direction = lam."""

    direction: np.ndarray
    lam: float

    def __init__(self, direction, lam: float):
        d = np.atleast_1d(np.asarray(direction, dtype=float))
        if abs(np.linalg.norm(d) - 1.0) > 1e-12:
            raise DomainValidationError("plane direction must be a unit vector")
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "lam", float(lam))

    def axis(self) -> tuple[int, float]:
        """(axis index, sign) when the direction is a coordinate axis."""
        d = self.direction
        for i in range(len(d)):
            if abs(abs(d[i]) - 1.0) <= 1e-12:
                return i, math.copysign(1.0, d[i])
        raise AlignmentError("plane direction must be a grid axis for grid diagnostics")


def reflect(x, cfg: PlaneConfig) -> np.ndarray:
    """Mirror image across the plane: x + 2 (lam - x . e) e; an involution."""
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    proj = pts @ cfg.direction
    out = pts + 2.0 * (cfg.lam - proj)[:, None] * cfg.direction[None, :]
    return out[0] if single else out


@dataclass(frozen=True)
class ReflectionData:
    """w = u(x^lambda) - u(x) on the grid nodes left of the plane."""

    node_coords: np.ndarray
    w_values: np.ndarray
    lam: float
    direction: np.ndarray
    h: float


def w_lambda_field(problem: BallProblem, full_values: np.ndarray,
                   cfg: PlaneConfig) -> ReflectionData:
    """Comparison field on Sigma_lambda; exact antisymmetry by construction.

    Requires lam at a half-grid offset so every node reflects onto a node;
    reflections landing outside the ball read the exterior zero.
    """
    axis_idx, sign = cfg.axis()
    h = problem.h
    ratio = 2.0 * cfg.lam / h
    if abs(ratio - round(ratio)) > 1e-9:
        raise AlignmentError(
            f"lambda={cfg.lam} is not reflection-compatible with spacing h={h}"
        )
    nodes = problem.nodes()
    vals = np.asarray(full_values, dtype=float).ravel()
    if vals.size != nodes.shape[0]:
        raise DomainValidationError("full_values must cover the whole grid")

    sel = np.flatnonzero(sign * nodes[:, axis_idx] < cfg.lam - 1e-12)
    if sel.size == 0:
        # lam at or beyond the grid's edge: Sigma_lambda holds no node
        return ReflectionData(nodes[sel], np.zeros(0), cfg.lam, cfg.direction, h)
    refl = reflect(nodes[sel], cfg)
    ax = problem.axis
    idx = np.rint((refl - ax[0]) / h).astype(int)
    if np.max(np.abs(refl - (ax[0] + idx * h))) > 1e-9:
        raise AlignmentError("reflected nodes do not land on the grid")

    # reflections beyond the unit ball read the exterior zero; those are
    # also the only ones that can leave the grid, whose indices are clipped
    flat = np.ravel_multi_index(tuple(idx.T), problem.shape, mode="clip")
    w = np.where(problem.inside(refl), vals[flat], 0.0) - vals[sel]
    return ReflectionData(nodes[sel], w, cfg.lam, cfg.direction, h)


@dataclass(frozen=True)
class LambdaRecord:
    lam: float
    min_w: float
    argmin: tuple
    strict_positive_interior: bool
    passed: bool


@dataclass(frozen=True)
class MovingPlaneReport:
    records: tuple
    lambda_star: float
    tol_geom: float
    direction: tuple
    passed: bool


def snap_lambda(lam: float, h: float) -> float:
    """Nearest reflection-compatible plane offset (multiple of h/2)."""
    return round(2.0 * lam / h) * h / 2.0


def narrow_region_check(problem: BallProblem, full_values: np.ndarray,
                        lambda_list: Sequence[float],
                        direction=None, tol_geom: float = 1e-8) -> MovingPlaneReport:
    """Minimum of w_lambda per plane and the furthest admissible position.

    A plane passes when min w >= -tol_geom; lambda_star is the largest
    tested lambda all of whose predecessors (and itself) pass, mirroring
    the sup definition in the moving-plane argument.  The symmetric
    configuration passes every lambda and lambda_star reaches -h.
    """
    n = problem.p.n
    e = np.zeros(n)
    e[0] = 1.0
    if direction is not None:
        e = np.atleast_1d(np.asarray(direction, dtype=float))
    lams = sorted(float(l) for l in lambda_list)
    records = []
    for lam in lams:
        cfg = PlaneConfig(e, lam)
        data = w_lambda_field(problem, full_values, cfg)
        if data.w_values.size == 0:
            records.append(LambdaRecord(lam, 0.0, (), True, True))
            continue
        i_min = int(np.argmin(data.w_values))
        min_w = float(data.w_values[i_min])
        interior = problem.inside(data.node_coords)
        strict = bool(np.all(data.w_values[interior] > 0.0)) if np.any(interior) else True
        records.append(LambdaRecord(
            lam, min_w, tuple(data.node_coords[i_min]), strict, min_w >= -tol_geom
        ))
    lambda_star = -1.0
    for rec in records:
        if rec.passed:
            lambda_star = rec.lam
        else:
            break
    passed = bool(records) and all(r.passed for r in records) \
        and lambda_star >= -problem.h - 1e-12
    return MovingPlaneReport(tuple(records), lambda_star, tol_geom, tuple(e), passed)


@dataclass(frozen=True)
class SymmetryReport:
    symmetry_defect: float
    monotonicity_violations: int


def symmetry_and_monotonicity_report(problem: BallProblem, full_values: np.ndarray,
                                     tol_geom: float = 1e-8) -> SymmetryReport:
    """Orbit spread under the grid's reflection group, and radial-ray dips.

    symmetry_defect: max over node orbits (coordinate sign flips and
    permutations) of max - min of u on the orbit.  monotonicity_violations:
    adjacent same-ray pairs with u(r1) <= u(r2) - tol_geom for r1 < r2.
    """
    m = (problem.points_per_axis - 1) // 2
    vals = np.asarray(full_values, dtype=float).ravel()
    n = problem.p.n

    orbits: dict = {}
    nodes_idx = np.indices(problem.shape).reshape(n, -1).T - m
    for flat, centered in enumerate(nodes_idx):
        key = tuple(sorted(abs(int(c)) for c in centered))
        orbits.setdefault(key, []).append(vals[flat])
    defect = max(max(v) - min(v) for v in orbits.values())

    rays: dict = {}
    for flat, centered in enumerate(nodes_idx):
        c = tuple(int(v) for v in centered)
        if all(v == 0 for v in c):
            continue
        g = math.gcd(*c)
        prim = tuple(v // g for v in c)
        rays.setdefault(prim, []).append((g, vals[flat]))
    violations = 0
    for seq in rays.values():
        seq.sort()
        for (r1, v1), (r2, v2) in zip(seq[:-1], seq[1:]):
            if v1 <= v2 - tol_geom:
                violations += 1
    return SymmetryReport(float(defect), int(violations))


# ---------------------------------------------------------------------------
# antisymmetric folding of the operator over a half-space


@dataclass(frozen=True)
class FoldResidual:
    residual: float
    whole_space: float
    folded: float
    combined_tol: float

    def __float__(self) -> float:
        return self.residual


def _check_antisymmetry(w: SpaceTimeField, cfg: PlaneConfig) -> None:
    rng = np.random.default_rng(1234)
    pts = rng.uniform(-2.0, 2.0, size=(64, w.n))
    ts = rng.uniform(-1.0, 1.0, size=64)
    total = w.eval(pts, ts) + w.eval(reflect(pts, cfg), ts)
    if float(np.max(np.abs(total))) > 1e-10:
        raise AntisymmetryError("field is not antisymmetric about the plane")


def _fold_panel_edges(lo: float, hi: float, centers: Sequence[float], sigma: float,
                      feature: float) -> np.ndarray:
    """Panel edges over [lo, hi] graded around kernel centers.

    Panels are capped at the field feature scale and refined toward each
    kernel peak so both the Gaussian (width sigma) and the field stay
    resolved at every lag.
    """
    count = int(math.ceil((hi - lo) / feature))
    edges = np.linspace(lo, hi, min(count, 160) + 1)
    return _refine_toward(edges, lo, hi, centers, sigma * np.arange(1, 9))


def antisymmetric_fold_residual(w: SpaceTimeField, cfg: PlaneConfig, q: SpaceTimePoint,
                                p: FracParams, sch: QuadratureScheme) -> FoldResidual:
    """Whole-space value versus the half-space folded form; exact algebra.

    Folding reflects the integral over the complement of Sigma_lambda back
    onto Sigma_lambda: every kernel pairing (w(q) - w(y)) K(q - y) gains the
    partner (w(q) + w(y)) K(q - y^lambda).  The two sides are computed by
    independent quadratures, so the residual is a pure quadrature
    discrepancy and must stay below the combined tolerance.
    """
    _check_antisymmetry(w, cfg)
    axis_idx, sign = cfg.axis()
    if w.n > 2:
        raise DomainValidationError("fold residual supports n in {1, 2}")
    x, t = q.x, q.t
    if sign * x[axis_idx] >= cfg.lam:
        raise DomainValidationError("evaluation point must lie strictly inside Sigma_lambda")

    whole = master_operator_pointwise(w, q, p, sch)

    s = p.s
    gam = gamma_abs_neg(s)
    c_ns = normalization_constant(p)
    w_q = w.at(x, t)

    r_cut = sch.r_max
    if w.t_support is not None:
        r_cut = min(r_cut, max(t - w.t_support[0], 4.0 * sch.r_min))
    edges = _capped_edges(sch.r_min, r_cut, sch.nodes_per_decade)
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)

    zn, wn = hermgauss(sch.hermite_order)
    gl_x, gl_w = _GL8

    feature = w.space_scale if math.isfinite(w.space_scale) else 1.0
    q_par = sign * x[axis_idx]  # coordinate of q along the plane normal
    q_refl = 2.0 * cfg.lam - q_par

    total = 0.0
    for r, dw in zip(mids, widths):
        sigma = 2.0 * math.sqrt(r)
        lo = min(q_par - 8.0 * sigma, cfg.lam - 8.0 * sigma)
        edges_y = _fold_panel_edges(lo, cfg.lam, [q_par, q_refl], sigma, feature)
        y_mid = 0.5 * (edges_y[:-1] + edges_y[1:])
        y_half = 0.5 * np.diff(edges_y)
        y1 = (y_mid[:, None] + y_half[:, None] * gl_x[None, :]).ravel()
        wy = (y_half[:, None] * gl_w[None, :]).ravel()

        axes_nodes, axes_weights = [y1], [wy]
        if w.n == 2:
            # the free axis carries a plain Gaussian factor: Hermite nodes
            # y2 = x2 + sigma * z with weight sigma * wn absorb it exactly
            axes_nodes.append(x[1 - axis_idx] + sigma * zn)
            axes_weights.append(wn * sigma)
        rule, wts = _tensor_rule(axes_nodes, axes_weights)
        y_par = rule[:, 0]
        # rule columns are (normal, free); place them on the coordinate axes
        pts = np.empty_like(rule)
        pts[:, axis_idx] = sign * y_par
        if w.n == 2:
            pts[:, 1 - axis_idx] = rule[:, 1]

        vals = w.eval(pts, np.full(pts.shape[0], t - r))
        k_dir = np.exp(-((q_par - y_par) ** 2) / (4.0 * r))
        k_ref = np.exp(-((q_par - (2.0 * cfg.lam - y_par)) ** 2) / (4.0 * r))
        integrand = (w_q - vals) * k_dir + (w_q + vals) * k_ref
        total += dw * r ** (-(p.n / 2.0 + 1.0 + s)) * float(np.dot(wts, integrand))

    folded = c_ns * total
    # inner lag piece and exact tail, shared with the whole-space form
    heat = _fd_heat(w, x, t)
    folded += heat * sch.r_min ** (1.0 - s) / ((1.0 - s) * gam)
    folded += w_q * r_cut ** (-s) / (s * gam)

    combined = 2.0 * whole.est_error
    return FoldResidual(abs(whole.value - folded), whole.value, folded, combined)


# ---------------------------------------------------------------------------
# explicit cutoff and bump constructions


def build_cutoff_eta(t_k: float, r: float) -> TimeField:
    """Smooth time bump: 1 on the inner half-window, supported in (t_k - r^2, t_k + r^2)."""
    if r <= 0:
        raise DomainValidationError("cutoff radius must be positive")
    r_sq = r * r

    def h(t):
        return plateau_bump((np.asarray(t, dtype=float) - t_k) / r_sq)

    return TimeField(h, sup_bound=1.0, support=(t_k - r_sq, t_k + r_sq))


def build_antisym_bump(x_k, r_k: float, cfg: PlaneConfig) -> SpaceField:
    """Phi(x) = phi(2(x - x_k)/r_k) - phi(2(x^lambda - x_k)/r_k): antisymmetric pair.

    The two lobes sit in disjoint balls of radius r_k/2 around x_k and its
    mirror image; the construction needs dist(x_k, plane) >= r_k.
    """
    x_k = np.atleast_1d(np.asarray(x_k, dtype=float))
    if r_k <= 0:
        raise DomainValidationError("bump radius must be positive")
    dist = abs(float(x_k @ cfg.direction) - cfg.lam)
    if dist < r_k:
        raise OverlapError(
            f"bump at distance {dist:.3g} from the plane overlaps its mirror (needs >= {r_k:.3g})"
        )
    n = len(x_k)
    x_k_ref = reflect(x_k, cfg)

    def g(X):
        return mollifier(2.0 * (X - x_k) / r_k) - mollifier(2.0 * (X - x_k_ref) / r_k)

    lo = np.minimum(x_k, x_k_ref) - 0.5 * r_k
    hi = np.maximum(x_k, x_k_ref) + 0.5 * r_k
    return SpaceField(g, n=n, sup_bound=1.0, space_scale=r_k / 4.0,
                      space_support=(lo, hi))


def spacetime_cutoff(r: float, n: int) -> SpaceTimeField:
    """Product bump supported in B_r x (-r^2, r^2): the dilation family of the scaling law."""
    if r <= 0:
        raise DomainValidationError("cutoff radius must be positive")

    def f(X, t):
        return mollifier(X / r) * plateau_bump(t / (r * r))

    half = np.full(n, r)
    return SpaceTimeField(
        func=f, n=n, sup_bound=1.0, space_support=(-half, half),
        space_scale=r / 4.0, t_support=(-r * r, r * r),
    )


@dataclass(frozen=True)
class ScalingFit:
    kind: str
    r_values: tuple
    sup_values: tuple
    slope: float
    intercept: float


def verify_lemma_scaling(kind: str, r_list: Sequence[float], s: float, p: FracParams,
                         sch: Optional[QuadratureScheme] = None) -> ScalingFit:
    """Fit log sup|op(cutoff_r)| against log r; the dilation law gives slope -2s.

    kind "time-cutoff" drives the Marchaud derivative on the plateau bump
    of width r^2; "spacetime-cutoff" drives the full operator on the
    product bump over B_r x (-r^2, r^2).  Sample points ride the dilation
    (fixed in scaled coordinates), so the scaling is exact up to quadrature.
    """
    rs = sorted(float(r) for r in r_list)
    if len(rs) < 4 or len(np.unique(rs)) < 4:
        raise DomainValidationError("need at least four distinct radii")
    # one decade nominally; 8x admits the canonical 0.5-1-2-4 doubling list
    if rs[-1] / rs[0] < 8.0 - 1e-9:
        raise DomainValidationError("radii must span close to a decade (factor >= 8)")
    sch = sch or QuadratureScheme()
    sups = []
    if kind == "time-cutoff":
        t_hat = np.linspace(-0.9, 0.9, 13)
        for r in rs:
            eta = build_cutoff_eta(0.0, r)
            vals = [abs(marchaud_left(eta, float(r * r * th), s, sch).value) for th in t_hat]
            sups.append(max(vals))
    elif kind == "spacetime-cutoff":
        params = FracParams(p.n, s)
        x_hat = [0.0, 0.35, 0.7]
        t_hat = [0.0, 0.6]
        for r in rs:
            bump = spacetime_cutoff(r, p.n)
            vals = []
            for xh in x_hat:
                for th in t_hat:
                    x = np.zeros(p.n)
                    x[0] = xh * r
                    q = SpaceTimePoint(x, th * r * r)
                    vals.append(abs(master_operator_pointwise(bump, q, params, sch).value))
            sups.append(max(vals))
    else:
        raise DomainValidationError("kind must be 'time-cutoff' or 'spacetime-cutoff'")
    if min(sups) <= 0.0:
        raise DomainValidationError("sample suprema vanished; below quadrature noise floor")
    slope, intercept = np.polyfit(np.log(rs), np.log(sups), 1)
    return ScalingFit(kind, tuple(rs), tuple(sups), float(slope), float(intercept))


# ---------------------------------------------------------------------------
# falsification probe for the unbounded-domain maximum principle


@dataclass(frozen=True)
class ProbeReport:
    hypothesis_points: tuple
    op_values: tuple
    hypothesis_violations: int
    max_w: float
    tol: float
    counterexample_candidate: bool


def _approx_positive_max(w: SpaceTimeField, cfg: PlaneConfig):
    """Approximate argmax of w over Sigma_lambda on a deterministic lattice.

    The discriminating point of the principle is the positive maximum: the
    folded kernel form makes the operator strictly positive there, so the
    probe must evaluate near it rather than rely on caller samples alone.
    """
    axis_idx, sign = cfg.axis()
    n = w.n
    if w.space_support is not None:
        lo, hi = (np.asarray(a, dtype=float) for a in w.space_support)
    else:
        lo, hi = np.full(n, -4.0), np.full(n, 4.0)
    t_lo, t_hi = w.t_support if w.t_support is not None else (-2.0, 2.0)
    axes = []
    for i in range(n):
        if i == axis_idx:
            edge = cfg.lam - 0.02 * max(1.0, abs(cfg.lam))
            far = min(sign * lo[i] if sign > 0 else sign * hi[i], edge - 6.0)
            axes.append(sign * np.linspace(far, edge, 41))
        else:
            axes.append(np.linspace(lo[i], hi[i], 21))
    axes.append(np.linspace(t_lo, t_hi, 21))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh[:-1]], axis=-1)
    ts = mesh[-1].ravel()
    vals = w.eval(pts, ts)
    i_best = int(np.argmax(vals))
    return pts[i_best], float(ts[i_best]), float(vals[i_best])


def unbounded_mp_probe(w: SpaceTimeField, cfg: PlaneConfig, sample_points,
                       p: FracParams, sch: QuadratureScheme,
                       tol: Optional[float] = None) -> ProbeReport:
    """Falsification probe: look for w > 0 with op(w) <= tol everywhere sampled.

    The principle predicts no such instance exists for antisymmetric
    bounded w.  The probe evaluates the operator at the sampled points
    where w > 0, always adding the approximate positive maximum located on
    an internal lattice (the operator is provably positive there when the
    instance is consistent); if every evaluated point satisfies
    op(w) <= tol while max w > 10 tol, the instance is flagged for manual
    review as a counterexample candidate.
    """
    _check_antisymmetry(w, cfg)
    pts = [(np.atleast_1d(np.asarray(xq, dtype=float)), float(tq)) for xq, tq in sample_points]
    if not pts:
        raise DomainValidationError("need at least one sample point")
    x_best, t_best, v_best = _approx_positive_max(w, cfg)
    if v_best > 0.0:
        pts.append((x_best, t_best))
    w_vals = np.array([w.at(x, t) for x, t in pts])
    max_w = float(np.max(w_vals))
    positive = [i for i, v in enumerate(w_vals) if v > 0.0]
    if positive:
        i_top = int(np.argmax(w_vals))
        if i_top not in positive:
            positive.append(i_top)
    ops, ests = [], []
    for i in positive:
        x, t = pts[i]
        ov = master_operator_pointwise(w, SpaceTimePoint(x, t), p, sch)
        ops.append(ov.value)
        ests.append(ov.est_error)
    if tol is None:
        tol = max(ests) if ests else 1e-8
    violations = sum(1 for v in ops if v > tol)
    candidate = bool(positive) and violations == 0 and max_w > 10.0 * tol
    return ProbeReport(
        hypothesis_points=tuple((tuple(pts[i][0]), pts[i][1]) for i in positive),
        op_values=tuple(ops),
        hypothesis_violations=violations,
        max_w=max_w,
        tol=float(tol),
        counterexample_candidate=candidate,
    )
