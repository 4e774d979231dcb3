"""Moving-plane machinery as executable diagnostics.

Reflections across a hyperplane, the antisymmetric comparison field
w(x, t) = u(x^lambda, t) - u(x, t), narrow-region and unbounded-domain
maximum-principle probes, the check of the antisymmetric folding
identity of the operator over a half-space (``quadrature`` holds its
averages and passes; this module checks w and the plane and reports the
residual), the explicit cutoff/bump constructions, and the dilation
scaling law sup |op(cutoff_r)| ~ r^{-2s}.

Planes used against grid data lie along a coordinate axis at lam = m h / 2,
m an integer.  On the grid's integer offsets (``BallProblem.offsets``) the
reflection is the index map c -> m - c of the offset c along the normal, so
the sign checks on w carry no interpolation error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import FracParams, SpaceTimePoint, as_real, as_reals
from .errors import (
    AlignmentError,
    AntisymmetryError,
    DomainValidationError,
    OverlapError,
)
from .fields import SpaceField, SpaceTimeField, TimeField, mollifier, plateau_bump
from .quadrature import QuadratureScheme, _fold_passes, marchaud_left, master_operator_pointwise
from .solver import BallProblem


@dataclass(frozen=True)
class PlaneConfig:
    """Reflection hyperplane: points x with x . direction = lam."""

    direction: np.ndarray
    lam: float

    def __init__(self, direction, lam: float):
        d = as_reals(direction, "direction")
        if abs(np.linalg.norm(d) - 1.0) > 1e-12:
            raise DomainValidationError("plane direction must be a unit vector")
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "lam", as_real(lam, "lam"))

    def axis(self) -> tuple[int, float]:
        """(axis index, sign) when the direction is a coordinate axis."""
        d = self.direction
        for i in range(len(d)):
            if abs(abs(d[i]) - 1.0) <= 1e-12:
                return i, math.copysign(1.0, d[i])
        raise AlignmentError("plane direction must be a grid axis for grid diagnostics")


def reflect(x, cfg: PlaneConfig) -> np.ndarray:
    """Mirror image across the plane: x + 2 (lam - x . e) e; an involution.

    The result has the memory layout of ``x``, and every row has the bits it
    has alone: x . e sums x_k e_k one nonzero component at a time, with no
    matrix product.  For an axis direction e = +-e_i no product by +-1 is
    formed, since it is exact: step = 2 (lam -+ x_i) and the normal column
    is x_i +- step.  Each free column stays x_k + step e_k, whose product by
    (signed) zero carries the sign of step into a zero x_k.
    """
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    e = cfg.direction
    axis = np.flatnonzero(e)
    i = axis[0] if axis.size == 1 and abs(e[axis[0]]) == 1.0 else None
    if i is not None:
        step = (np.subtract if e[i] > 0 else np.add)(cfg.lam, pts[:, i])
    else:
        step = pts[:, axis[0]] * e[axis[0]]
        for k in axis[1:]:
            step += pts[:, k] * e[k]
        np.subtract(cfg.lam, step, out=step)
    step *= 2.0
    # column by column, straight into the result
    out = np.empty_like(pts)
    for k, e_k in enumerate(e):
        if k != i:
            np.multiply(step, e_k, out=out[:, k])
            out[:, k] += pts[:, k]
    if i is not None:
        (np.add if e[i] > 0 else np.subtract)(pts[:, i], step, out=out[:, i])
    return out[0] if single else out


@dataclass(frozen=True)
class ReflectionData:
    """w = u(x^lambda) - u(x) on the grid nodes left of the plane."""

    node_coords: np.ndarray
    w_values: np.ndarray
    lam: float
    direction: np.ndarray
    h: float


def _grid_values(problem: BallProblem, full_values: np.ndarray) -> np.ndarray:
    """``full_values`` flattened in ``nodes()`` order, which must be one value per grid node."""
    vals = np.asarray(full_values, dtype=float).ravel()
    if vals.size != problem.points_per_axis ** problem.p.n:
        raise DomainValidationError(f"full_values needs one value per grid node, got {vals.size}")
    return vals


def _grid_frame(problem: BallProblem, full_values: np.ndarray) -> tuple:
    """``(values, offsets, nodes, inside)`` over the whole grid: what every plane's w reads."""
    vals = _grid_values(problem, full_values)
    nodes = problem.nodes()
    return vals, problem.offsets(), nodes, problem.inside(nodes)


def w_lambda_field(problem: BallProblem, full_values: np.ndarray,
                   cfg: PlaneConfig) -> ReflectionData:
    """Comparison field on Sigma_lambda; exact antisymmetry by construction.

    Requires lam = m h / 2 for an integer m.  With c a node's signed offset
    along the plane normal, Sigma_lambda holds the nodes with 2c < m and the
    reflection maps c to m - c.  A mirror beyond the grid is clipped to an
    edge node; edge nodes lie outside the ball, so every mirror outside it
    reads the exterior zero.
    """
    return _w_lambda(problem, _grid_frame(problem, full_values), cfg)


def _w_lambda(problem: BallProblem, frame: tuple, cfg: PlaneConfig) -> ReflectionData:
    """``w_lambda_field`` on a ``_grid_frame``, which a sweep over planes builds once."""
    axis_idx, sign = cfg.axis()
    if len(cfg.direction) != problem.p.n:
        raise DomainValidationError(f"plane direction needs {problem.p.n} components on this grid")
    h = problem.h
    ratio = 2.0 * cfg.lam / h
    if abs(ratio - round(ratio)) > 1e-9:
        raise AlignmentError(
            f"lambda={cfg.lam} is not reflection-compatible with spacing h={h}"
        )
    vals, off, nodes, inside = frame
    m, sgn = round(ratio), int(sign)
    c = sgn * off[:, axis_idx]
    sel = np.flatnonzero(2 * c < m)
    mirror = off[sel] + problem.points_per_axis // 2
    mirror[:, axis_idx] += sgn * (m - 2 * c[sel])
    flat = np.ravel_multi_index(tuple(mirror.T), problem.shape, mode="clip")
    w = np.where(inside[flat], vals[flat], 0.0) - vals[sel]
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
    e = np.eye(problem.p.n)[0] if direction is None else np.atleast_1d(np.asarray(direction, float))
    lams = sorted(float(l) for l in lambda_list)
    frame = _grid_frame(problem, full_values)
    records = []
    for lam in lams:
        cfg = PlaneConfig(e, lam)
        data = _w_lambda(problem, frame, cfg)
        if data.w_values.size == 0:
            records.append(LambdaRecord(lam, 0.0, (), True, True))
            continue
        i_min = int(np.argmin(data.w_values))
        min_w = float(data.w_values[i_min])
        interior = problem.inside(data.node_coords)
        strict = bool(np.all(data.w_values[interior] > 0.0))
        records.append(LambdaRecord(
            lam, min_w, tuple(data.node_coords[i_min]), strict, min_w >= -tol_geom
        ))
    passing = list(itertools.takewhile(lambda r: r.passed, records))
    lambda_star = passing[-1].lam if passing else -1.0
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

    symmetry_defect: max over the 2^n n! grid symmetries g (axis
    permutations and flips) of max |u - g u|, taken as the max over the
    orbits of ``BallProblem.orbits()`` of max - min of u on the orbit;
    NaN data gives NaN.
    monotonicity_violations: nodes g p on a ray (p primitive, g >= 2 the
    gcd of the node's |offset|) with u((g - 1) p) <= u(g p) - tol_geom.
    """
    u = _grid_values(problem, full_values)
    orbit = problem.orbits()
    top, bottom = u.copy(), u.copy()  # orbit max and min at each representative, u elsewhere
    with np.errstate(invalid="ignore"):  # NaN propagates into the defect
        np.maximum.at(top, orbit, u)
        np.minimum.at(bottom, orbit, u)
    defect = np.max(top - bottom)

    off = problem.offsets()
    g = np.gcd.reduce(np.abs(off), axis=1)
    later = np.flatnonzero(g >= 2)
    prev = off[later] - off[later] // g[later, None]
    prev_flat = np.ravel_multi_index(tuple((prev + problem.points_per_axis // 2).T), problem.shape)
    violations = np.count_nonzero(u[prev_flat] <= u[later] - tol_geom)
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
    pts = np.asfortranarray(rng.uniform(-2.0, 2.0, size=(64, w.n)))
    ts = rng.uniform(-1.0, 1.0, size=64)
    total = w.eval(pts, ts) + w.eval(reflect(pts, cfg), ts)
    if float(np.max(np.abs(total))) > 1e-10:
        raise AntisymmetryError("field is not antisymmetric about the plane")


def antisymmetric_fold_residual(w: SpaceTimeField, cfg: PlaneConfig, q: SpaceTimePoint,
                                p: FracParams, sch: QuadratureScheme) -> FoldResidual:
    """Whole-space value versus the half-space folded form of the operator.

    Checks that w is antisymmetric about the plane, that the plane is a
    coordinate axis, that n is 1 or 2 and that q lies strictly inside
    Sigma_lambda.  Folding reflects the integral over the complement of
    Sigma_lambda back onto it, and only the Gaussian average differs between
    the two forms; ``quadrature._fold_passes`` computes both over one lag rule.

    ``whole_space`` is ``master_operator_pointwise(w, q, p, sch).value``.
    ``folded`` is folded_coarse + (whole_space - whole_coarse): the folded
    coarse pass put on the footing of ``whole_space``.  So ``residual`` =
    |whole_space - folded| is |whole_coarse - folded_coarse| up to rounding,
    with the lag discretisation cancelled; ``combined_tol`` is twice the
    whole-space ``est_error``.
    """
    _check_antisymmetry(w, cfg)
    axis_idx, sign = cfg.axis()
    if w.n > 2:
        raise DomainValidationError("fold residual supports n in {1, 2}")
    if sign * q.x[axis_idx] >= cfg.lam:
        raise DomainValidationError("evaluation point must lie strictly inside Sigma_lambda")
    whole, whole_coarse, folded_coarse = _fold_passes(w, axis_idx, sign, cfg.lam, q, p, sch)
    folded = folded_coarse + (whole.value - whole_coarse)
    return FoldResidual(abs(whole.value - folded), whole.value, folded, 2.0 * whole.est_error)


# ---------------------------------------------------------------------------
# explicit cutoff and bump constructions


def build_cutoff_eta(t_k: float, r: float) -> TimeField:
    """Smooth time bump: 1 on the inner half-window, supported in (t_k - r^2, t_k + r^2)."""
    r = as_real(r, "r")
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
    x_k, r_k = np.atleast_1d(np.asarray(x_k, dtype=float)), as_real(r_k, "r_k")
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
    r = as_real(r, "r")
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


def scaling_radii(kind: str, r_list: Sequence[float]) -> list:
    """The radii of ``verify_lemma_scaling``, sorted, once its kind and radii pass its checks."""
    if kind not in ("time-cutoff", "spacetime-cutoff"):
        raise DomainValidationError("kind must be 'time-cutoff' or 'spacetime-cutoff'")
    rs = sorted(as_reals(r_list, "r_list").tolist())
    if len(rs) < 4 or len(np.unique(rs)) < 4:
        raise DomainValidationError("need at least four distinct radii")
    # one decade nominally; 8x admits the canonical 0.5-1-2-4 doubling list
    if not rs[0] > 0 or rs[-1] / rs[0] < 8.0 - 1e-9:
        raise DomainValidationError("radii must be positive and span close to a decade "
                                    "(factor >= 8)")
    return rs


def verify_lemma_scaling(kind: str, r_list: Sequence[float], p: FracParams,
                         sch: Optional[QuadratureScheme] = None) -> ScalingFit:
    """Fit log sup|op(cutoff_r)| against log r; the dilation law gives slope -2s, s = ``p.s``.

    kind "time-cutoff" drives the Marchaud derivative on the plateau bump
    of width r^2; "spacetime-cutoff" drives the full operator on the
    product bump over B_r x (-r^2, r^2).  Sample points ride the dilation
    (fixed in scaled coordinates), so the scaling is exact up to quadrature.
    ``scaling_radii`` checks the kind and the radii.
    """
    rs = scaling_radii(kind, r_list)
    sch = sch or QuadratureScheme()
    sups = []
    if kind == "time-cutoff":
        t_hat = np.linspace(-0.9, 0.9, 13)
        for r in rs:
            eta = build_cutoff_eta(0.0, r)
            vals = [abs(marchaud_left(eta, float(r * r * th), p.s, sch).value) for th in t_hat]
            sups.append(max(vals))
    else:
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
                    vals.append(abs(master_operator_pointwise(bump, q, p, sch).value))
            sups.append(max(vals))
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
