"""Pointwise evaluation of the space-time fractional heat operator.

The canonical path is the semigroup reformulation: substituting
y = x + 2 sqrt(r) z in the defining double integral turns it into

    (1 / |Gamma(-s)|) * Int_0^inf r^{-1-s} [u(x,t) - E_z u(x + 2 sqrt(r) z, t - r)] dr,

where E_z averages against the Gaussian weight pi^{-n/2} exp(-|z|^2).  The
substitution is exact, eliminates the principal value (the weight is
symmetric), and concentrates all singularity handling in the scalar lag
integral.  The same lag grid drives the one-sided Marchaud derivatives, and
a paired radial grid drives the direct fractional-Laplacian route.

Numerical layout of the lag integral:

* geometric cells (``nodes_per_decade`` per decade) near r = 0, with the
  cell width capped at 0.8 / nodes_per_decade so bounded oscillatory tails
  (plane waves) stay resolved; midpoint rule per cell,
* the inner piece below ``r_min`` is restored analytically from the
  finite-difference heat operator (the integrand is r^{-s} (d_t - Lap)u + O(r^{1-s})),
  leaving a remainder of order r_min^{2-s},
* the far tail contributes u(x,t) r_cut^{-s} / (s |Gamma(-s)|) exactly; what is
  discarded of the Gaussian average is covered by the reported tail bound,
* one refinement pass doubles the grid density and the difference between
  the two passes is the grid part of ``est_error``.

The Gaussian average switches representation at large lag: Gauss-Hermite
nodes ride the kernel scale 2 sqrt(r) and lose the field once that scale
exceeds the field's feature size, so fields with a declared essential
support are integrated on a fixed support-adapted panel rule instead, and
band-limited global fields are truncated at the lag where their Gaussian
average is provably negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .core import FracParams, SpaceTimePoint, gamma_abs_neg, integrated_kernel_constant
from .errors import AdmissibilityError, DomainValidationError, ToleranceError
from .fields import SpaceField, SpaceTimeField, TimeField, ZERO_BALL

# cap factor for lag-cell widths: cells never wider than _CAP_FACTOR / nodes_per_decade
_CAP_FACTOR = 0.8
# batch size for vectorized field evaluations
_EVAL_CHUNK = 2_000_000


def _gh_trust(order: int) -> float:
    # Gauss-Hermite of order N integrates exp(i a z) accurately up to this
    # oscillation rate; beyond, the rule aliases to O(1) garbage
    return 0.75 * math.sqrt(4.0 * order - 2.0)


@dataclass(frozen=True)
class QuadratureScheme:
    """Grid and truncation parameters for the operator quadratures.

    ``target_tol`` is permissive by default: the reported ``est_error``
    carries a conservative truncation floor of 2 M r_max^{-s} / (s |Gamma(-s)|),
    so a tight target only makes sense together with a large ``r_max``.
    """

    r_min: float = 1e-6
    r_max: float = 500.0
    nodes_per_decade: int = 16
    hermite_order: int = 20
    target_tol: float = 10.0

    def __post_init__(self):
        if not self.r_min < self.r_max:
            raise DomainValidationError("r_min must be smaller than r_max")
        if self.r_min <= 0:
            raise DomainValidationError("r_min must be positive")
        if self.nodes_per_decade < 4:
            raise DomainValidationError("nodes_per_decade must be at least 4")
        if self.hermite_order < 4:
            raise DomainValidationError("hermite_order must be at least 4")
        if self.target_tol <= 0:
            raise DomainValidationError("target_tol must be positive")

    def refine(self) -> "QuadratureScheme":
        return replace(self, nodes_per_decade=2 * self.nodes_per_decade)


@dataclass(frozen=True)
class OperatorValue:
    """A quadrature value with its accumulated error estimate."""

    value: float
    est_error: float

    def __float__(self) -> float:
        return self.value


def truncation_tail_bound(sup_bound: float, r_max: float, s: float) -> float:
    """Upper bound 2 M r_max^{-s} / (s |Gamma(-s)|) for the discarded lag tail."""
    if r_max <= 0:
        raise DomainValidationError("r_max must be positive")
    if sup_bound < 0:
        raise DomainValidationError("sup_bound must be nonnegative")
    return 2.0 * sup_bound * r_max ** (-s) / (s * gamma_abs_neg(s))


def _two_pass(single_pass, sch: QuadratureScheme, sup_bound: float, s: float) -> OperatorValue:
    """Coarse and refined sweeps, Richardson value, error estimate and gate.

    ``single_pass(scheme)`` returns ``(value, inner_remainder, discard_bound)``.
    The estimate adds the pass difference, the lag-truncation bound and the
    refined pass's remainders; a non-finite value or estimate, or an
    estimate above ``sch.target_tol``, raises ToleranceError.
    """
    coarse = single_pass(sch)[0]
    fine, inner_rem, discard = single_pass(sch.refine())
    tail = truncation_tail_bound(sup_bound, sch.r_max, s)
    est = abs(fine - coarse) + tail + inner_rem + discard
    # midpoint sums are second order in the cell width, so the two passes
    # extrapolate; the pass difference stays in the error estimate
    value = (4.0 * fine - coarse) / 3.0
    if not (math.isfinite(value) and math.isfinite(est)):
        raise ToleranceError(f"non-finite result: value {value!r}, est_error {est!r}")
    if est > sch.target_tol:
        raise ToleranceError(
            f"est_error {est:.3e} exceeds target_tol {sch.target_tol:.3e} after refinement"
        )
    return OperatorValue(value, est)


def _capped_edges(lo: float, hi: float, npd: int,
                  breakpoints: Optional[Sequence[float]] = None,
                  cap_width: bool = True) -> np.ndarray:
    """Geometric edges from lo to hi, with the cell width capped when asked.

    The width cap keeps bounded oscillations (plane-wave time tails)
    resolved; integrands known to be smooth on a log scale skip it.
    Optional breakpoints are inserted exactly, with a short geometric
    refinement toward each (kernels of limited smoothness live there).
    """
    if hi <= lo:
        return np.array([lo, max(hi, lo)])
    cap = _CAP_FACTOR / npd
    ratio = 10.0 ** (1.0 / npd)
    switch = cap / (ratio - 1.0) if cap_width else hi
    edges = [lo]
    # geometric zone
    e = lo
    while e < min(hi, switch):
        e = min(e * ratio, hi)
        edges.append(e)
    # width-capped zone
    if e < hi:
        count = int(math.ceil((hi - e) / cap))
        edges.extend(np.linspace(e, hi, count + 1)[1:])
    edges = np.asarray(edges)
    if breakpoints is not None:
        inside = [b for b in breakpoints if lo < b < hi]
        edges = _refine_toward(edges, lo, hi, inside, cap / 2.0 ** np.arange(1, 9))
    return edges


def _refine_toward(edges: np.ndarray, lo: float, hi: float, centres: Sequence[float],
                   steps: np.ndarray) -> np.ndarray:
    """Sorted union of the edges with every centre and centre +- step inside (lo, hi)."""
    c = np.asarray(centres, dtype=float).reshape(-1, 1)
    extra = np.concatenate([c.ravel(), (c - steps).ravel(), (c + steps).ravel()])
    extra = extra[(extra > lo) & (extra < hi)]
    if extra.size == 0:
        return edges
    return np.unique(np.concatenate([edges, extra]))


def _tensor_rule(axes_nodes: Sequence[np.ndarray], axes_weights: Sequence[np.ndarray]):
    """Tensor product of 1-D rules: points of shape (m, d) and their weights."""
    grids = np.meshgrid(*axes_nodes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    w = axes_weights[0]
    for aw in axes_weights[1:]:
        w = np.outer(w, aw).ravel()
    return pts, w


def _fd_laplacian(evaluate, x: np.ndarray, delta: float) -> float:
    """Central second-difference Laplacian at x of ``evaluate(points)``."""
    n = len(x)
    pts = [x]
    for i in range(n):
        e = np.zeros(n)
        e[i] = delta
        pts.extend([x + e, x - e])
    vals = evaluate(np.asarray(pts))
    lap = 0.0
    for i in range(n):
        lap += (vals[1 + 2 * i] + vals[2 + 2 * i] - 2.0 * vals[0]) / delta**2
    return float(lap)


def _fd_slope(evaluate, t: float, delta: float) -> float:
    """Central first difference at t of ``evaluate(times)``, from one call at [t + delta, t - delta]."""
    vals = evaluate(np.array([t + delta, t - delta]))
    return float(vals[0] - vals[1]) / (2.0 * delta)


def _fd_heat(u: SpaceTimeField, x: np.ndarray, t: float, delta: float = 1e-3) -> float:
    """Finite-difference (d_t - Laplacian) u at (x, t), central stencils."""
    lap = _fd_laplacian(lambda pts: u.eval(pts, np.full(len(pts), t)), x, delta)
    dudt = _fd_slope(lambda ts: u.eval(np.asarray([x, x]), ts), t, delta)
    return float(dudt - lap)


def _panel_nodes(lo: np.ndarray, hi: np.ndarray, scale: float, order: int = 8,
                 breakpoints: Optional[Sequence[float]] = None):
    """Tensor Gauss-Legendre composite rule over the box [lo, hi].

    Breakpoints (e.g. the support-ball edge, where zero-exterior profiles
    have a root-type cusp) become panel edges with a short dyadic
    refinement toward each.
    """
    gl_x, gl_w = leggauss(order)
    axes_nodes, axes_weights = [], []
    for a, b in zip(np.atleast_1d(lo), np.atleast_1d(hi)):
        span = b - a
        count = max(1, int(math.ceil(span / max(scale, 1e-12))))
        edges = np.linspace(a, b, count + 1)
        if breakpoints is not None:
            inside = [c for c in breakpoints if a < c < b]
            edges = _refine_toward(edges, a, b, inside, span / count / 2.0 ** np.arange(1, 6))
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        nodes = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
        weights = (half[:, None] * gl_w[None, :]).ravel()
        axes_nodes.append(nodes)
        axes_weights.append(weights)
    return _tensor_rule(axes_nodes, axes_weights)


def _gaussian_average(u: SpaceTimeField, x: np.ndarray, t: float,
                      r_mid: np.ndarray, sch: QuadratureScheme) -> tuple[np.ndarray, float]:
    """E_z u(x + 2 sqrt(r) z, t - r) for every lag in r_mid.

    Returns the averages and a bound for what the truncations of this
    routine discard (band-limit cut for global fields).
    """
    n = u.n
    out = np.zeros_like(r_mid)
    discard = 0.0

    if u.space_support is None:
        # global field: Hermite nodes everywhere, but only while the rule
        # still resolves oscillation at the declared feature scale
        if math.isinf(u.space_scale):
            trust = math.inf
        else:
            a_max = _gh_trust(sch.hermite_order)
            trust = (0.5 * a_max * u.space_scale) ** 2
        mask = r_mid <= trust
        if np.any(mask):
            out[mask] = _gh_average(u, x, t, r_mid[mask], sch)
        if np.any(~mask) and math.isfinite(u.sup_bound):
            a_max = _gh_trust(sch.hermite_order)
            # the true average beyond the trust lag is <= M exp(-a_max^2/4)
            discard = u.sup_bound * math.exp(-0.25 * a_max * a_max)
        return out, discard

    # field with an essential-support box: Hermite while the kernel scale
    # is below the feature scale, fixed support panels afterwards
    r_cross = (0.5 * u.space_scale) ** 2
    near = r_mid <= r_cross
    if np.any(near):
        out[near] = _gh_average(u, x, t, r_mid[near], sch)
    far = ~near
    if np.any(far):
        lo, hi = u.space_support
        panel_scale = u.space_scale * 16.0 / sch.nodes_per_decade
        cusps = None
        if u.exterior == ZERO_BALL:
            cusps = (-u.ball_radius, u.ball_radius)
        pts, w = _panel_nodes(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float),
                              panel_scale, breakpoints=cusps)
        out[far] = _panel_average(u, x, t, r_mid[far], pts, w, n)
    return out, discard


def _gh_average(u: SpaceTimeField, x: np.ndarray, t: float,
                r_mid: np.ndarray, sch: QuadratureScheme) -> np.ndarray:
    n = u.n
    zn, wn = hermgauss(sch.hermite_order)
    z_pts, z_w = _tensor_rule([zn] * n, [wn] * n)
    z_w = z_w / math.pi ** (n / 2.0)
    nz = len(z_w)
    out = np.empty_like(r_mid)
    step = max(1, _EVAL_CHUNK // nz)
    for i0 in range(0, len(r_mid), step):
        rs = r_mid[i0:i0 + step]
        scal = 2.0 * np.sqrt(rs)
        pts = x[None, None, :] + scal[:, None, None] * z_pts[None, :, :]
        ts = np.repeat(t - rs, nz)
        vals = u.eval(pts.reshape(-1, n), ts).reshape(len(rs), nz)
        out[i0:i0 + step] = vals @ z_w
    return out


def _panel_average(u: SpaceTimeField, x: np.ndarray, t: float, r_mid: np.ndarray,
                   pts: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    diff = pts - x[None, :]
    dist_sq = np.sum(diff * diff, axis=-1)
    out = np.empty_like(r_mid)
    npts = len(w)
    step = max(1, _EVAL_CHUNK // npts)
    for i0 in range(0, len(r_mid), step):
        rs = r_mid[i0:i0 + step]
        kern = np.exp(-dist_sq[None, :] / (4.0 * rs[:, None]))
        kern *= (4.0 * math.pi * rs[:, None]) ** (-n / 2.0)
        ts = np.repeat(t - rs, npts)
        vals = u.eval(np.tile(pts, (len(rs), 1)), ts).reshape(len(rs), npts)
        out[i0:i0 + step] = (kern * vals) @ w
    return out


def _master_single_pass(u: SpaceTimeField, q: SpaceTimePoint, p: FracParams,
                        sch: QuadratureScheme) -> tuple[float, float, float]:
    """One quadrature sweep; returns (value, inner_remainder, discard_bound)."""
    s = p.s
    gam = gamma_abs_neg(s)
    x, t = q.x, q.t
    u_q = u.at(x, t)

    r_cut = sch.r_max
    exact_tail = False
    if u.t_support is not None:
        r_dead = t - u.t_support[0]
        if r_dead <= sch.r_min:
            # the whole history is outside the field's support
            val = u_q * sch.r_min ** (-s) / (s * gam)
            heat = _fd_heat(u, x, t)
            val += heat * sch.r_min ** (1.0 - s) / ((1.0 - s) * gam)
            rem = abs(heat) * sch.r_min ** (2.0 - s) / ((2.0 - s) * gam)
            return val, rem, 0.0
        if r_dead < sch.r_max:
            r_cut = r_dead
            exact_tail = True

    # a time-independent field has a smooth, monotone-tailed lag integrand,
    # so pure geometric cells suffice; time variation needs the width cap
    edges = _capped_edges(sch.r_min, r_cut, sch.nodes_per_decade,
                          cap_width=not u.time_independent)
    mid = 0.5 * (edges[:-1] + edges[1:])
    width = np.diff(edges)

    avg, discard = _gaussian_average(u, x, t, mid, sch)
    diff = u_q - avg
    invariant = float(np.max(np.abs(diff))) <= 1e-14 * max(1.0, abs(u_q))
    if invariant:
        # heat flow leaves the field invariant (constants): the integrand
        # is identically zero and the roundoff of the weights is dropped
        diff = np.zeros_like(diff)
    integrand = diff * mid ** (-1.0 - s)
    val = float(np.dot(width, integrand)) / gam

    # analytic inner piece: integrand ~ r^{-s} (d_t - Lap)u below r_min
    heat = _fd_heat(u, x, t)
    val += heat * sch.r_min ** (1.0 - s) / ((1.0 - s) * gam)
    inner_rem = abs(heat) * sch.r_min ** (2.0 - s) / ((2.0 - s) * gam)

    # far tail: the u(x,t) part integrates exactly; the Gaussian-average
    # part is modelled where its decay law is known and bounded otherwise
    if invariant:
        pass
    elif exact_tail:
        val += u_q * r_cut ** (-s) / (s * gam)
    elif u.time_independent and u.space_support is not None:
        # compact time-independent field: average decays like r^{-n/2}
        e_last = float(avg[-1])
        val += u_q * r_cut ** (-s) / (s * gam)
        val -= e_last * r_cut ** (-s) / ((s + p.n / 2.0) * gam)
    else:
        val += u_q * r_cut ** (-s) / (s * gam)
    discard_tail = 0.0 if exact_tail else discard * r_cut ** (-s) / (s * gam)
    return val, inner_rem, discard_tail


def master_operator_pointwise(u: SpaceTimeField, q: SpaceTimePoint, p: FracParams,
                              sch: QuadratureScheme) -> OperatorValue:
    """Evaluate (d_t - Laplacian)^s u at q by the semigroup quadrature.

    Raises AdmissibilityError when the field carries no finite sup bound,
    and ToleranceError when the value or the error estimate is not finite
    or, after the built-in refinement pass, the estimate still exceeds
    ``sch.target_tol``.
    """
    q.validate(p)
    if q.x.shape != (u.n,):
        raise DomainValidationError("point dimension does not match the field")
    sup = u.require_bound()
    return _two_pass(lambda sc: _master_single_pass(u, q, p, sc), sch, sup, p.s)


# ---------------------------------------------------------------------------
# reductions: fractional Laplacian and Marchaud derivatives


def _laplacian_single_pass(g: SpaceField, x: np.ndarray, p: FracParams,
                           sch: QuadratureScheme,
                           breakpoints: Optional[Sequence[float]],
                           curvature: Optional[float]) -> tuple[float, float, float]:
    n, s = p.n, p.s
    a_ns = integrated_kernel_constant(p)
    g_x = float(g.eval(x.reshape(1, -1))[0])
    z_min = math.sqrt(sch.r_min)

    if g.exterior == ZERO_BALL:
        z_star = g.ball_radius + float(np.linalg.norm(x))
        exact_tail = True
    else:
        z_star = 2.0 * math.sqrt(sch.r_max)
        exact_tail = False

    # directions theta with weights summing to |S^{n-1}| / 2
    if n == 1:
        thetas = np.array([[1.0]])
        th_w = np.array([1.0])
    elif n == 2:
        m_ang = 2 * sch.hermite_order
        ang = (np.arange(m_ang) + 0.5) * math.pi / m_ang
        thetas = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        th_w = np.full(m_ang, math.pi / m_ang)
    else:
        raise DomainValidationError("fractional Laplacian quadrature supports n in {1, 2}")

    total = 0.0
    pair_peak = 0.0
    for theta, tw in zip(thetas, th_w):
        cusps = list(breakpoints) if breakpoints is not None else []
        if g.exterior == ZERO_BALL:
            # radii where x + z theta / x - z theta cross the support sphere
            b = float(np.dot(x, theta))
            disc = g.ball_radius**2 - (float(np.dot(x, x)) - b * b)
            if disc > 0:
                root = math.sqrt(disc)
                cusps.extend([abs(-b + root), abs(-b - root), abs(b + root), abs(b - root)])
        edges = _capped_edges(z_min, z_star, sch.nodes_per_decade, breakpoints=cusps)
        zm = 0.5 * (edges[:-1] + edges[1:])
        zw = np.diff(edges)
        pts_plus = x[None, :] + zm[:, None] * theta[None, :]
        pts_minus = x[None, :] - zm[:, None] * theta[None, :]
        s_pair = 2.0 * g_x - g.eval(pts_plus) - g.eval(pts_minus)
        pair_peak = max(pair_peak, float(np.max(np.abs(s_pair))))
        total += tw * float(np.dot(zw, s_pair * zm ** (-1.0 - 2.0 * s)))
    val = a_ns * total

    # inner Taylor piece over |z| < z_min (paired, so odd parts vanish)
    if curvature is None:
        lap = _fd_laplacian(g.eval, x, max(1e-4, 0.5 * z_min))
    else:
        lap = float(curvature)
    omega_half = math.pi ** (n / 2.0) / math.gamma(n / 2.0)  # |S^{n-1}| / 2
    val -= a_ns * omega_half * (lap / n) * z_min ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)

    # far field; a globally constant field has no far contribution at all
    if pair_peak > 1e-14 * max(1.0, abs(g_x)):
        val += 2.0 * g_x * a_ns * omega_half * z_star ** (-2.0 * s) / (2.0 * s)
    if exact_tail:
        discard = 0.0
    else:
        discard = 2.0 * g.sup_bound * a_ns * omega_half * z_star ** (-2.0 * s) / (2.0 * s)
    return val, 0.0, discard


def fractional_laplacian_pointwise(g: SpaceField, x, p: FracParams, sch: QuadratureScheme,
                                   breakpoints: Optional[Sequence[float]] = None,
                                   curvature: Optional[float] = None) -> OperatorValue:
    """(-Laplacian)^s g at x through the time-integrated kernel.

    Pairs every offset with its reflection about x so the odd singular part
    cancels exactly; the kernel is the lag-integrated closed form
    A(n,s) |z|^{-(n+2s)}.  ``breakpoints`` inserts known kink radii of g into
    the radial grid (used by the solver's residual path), ``curvature``
    overrides the finite-difference Laplacian in the inner Taylor cell.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (p.n,):
        raise DomainValidationError(f"evaluation point must have shape ({p.n},)")
    if not math.isfinite(g.sup_bound):
        raise AdmissibilityError("field has no finite sup_bound; tail cannot be bounded")
    return _two_pass(lambda sc: _laplacian_single_pass(g, x, p, sc, breakpoints, curvature),
                     sch, g.sup_bound, p.s)


def _marchaud(h: TimeField, t: float, s: float, sch: QuadratureScheme, side: int) -> OperatorValue:
    if not 0.0 < s < 1.0:
        raise DomainValidationError(f"order s must lie in (0, 1), got {s}")
    if not math.isfinite(h.sup_bound):
        raise AdmissibilityError("time field has no finite sup_bound")
    return _two_pass(lambda sc: _marchaud_single_pass(h, t, s, sc, side), sch, h.sup_bound, s)


def _marchaud_single_pass(h: TimeField, t: float, s: float, sch: QuadratureScheme,
                          side: int) -> tuple[float, float, float]:
    """side=+1: left derivative (past values); side=-1: right (future values)."""
    gam = gamma_abs_neg(s)
    h_t = float(h.eval(np.array([t]))[0])

    r_cut = sch.r_max
    if h.support is not None:
        horizon = (t - h.support[0]) if side > 0 else (h.support[1] - t)
        if horizon < sch.r_max:
            r_cut = max(horizon, 2.0 * sch.r_min)

    edges = _capped_edges(sch.r_min, r_cut, sch.nodes_per_decade)
    mid = 0.5 * (edges[:-1] + edges[1:])
    width = np.diff(edges)
    diff = h_t - h.eval(t - side * mid)
    val = float(np.dot(width, diff * mid ** (-1.0 - s))) / gam

    slope = _fd_slope(h.eval, t, 1e-4)
    val += side * slope * sch.r_min ** (1.0 - s) / ((1.0 - s) * gam)
    inner_rem = abs(slope) * sch.r_min ** (2.0 - s) / ((2.0 - s) * gam)

    if float(np.max(np.abs(diff))) > 1e-14 * max(1.0, abs(h_t)):
        val += h_t * r_cut ** (-s) / (s * gam)
    return val, inner_rem, 0.0


def marchaud_left(h: TimeField, t: float, s: float, sch: QuadratureScheme) -> OperatorValue:
    """Marchaud left derivative: integrates u(t) - u(tau) over past times tau < t."""
    return _marchaud(h, t, s, sch, side=+1)


def marchaud_right(h: TimeField, t: float, s: float, sch: QuadratureScheme) -> OperatorValue:
    """Marchaud right derivative: integrates over future times tau > t."""
    return _marchaud(h, t, s, sch, side=-1)


# ---------------------------------------------------------------------------
# function-space membership and seminorm probes


@dataclass(frozen=True)
class MembershipVerdict:
    verdict: str  # "member" | "diverges" | "inconclusive"
    estimates: tuple


def slowly_increasing_membership(u: SpaceTimeField, t: float, p: FracParams,
                                 truncation_ladder: Sequence[float]) -> MembershipVerdict:
    """Probe the defining weighted integral on nested truncations.

    A finite declared sup bound settles membership outright (the integrand
    is dominated by a convergent majorant); otherwise the ladder estimates
    decide: stabilized estimates mean "member", superlinear growth in the
    ladder index (or overflow) means "diverges", anything else is
    "inconclusive".
    """
    ladder = [float(R) for R in truncation_ladder]
    if len(ladder) < 2 or any(R <= 0 for R in ladder) or sorted(ladder) != ladder:
        raise DomainValidationError("truncation_ladder must be >= 2 increasing positive radii")

    zn, wn = hermgauss(48)
    z_pts, w = _tensor_rule([zn] * p.n, [wn] * p.n)
    estimates = []
    with np.errstate(over="ignore", invalid="ignore"):
        for R in ladder:
            edges = np.geomspace(1e-4, R * R, 240)
            mid = 0.5 * (edges[:-1] + edges[1:])
            width = np.diff(edges)
            total = 0.0
            for gmid, gw in zip(mid, width):
                scal = 2.0 * math.sqrt(gmid)
                pts = scal * z_pts
                keep = np.sum(pts * pts, axis=-1) <= R * R
                if not np.any(keep):
                    continue
                vals = np.abs(u.eval(pts[keep], np.full(int(keep.sum()), t - gmid)))
                space_int = scal**p.n * float(np.dot(w[keep], vals))
                total += gw * space_int / (1.0 + gmid ** (p.n / 2.0 + 1.0 + p.s))
            estimates.append(total)

    est = np.asarray(estimates)
    if np.all(est == 0.0):
        return MembershipVerdict("member", tuple(estimates))
    if math.isfinite(u.sup_bound):
        return MembershipVerdict("member", tuple(estimates))
    if np.any(~np.isfinite(est)):
        return MembershipVerdict("diverges", tuple(estimates))
    ratios = est[1:] / np.maximum(est[:-1], 1e-300)
    if np.all(ratios >= 4.0):
        return MembershipVerdict("diverges", tuple(estimates))
    rel_change = np.abs(np.diff(est)) / np.maximum(np.abs(est[1:]), 1e-300)
    if np.all(rel_change < 1e-3):
        return MembershipVerdict("member", tuple(estimates))
    return MembershipVerdict("inconclusive", tuple(estimates))


def parabolic_holder_seminorm(u: SpaceTimeField, sample_box, alpha: float,
                              pair_budget: int = 10_000) -> float:
    """Max sampled ratio |u(x,t)-u(y,tau)| / (|x-y| + |t-tau|^{1/2})^{2 alpha}.

    ``sample_box`` is ((x_lo, x_hi), (t_lo, t_hi)) with vector bounds for x.
    The samples form a lattice, so axis-aligned pairs (equal times) are
    always present and the estimate is a genuine lower bound that converges
    to the seminorm under refinement.
    """
    if not 0.0 < alpha <= 0.5:
        raise DomainValidationError("alpha must lie in (0, 1/2]")
    (x_lo, x_hi), (t_lo, t_hi) = sample_box
    x_lo = np.atleast_1d(np.asarray(x_lo, dtype=float))
    x_hi = np.atleast_1d(np.asarray(x_hi, dtype=float))
    if np.any(x_hi <= x_lo) or not t_hi > t_lo:
        raise DomainValidationError("sample_box must have positive extent on every axis")
    n = u.n
    total_pts = max(8, int((1 + math.isqrt(1 + 8 * pair_budget)) // 2))
    per_axis = max(3, int(round(total_pts ** (1.0 / (n + 1)))))
    axes = [np.linspace(a, b, per_axis) for a, b in zip(x_lo, x_hi)]
    axes.append(np.linspace(t_lo, t_hi, per_axis))
    pts, _ = _tensor_rule(axes, [np.ones(per_axis)] * (n + 1))
    vals = u.eval(pts[:, :n], pts[:, n])
    best = 0.0
    for i in range(len(pts) - 1):
        dx = np.linalg.norm(pts[i + 1:, :n] - pts[i, :n], axis=-1)
        dt = np.abs(pts[i + 1:, n] - pts[i, n])
        denom = (dx + np.sqrt(dt)) ** (2.0 * alpha)
        good = denom > 0
        if np.any(good):
            ratio = np.abs(vals[i + 1:][good] - vals[i]) / denom[good]
            best = max(best, float(ratio.max()))
    return best
