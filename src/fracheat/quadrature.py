"""Pointwise evaluation of the space-time fractional heat operator.

The canonical path is the semigroup reformulation: substituting
y = x + 2 sqrt(r) z in the defining double integral turns it into

    (1 / |Gamma(-s)|) * Int_0^inf r^{-1-s} [u(x,t) - E_z u(x + 2 sqrt(r) z, t - r)] dr,

where E_z averages against the Gaussian weight pi^{-n/2} exp(-|z|^2).  The
substitution is exact, eliminates the principal value (the weight is
symmetric), and concentrates all singularity handling in the scalar lag
integral.  A paired radial grid drives the direct fractional-Laplacian route.

Numerical layout of the lag integral.  ``_lag_integral`` is the one
implementation, with three callers that each supply only the average of
the field over the lag r and its slope at r = 0: the master operator (the
Gaussian average), the one-sided Marchaud derivatives (u(t -+ r)) and the
antisymmetric fold (``_folded_average``, the Gaussian average folded onto
a half-space).  Both Gaussian averages live here, and so do the fold's
passes (``_fold_passes``); ``planes`` supplies the plane and checks w.

* geometric cells (``nodes_per_decade`` per decade) near r = 0, with the
  cell width capped at 0.8 / nodes_per_decade so bounded oscillatory tails
  (plane waves) stay resolved; midpoint rule per cell,
* the inner piece below ``r_min`` is restored analytically from the
  finite-difference heat operator (the integrand is r^{-s} (d_t - Lap)u + O(r^{1-s})),
  leaving a remainder of order r_min^{2-s},
* the far tail contributes u(x,t) r_cut^{-s} / (s |Gamma(-s)|) exactly; what is
  discarded of the Gaussian average is covered by the reported tail bound,
* one refinement pass doubles the grid density and the difference between
  the two passes is the grid part of ``est_error``,
* each pass evaluates a field once per distinct point: the panel values of
  a time-independent field serve every lag, and the fractional-Laplacian
  sweep builds the cells of all directions at a point in one sort and
  gathers the points of all directions, and in ``residual_field`` of all
  nodes of a run, into one field call; a run's rows are one segment sum and
  a point's directions one weighted sum, so the runs leave the bits alone;
  u(q) and the finite-difference stencils come from one field call per
  operator call and serve both passes (and the fold's folded pass),
* coordinate-major blocks: every block of points handed to a field is
  built as the transpose of a row-major (n, m) array, so each coordinate
  column ``X[:, k]`` is contiguous and the fields' column passes run at
  full speed; the values are those of the row-major (m, n) block.  Its
  times ``t - r`` come one per lag, in consecutive runs, so a field can
  compute a time factor once per run, as the library fields do,
* per-axis sums: the heat kernel is a product of one factor per axis, so
  each rule of the Gaussian average is one (nodes, weights) pair per axis
  (``_hermite_axis``: x_k + 2 sqrt(r) z; ``_panel_axis``: support panels
  whose weights carry the axis's kernel factor).  ``_axis_average`` calls
  the field once per block of at most ``_FIELD_BLOCK`` (62,500) points, so
  its temporaries stay in cache (a lag or sweep point holding more takes a
  call of its own), and sums each lag's values one axis at a time; so does
  the fold, whose free axis takes the same rules and is summed first, and
  whose normal-axis weights carry the kernel difference.  No product
  weights are built.  Each lag is summed on its own, so no value depends
  on the blocks,
* graded edges: cells graded toward known kinks (support-sphere cusps,
  breakpoints, q and its mirror image in the fold) take the base edges
  plus each kink and its dyadic steps strictly inside the interval.
  ``_refine_rows`` is the one implementation, one row-wise sort per call:
  the sweep's directions at a point and the fold's normal-axis panels of
  all lags are the rows of one call each.

The Gaussian average switches representation at large lag: Gauss-Hermite
nodes ride the kernel scale 2 sqrt(r) and lose the field once that scale
exceeds the field's feature size, so fields with a declared essential
support are integrated on a fixed support-adapted panel rule instead, and
band-limited global fields are truncated at the lag where their Gaussian
average is provably negligible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .core import (FracParams, SpaceTimePoint, as_int, as_real, as_reals, gamma_abs_neg,
                   integrated_kernel_constant, sq_dist)
from .errors import DomainValidationError, ToleranceError
from .fields import SpaceField, SpaceTimeField, TimeField, ZERO_BALL

# cap factor for lag-cell widths: cells never wider than _CAP_FACTOR / nodes_per_decade
_CAP_FACTOR = 0.8
# most points per field call, sized so the field's temporaries stay in cache; a
# lag (or sweep point) whose rule alone holds more takes a call of its own
_FIELD_BLOCK = 62_500
# Gauss-Legendre points per panel of every composite rule: the far-lag panel
# axes of the Gaussian average and the normal axis of the folded average
_PANEL_ORDER = 8
# the most panel points per lag that master_operator_pointwise accepts; each
# such lag is one field call
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
        for name, rule in (("nodes_per_decade", as_int), ("hermite_order", as_int),
                           ("r_min", as_real), ("r_max", as_real), ("target_tol", as_real)):
            object.__setattr__(self, name, rule(getattr(self, name), name))
        if not self.r_min < self.r_max:
            raise DomainValidationError("r_min must be smaller than r_max")
        if self.r_min <= 0:
            raise DomainValidationError("r_min must be positive")
        if self.nodes_per_decade < 4:
            raise DomainValidationError("nodes_per_decade must be at least 4")
        if self.hermite_order < 4:
            raise DomainValidationError("hermite_order must be at least 4")
        if not self.target_tol > 0:
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

    ``single_pass(scheme)`` returns ``(value, inner_remainder, discard_bound)``;
    it sweeps ``sch`` first, then ``sch.refine()``.
    The estimate adds the pass difference, the lag-truncation bound and the
    refined pass's remainders; a non-finite value or estimate, or an
    estimate above ``sch.target_tol``, raises ToleranceError.  Passes may
    return arrays, one entry per point: everything then works elementwise,
    the gate raises if any point fails it, and the OperatorValue holds
    arrays.
    """
    coarse = single_pass(sch)[0]
    fine, inner_rem, discard = single_pass(sch.refine())
    tail = truncation_tail_bound(sup_bound, sch.r_max, s)
    est = np.abs(fine - coarse) + tail + inner_rem + discard
    # midpoint sums are second order in the cell width, so the two passes
    # extrapolate; the pass difference stays in the error estimate
    value = (4.0 * fine - coarse) / 3.0
    finite = np.isfinite(value) & np.isfinite(est)
    if not np.all(finite):
        k = int(np.argmin(finite))
        raise ToleranceError(f"non-finite result: value {float(np.ravel(value)[k])!r}, "
                             f"est_error {float(np.ravel(est)[k])!r}")
    worst = float(np.max(est))
    if worst > sch.target_tol:
        raise ToleranceError(
            f"est_error {worst:.3e} exceeds target_tol {sch.target_tol:.3e} after refinement"
        )
    if np.ndim(value) == 0:
        value, est = float(value), float(est)
    return OperatorValue(value, est)


def _capped_edges(lo: float, hi: float, npd: int, cap_width: bool = True) -> np.ndarray:
    """Geometric edges from lo to hi, with the cell width capped when asked.

    The width cap keeps bounded oscillations (plane-wave time tails)
    resolved; integrands known to be smooth on a log scale skip it.
    """
    if hi <= lo:
        return np.array([lo, max(hi, lo)])
    cap = _CAP_FACTOR / npd
    ratio = 10.0 ** (1.0 / npd)
    top = min(hi, cap / (ratio - 1.0)) if cap_width else hi
    edges = np.array([lo], dtype=float)
    if lo < top:
        # geometric zone: lo, lo * ratio, (lo * ratio) * ratio, ... up to the
        # first edge >= top, clamped to hi; cumprod multiplies strictly in
        # order, and two spare factors cover the rounding of the logarithms
        count = int(math.ceil(math.log(top / lo) / math.log(ratio))) + 2
        edges = np.cumprod(np.concatenate([edges, np.full(count, ratio)]))
        edges = edges[:int(np.argmax(edges >= top)) + 1]
        edges[-1] = min(edges[-1], hi)
    # width-capped zone
    if edges[-1] < hi:
        count = int(math.ceil((hi - edges[-1]) / cap))
        edges = np.concatenate([edges, np.linspace(edges[-1], hi, count + 1)[1:]])
    return edges


def _refine_rows(base: np.ndarray, size, lo, hi, extra: np.ndarray):
    """Graded edges of every row of ``extra``, built in one row-wise sort.

    Row i is the first ``size[i]`` entries of ``base[i]`` (increasing), plus
    every ``extra[i]`` strictly inside (lo[i], hi[i]), as a sorted distinct
    set; NaN extras add nothing.  A row with no extra inside keeps its
    entries exactly as they are, repeats included.  ``base`` may hold one
    row and ``size``, ``lo`` and ``hi`` may be scalars, shared by all rows.
    Returns the rows' edges one row after another and the number of edges
    of each row.
    """
    lo, hi, size = (np.asarray(v)[..., None] for v in (lo, hi, size))
    inside = (extra > lo) & (extra < hi)
    m = base.shape[1]
    rows = np.empty((extra.shape[0], m + extra.shape[1]))
    rows[:, :m] = np.where(np.arange(m) < size, base, np.inf)
    rows[:, m:] = np.where(inside, extra, np.inf)
    rows.sort(axis=1)
    # np.unique as a mask: each finite entry that differs from the one before
    # it; a row without refinement keeps its repeats
    keep = rows < np.inf
    keep[:, 1:] &= (rows[:, 1:] != rows[:, :-1]) | ~inside.any(axis=1)[:, None]
    return rows[keep], np.count_nonzero(keep, axis=1)


def _cells(edges: np.ndarray, counts) -> tuple[np.ndarray, np.ndarray]:
    """Cell midpoints and widths of rows of edges held one after another, ``counts[i]`` in row i."""
    mid, width = 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)
    within = np.ones(width.size, dtype=bool)
    within[np.cumsum(counts)[:-1] - 1] = False  # pairs that straddle two rows
    return mid[within], width[within]


def _gl_panels(edges: np.ndarray, counts) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights, ``_PANEL_ORDER`` per cell of ``_cells``."""
    mid, width = _cells(edges, counts)
    half = 0.5 * width
    gl_x, gl_w = _gauss_rule("legendre", _PANEL_ORDER)
    nodes = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
    return nodes, (half[:, None] * gl_w[None, :]).ravel()


def _runs(items, limit: int, size=lambda item: len(item[-1])):
    """Consecutive items grouped into lists of at most ``limit`` total ``size``.

    The size of an item is the length of its last entry unless ``size``
    says otherwise; an item larger than ``limit`` forms a list of its own.
    """
    run, total = [], 0
    for item in items:
        m = size(item)
        if run and total + m > limit:
            yield run
            run, total = [], 0
        run.append(item)
        total += m
    if run:
        yield run


@functools.cache
def _gauss_rule(kind: str, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``"hermite"`` or ``"legendre"`` Gauss rule of ``order``.

    Built once per (kind, order) and shared by every caller, so the arrays
    are read-only.
    """
    nodes, weights = {"hermite": hermgauss, "legendre": leggauss}[kind](order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _fd_laplacian(evaluate, x: np.ndarray, delta: float) -> float:
    """Central second-difference Laplacian at x of ``evaluate(points)``."""
    pts = [x] + [x + sign * e for e in delta * np.eye(len(x)) for sign in (1.0, -1.0)]
    vals = evaluate(np.asfortranarray(pts))
    return float(sum((vals[1 + 2 * i] + vals[2 + 2 * i] - 2.0 * vals[0]) / delta**2
                     for i in range(len(x))))


def _fd_heat(u: SpaceTimeField, x: np.ndarray, t: float,
             delta: float = 1e-3) -> tuple[float, float]:
    """u(x, t) and the finite-difference (d_t - Laplacian) u there, from one field call.

    Its 2n + 3 points: the central Laplacian stencil at t, centred at x, then x at t +- delta.
    """
    vals = []

    def evaluate(stencil):
        ts = np.r_[np.full(len(stencil), t), t + delta, t - delta]
        vals.extend(u.eval(np.asfortranarray(np.concatenate([stencil, [x, x]])), ts))
        return vals

    lap = _fd_laplacian(evaluate, x, delta)
    return float(vals[0]), float((vals[-2] - vals[-1]) / (2.0 * delta) - lap)


def _hermite_reach(u: SpaceTimeField) -> float:
    """Last lag of Hermite nodes for a field with a support box: 2 sqrt(r) = space_scale."""
    return (0.5 * u.space_scale) ** 2


def _panel_axes(u: SpaceTimeField, sch: QuadratureScheme):
    """Per-axis nodes and weights of the far-lag panel rule of ``u``.

    A composite Gauss-Legendre rule (``_gl_panels``) on uniform panels of
    width at most ``space_scale * 16 / nodes_per_decade`` over the
    essential-support box, which ends at the ball of a zero-ball field.  The
    rule is the tensor product of these axes.
    """
    lo, hi = u.space_support
    scale = u.space_scale * 16.0 / sch.nodes_per_decade
    axes_nodes, axes_weights = [], []
    for a, b in zip(np.atleast_1d(np.asarray(lo, dtype=float)),
                    np.atleast_1d(np.asarray(hi, dtype=float))):
        count = max(1, int(math.ceil((b - a) / scale)))
        edges = np.linspace(a, b, count + 1)
        nodes, weights = _gl_panels(edges, [edges.size])
        axes_nodes.append(nodes)
        axes_weights.append(weights)
    return axes_nodes, axes_weights


def _hermite_axis(x_k: float, rb: np.ndarray, order: int):
    """Hermite nodes x_k + 2 sqrt(r) z of the lags rb, a row per lag, and weights w / sqrt(pi)."""
    zn, wn = _gauss_rule("hermite", order)
    return x_k + (2.0 * np.sqrt(rb))[:, None] * zn, wn / math.sqrt(math.pi)


def _panel_axis(x_k: float, rb: np.ndarray, nodes: np.ndarray, weights: np.ndarray):
    """Shared nodes y and, per lag of rb, the weights w exp(-(y - x_k)^2 / 4r) / sqrt(4 pi r)."""
    kern = np.empty((len(rb), len(nodes)))
    np.divide(-np.square(nodes - x_k), (4.0 * rb)[:, None], out=kern)
    np.exp(kern, out=kern)
    kern *= weights
    kern /= np.sqrt(4.0 * math.pi * rb)[:, None]
    return nodes, kern


def _axis_average(u: SpaceTimeField, t: float, r_mid: np.ndarray, rule) -> np.ndarray:
    """The tensor-rule average of u(., t - r) for every lag r of r_mid, summed one axis at a time.

    ``rule(rb)`` returns one (nodes, weights) pair per axis for the lags rb, each a row
    per lag or one row for all.  The field is called once per block of at most
    ``_FIELD_BLOCK`` points (a lag holding more takes a call of its own), or once for all
    lags of a time-independent field on shared nodes; each lag is then contracted with
    its weights, last axis first, by ``np.einsum``, so no value depends on the blocks.
    """
    out = np.empty_like(r_mid)
    axes = rule(r_mid[:1])
    n, sizes = len(axes), tuple(np.shape(w)[-1] for _, w in axes)
    npts = math.prod(sizes)
    block = max(1, _FIELD_BLOCK // npts)

    def points(axes, lags):
        # coordinate k of node (j_1, ..., j_n) at lag i sits at [k, i, j_1, ..., j_n]
        pts = np.empty((n, lags) + sizes)
        for k, (nodes, _) in enumerate(axes):
            pts[k] = np.reshape(nodes, (-1,) + (1,) * k + (sizes[k],) + (1,) * (n - 1 - k))
        return pts.reshape(n, -1)

    shared = tiled = None
    if all(np.ndim(nodes) == 1 for nodes, _ in axes):
        # nodes shared by every lag: one field call for all lags of a time-independent
        # field, else the nodes tiled once for a full block (a shorter one takes a prefix)
        if u.time_independent:
            shared, block = u.eval(points(axes, 1).T, np.full(npts, t)).reshape(sizes), len(r_mid)
        else:
            tiled = points(axes, min(block, len(r_mid)))
    for i0 in range(0, len(r_mid), block):
        rb = r_mid[i0:i0 + block]
        axes = rule(rb)
        vals = shared
        if vals is None:
            pts = points(axes, len(rb)) if tiled is None else tiled[:, :len(rb) * npts]
            vals = u.eval(pts.T, np.repeat(t - rb, npts)).reshape((len(rb),) + sizes)
        for k in reversed(range(n)):
            vals = np.einsum("...mj,...j->...m", vals.reshape(-1, math.prod(sizes[:k]), sizes[k]),
                             np.reshape(axes[k][1], (-1, sizes[k])))
        out[i0:i0 + len(rb)] = vals.ravel()
    return out


def _gaussian_average(u: SpaceTimeField, x: np.ndarray, t: float, r_mid: np.ndarray,
                      sch: QuadratureScheme) -> tuple[np.ndarray, float]:
    """E_z u(x + 2 sqrt(r) z, t - r) for every lag in r_mid.

    Returns the averages and a bound for what the truncations of this
    routine discard (band-limit cut for global fields).
    """
    out = np.zeros_like(r_mid)
    discard = 0.0
    a_max = _gh_trust(sch.hermite_order)
    if u.space_support is None:
        # global field: Hermite nodes everywhere, but only while the rule
        # still resolves oscillation at the declared feature scale; the true
        # average beyond that lag is <= M exp(-a_max^2/4)
        near = r_mid <= (0.5 * a_max * u.space_scale) ** 2
        if not np.all(near):
            discard = u.sup_bound * math.exp(-0.25 * a_max * a_max)
    else:
        # field with an essential-support box: Hermite while the kernel scale
        # is below the feature scale, fixed support panels afterwards
        near = r_mid <= _hermite_reach(u)
        if not np.all(near):
            axes = list(zip(x, *_panel_axes(u, sch)))
            out[~near] = _axis_average(u, t, r_mid[~near], lambda rb: [
                _panel_axis(x_k, rb, nodes, weights) for x_k, nodes, weights in axes])
    if np.any(near):
        out[near] = _axis_average(u, t, r_mid[near], lambda rb: [
            _hermite_axis(x_k, rb, sch.hermite_order) for x_k in x])
    return out, discard


def _lag_integral(average, u_q: float, heat: float, s: float, sch: QuadratureScheme,
                  horizon: Optional[float], static: bool = False,
                  decay: Optional[float] = None) -> tuple[float, float, float]:
    """One sweep of (1/|Gamma(-s)|) Int_0^inf r^{-1-s} [u_q - avg(r)] dr.

    The one lag integral of the master operator, the Marchaud derivatives
    and the fold.  Callers supply ``average(r_mid) -> (avg, discard)``, the
    average at the cell midpoints and a bound for what it discards, and
    ``heat``, the slope of u_q - avg at r = 0, for the inner piece below
    ``r_min``.  ``static`` drops the cells' width cap.  ``horizon`` is the lag
    where the history leaves the support, or None: below ``r_max`` the cells
    end at ``max(horizon, r_min)`` and the tail is exact, else they end at
    ``r_max`` and the average beyond decays like r^{-decay} when ``decay``
    is given.  Returns (value, inner_remainder, discard_bound).
    """
    gam = gamma_abs_neg(s)
    exact_tail = horizon is not None and horizon < sch.r_max
    r_cut = max(horizon, sch.r_min) if exact_tail else sch.r_max
    val, discard, invariant = 0.0, 0.0, False
    if r_cut > sch.r_min:
        # a time-independent field has a smooth, monotone-tailed lag
        # integrand, so pure geometric cells suffice; time variation needs
        # the width cap
        edges = _capped_edges(sch.r_min, r_cut, sch.nodes_per_decade, cap_width=not static)
        mid, width = _cells(edges, [edges.size])
        avg, discard = average(mid)
        diff = u_q - avg
        invariant = float(np.max(np.abs(diff))) <= 1e-14 * max(1.0, abs(u_q))
        if invariant:
            # heat flow leaves the field invariant (constants): the integrand
            # is identically zero and the roundoff of the weights is dropped
            diff = np.zeros_like(diff)
        integrand = diff * mid ** (-1.0 - s)
        # numpy's own pairwise sum: a BLAS dot of more than 10,000 cells splits over threads
        val = float(np.sum(width * integrand)) / gam

    # analytic inner piece: integrand ~ r^{-s} heat below r_min
    val += heat * sch.r_min ** (1.0 - s) / ((1.0 - s) * gam)
    inner_rem = abs(heat) * sch.r_min ** (2.0 - s) / ((2.0 - s) * gam)

    # far tail: the u_q part integrates exactly; the average part is
    # modelled where its decay law is known and bounded otherwise
    if not invariant:
        val += u_q * r_cut ** (-s) / (s * gam)
        if decay is not None and not exact_tail:
            val -= float(avg[-1]) * r_cut ** (-s) / ((s + decay) * gam)
    discard_tail = 0.0 if exact_tail else discard * r_cut ** (-s) / (s * gam)
    return val, inner_rem, discard_tail


def _master_passes(u: SpaceTimeField, q: SpaceTimePoint, p: FracParams, sch: QuadratureScheme):
    """The input checks of master_operator_pointwise, then its pieces shared by every pass.

    Returns ``(sup_bound, one_pass)``.  ``one_pass(scheme, average=None)`` is the lag
    integral of u at q over the Gaussian average, or over ``average`` when given; the
    fold passes its folded average.  u(q) and the heat slope come from one field call
    here (``_fd_heat``), so every pass shares them with the horizon and the decay law.
    """
    q.validate(p)
    if q.x.shape != (u.n,):
        raise DomainValidationError("point dimension does not match the field")
    sup = u.require_bound()
    if u.space_support is not None:
        points = math.prod(len(a) for a in _panel_axes(u, sch.refine())[0])
        if points > _EVAL_CHUNK:
            raise DomainValidationError(
                f"the refined pass's panel rule has {points:,} points per lag, more than "
                f"the {_EVAL_CHUNK:,} that one field call of the panel average may hold")
    x, t = q.x, q.t
    u_q, heat = _fd_heat(u, x, t)
    # the history leaves the time support at lag t - a
    horizon = None if u.t_support is None else t - u.t_support[0]
    # a compact time-independent field has an average decaying like r^{-n/2}
    compact_static = u.time_independent and u.space_support is not None
    decay = p.n / 2.0 if compact_static else None

    def one_pass(sc: QuadratureScheme, average=None) -> tuple[float, float, float]:
        average = average or (lambda r_mid: _gaussian_average(u, x, t, r_mid, sc))
        return _lag_integral(average, u_q, heat, p.s, sc, horizon, u.time_independent, decay)

    return sup, one_pass


def master_operator_pointwise(u: SpaceTimeField, q: SpaceTimePoint, p: FracParams,
                              sch: QuadratureScheme) -> OperatorValue:
    """Evaluate (d_t - Laplacian)^s u at q by the semigroup quadrature.

    Raises AdmissibilityError when the field carries no finite sup bound,
    DomainValidationError, before any field evaluation, when the refined
    pass's panel rule would hold more than 2,000,000 points per lag, the
    most that one field call of the panel average may hold (the default
    Gaussian at n = 3 has 192^3), and ToleranceError when the value
    or the error estimate is not finite or, after the built-in refinement
    pass, the estimate still exceeds ``sch.target_tol``.
    """
    sup, one_pass = _master_passes(u, q, p, sch)
    return _two_pass(one_pass, sch, sup, p.s)


# ---------------------------------------------------------------------------
# the Gaussian average folded onto a half-space


def _folded_average(w: SpaceTimeField, axis: int, sign: float, lam: float, q: SpaceTimePoint,
                    sch: QuadratureScheme, r_mid: np.ndarray) -> np.ndarray:
    """Int_Sigma w(y, t - r) (K_r(x - y) - K_r(x - y^lambda)) dy for every lag r in r_mid.

    Sigma is the half-space sign * y[axis] < lam and y^lambda the mirror
    image of y across its plane; K_r is the heat kernel (4 pi r)^{-n/2}
    exp(-|z|^2 / (4 r)), a product of one factor per axis, and K_r(x - y^lambda)
    differs from K_r(x - y) only along the normal.  For an antisymmetric w this is
    the Gaussian average E_z w(x + 2 sqrt(r) z, t - r) written over Sigma alone.
    Along the normal, ``_gl_panels`` cover Sigma within eight kernel widths of q,
    clipped to the support and graded toward q and q^lambda, the panels of all lags
    built in one ``_refine_rows`` call, with weights that carry the kernel difference
    and (4 pi r)^{-1/2}.  At n = 2 the free axis is ``_hermite_axis`` up to
    ``_hermite_reach`` and ``_panel_axis`` beyond, and each lag's points are laid
    out normal-major with the free axis fastest.  One field call per run of
    consecutive lags holding at most ``_FIELD_BLOCK`` points.  Each lag is summed on
    its own: at n = 2 over the free axis first (``np.einsum``), then, at both n, by
    one ``np.dot`` over the normal-axis weights, so the result does not depend on the
    grouping.
    """
    x, t, n = q.x, q.t, w.n
    free = 1 - axis
    q_par = sign * x[axis]  # coordinate of q along the plane normal
    q_refl = 2.0 * lam - q_par
    lo_supp, hi_supp, r_cross = -math.inf, math.inf, math.inf
    if w.space_support is not None:
        a, b = (float(np.atleast_1d(e)[axis]) for e in w.space_support)
        lo_supp, hi_supp = (a, b) if sign > 0 else (-b, -a)
        r_cross = _hermite_reach(w)
        if n == 2:
            panel_nodes, panel_weights = (ax[free] for ax in _panel_axes(w, sch))
    hi = min(lam, hi_supp)
    feature = w.space_scale if math.isfinite(w.space_scale) else 1.0

    out = np.zeros_like(r_mid)
    sigma = 2.0 * np.sqrt(r_mid)
    lo = np.maximum(q_par - 8.0 * sigma, lo_supp)
    live = np.flatnonzero(lo < hi)
    if live.size == 0:
        return out
    # panels capped at the feature size: numpy.linspace's edges k * step + lo
    # with hi last, in the first count + 1 entries of each row
    lo_live = lo[live]
    count = np.minimum(np.ceil((hi - lo_live) / feature), 160.0).astype(int)
    col = np.arange(count.max() + 1)
    step = (hi - lo_live) / count
    grid = np.where(col < count[:, None], col * step[:, None] + lo_live[:, None], hi)
    # graded toward q and q^lambda; the steps of a centre outside (lo, hi) count too
    c = np.array([q_par, q_refl])
    offsets = (sigma[live, None] * np.arange(1, 9))[:, None, :]
    extra = np.concatenate([np.broadcast_to(c, (live.size, c.size)),
                            (c[:, None] - offsets).reshape(live.size, -1),
                            (c[:, None] + offsets).reshape(live.size, -1)], axis=1)
    edges, n_edges = _refine_rows(grid, count + 1, lo_live, hi, extra)
    nodes, weights = _gl_panels(edges, n_edges)
    lag_nodes = _PANEL_ORDER * (n_edges - 1)
    four_r = np.repeat(4.0 * r_mid[live], lag_nodes)
    weights *= (np.exp(-np.square(q_par - nodes) / four_r)
                - np.exp(-np.square(q_refl - nodes) / four_r))
    weights /= np.sqrt(math.pi * four_r)
    nodes = sign * nodes
    ends = np.cumsum(lag_nodes)

    def lag_rules():
        # (lag, coordinate-major points, normal-axis weights, free-axis weights or None)
        for i, a, b in zip(live, ends - lag_nodes, ends):
            if n == 1:
                yield i, nodes[None, a:b], weights[a:b], None
                continue
            rb = r_mid[i:i + 1]
            free_nodes, free_weights = (
                _hermite_axis(x[free], rb, sch.hermite_order) if rb[0] <= r_cross
                else _panel_axis(x[free], rb, panel_nodes, panel_weights))
            free_weights = np.ravel(free_weights)
            # normal-major, the free axis fastest
            pts = np.empty((2, b - a, free_weights.size))
            pts[axis] = nodes[a:b, None]
            pts[free] = np.ravel(free_nodes)
            yield i, pts.reshape(2, -1), weights[a:b], free_weights

    for run in _runs(lag_rules(), _FIELD_BLOCK, lambda rule: rule[1].shape[1]):
        idx, pts, wtss, free_wtss = zip(*run)
        sizes = [rule.shape[1] for rule in pts]
        terms = w.eval(np.concatenate(pts, axis=1).T, t - np.repeat(r_mid[list(idx)], sizes))
        for i, wts, free_wts, b, m in zip(idx, wtss, free_wtss, np.cumsum(sizes), sizes):
            vals = terms[b - m:b]
            if free_wts is not None:
                # the free axis first, as _axis_average sums one axis at a time
                vals = np.einsum("mj,j->m", vals.reshape(len(wts), -1), free_wts)
            # at most 160 panels of 8 nodes plus the grading: too few for BLAS to thread
            # the dot; a padded row or np.add.reduceat would round the sum differently
            out[i] = float(np.dot(wts, vals))
    return out


def _fold_passes(w: SpaceTimeField, axis: int, sign: float, lam: float, q: SpaceTimePoint,
                 p: FracParams, sch: QuadratureScheme) -> tuple[OperatorValue, float, float]:
    """The fold's passes: (whole, whole_coarse, folded_coarse).

    ``whole`` is ``master_operator_pointwise(w, q, p, sch)`` and whole_coarse
    its coarse pass; folded_coarse is the coarse pass over ``_folded_average``
    on sign * y[axis] < lam, with the same cells, inner piece, tail and panel rules.
    All three passes come from one ``_master_passes``, so they share one u(q),
    one heat slope, the horizon and the decay law.
    """
    sup, one_pass = _master_passes(w, q, p, sch)
    whole_passes = []

    def whole_pass(sc):
        whole_passes.append(one_pass(sc))
        return whole_passes[-1]

    whole = _two_pass(whole_pass, sch, sup, p.s)
    folded_coarse = one_pass(sch, average=lambda r_mid: (
        _folded_average(w, axis, sign, lam, q, sch, r_mid), 0.0))[0]
    return whole, whole_passes[0][0], folded_coarse


# ---------------------------------------------------------------------------
# reductions: fractional Laplacian and Marchaud derivatives


def _sweep_directions(n: int, sch: QuadratureScheme) -> tuple[np.ndarray, np.ndarray]:
    """Directions theta of the paired sweep, with weights summing to |S^{n-1}| / 2."""
    if n == 1:
        return np.array([[1.0]]), np.array([1.0])
    if n == 2:
        m_ang = 2 * sch.hermite_order
        ang = (np.arange(m_ang) + 0.5) * math.pi / m_ang
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1), np.full(m_ang, math.pi / m_ang)
    raise DomainValidationError("fractional Laplacian quadrature supports n in {1, 2}")


def _support_cusps(g: SpaceField, X: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Radii z where x + z theta or x - z theta crosses the support sphere, per row x of X.

    Shape (points, directions, 4), NaN where the line through x misses the
    sphere.  x . theta is summed coordinate by coordinate, with no matrix
    product, so each point's cusps are the ones it has alone.
    """
    b = sum(X[:, k, None] * thetas[:, k] for k in range(X.shape[1]))
    disc = g.ball_radius**2 - (sq_dist(X, 0.0)[:, None] - b * b)
    root = np.sqrt(np.where(disc > 0, disc, np.nan))
    return np.abs(np.stack([-b + root, -b - root, b + root, b - root], axis=-1))


def _laplacian_single_pass(g: SpaceField, X: np.ndarray, centres: np.ndarray, p: FracParams,
                           sch: QuadratureScheme, curvature: np.ndarray) -> tuple:
    """One paired sweep at every row of X: (values, inner_remainder, discard_bound).

    ``centres[i, j]`` holds the kink radii of direction j at X[i] (NaN for
    none).  ``curvature`` holds one Laplacian per row of X for the inner
    Taylor cell.  Field calls take runs of consecutive points
    holding at most ``_FIELD_BLOCK`` field points; each run's (point,
    direction) rows are summed by one ``np.add.reduceat``, one segment per
    row, and each point's directions by one weighted row sum, so no value
    depends on the runs.
    """
    n, s = p.n, p.s
    a_ns = integrated_kernel_constant(p)
    z_min = math.sqrt(sch.r_min)
    npd = sch.nodes_per_decade
    thetas, th_w = _sweep_directions(n, sch)
    steps = _CAP_FACTOR / npd / 2.0 ** np.arange(1, 9)
    shifts = np.concatenate([[0.0], -steps, steps])  # c + (-step) rounds as c - step

    exact_tail = g.exterior == ZERO_BALL
    z_star = (g.ball_radius + np.sqrt(sq_dist(X, 0.0)) if exact_tail
              else np.full(len(X), 2.0 * math.sqrt(sch.r_max)))
    inside = (centres > z_min) & (centres < z_star[:, None, None])
    rows_n = len(thetas)

    def point_cells():
        # the radial edges depend on x alone; each direction adds its kinks
        # inside (z_min, hi), and with none inside all directions share one set
        # of cells
        for i, hi in enumerate(z_star):
            base = _capped_edges(z_min, hi, npd)
            if not inside[i].any():
                mid, width = _cells(base, [base.size])
                yield i, np.tile(mid, rows_n), np.tile(width, rows_n), np.full(rows_n, mid.size)
                continue
            c = np.where(inside[i], centres[i], np.nan)
            edges, counts = _refine_rows(base[None, :], base.size, z_min, hi,
                                         (c[:, :, None] + shifts).reshape(rows_n, -1))
            yield (i,) + _cells(edges, counts) + (counts - 1,)

    g_x = np.empty(len(X))
    pair_peak = np.empty(len(X))
    total = np.empty(len(X))
    for run in _runs(point_cells(), _FIELD_BLOCK, lambda cells: 1 + 2 * len(cells[1])):
        idx, mids, widths, counts = zip(*run)
        idx, k = list(idx), len(idx)
        zm, zw, counts = np.concatenate(mids), np.concatenate(widths), np.concatenate(counts)
        per_point = [len(m) for m in mids]
        x_run = X[idx].T
        # one coordinate-major field call per run: its points, then x + z theta
        # and x - z theta of every cell
        offsets = zm * np.repeat(np.tile(thetas.T, (1, k)), counts, axis=1)
        at = np.repeat(x_run, per_point, axis=1)
        vals = g.eval(np.concatenate([x_run, at + offsets, at - offsets], axis=1).T)
        g_x[idx] = vals[:k]
        s_pair = 2.0 * np.repeat(vals[:k], per_point) - vals[k:k + len(zm)] - vals[k + len(zm):]
        pair_peak[idx] = np.maximum.reduceat(np.abs(s_pair), np.cumsum(per_point) - per_point)
        # one segment per row, none empty: every row holds at least one cell
        row_sums = np.add.reduceat(zw * s_pair * zm ** (-1.0 - 2.0 * s),
                                   np.cumsum(counts) - counts).reshape(k, -1)
        total[idx] = (row_sums * th_w).sum(axis=1)
    val = a_ns * total

    # inner Taylor piece over |z| < z_min (paired, so odd parts vanish)
    omega_half = math.pi ** (n / 2.0) / math.gamma(n / 2.0)  # |S^{n-1}| / 2
    val -= a_ns * omega_half * (curvature / n) * z_min ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)

    # far field; a globally constant field has no far contribution at all
    far_pow = z_star ** (-2.0 * s)
    far = pair_peak > 1e-14 * np.maximum(1.0, np.abs(g_x))
    val[far] += (2.0 * g_x * a_ns * omega_half * far_pow / (2.0 * s))[far]
    discard = 0.0 if exact_tail else 2.0 * g.sup_bound * a_ns * omega_half * far_pow / (2.0 * s)
    return val, 0.0, discard


def _fractional_laplacian(g: SpaceField, X: np.ndarray, p: FracParams, sch: QuadratureScheme,
                          breakpoints: Optional[Sequence[float]] = None,
                          curvature: Optional[np.ndarray] = None) -> OperatorValue:
    """``fractional_laplacian_pointwise`` at every row of X: value and est_error arrays.

    ``curvature`` holds one value per row, by finite differences when not
    given; the input checks are the caller's.  The kinks, one (points,
    directions, kinks) array of the breakpoints and where each direction's
    line crosses the support sphere, and the curvature serve both passes.
    """
    thetas = _sweep_directions(p.n, sch)[0]
    shared = np.asarray(breakpoints if breakpoints is not None else [], dtype=float)
    centres = np.broadcast_to(shared, (len(X), len(thetas), shared.size))
    if g.exterior == ZERO_BALL:
        centres = np.concatenate([centres, _support_cusps(g, X, thetas)], axis=2)
    if curvature is None:
        delta = max(1e-4, 0.5 * math.sqrt(sch.r_min))
        curvature = [_fd_laplacian(g.eval, x, delta) for x in X]
    curvature = np.asarray(curvature, dtype=float)
    return _two_pass(lambda sc: _laplacian_single_pass(g, X, centres, p, sc, curvature),
                     sch, g.sup_bound, p.s)


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
    x = as_reals(x, "x", p.n)
    g.require_bound()
    ov = _fractional_laplacian(g, x[None, :], p, sch, breakpoints,
                               None if curvature is None else [curvature])
    return OperatorValue(float(ov.value[0]), float(ov.est_error[0]))


def _marchaud(h: TimeField, t: float, s: float, sch: QuadratureScheme, side: int) -> OperatorValue:
    """side=+1: left derivative (past values); side=-1: right (future values)."""
    t, s = as_real(t, "t"), as_real(s, "order s")
    if not 0.0 < s < 1.0:
        raise DomainValidationError(f"order s must lie in (0, 1), got {s}")
    h.require_bound()
    horizon = None
    if h.support is not None:
        horizon = (t - h.support[0]) if side > 0 else (h.support[1] - t)
    delta = 1e-4
    h_t, ahead, behind = map(float, h.eval(np.array([t, t + delta, t - delta])))
    heat = side * (ahead - behind) / (2.0 * delta)

    def average(r_mid):
        return h.eval(t - side * r_mid), 0.0

    return _two_pass(lambda sc: _lag_integral(average, h_t, heat, s, sc, horizon),
                     sch, h.sup_bound, s)


def marchaud_left(h: TimeField, t: float, s: float, sch: QuadratureScheme) -> OperatorValue:
    """Marchaud left derivative: integrates u(t) - u(tau) over past times tau < t."""
    return _marchaud(h, t, s, sch, side=+1)


def marchaud_right(h: TimeField, t: float, s: float, sch: QuadratureScheme) -> OperatorValue:
    """Marchaud right derivative: integrates over future times tau > t."""
    return _marchaud(h, t, s, sch, side=-1)
