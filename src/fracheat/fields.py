"""Evaluatable fields on R^n x R and their metadata.

Fields are supplied as vectorized callables plus declared metadata: an
exterior extension rule, a known sup bound used for truncation-tail
estimates, and (optionally) an essential-support box and a characteristic
feature length.  The quadrature module never samples fields onto grids of
its own; it only calls ``eval``.

The three field kinds follow one set of metadata rules, checked when a
field is built: the exterior rule is known, a zero-ball field has a
positive ``ball_radius`` and a support box that ends at the ball's box
[-r, r]^n (that box unless it declares one), a support box holds n finite
entries lo < hi, a time support (a, b) has a < b, ``space_scale > 0`` and
``sup_bound >= 0``.
``require_bound`` is the one gate in front of every tail estimate that
needs a finite bound, and ``_inside_ball`` the one zero-ball mask.

Conventions for the callables:

* space-time  ``func(X, t)`` with ``X`` of shape (m, n) and ``t`` of shape (m,),
* space-only  ``func(X)`` with ``X`` of shape (m, n),
* time-only   ``func(t)`` with ``t`` of shape (m,),

each returning a float array of shape (m,).

The quadratures call them on blocks of up to 62,500 points of small
dimension (more only when one lag's panel rule alone holds more), millions
per operator value.  Each block arrives coordinate-major: ``X`` has
contiguous columns and need not be C-contiguous.  A callable should read
``X[:, k]`` and must not assume a memory layout.  The library fields work
column by column, in place where they can: ``core.sq_dist(X, c)`` accumulates
(X[:, k] - c[k])^2 over the n columns.  Broadcasting X against a length-n
row (``d = X - c; np.sum(d * d, axis=-1)``) gives the same bits but is the
slow pattern: NumPy then loops over a length-n inner axis for every point.
Every row of a block has the bits it has alone: no library field forms a
matrix product, whose rounding follows the row count and the BLAS threads
(``plane_wave`` sums x . xi by columns too).  A block holds one time per
lag, in consecutive runs (one run for a lag that fills a block alone), so
the library fields compute their time factor once per run of equal times
(``_time_gauss``).
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import as_int, as_real, as_reals, sq_dist
from .errors import AdmissibilityError, DomainValidationError

GLOBAL = "global"
ZERO_BALL = "zero-ball"


def _as_points(x, n: int) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, n) if n == 1 else pts.reshape(1, n)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise DomainValidationError(f"points must have shape (m, {n}), got {pts.shape}")
    return pts


class _Bounded:
    """The sup-bound and time-support rules of every field kind."""

    def __post_init__(self):
        if not self.sup_bound >= 0:  # NaN too
            raise DomainValidationError("sup_bound must be nonnegative")
        for name in ("t_support", "support"):  # SpaceTimeField's and TimeField's
            ab = getattr(self, name, None)
            if ab is not None and not ab[0] < ab[1]:
                raise DomainValidationError(f"{name} must be an interval (a, b), a < b, got {ab!r}")

    def require_bound(self) -> float:
        if not math.isfinite(self.sup_bound):
            raise AdmissibilityError("field has no finite sup_bound; tail cannot be bounded")
        return self.sup_bound


class _OnSpace(_Bounded):
    """The exterior, support-box and feature-scale rules of the two field kinds on R^n."""

    def __post_init__(self):
        object.__setattr__(self, "n", as_int(self.n, "n"))
        if self.n < 1:
            raise DomainValidationError(f"n must be at least 1, got {self.n}")
        if self.exterior not in (GLOBAL, ZERO_BALL):
            raise DomainValidationError(f"unknown exterior rule {self.exterior!r}")
        r = self.ball_radius
        if self.exterior == ZERO_BALL:
            if r is None or r <= 0:
                raise DomainValidationError("zero-ball exterior rule needs a positive ball_radius")
            if self.space_support is None:
                object.__setattr__(
                    self, "space_support", (np.full(self.n, -r), np.full(self.n, r))
                )
        if not self.space_scale > 0:
            raise DomainValidationError(f"space_scale must be positive, got {self.space_scale!r}")
        if self.space_support is not None:
            lo, hi = (np.atleast_1d(np.asarray(e, dtype=float)) for e in self.space_support)
            shaped = lo.shape == (self.n,) == hi.shape and np.isfinite([lo, hi]).all()
            if shaped and self.exterior == ZERO_BALL and (np.any(lo < -r) or np.any(hi > r)):
                # the field vanishes outside the ball, so its box ends at the ball's
                lo, hi = np.maximum(lo, -r), np.minimum(hi, r)
                object.__setattr__(self, "space_support", (lo, hi))
            if not (shaped and np.all(lo < hi)):
                raise DomainValidationError(f"space_support must be two arrays (lo, hi) of "
                                            f"n = {self.n} finite entries, lo < hi")
        super().__post_init__()

    def _inside_ball(self, pts: np.ndarray) -> np.ndarray:
        # einsum sums the squares in an order that follows the memory layout;
        # over coordinate-major points it is core.sq_dist's, column by column
        cols = np.asfortranarray(pts)
        return np.einsum("ij,ij->i", cols, cols) < self.ball_radius**2

    def _eval_with_exterior(self, pts: np.ndarray, *args: np.ndarray) -> np.ndarray:
        """``func(pts, *args)``, exactly zero outside the ball of a zero-ball field."""
        if self.exterior != ZERO_BALL:
            return np.asarray(self.func(pts, *args), dtype=float)
        inside = self._inside_ball(pts)
        out = np.zeros(pts.shape[0])
        if np.any(inside):
            # the rows inside, coordinate-major like the quadratures' blocks
            rows = pts.T.compress(inside, axis=1).T
            out[inside] = self.func(rows, *(a[inside] for a in args))
        return out


@dataclass(frozen=True)
class SpaceTimeField(_OnSpace):
    """A bounded function u(x, t) with declared exterior behaviour.

    Parameters
    ----------
    func : callable
        Vectorized evaluation ``func(X, t)``.
    n : int
        Space dimension.
    exterior : str
        ``"global"`` (defined everywhere) or ``"zero-ball"`` (identically
        zero outside the ball of radius ``ball_radius``); the rule is
        enforced bit-exactly at evaluation time.
    sup_bound : float
        Known bound M with |u| <= M; ``math.inf`` marks an unbounded field,
        which every operator rejects (``require_bound``).
    ball_radius : float, optional
        Radius for the zero-ball rule.
    space_support : (lo, hi) arrays, optional
        Essential-support box: |u| is negligible outside it.  Enables the
        large-lag panel rule in the semigroup quadrature.  A zero-ball
        field stores the part inside [-r, r]^n (a box inside is kept).
    space_scale : float
        Smallest spatial feature length (1/max frequency for oscillatory
        fields, bump width for localized ones, ``inf`` if constant in space).
    t_support : (a, b), optional
        u(., tau) vanishes for tau outside [a, b].
    time_independent : bool
        Declares that u does not depend on t.  The quadrature trusts the
        declaration: it evaluates such a field at one time per pass and
        reuses the values for every lag.  ``spot_check`` tests it.
    """

    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    n: int
    exterior: str = GLOBAL
    sup_bound: float = 1.0
    ball_radius: Optional[float] = None
    space_support: Optional[tuple] = None
    space_scale: float = 1.0
    t_support: Optional[tuple] = None
    time_independent: bool = False

    def eval(self, x, t) -> np.ndarray:
        pts = _as_points(x, self.n)
        ts = np.broadcast_to(np.asarray(t, dtype=float), (pts.shape[0],))
        return self._eval_with_exterior(pts, ts)

    def at(self, x, t: float) -> float:
        return float(self.eval(np.asarray(x, dtype=float).reshape(1, -1), np.array([t]))[0])


@dataclass(frozen=True)
class SpaceField(_OnSpace):
    """A time-independent field g(x) with the metadata of ``SpaceTimeField``."""

    func: Callable[[np.ndarray], np.ndarray]
    n: int
    exterior: str = GLOBAL
    sup_bound: float = 1.0
    ball_radius: Optional[float] = None
    space_scale: float = 1.0
    space_support: Optional[tuple] = None

    def eval(self, x) -> np.ndarray:
        return self._eval_with_exterior(_as_points(x, self.n))

    def as_spacetime(self) -> SpaceTimeField:
        shared = {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.name != "func"}
        return SpaceTimeField(lambda X, t: self.func(X), time_independent=True, **shared)


@dataclass(frozen=True)
class TimeField(_Bounded):
    """A function of time alone, h(t)."""

    func: Callable[[np.ndarray], np.ndarray]
    sup_bound: float = 1.0
    support: Optional[tuple] = None

    def eval(self, t) -> np.ndarray:
        return np.asarray(self.func(np.asarray(t, dtype=float)), dtype=float)

    def as_spacetime(self, n: int) -> SpaceTimeField:
        return SpaceTimeField(
            func=lambda X, t: self.func(t),
            n=n,
            sup_bound=self.sup_bound,
            space_scale=math.inf,
            t_support=self.support,
        )


# spot_check draws this many points (x, t) uniformly from [-3, 3]^(n + 1)
_SPOT_SAMPLES = 256
_SPOT_HALF_WIDTH = 3.0


def spot_check(field: SpaceTimeField, rng: np.random.Generator) -> None:
    """Spot-check the declared invariants on random sample points.

    No sample may be NaN, nor infinite when the sup bound is finite;
    exterior points of a zero-ball field must evaluate to exactly zero,
    no sampled magnitude may exceed the declared sup bound, and a field
    declared time-independent must return bit-identical values one time
    unit later.
    """
    pts = rng.uniform(-_SPOT_HALF_WIDTH, _SPOT_HALF_WIDTH, size=(_SPOT_SAMPLES, field.n))
    ts = rng.uniform(-_SPOT_HALF_WIDTH, _SPOT_HALF_WIDTH, size=_SPOT_SAMPLES)
    vals = field.eval(pts, ts)
    # NaN compares false against every bound, so it needs its own check
    if np.any(np.isnan(vals)):
        raise DomainValidationError("field returned NaN on sampled points")
    if math.isfinite(field.sup_bound) and np.any(np.isinf(vals)):
        raise DomainValidationError("field returned an infinite value despite a finite sup_bound")
    if field.time_independent and not np.array_equal(vals, field.eval(pts, ts + 1.0),
                                                     equal_nan=True):
        raise DomainValidationError("field declared time_independent depends on t")
    if math.isfinite(field.sup_bound) and np.any(np.abs(vals) > field.sup_bound * (1 + 1e-12)):
        raise DomainValidationError("sampled |u| exceeds the declared sup_bound")
    if field.exterior == ZERO_BALL:
        if np.any(vals[~field._inside_ball(pts)] != 0.0):
            raise DomainValidationError("exterior rule violated on sampled points")


def constant_field(n: int, value: float = 1.0) -> SpaceTimeField:
    return SpaceTimeField(
        func=lambda X, t: np.full(X.shape[0], float(value)),
        n=n,
        sup_bound=abs(value),
        space_scale=math.inf,
        time_independent=True,
    )


def linear_combination(fields: Sequence[SpaceTimeField], coeffs: Sequence[float]) -> SpaceTimeField:
    """a1 u1 + a2 u2 + ...; metadata combined conservatively."""
    fs = list(fields)
    cs = as_reals(coeffs, "coeffs").tolist()
    if len(fs) != len(cs) or not fs:
        raise DomainValidationError("need matching nonempty fields and coefficients")
    n = fs[0].n
    if any(f.n != n for f in fs):
        raise DomainValidationError("all fields must share the space dimension")

    def f(X, t):
        out = cs[0] * fs[0].eval(X, t)
        for c, fld in zip(cs[1:], fs[1:]):
            out += c * fld.eval(X, t)
        return out

    support = None
    if all(fld.space_support is not None for fld in fs):
        lo = np.min([np.asarray(fld.space_support[0]) for fld in fs], axis=0)
        hi = np.max([np.asarray(fld.space_support[1]) for fld in fs], axis=0)
        support = (lo, hi)
    t_support = None
    if all(fld.t_support is not None for fld in fs):
        t_support = (
            min(fld.t_support[0] for fld in fs),
            max(fld.t_support[1] for fld in fs),
        )
    return SpaceTimeField(
        func=f,
        n=n,
        sup_bound=sum(abs(c) * fld.sup_bound for c, fld in zip(cs, fs)),
        space_support=support,
        space_scale=min(fld.space_scale for fld in fs),
        t_support=t_support,
        time_independent=all(fld.time_independent for fld in fs),
    )


# ---------------------------------------------------------------------------
# smooth compactly supported profiles


def mollifier(x) -> np.ndarray:
    """The standard bump e^{1 + 1/(|x|^2 - 1)} inside the unit ball, 0 outside.

    Peaks at 1 at the origin and is C-infinity across the support boundary.
    """
    pts = np.asarray(x, dtype=float)
    sq = pts * pts if pts.ndim == 1 else sq_dist(pts, 0.0)
    out = np.zeros_like(sq, dtype=float)
    inside = sq < 1.0
    with np.errstate(divide="ignore"):
        out[inside] = np.exp(1.0 + 1.0 / (sq[inside] - 1.0))
    return out


def _smooth_step(x: np.ndarray) -> np.ndarray:
    # C-infinity transition: 0 for x <= 0, 1 for x >= 1
    def psi(v):
        out = np.zeros_like(v)
        pos = v > 0
        out[pos] = np.exp(-1.0 / v[pos])
        return out

    a = psi(x)
    b = psi(1.0 - x)
    return a / (a + b)


def plateau_bump(t) -> np.ndarray:
    """C-infinity profile equal to 1 on [-1/2, 1/2], supported in (-1, 1)."""
    tau = np.abs(np.asarray(t, dtype=float))
    return _smooth_step(2.0 * (1.0 - tau))


def torsion_rhs_constant(n: int, s: float) -> float:
    """Value of the fractional Laplacian of (1 - |x|^2)_+^s inside the unit ball.

    Equals 2^{2s} Gamma(n/2 + s) Gamma(1 + s) / Gamma(n/2); for n = 1, s = 1/2
    the constant is exactly 1, so (1 - x^2)^{1/2} solves the unit-source
    problem in the ball.
    """
    return (
        2.0 ** (2.0 * s)
        * math.gamma(n / 2.0 + s)
        * math.gamma(1.0 + s)
        / math.gamma(n / 2.0)
    )


def torsion_profile(n: int, s: float, shift: Optional[Sequence[float]] = None) -> SpaceField:
    """(1 - |x - shift|^2)_+^s, zero outside the shifted unit ball.

    The unshifted profile is the closed-form benchmark for the unit-ball
    Dirichlet solver; the shifted variant is deliberately *not* a solution
    and is used to exercise asymmetry detection.
    """
    off = np.zeros(n) if shift is None else as_reals(shift, "shift", n)

    def g(X):
        sq = sq_dist(X, off)
        return np.where(sq < 1.0, np.power(np.maximum(1.0 - sq, 0.0), s), 0.0)

    # a shifted profile is clipped against the ORIGINAL unit ball, like grid data would be
    return SpaceField(g, n=n, exterior=ZERO_BALL, sup_bound=1.0, ball_radius=1.0, space_scale=0.5)


def _gauss(sq: np.ndarray, width: float) -> np.ndarray:
    """exp(-sq / width^2), written over ``sq``.

    The minus sign rides on the divisor: (-a) / b and a / (-b) round alike,
    so the bits are those of ``np.exp(-sq / width**2)``.
    """
    np.divide(sq, -width**2, out=sq)
    return np.exp(sq, out=sq)


def _time_gauss(val: np.ndarray, t, centre: float, width: float) -> np.ndarray:
    """Multiply ``val`` in place by exp(-(t - centre)^2 / width^2) and return it.

    ``t`` is a scalar or has the shape (m,) of ``val``, a contiguous buffer.  The
    quadratures hand a field one time per lag, in consecutive runs, so the factor is
    computed once per run of equal times (a NaN time is a run of its own; +0.0 and
    -0.0 give the same factor) and applied run by run: a reshape when all runs have
    one length, else a repeat.  Each point gets the bits of the pointwise formula.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != val.shape:  # one time for all points
        t = np.broadcast_to(t, val.shape)
    if not t.size:
        return val
    starts = np.empty(t.shape, dtype=bool)
    starts[0] = True
    np.not_equal(t[1:], t[:-1], out=starts[1:])
    starts = starts.nonzero()[0]
    d = t[starts]
    d -= centre
    factor = _gauss(np.square(d, out=d), width)
    # k distinct multiples of size below k * size are 0, size, ..., (k - 1) size
    size = t.size // starts.size
    if size * starts.size == t.size and not (starts % size).any():
        runs = val.reshape(starts.size, size)
        runs *= factor[:, None]
    else:
        val *= np.repeat(factor, np.diff(starts, append=t.size))
    return val


def _checked_width(value, name: str) -> float:
    """``value`` by ``core.as_real``, with a square in the normal float range when positive.

    A nonpositive width passes here and fails the field's own rules
    (``space_scale`` and ``t_support``).
    """
    w = as_real(value, name)
    if w > 0 and not sys.float_info.min <= w * w < math.inf:
        raise DomainValidationError(f"{name} must have a square in the normal float range, "
                                    f"got {value!r}")
    return w


def gaussian_bump(
    n: int,
    center: Sequence[float] | None = None,
    width: float = 1.0,
    t_center: float = 0.0,
    t_width: float | None = 1.0,
    amplitude: float = 1.0,
) -> SpaceTimeField:
    """Separable Gaussian bump; ``t_width=None`` makes it time-independent."""
    c = np.zeros(n) if center is None else as_reals(center, "center", n)
    t_center = as_real(t_center, "t_center")
    width = _checked_width(width, "width")
    if t_width is not None:
        t_width = _checked_width(t_width, "t_width")

    def f(X, t):
        val = _gauss(sq_dist(X, c), width)
        if t_width is not None:
            _time_gauss(val, t, t_center, t_width)
        if amplitude != 1.0:  # x * 1.0 is x
            val *= amplitude
        return val

    half = 6.0 * width
    t_supp = None if t_width is None else (t_center - 10.0 * t_width, t_center + 10.0 * t_width)
    return SpaceTimeField(
        func=f,
        n=n,
        sup_bound=abs(amplitude),
        space_support=(c - half, c + half),
        space_scale=width,
        t_support=t_supp,
        time_independent=t_width is None,
    )


def plane_wave(n: int, xi: Sequence[float], rho: float) -> SpaceTimeField:
    """cos(xi . x + rho t); globally defined and bounded by 1."""
    xi_v = as_reals(xi, "xi", n)
    rho = as_real(rho, "rho")
    xi_norm = float(np.linalg.norm(xi_v))

    def f(X, t):
        arg = X[:, 0] * xi_v[0]
        for k in range(1, n):
            arg += X[:, k] * xi_v[k]
        return np.cos(arg + rho * t)

    return SpaceTimeField(
        func=f,
        n=n,
        sup_bound=1.0,
        space_scale=math.inf if xi_norm == 0.0 else 1.0 / xi_norm,
        time_independent=rho == 0.0,
    )


def polynomial_cutoff(n: int, coeffs: Sequence[float]) -> SpaceField:
    """(c0 + c1 |x|^2 + c2 |x|^4 + ...) times the unit-ball mollifier."""
    cs = as_reals(coeffs, "coeffs").tolist()

    def g(X):
        sq = sq_dist(X, 0.0)
        poly = np.zeros_like(sq)
        for c in reversed(cs):
            poly = poly * sq + c
        return poly * mollifier(X)

    bound = sum(abs(c) for c in cs)
    return SpaceField(g, n=n, exterior=ZERO_BALL, sup_bound=bound, ball_radius=1.0, space_scale=0.5)


# ---------------------------------------------------------------------------
# seeded random fields for diagnostics


def random_space_bump(rng: np.random.Generator, n: int) -> SpaceField:
    """Sum of a few random Gaussians, compactly concentrated near the origin."""
    k = int(rng.integers(2, 4))
    centers = rng.uniform(-0.8, 0.8, size=(k, n))
    widths = rng.uniform(0.4, 0.9, size=k)
    amps = rng.uniform(-1.0, 1.0, size=k)

    def g(X):
        out = np.zeros(X.shape[0])
        for c, w, a in zip(centers, widths, amps):
            term = _gauss(sq_dist(X, c), w)
            term *= a
            out += term
        return out

    bound = float(np.sum(np.abs(amps)))
    lo = np.min(centers - 6.0 * widths[:, None], axis=0)
    hi = np.max(centers + 6.0 * widths[:, None], axis=0)
    return SpaceField(g, n=n, sup_bound=bound, space_scale=float(widths.min()),
                      space_support=(lo, hi))


def random_time_field(rng: np.random.Generator) -> TimeField:
    """Sum of random Gaussians in time, supported (essentially) in [-6, 6]."""
    k = int(rng.integers(2, 4))
    centers = rng.uniform(-2.0, 2.0, size=k)
    widths = rng.uniform(0.5, 1.2, size=k)
    amps = rng.uniform(-1.0, 1.0, size=k)

    def h(t):
        out = np.zeros_like(t)
        for c, w, a in zip(centers, widths, amps):
            out += a * np.exp(-((t - c) ** 2) / w**2)
        return out

    bound = float(np.sum(np.abs(amps)))
    return TimeField(h, sup_bound=bound, support=(-12.0, 12.0))


def random_spacetime_bump(rng: np.random.Generator, n: int) -> SpaceTimeField:
    """Random space-time Gaussian packet, bounded, smooth, fast-decaying."""
    space = random_space_bump(rng, n)
    tc = float(rng.uniform(-0.5, 0.5))
    tw = float(rng.uniform(0.6, 1.2))

    def f(X, t):
        return _time_gauss(space.func(X), t, tc, tw)

    lo, hi = space.space_support
    return SpaceTimeField(
        func=f,
        n=n,
        sup_bound=space.sup_bound,
        space_support=(lo, hi),
        space_scale=space.space_scale,
        t_support=(tc - 10.0 * tw, tc + 10.0 * tw),
    )


def antisymmetrize(field: SpaceTimeField, reflect_fn) -> SpaceTimeField:
    """w(x, t) = F(x, t) - F(x^lambda, t): exactly antisymmetric about the plane."""

    def f(X, t):
        out = field.eval(X, t)
        if not (out.flags.owndata and out.flags.writeable):  # a view of X or t
            out = out.copy()
        out -= field.eval(reflect_fn(X), t)
        return out

    support = None
    if field.space_support is not None:
        # the bounding box of the support box and of its mirror image, whose extremes an
        # oblique plane may take from any of the 2^n corners, not only from lo and hi
        lo, hi = field.space_support
        pick = (np.arange(2 ** field.n)[:, None] >> np.arange(field.n)) & 1
        mirror = reflect_fn(np.where(pick == 1, hi, lo))
        support = (np.minimum(lo, np.min(mirror, axis=0)), np.maximum(hi, np.max(mirror, axis=0)))
    return SpaceTimeField(
        func=f,
        n=field.n,
        sup_bound=2.0 * field.sup_bound,
        space_support=support,
        space_scale=field.space_scale,
        t_support=field.t_support,
        time_independent=field.time_independent,
    )


# ---------------------------------------------------------------------------
# named registry used by the CLI


# each named field: its parameter names and its builder
_FIELD_BUILDERS = {
    "gaussian-bump": (("center", "width", "t_center", "t_width"),
                      lambda n, s, params: gaussian_bump(n, **params)),
    "plane-wave": (("xi", "rho"), lambda n, s, params: plane_wave(
        n, params.get("xi", [1.0] * n), params.get("rho", 1.0))),
    "torsion-profile": ((), lambda n, s, params: torsion_profile(n, s).as_spacetime()),
    "shifted-torsion": (("shift",), lambda n, s, params: torsion_profile(
        n, s, shift=params.get("shift", [0.2] + [0.0] * (n - 1))).as_spacetime()),
    "custom-polynomial-cutoff": (("coeffs",), lambda n, s, params: polynomial_cutoff(
        n, params.get("coeffs", [1.0, -0.5])).as_spacetime()),
}
FIELD_NAMES = tuple(_FIELD_BUILDERS)


def build_field(name: str, n: int, s: float, params: dict | None = None):
    """Construct a named field from the parameters it declares.

    Raises DomainValidationError for an unknown name, a ``params`` that is
    not a dict and a parameter the field does not declare.
    """
    if name not in _FIELD_BUILDERS:
        raise DomainValidationError(f"unknown field {name!r}; one of {FIELD_NAMES}")
    names, build = _FIELD_BUILDERS[name]
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise DomainValidationError(f"params of field {name!r} must be an object, got {params!r}")
    unknown = [key for key in params if key not in names]
    if unknown:
        raise DomainValidationError(f"unknown parameter(s) {unknown} of field {name!r}; "
                                    f"accepted: {list(names)}")
    return build(n, s, params)
