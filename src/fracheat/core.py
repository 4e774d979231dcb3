"""Fractional parameters and the space-time heat kernel.

The operator acts on u(x, t) through the kernel

    K(x - y, t - tau) = C(n, s) * (t - tau)^{-(n/2 + 1 + s)} * exp(-|x - y|^2 / (4 (t - tau)))

for 0 < s < 1, with C(n, s) = 1 / ((4 pi)^{n/2} |Gamma(-s)|).  Integrating the
kernel over all positive time lags collapses it to the purely spatial kernel
A(n, s) |x - y|^{-(n + 2 s)} with A(n, s) = 4^s Gamma(n/2 + s) / (pi^{n/2} |Gamma(-s)|);
both constants are exposed here together with the kernel evaluations.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainValidationError

# exp() overflow threshold for float64; used to fail loudly instead of
# returning inf when a lag is at machine-zero scale
_LOG_HUGE = 700.0


def gamma_abs_neg(s: float) -> float:
    """|Gamma(-s)| for s in (0, 1), computed as Gamma(1 - s) / s.

    The recurrence keeps every gamma evaluation on (0, 1] where the
    library implementation is accurate to full double precision, and
    sidesteps the pole/sign bookkeeping of negative arguments.
    """
    if not 0.0 < s < 1.0:
        raise DomainValidationError(f"order s must lie in (0, 1), got {s}")
    return math.gamma(1.0 - s) / s


def as_int(value, name: str) -> int:
    """``value`` as an int when it is an integral number, 20 or 20.0; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise DomainValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(value, name: str) -> float:
    """``value`` as a float when it is a finite real number; a bool or a string is not one."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            real = float(value)
        except OverflowError:  # an int beyond float range
            real = math.inf
        if math.isfinite(real):
            return real
    raise DomainValidationError(f"{name} must be a finite real number, got {value!r}")


def as_reals(values, name: str, n: int | None = None) -> np.ndarray:
    """A number or a sequence of numbers as a float array, every entry by ``as_real``.

    With ``n`` given it must hold n entries.
    """
    entries = np.atleast_1d(np.asarray(values, dtype=object))
    if n is not None and len(entries) != n:
        raise DomainValidationError(f"{name} must have n = {n} entries, got {values!r}")
    return np.array([as_real(v, f"every entry of {name}") for v in entries], dtype=float)


@dataclass(frozen=True)
class FracParams:
    """Space dimension n >= 1 and fractional order s in (0, 1)."""

    n: int
    s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_int(self.n, "dimension n"))
        object.__setattr__(self, "s", as_real(self.s, "order s"))
        if self.n < 1:
            raise DomainValidationError(f"dimension n must be a positive integer, got {self.n}")
        if not 0.0 < self.s < 1.0:
            raise DomainValidationError(f"order s must lie strictly in (0, 1), got {self.s}")


@dataclass(frozen=True)
class SpaceTimePoint:
    """A point (x, t); x is a length-n vector.  Every coordinate is a finite real number."""

    x: np.ndarray
    t: float

    def __init__(self, x, t: float):
        object.__setattr__(self, "x", as_reals(x, "x"))
        object.__setattr__(self, "t", as_real(t, "t"))

    def validate(self, p: FracParams) -> None:
        if self.x.shape != (p.n,):
            raise DomainValidationError(
                f"point has spatial dimension {self.x.shape}, expected ({p.n},)"
            )


def normalization_constant(p: FracParams) -> float:
    """C(n, s) = 1 / ((4 pi)^{n/2} |Gamma(-s)|)."""
    return 1.0 / ((4.0 * math.pi) ** (p.n / 2.0) * gamma_abs_neg(p.s))


def integrated_kernel_constant(p: FracParams) -> float:
    """A(n, s) = 4^s Gamma(n/2 + s) / (pi^{n/2} |Gamma(-s)|)."""
    return (
        4.0**p.s
        * math.gamma(p.n / 2.0 + p.s)
        / (math.pi ** (p.n / 2.0) * gamma_abs_neg(p.s))
    )


def sq_dist(X, c) -> np.ndarray:
    """|x - c|^2 for every row x of X (shape (..., n)), with c scalar or length n.

    Accumulates (X[..., k] - c[k])^2 one coordinate column at a time, in
    one result buffer and, for n > 1, one scratch buffer, so every step is one pass
    over m values instead of NumPy work over a length-n inner axis; the
    passes run at full speed when each column is contiguous.  For n < 8
    the bits equal those of ``d = X - c; np.sum(d * d, axis=-1)``, which
    sums rows that short in the same order.
    """
    X = np.asarray(X, dtype=float)
    c = np.broadcast_to(np.asarray(c, dtype=float), X.shape[-1:])
    out = np.subtract(X[..., 0], c[0], out=np.empty(X.shape[:-1]))
    np.square(out, out=out)
    scratch = np.empty_like(out) if X.shape[-1] > 1 else None
    for k in range(1, X.shape[-1]):
        np.subtract(X[..., k], c[k], out=scratch)
        out += np.square(scratch, out=scratch)
    return out


def heat_kernel(dx, r, p: FracParams):
    """Space-time kernel C(n,s) r^{-(n/2+1+s)} exp(-|dx|^2 / (4 r)) for lag r > 0.

    Evaluated in log space so extreme lags underflow cleanly to 0 instead of
    overflowing intermediate powers.  Accepts scalar or array ``r`` (with
    ``dx`` broadcast as rows of length n).
    """
    dx = np.atleast_1d(np.asarray(dx, dtype=float))
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0):
        raise DomainValidationError("time lag r must be positive")
    sq = sq_dist(dx, 0.0)
    log_c = math.log(normalization_constant(p))
    power = p.n / 2.0 + 1.0 + p.s
    log_k = log_c - power * np.log(r_arr) - sq / (4.0 * r_arr)
    if np.any(log_k > _LOG_HUGE):
        raise DomainValidationError("lag r is at machine-zero scale; kernel would overflow")
    out = np.exp(log_k)
    return float(out) if np.isscalar(r) and dx.ndim == 1 else out


def integrated_time_kernel(d, p: FracParams):
    """A(n,s) d^{-(n+2s)}: the kernel integrated over all lags at distance d > 0."""
    d_arr = np.asarray(d, dtype=float)
    if np.any(d_arr <= 0.0):
        raise DomainValidationError("distance d must be positive")
    a = integrated_kernel_constant(p)
    log_k = math.log(a) - (p.n + 2.0 * p.s) * np.log(d_arr)
    if np.any(log_k > _LOG_HUGE):
        raise DomainValidationError("distance d is at machine-zero scale; kernel would overflow")
    out = np.exp(log_k)
    return float(out) if np.isscalar(d) else out
