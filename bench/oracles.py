"""Reference values for the benchmark, derived independently of fracheat.

Nothing here imports the package: every constant and symbol is recomputed
from its closed form or from a Fourier integral, so a defect shared by the
library's own constants cannot hide in the comparison.

Convention (the one the library documents): a mode exp(i (xi . x + rho t))
is multiplied by the principal-branch power (i rho + |xi|^2)^s.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import hyp1f1, j0

_GL16 = leggauss(16)


def plane_wave(xi, rho: float, x, t: float, s: float) -> tuple[float, float]:
    """Value of the operator on cos(xi . x + rho t), and its amplitude |symbol|."""
    xi = np.asarray(xi, dtype=float)
    symbol = complex(float(xi @ xi), float(rho)) ** s
    phase = float(xi @ np.asarray(x, dtype=float)) + rho * t
    return (symbol * complex(math.cos(phase), math.sin(phase))).real, abs(symbol)


def torsion_constant(n: int, s: float) -> float:
    """(-Laplacian)^s (1 - |x|^2)_+^s inside the unit ball: 2^{2s} G(n/2+s) G(1+s) / G(n/2)."""
    return 2.0 ** (2.0 * s) * math.gamma(n / 2.0 + s) * math.gamma(1.0 + s) / math.gamma(n / 2.0)


def ball_centre(n: int, s: float) -> float:
    """Centre value of the unit-source Dirichlet solution, (1 - |x|^2)^s / C at x = 0."""
    return 1.0 / torsion_constant(n, s)


def static_gaussian(n: int, s: float, x, center, width: float, amplitude: float) -> float:
    """(-Laplacian)^s of A exp(-|x - c|^2 / w^2).

    The Fourier transform of |xi|^{2s} times a Gaussian is a Kummer function:
    A G(n/2+s)/G(n/2) (4/w^2)^s M(n/2+s; n/2; -|x-c|^2/w^2).
    """
    d = np.asarray(x, dtype=float) - np.asarray(center, dtype=float)
    z = float(d @ d) / width**2
    return (amplitude * math.gamma(n / 2.0 + s) / math.gamma(n / 2.0)
            * (4.0 / width**2) ** s * float(hyp1f1(n / 2.0 + s, n / 2.0, -z)))


def time_gaussian(s: float, t: float, t_center: float, t_width: float, amplitude: float) -> float:
    """Left Marchaud derivative (symbol (i rho)^s) of A exp(-(t - tc)^2 / tau^2).

    (A tau / sqrt(pi)) Re[e^{i pi s/2} Int_0^inf rho^s e^{-b rho^2} e^{i rho T} d rho]
    with b = tau^2/4, T = t - tc; the cosine and sine halves are Kummer functions.
    """
    b = 0.25 * t_width**2
    T = t - t_center
    z = -T * T / (4.0 * b)
    nu = s + 1.0
    cos_part = math.gamma(nu / 2.0) / (2.0 * b ** (nu / 2.0)) * float(hyp1f1(nu / 2.0, 0.5, z))
    sin_part = (T * math.gamma((nu + 1.0) / 2.0) / (2.0 * b ** ((nu + 1.0) / 2.0))
                * float(hyp1f1((nu + 1.0) / 2.0, 1.5, z)))
    phase = 0.5 * math.pi * s
    return amplitude * t_width / math.sqrt(math.pi) * (
        math.cos(phase) * cos_part - math.sin(phase) * sin_part)


def _graded_rule(scale: float, upper: float, wave: float):
    """Composite 16-point Gauss-Legendre nodes on [0, upper].

    Panels grow geometrically (ratio 1/0.15) from 1e-12 * scale up to
    ``scale``, which resolves the branch point of the symbol at the origin;
    beyond ``scale`` they are uniform and no wider than half the Gaussian
    scale or two radians of the oscillation ``wave``.
    """
    graded = scale * 0.15 ** np.arange(14, -1, -1)
    width = 0.5 * scale if wave <= 0.0 else min(0.5 * scale, 2.0 / wave)
    count = max(1, int(math.ceil((upper - scale) / width)))
    edges = np.concatenate([[0.0], graded, np.linspace(scale, upper, count + 1)[1:]])
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    gx, gw = _GL16
    return (mid[:, None] + half[:, None] * gx).ravel(), (half[:, None] * gw).ravel()


def spacetime_gaussian(n: int, s: float, x, t: float, center, width: float,
                       t_center: float, t_width: float, amplitude: float) -> float:
    """(d_t - Laplacian)^s of A exp(-|x - c|^2/w^2 - (t - tc)^2/tau^2), n in {1, 2}.

    Inverse Fourier integral, reduced to the radial frequency k and the
    half-line rho >= 0 (the integrand at -rho is the conjugate):

        A (pi w^2)^{n/2} sqrt(pi) tau (2 pi)^{-(n+1)} * 2 Re Int_0^inf Int_0^inf
            (i rho + k^2)^s S_n(k) exp(-w^2 k^2/4 - tau^2 rho^2/4 + i rho T) dk d rho,

    S_1 = 2 cos(k d), S_2 = 2 pi k J0(k d), d = |x - c|, T = t - tc; evaluated
    as a tensor product of graded Gauss-Legendre rules in k and rho.
    """
    if n not in (1, 2):
        raise ValueError("space-time Gaussian oracle supports n in {1, 2}")
    diff = np.asarray(x, dtype=float) - np.asarray(center, dtype=float)
    d = math.sqrt(float(diff @ diff))
    T = t - t_center
    a, b = 0.25 * width**2, 0.25 * t_width**2
    k, wk = _graded_rule(1.0 / math.sqrt(a), math.sqrt(40.0 / a), d)
    rho, wr = _graded_rule(1.0 / math.sqrt(b), math.sqrt(40.0 / b), abs(T))
    space = (2.0 * np.cos(k * d) if n == 1 else 2.0 * math.pi * k * j0(k * d)) * np.exp(-a * k * k)
    time = np.exp(-b * rho * rho + 1j * rho * T)
    symbol = (k[:, None] ** 2 + 1j * rho[None, :]) ** s
    integral = (wk * space) @ symbol @ (wr * time)
    pref = (amplitude * (math.pi * width**2) ** (n / 2.0) * math.sqrt(math.pi) * t_width
            * (2.0 * math.pi) ** (-(n + 1)))
    return 2.0 * pref * integral.real
