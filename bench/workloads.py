"""The benchmark's workloads: fixed lists of public fracheat calls built from a seed.

Each workload is a list of ``Op``: one top-level operation (an evaluation,
a solve, a fold, a scenario run), a check of its output and, where one
exists, an oracle from ``oracles`` computed once before any timing.

The seed places every case: bump centres, widths and amplitudes,
evaluation points, wave directions, ball node subsets, torus data.  What
sets how much work an operation does (time widths, wave numbers, fold
widths, supports, grid sizes, the seed of reduce-check) is fixed, so runs
with different seeds do the same amount of work and their times can be
compared.  All cases use s = 1/2, the order of the acceptance criteria.

How many operations of each kind a pass holds is chosen so that the
pooled median latency and the tail percentile (``run.py``) each fall in
the middle of a run of one kind of operation, away from a neighbour of
different cost; otherwise one extra pass in a run could move them from one
kind of operation to the next.  Operations are listed slowest last.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles
from tracer import Tracer, call, field

from fracheat import (
    BallProblem,
    FracParams,
    GridField,
    PlaneConfig,
    QuadratureScheme,
    SpaceField,
    SpaceTimePoint,
    TimeField,
    TorusGrid,
    antisymmetric_fold_residual,
    apply_operator_spectral,
    assemble_dirichlet_matrix,
    fractional_laplacian_pointwise,
    liouville_nullspace_dimension,
    marchaud_left,
    master_operator_pointwise,
    narrow_region_check,
    reflect,
    residual_field,
    solve_steady,
    symmetry_and_monotonicity_report,
)
from fracheat.cli import ScenarioConfig, run_scenario
from fracheat.fields import antisymmetrize, gaussian_bump, plane_wave, torsion_profile
from fracheat.planes import snap_lambda
from fracheat.solver import nonlinearity_by_name
from fracheat.spectral import project_onto_kernel

S = 0.5
SCH = QuadratureScheme()

# Pass/fail tolerances, fixed here and never tuned per run.
# Pointwise values against an oracle, relative to the output scale; the
# plane-wave bound of the library's spectral-agreement criterion.
POINTWISE_REL_TOL = 1e-3
# The torsion profile through the master operator: its root-type edge at
# |x| = 1 costs the panel rule accuracy, up to 4.5e-3 for |x| <= 0.8.
TORSION_MASTER_REL_TOL = 1e-2
# Ball centre values against 1/C(n, s); the acceptance suite asks 0.02 at
# h = 1/64, the coarsest grid here (h = 1/16 in 1-D) is 2.8% off.
CENTRE_REL_TOL = 0.05
# Residual of a ball solution's interpolant at nodes with |x| <= 0.8, the
# bound the solver tests put on the same quantity.
RESIDUAL_TOL = 5e-2
# Spectral apply and projection against the independent FFT computation.
SPECTRAL_REL_TOL = 1e-10
# Discrete symmetry of a ball solution, as in the solve-ball scenario.
SYMMETRY_TOL = 1e-12


@dataclass
class Check:
    ok: bool
    detail: str = ""
    # oracle cases: (value, est_error or None, exact, scale)
    cases: list = dc_field(default_factory=list)
    # bitwise fingerprint of the output; must repeat on every pass
    signature: Any = None


@dataclass
class Op:
    name: str
    run: Callable[[Tracer | None], Any]
    check: Callable[[Any, Any], Check]
    expect: Callable[[], Any] | None = None
    expected: Any = None


@dataclass
class Workload:
    name: str
    ops: list
    warm: list  # callables run once per set-up, outside timing


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _bits(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()


def _pointwise_check(ov, expected, tol: float = POINTWISE_REL_TOL) -> Check:
    """An OperatorValue against (exact, scale) from an oracle."""
    exact, scale = expected
    if not _finite(ov.value, ov.est_error):
        return Check(False, f"non-finite value {ov.value} / est {ov.est_error}")
    rel = abs(ov.value - exact) / scale
    return Check(rel <= tol, f"rel err {rel:.3e}",
                 [(ov.value, ov.est_error, exact, scale)], _bits(ov.value, ov.est_error))


def _scaled(exact: float, amplitude: float) -> tuple[float, float]:
    # relative to the output, floored at the field amplitude so points
    # near a sign change of the output do not divide by ~0
    return exact, max(abs(exact), abs(amplitude))


# ---------------------------------------------------------------------------
# quadrature calls, each one span


def _master(tr, u, x, t, p):
    return call(tr, "quadrature.master_operator_pointwise", master_operator_pointwise,
                field(tr, u), SpaceTimePoint(x, t), p, SCH, tag=f"n={p.n}")


def _laplacian(tr, g, x, p):
    return call(tr, "quadrature.fractional_laplacian_pointwise", fractional_laplacian_pointwise,
                field(tr, g), np.asarray(x, dtype=float), p, SCH, tag=f"n={p.n}")


def _marchaud(tr, h, t):
    return call(tr, "quadrature.marchaud_left", marchaud_left, field(tr, h), t, S, SCH)


def _pointwise_op(name, run, expect) -> Op:
    return Op(name, run, _pointwise_check, expect)


# ---------------------------------------------------------------------------
# seeded field families with known parameters (so the oracles can see them)


def _gauss_sum_space(rng, n: int) -> tuple[SpaceField, list]:
    """Three Gaussians in space, drawn like the library's random space bump."""
    centres = rng.uniform(-0.8, 0.8, size=(3, n))
    widths = rng.uniform(0.4, 0.9, size=3)
    amps = rng.uniform(-1.0, 1.0, size=3)
    terms = list(zip(centres, widths, amps))

    def g(X):
        out = np.zeros(X.shape[0])
        for c, w, a in terms:
            d = X - c
            out += a * np.exp(-np.sum(d * d, axis=-1) / w**2)
        return out

    lo = np.min(centres - 6.0 * widths[:, None], axis=0)
    hi = np.max(centres + 6.0 * widths[:, None], axis=0)
    fld = SpaceField(g, n=n, sup_bound=float(np.sum(np.abs(amps))),
                     space_scale=float(widths.min()), space_support=(lo, hi))
    return fld, terms


def _gauss_sum_time(rng) -> tuple[TimeField, list]:
    """Three Gaussians in time on a fixed support, drawn like the library's random time field."""
    terms = list(zip(rng.uniform(-2.0, 2.0, 3), rng.uniform(0.5, 1.2, 3), rng.uniform(-1.0, 1.0, 3)))

    def h(t):
        out = np.zeros_like(t)
        for c, w, a in terms:
            out += a * np.exp(-((t - c) ** 2) / w**2)
        return out

    return TimeField(h, sup_bound=float(sum(abs(a) for _, _, a in terms)), support=(-12.0, 12.0)), terms


def _amplitude(rng) -> float:
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))


def _direction(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# pointwise-spacetime


def _spacetime_gauss_op(rng, n: int, k: int) -> Op:
    c = rng.uniform(-0.5, 0.5, n)
    w = float(rng.uniform(0.6, 1.0))
    tc = float(rng.uniform(-0.5, 0.5))
    amp = _amplitude(rng)
    x = c + _direction(rng, n) * w * float(rng.uniform(0.0, 1.2))
    # t - tc sets the length of the lag grid; the slow n = 2 case keeps it at 0
    t = tc + (float(rng.uniform(-0.3, 0.3)) if n == 1 else 0.0)
    u = gaussian_bump(n, center=c, width=w, t_center=tc, t_width=1.0, amplitude=amp)
    p = FracParams(n, S)
    return _pointwise_op(
        f"spacetime-gauss-n{n}[{k}]",
        lambda tr: _master(tr, u, x, t, p),
        lambda: _scaled(oracles.spacetime_gaussian(n, S, x, t, c, w, tc, 1.0, amp), amp))


def _plane_wave_op(rng, n: int, k: int) -> Op:
    # |xi| sets how many lags the Hermite rule resolves, so only directions are drawn
    xi = _direction(rng, n)
    rho = float(rng.choice([-1.0, 1.0]))
    x = rng.uniform(-1.0, 1.0, n)
    t = float(rng.uniform(-1.0, 1.0))
    u = plane_wave(n, xi, rho)
    p = FracParams(n, S)
    return _pointwise_op(f"plane-wave-n{n}[{k}]", lambda tr: _master(tr, u, x, t, p),
                         lambda: oracles.plane_wave(xi, rho, x, t, S))


def _time_field_ops(rng, k: int) -> list:
    h, terms = _gauss_sum_time(rng)
    t0 = float(rng.uniform(-0.5, 0.5))
    p = FracParams(1, S)

    def expect():
        return _scaled(sum(oracles.time_gaussian(S, t0, c, w, a) for c, w, a in terms), h.sup_bound)

    return [
        _pointwise_op(f"time-field-master[{k}]",
                      lambda tr: _master(tr, h.as_spacetime(1), [0.0], t0, p), expect),
        _pointwise_op(f"time-field-marchaud[{k}]", lambda tr: _marchaud(tr, h, t0), expect),
    ]


def _fold_check(fr, expected) -> Check:
    exact, scale = expected
    if not _finite(fr.residual, fr.whole_space, fr.folded, fr.combined_tol):
        return Check(False, "non-finite fold residual")
    rel = abs(fr.whole_space - exact) / scale
    ok = fr.residual <= fr.combined_tol and rel <= POINTWISE_REL_TOL
    return Check(ok, f"residual {fr.residual:.3e} / tol {fr.combined_tol:.3e}, rel err {rel:.3e}",
                 [(fr.whole_space, 0.5 * fr.combined_tol, exact, scale)],
                 _bits(fr.residual, fr.whole_space, fr.folded, fr.combined_tol))


def _fold_op(rng, n: int, k: int) -> Op:
    """The antisymmetric folding check of the acceptance suite, widths fixed.

    The n = 2 fold is the slowest operation of its workload, so its geometry
    is fixed too and the seed only mirrors it across the x2 = 0 axis, which
    leaves both its cost and its error unchanged.
    """
    cfg = PlaneConfig([1.0] + [0.0] * (n - 1), 0.0)
    w, tau, t = 0.55, 0.8, 0.2
    if n == 1:
        c = np.array([-float(rng.uniform(0.55, 0.75))])
        tc = float(rng.uniform(-0.3, 0.3))
        x = np.array([-float(rng.uniform(0.3, 0.8))])
    else:
        c = np.array([-0.65, float(rng.choice([-0.2, 0.2]))])
        tc = 0.0
        x = np.array([-0.55, 0.0])
    base = gaussian_bump(n, center=c, width=w, t_center=tc, t_width=tau)
    wfield = antisymmetrize(base, lambda X: reflect(X, cfg))
    p = FracParams(n, S)

    def expect():
        # the operator commutes with the reflection: op(w)(x) = op(F)(x) - op(F)(x^lambda)
        xr = reflect(x, cfg)
        exact = (oracles.spacetime_gaussian(n, S, x, t, c, w, tc, tau, 1.0)
                 - oracles.spacetime_gaussian(n, S, xr, t, c, w, tc, tau, 1.0))
        return _scaled(exact, 1.0)

    return Op(f"fold-n{n}[{k}]",
              lambda tr: call(tr, "planes.antisymmetric_fold_residual", antisymmetric_fold_residual,
                              field(tr, wfield), cfg, SpaceTimePoint(x, t), p, SCH, tag=f"n={n}"),
              _fold_check, expect)


def pointwise_spacetime(seed: int, scratch: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for k in range(8):
        ops += _time_field_ops(rng, k)
    ops += [_spacetime_gauss_op(rng, 1, k) for k in range(5)]
    ops += [_plane_wave_op(rng, 1, k) for k in range(2)]
    ops += [_plane_wave_op(rng, 2, k) for k in range(2)]
    # the n = 1 folds carry the workload's largest errors (up to about 5e-7,
    # varying with the geometry); ten of them keep the worst case of a run
    # from moving with the seed
    ops += [_fold_op(rng, 1, k) for k in range(10)]
    # the default-shaped n = 2 bump: about 16.3 M field points per call
    ops += [_spacetime_gauss_op(rng, 2, 0), _fold_op(rng, 2, 0)]
    warm_u = gaussian_bump(1, width=0.8)
    warm_h, _ = _gauss_sum_time(np.random.default_rng(0))
    warm = [
        lambda: master_operator_pointwise(warm_u, SpaceTimePoint([0.1], 0.0), FracParams(1, S), SCH),
        lambda: marchaud_left(warm_h, 0.0, S, SCH),
        lambda: _fold_op(np.random.default_rng(0), 1, 0).run(None),
    ]
    return Workload("pointwise-spacetime", ops, warm)


# ---------------------------------------------------------------------------
# pointwise-static


def _torsion_ops(rng, n: int, master_radii, n_lap: int) -> list:
    """The torsion profile at fixed radii through master, at seeded points through the Laplacian.

    The master path's error grows toward the profile's edge at |x| = 1
    (4.5e-3 at |x| = 0.7 in 1-D), so its radii are fixed and the seed only
    turns the direction: the worst case of a run does not move with the seed.
    """
    g = torsion_profile(n, S)
    p = FracParams(n, S)
    exact = oracles.torsion_constant(n, S)
    ops = []
    for k, r in enumerate(master_radii):
        x = _direction(rng, n) * r
        ops.append(Op(f"torsion-master-n{n}[{k}]",
                      lambda tr, x=x: _master(tr, g.as_spacetime(), x, 0.0, p),
                      lambda ov, expected: _pointwise_check(ov, expected, TORSION_MASTER_REL_TOL),
                      lambda: (exact, exact)))
    for k in range(n_lap):
        x = _direction(rng, n) * float(rng.uniform(0.0, 0.8))
        ops.append(_pointwise_op(f"torsion-laplacian-n{n}[{k}]",
                                 lambda tr, x=x: _laplacian(tr, g, x, p), lambda: (exact, exact)))
    return ops


def _static_gauss_ops(rng) -> list:
    n = 2
    c = rng.uniform(-0.5, 0.5, n)
    w = float(rng.uniform(0.6, 1.0))
    amp = _amplitude(rng)
    x = c + _direction(rng, n) * w * float(rng.uniform(0.0, 1.2))
    u = gaussian_bump(n, center=c, width=w, t_width=None, amplitude=amp)
    g = SpaceField(lambda X: u.func(X, None), n=n, sup_bound=abs(amp), space_scale=w,
                   space_support=u.space_support)
    p = FracParams(n, S)

    def expect():
        return _scaled(oracles.static_gaussian(n, S, x, c, w, amp), amp)

    return [_pointwise_op("static-gauss-master-n2", lambda tr: _master(tr, u, x, 0.0, p), expect),
            _pointwise_op("static-gauss-laplacian-n2", lambda tr: _laplacian(tr, g, x, p), expect)]


def _space_bump_ops(rng, k: int) -> list:
    n = 1
    g, terms = _gauss_sum_space(rng, n)
    x = rng.uniform(-0.5, 0.5, n)
    p = FracParams(n, S)

    def expect():
        exact = sum(oracles.static_gaussian(n, S, x, c, w, a) for c, w, a in terms)
        return _scaled(exact, g.sup_bound)

    return [_pointwise_op(f"space-bump-master[{k}]",
                          lambda tr: _master(tr, g.as_spacetime(), x, 0.0, p), expect),
            _pointwise_op(f"space-bump-laplacian[{k}]", lambda tr: _laplacian(tr, g, x, p), expect)]


def _residual_op(problem: BallProblem, sol, nodes: np.ndarray) -> Op:
    def run(tr):
        out = call(tr, "solver.residual_field", residual_field, problem, sol, SCH, node_subset=nodes)
        if tr is not None:
            tr.count("solver.residual_nodes", len(nodes))
        return out

    def check(res, _):
        if not np.all(np.isfinite(res)):
            return Check(False, "non-finite residual")
        worst = float(np.max(res))
        return Check(worst <= RESIDUAL_TOL, f"max residual {worst:.3e}", signature=_bits(res))

    return Op("ball-residual", run, check)


def pointwise_static(seed: int, scratch: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    ops = _torsion_ops(rng, 1, (0.1, 0.2, 0.3, 0.4, 0.5, 0.7), 9)
    for k in range(3):
        ops += _space_bump_ops(rng, k)
    ops += _torsion_ops(rng, 2, (0.6,), 2) + _static_gauss_ops(rng)
    problem = BallProblem(FracParams(2, S), 33, nonlinearity_by_name("one"))
    sol = solve_steady(problem, SCH, theta=1.0)
    # the solution has a square-root edge at the sphere; stay inside |x| <= 0.8
    inner = np.flatnonzero(np.linalg.norm(problem.interior_nodes(), axis=1) <= 0.8)
    ops.append(_residual_op(problem, sol, np.sort(rng.choice(inner, 32, replace=False))))
    small = BallProblem(FracParams(2, S), 9, nonlinearity_by_name("one"))
    small_sol = solve_steady(small, SCH, theta=1.0)
    g1 = torsion_profile(1, S)
    warm = [
        lambda: master_operator_pointwise(g1.as_spacetime(), SpaceTimePoint([0.2], 0.0),
                                          FracParams(1, S), SCH),
        lambda: fractional_laplacian_pointwise(g1, np.array([0.2]), FracParams(1, S), SCH),
        lambda: residual_field(small, small_sol, SCH, node_subset=np.array([0, 1])),
    ]
    return Workload("pointwise-static", ops, warm)


# ---------------------------------------------------------------------------
# grid


class _Ball:
    """One ball problem: its matrix and solutions, shared by the ops of one pass."""

    def __init__(self, n: int, K: int):
        self.problem = BallProblem(FracParams(n, S), K, nonlinearity_by_name("one"))
        self.matrix = None
        self.solutions = {}


def _assemble_op(ball: _Ball) -> Op:
    def run(tr):
        ball.matrix = call(tr, "solver.assemble_dirichlet_matrix", assemble_dirichlet_matrix,
                           ball.problem, SCH, tag=f"n={ball.problem.p.n}")
        if tr is not None:
            tr.count("solver.matrix_mb", ball.matrix.nbytes / 1e6)
        return ball.matrix

    def check(mat, _):
        ok = bool(np.all(np.isfinite(mat)))
        return Check(ok, f"{mat.shape[0]} unknowns", signature=_bits(mat))

    p = ball.problem
    return Op(f"assemble-n{p.p.n}-K{p.points_per_axis}", run, check)


def _solve_op(ball: _Ball, f_name: str) -> Op:
    problem = BallProblem(ball.problem.p, ball.problem.points_per_axis, nonlinearity_by_name(f_name))
    n = problem.p.n

    def run(tr):
        sol = call(tr, "solver.solve_steady", solve_steady, problem, SCH, matrix=ball.matrix,
                   tag=f"n={n}")
        ball.solutions[f_name] = sol
        if tr is not None:
            tr.count("solver.picard_iters", sol.iterations)
            tr.count("solver.unknowns", len(sol.values))
        return sol

    def check(sol, expected):
        if not np.all(np.isfinite(sol.values)):
            return Check(False, "non-finite solution")
        ok = sol.converged and sol.positivity_ok
        detail = f"{sol.iterations} iterations, residual {sol.residual_inf:.2e}"
        cases = []
        if expected is not None:
            centre = float(sol.full_values(problem).ravel()[problem.nodes().shape[0] // 2])
            rel = abs(centre - expected) / expected
            ok = ok and rel <= CENTRE_REL_TOL
            detail += f", centre {centre:.6f} vs {expected:.6f}"
            cases.append((centre, None, expected, expected))
        return Check(ok, detail, cases, _bits(sol.values))

    expect = (lambda: oracles.ball_centre(n, S)) if f_name == "one" else None
    return Op(f"solve-n{n}-K{problem.points_per_axis}-{f_name}", run, check, expect)


def _diagnostic_ops(ball: _Ball, f_name: str, lams, directions=(1.0,)) -> list:
    problem = ball.problem

    def full():
        return ball.solutions[f_name].full_values(problem)

    def report(tr):
        return call(tr, "planes.symmetry_and_monotonicity_report",
                    symmetry_and_monotonicity_report, problem, full())

    def narrow(direction):
        e = np.zeros(problem.p.n)
        e[0] = direction
        return lambda tr: call(tr, "planes.narrow_region_check", narrow_region_check, problem,
                               full(), lams, direction=e)

    def check_report(rep, _):
        ok = rep.symmetry_defect <= SYMMETRY_TOL and rep.monotonicity_violations == 0
        return Check(ok, f"defect {rep.symmetry_defect:.1e}, {rep.monotonicity_violations} dips",
                     signature=(rep.symmetry_defect, rep.monotonicity_violations))

    def check_narrow(rep, _):
        return Check(rep.passed, f"lambda* {rep.lambda_star:.4f}",
                     signature=(rep.lambda_star, tuple(r.min_w for r in rep.records)))

    tag = f"n{problem.p.n}-K{problem.points_per_axis}-{f_name}"
    return [Op(f"symmetry-{tag}", report, check_report)] + [
        Op(f"narrow-{tag}[{d:+g}]", narrow(d), check_narrow) for d in directions]


def _torus_ops(rng) -> list:
    grid = TorusGrid(2, 64, 10.0, 64, 10.0)
    p = FracParams(2, S)
    data = GridField(rng.uniform(-1.0, 1.0, grid.shape), grid)

    def count_modes(tr):
        if tr is not None:
            tr.count("spectral.modes", data.values.size)

    def apply(tr):
        count_modes(tr)
        return call(tr, "spectral.apply_operator_spectral", apply_operator_spectral, data, p)

    def project(tr):
        count_modes(tr)
        return call(tr, "spectral.project_onto_kernel", project_onto_kernel, data, p)

    def nullspace(tr):
        count_modes(tr)
        return call(tr, "spectral.liouville_nullspace_dimension", liouville_nullspace_dimension,
                    grid, p)

    def expect_apply():
        # the symbol from the grid's own frequencies, applied by FFT
        xi = 2.0 * np.pi * np.fft.fftfreq(grid.N_x, d=grid.L_x / grid.N_x)
        rho = 2.0 * np.pi * np.fft.fftfreq(grid.N_t, d=grid.L_t / grid.N_t)
        z = xi[:, None, None] ** 2 + xi[None, :, None] ** 2 + 1j * rho[None, None, :]
        return np.fft.ifftn(z**S * np.fft.fftn(data.values)).real

    def check_apply(res, expected):
        out, residue = res
        scale = float(np.max(np.abs(expected)))
        rel = float(np.max(np.abs(out.values - expected))) / scale
        ok = _finite(residue) and residue <= SPECTRAL_REL_TOL * scale and rel <= SPECTRAL_REL_TOL
        return Check(ok, f"rel err {rel:.2e}, imag residue {residue:.2e}",
                     [(rel * scale, None, 0.0, scale)], _bits(out.values))

    def check_project(res, expected):
        err = float(np.max(np.abs(res.values - expected)))
        return Check(err <= SPECTRAL_REL_TOL, f"max |proj - mean| {err:.2e}", signature=_bits(res.values))

    def check_nullspace(dim, _):
        return Check(dim == 1, f"dimension {dim}", signature=dim)

    return [Op("torus-apply", apply, check_apply, expect_apply),
            Op("torus-project", project, check_project, lambda: float(np.mean(data.values))),
            Op("torus-nullspace", nullspace, check_nullspace)]


def grid(seed: int, scratch: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    ops = []
    # both plane orientations where the acceptance suite checks them (1-D)
    # and for the K = 65 unit-source solution
    for n, K, fs in ((1, 1025, (("one", (1.0, -1.0)),)),
                     (2, 65, (("one", (1.0, -1.0)), ("one-minus-half-u", (1.0,)))),
                     (2, 81, (("one", (1.0,)),))):
        ball = _Ball(n, K)
        h = ball.problem.h
        lams = sorted({snap_lambda(float(v), h) for v in rng.uniform(-0.9, -0.1, 5)} | {-h / 2.0})
        ops.append(_assemble_op(ball))
        ops += [_solve_op(ball, f) for f, _ in fs]
        for f, directions in fs:
            ops += _diagnostic_ops(ball, f, lams, directions)
    ops += _torus_ops(rng)
    warm_ball = _Ball(2, 9)
    warm_torus = GridField(np.ones((8, 8, 8)), TorusGrid(2, 8, 10.0, 8, 10.0))

    def warm_grid():
        _assemble_op(warm_ball).run(None)
        _solve_op(warm_ball, "one").run(None)
        for op in _diagnostic_ops(warm_ball, "one", [-0.5]):
            op.run(None)
        apply_operator_spectral(warm_torus, FracParams(2, S))
        project_onto_kernel(warm_torus, FracParams(2, S))

    warm = [warm_grid]
    return Workload("grid", ops, warm)


# ---------------------------------------------------------------------------
# scenarios


def _read_csv(path: Path) -> list:
    rows = []
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            rows.append([float(v) for v in line.split(",")])
    return rows


def _scenario_op(name: str, config: str, kwargs: dict, outdir: Path, first: dict, expect=None,
                 value_of=None) -> Op:
    """One run_scenario call; its CSV bytes must equal those of the first run of ``config``."""

    def run(tr):
        report = call(tr, "cli.run_scenario", run_scenario,
                      ScenarioConfig(output_dir=str(outdir), **kwargs), tag=kwargs["scenario"])
        blobs = {f.name: f.read_bytes() for f in sorted(outdir.iterdir())}
        if tr is not None:
            tr.count("cli.artifact_bytes", sum(len(b) for b in blobs.values()))
        return report, blobs

    def check(res, expected):
        report, blobs = res
        csv = {k: v for k, v in blobs.items() if k.endswith(".csv")}
        same = first.setdefault(config, csv) == csv and bool(csv)
        ok = report.overall_pass and same
        detail = "" if same else "CSV bytes differ from the first run; "
        detail += "all checks pass" if report.overall_pass else "report fails: " + ", ".join(
            r.name for r in report.records if not r.passed)
        cases = []
        if value_of is not None:
            value, est = value_of(outdir)
            exact, scale = expected
            rel = abs(value - exact) / scale
            ok = ok and _finite(value) and rel <= (POINTWISE_REL_TOL if est is not None
                                                   else CENTRE_REL_TOL)
            detail += f", rel err {rel:.3e}"
            cases.append((value, est, exact, scale))
        digest = hashlib.sha256(b"".join(csv[k] for k in sorted(csv))).hexdigest()
        return Check(ok, detail, cases, digest)

    return Op(name, run, check, expect)


def _eval_value(outdir: Path):
    value, est = _read_csv(outdir / "eval.csv")[0]  # the row is (value, est_error)
    return value, est


def _centre_value(outdir: Path):
    rows = _read_csv(outdir / "profile.csv")
    best = min(rows, key=lambda r: sum(v * v for v in r[:-1]))
    return best[-1], None


def scenarios(seed: int, scratch: Path) -> Workload:
    rng = np.random.default_rng([seed, 4])
    x0, t0 = float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.3, 0.3))
    liouville_seed = int(rng.integers(0, 2**31))
    # the six determinism configs of the acceptance suite, with a seeded
    # evaluation point and torus data; reduce-check keeps its seed, because
    # that seed draws the random fields which set its cost
    configs = [
        ("eval", {"scenario": "eval", "field": {"name": "gaussian-bump"},
                  "point": {"x": [x0], "t": t0}},
         lambda: _scaled(oracles.spacetime_gaussian(1, S, [x0], t0, [0.0], 1.0, 0.0, 1.0, 1.0), 1.0),
         _eval_value),
        ("reduce-check", {"scenario": "reduce-check", "seed": 5}, None, None),
        ("lemma-scaling", {"scenario": "lemma-scaling", "kind": "time-cutoff",
                           "r_list": [0.5, 1.0, 2.0, 5.0]}, None, None),
        ("solve-ball-n1", {"scenario": "solve-ball", "problem": {"h": 1.0 / 16.0, "f": "one"}},
         lambda: (oracles.ball_centre(1, S), oracles.ball_centre(1, S)), _centre_value),
        ("moving-planes-n1", {"scenario": "moving-planes",
                              "problem": {"h": 1.0 / 16.0, "f": "one"}}, None, None),
        ("liouville", {"scenario": "liouville", "seed": liouville_seed}, None, None),
    ]
    # each config runs twice, except that the three cheapest run four times,
    # which puts the pooled median latency in the middle of the eval runs, and
    # the n = 2 moving-planes run once; the tail percentile then falls among
    # the two n = 2 solve-ball runs
    repeats = {"liouville": 4, "solve-ball-n1": 4, "eval": 4}
    first: dict = {}
    ops = []
    for name, kwargs, expect, value_of in configs:
        for attempt in "abcd"[:repeats.get(name, 2)]:
            ops.append(_scenario_op(f"{name}-{attempt}", name, kwargs,
                                    scratch / f"{name}-{attempt}", first, expect, value_of))
    ops += [_scenario_op(
        f"solve-ball-n2-{attempt}", "solve-ball-n2",
        {"scenario": "solve-ball", "n": 2, "problem": {"h": 1.0 / 32.0, "f": "one"}},
        scratch / f"solve-ball-n2-{attempt}", first,
        lambda: (oracles.ball_centre(2, S), oracles.ball_centre(2, S)), _centre_value)
        for attempt in "ab"]
    ops.append(_scenario_op(
        "moving-planes-n2", "moving-planes-n2",
        {"scenario": "moving-planes", "n": 2, "problem": {"h": 1.0 / 16.0, "f": "one"}},
        scratch / "moving-planes-n2", first))
    warm_dir = scratch / "warm"
    warm = [
        lambda: run_scenario(ScenarioConfig(scenario="eval", field={"name": "gaussian-bump"},
                                            output_dir=str(warm_dir))),
        lambda: run_scenario(ScenarioConfig(scenario="liouville", output_dir=str(warm_dir),
                                            torus={"N_x": 8, "N_t": 8})),
    ]
    return Workload("scenarios", ops, warm)


BUILDERS = {
    "pointwise-spacetime": pointwise_spacetime,
    "pointwise-static": pointwise_static,
    "grid": grid,
    "scenarios": scenarios,
}
