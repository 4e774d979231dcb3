"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np

from scipy.integrate import quad

from fracheat.core import (
    FracParams,
    SpaceTimePoint,
    integrated_time_kernel,
    normalization_constant,
)
from fracheat.cli import ScenarioConfig, run_scenario
from fracheat.fields import (
    antisymmetrize,
    gaussian_bump,
    plane_wave,
    random_space_bump,
    random_spacetime_bump,
    random_time_field,
    torsion_profile,
)
from fracheat.planes import (
    PlaneConfig,
    antisymmetric_fold_residual,
    narrow_region_check,
    reflect,
    snap_lambda,
    symmetry_and_monotonicity_report,
    unbounded_mp_probe,
    verify_lemma_scaling,
)
from fracheat.quadrature import (
    QuadratureScheme,
    fractional_laplacian_pointwise,
    marchaud_left,
    master_operator_pointwise,
)
from fracheat.solver import (
    BallProblem,
    assemble_dirichlet_matrix,
    nonlinearity_by_name,
    solve_steady,
)
from fracheat.spectral import (
    GridField,
    TorusGrid,
    liouville_nullspace_dimension,
    project_onto_kernel,
    spacetime_symbol,
)

SCH = QuadratureScheme()


def _report(num, name, passed, detail, elapsed, limit):
    status = "PASS" if passed and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} ({detail}; {elapsed:.1f}s < {limit:.0f}s)")
    assert passed, f"criterion {num} failed: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded runtime: {elapsed:.1f}s >= {limit}s"


def _kernel_lag_oracle(d, p):
    c = normalization_constant(p)
    power = p.n / 2.0 + 1.0 + p.s

    def integrand(u):
        r = math.exp(u)
        return c * r ** (-power) * math.exp(-d * d / (4.0 * r)) * r

    val, _ = quad(integrand, -50.0, 50.0, limit=400)
    return val


def test_criterion_1_kernel_identity():
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2):
        for s in (0.25, 0.5, 0.75):
            p = FracParams(n, s)
            for d in np.geomspace(0.1, 10.0, 20):
                closed = integrated_time_kernel(float(d), p)
                oracle = _kernel_lag_oracle(float(d), p)
                worst = max(worst, abs(closed - oracle) / oracle)
    elapsed = time.perf_counter() - start
    _report(1, "kernel-identity", worst <= 1e-6, f"max rel err {worst:.2e} <= 1e-6",
            elapsed, 5.0)


def test_criterion_2_reduction_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(20240501)
    p = FracParams(1, 0.5)
    ok = True
    worst_gap = -math.inf
    for _ in range(10):
        g = random_space_bump(rng, 1)
        x0 = rng.uniform(-0.5, 0.5, size=1)
        m = master_operator_pointwise(g.as_spacetime(), SpaceTimePoint(x0, 0.0), p, SCH)
        l = fractional_laplacian_pointwise(g, x0, p, SCH)
        gap = abs(m.value - l.value) - (m.est_error + l.est_error)
        worst_gap = max(worst_gap, gap)
        ok = ok and gap <= 0.0
    for _ in range(10):
        h = random_time_field(rng)
        t0 = float(rng.uniform(-0.5, 0.5))
        m = master_operator_pointwise(h.as_spacetime(1), SpaceTimePoint([0.0], t0), p, SCH)
        ml = marchaud_left(h, t0, 0.5, SCH)
        gap = abs(m.value - ml.value) - (m.est_error + ml.est_error)
        worst_gap = max(worst_gap, gap)
        ok = ok and gap <= 0.0
    elapsed = time.perf_counter() - start
    _report(2, "reduction-identities", ok,
            f"max (|diff| - combined est) = {worst_gap:.2e} <= 0", elapsed, 60.0)


def test_criterion_3_spectral_agreement():
    start = time.perf_counter()
    p = FracParams(1, 0.5)
    worst = 0.0
    x0, t0 = 0.3, 0.2
    for xi in (-1.0, 0.0, 1.0):
        for rho in (-1.0, 0.0, 1.0):
            if xi == 0.0 and rho == 0.0:
                continue
            u = plane_wave(1, [xi], rho)
            m = master_operator_pointwise(u, SpaceTimePoint([x0], t0), p, SCH)
            sym = spacetime_symbol([xi], rho, p.s)
            exact = (sym * np.exp(1j * (xi * x0 + rho * t0))).real
            worst = max(worst, abs(m.value - exact) / abs(sym))
    elapsed = time.perf_counter() - start
    _report(3, "spectral-agreement", worst <= 1e-3,
            f"max rel err over 8 pairs {worst:.2e} <= 1e-3", elapsed, 60.0)


def test_criterion_4_local_limit():
    from fracheat.quadrature import _fd_heat

    start = time.perf_counter()
    u = gaussian_bump(1, width=0.8, t_width=0.9)
    q = SpaceTimePoint([0.3], 0.2)
    fd = _fd_heat(u, q.x, q.t)[1]
    errors = []
    for s in (0.9, 0.95, 0.99):
        ov = master_operator_pointwise(u, q, FracParams(1, s), SCH)
        errors.append(abs(ov.value - fd))
    monotone = errors[0] > errors[1] > errors[2]
    elapsed = time.perf_counter() - start
    _report(4, "local-limit", monotone,
            "errors decrease: " + " > ".join(f"{e:.4f}" for e in errors), elapsed, 60.0)


def test_criterion_5_lemma_scaling():
    start = time.perf_counter()
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        for kind in ("time-cutoff", "spacetime-cutoff"):
            fit = verify_lemma_scaling(kind, [0.5, 1.0, 2.0, 5.0], FracParams(1, s), SCH)
            worst = max(worst, abs(fit.slope + 2.0 * s))
    elapsed = time.perf_counter() - start
    _report(5, "lemma-scaling", worst <= 0.15,
            f"max |slope + 2s| = {worst:.3f} <= 0.15", elapsed, 120.0)


def test_criterion_6_ball_symmetry():
    start = time.perf_counter()
    p = FracParams(1, 0.5)
    problem = BallProblem(p, 129, nonlinearity_by_name("one"))  # h = 1/64
    matrix = assemble_dirichlet_matrix(problem, SCH)

    # oracle: the closed-form profile satisfies the assembled operator
    tor = torsion_profile(1, 0.5)
    samples = tor.eval(problem.interior_nodes())
    xs = problem.interior_nodes()[:, 0]
    inner = np.abs(xs) <= 0.8
    oracle_res = float(np.max(np.abs((matrix @ samples)[inner] - 1.0)))

    sol = solve_steady(problem, SCH, theta=1.0, matrix=matrix)
    full = sol.full_values(problem)
    sym = symmetry_and_monotonicity_report(problem, full)
    u0 = sol.values[np.argmin(np.abs(xs))]
    u_plus = sol.values[np.argmin(np.abs(xs - 0.6))]
    u_minus = sol.values[np.argmin(np.abs(xs + 0.6))]

    h = problem.h
    lams = [snap_lambda(v, h) for v in (-0.9, -0.7, -0.5, -0.3, -0.1)] + [-h / 2.0]
    nr_ok = True
    lambda_star = math.inf
    for direction in ([1.0], [-1.0]):
        rep = narrow_region_check(problem, full, lams, direction=direction, tol_geom=1e-10)
        nr_ok = nr_ok and rep.passed
        lambda_star = min(lambda_star, rep.lambda_star)

    checks = {
        "(a) symmetry_defect": sym.symmetry_defect <= 1e-12,
        "(b) monotonicity": sym.monotonicity_violations == 0,
        "(c) u(0)": abs(u0 - 1.0) <= 0.02,
        "(c) u(+0.6)": abs(u_plus - 0.8) <= 0.02,
        "(c) u(-0.6)": abs(u_minus - 0.8) <= 0.02,
        "(c) oracle residual": oracle_res <= 5e-2,
        "(d) narrow region": nr_ok and lambda_star >= -h,
    }
    elapsed = time.perf_counter() - start
    detail = (f"defect={sym.symmetry_defect:.1e}, u(0)={u0:.4f}, u(+-0.6)={u_plus:.4f}/"
              f"{u_minus:.4f}, oracle={oracle_res:.3f}, lambda*={lambda_star:.4f}")
    _report(6, "ball-symmetry", all(checks.values()),
            detail + "; " + ", ".join(k for k, v in checks.items() if not v), elapsed, 120.0)


def test_criterion_7_antisymmetric_folding():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    ok = True
    worst = 0.0
    for k in range(10):
        n = 2 if k >= 8 else 1
        p = FracParams(n, 0.5)
        cfg = PlaneConfig([1.0] + [0.0] * (n - 1), 0.0)
        center = [-float(rng.uniform(0.4, 0.9))] + [float(rng.uniform(-0.3, 0.3))] * (n - 1)
        base = gaussian_bump(n, center=center, width=float(rng.uniform(0.4, 0.7)),
                             t_center=float(rng.uniform(-0.3, 0.3)),
                             t_width=float(rng.uniform(0.6, 1.0)))
        w = antisymmetrize(base, lambda X, cfg=cfg: reflect(X, cfg))
        x_q = [-float(rng.uniform(0.3, 0.8))] + [0.0] * (n - 1)
        fr = antisymmetric_fold_residual(w, cfg, SpaceTimePoint(x_q, 0.2), p, SCH)
        worst = max(worst, fr.residual / fr.combined_tol)
        ok = ok and fr.residual <= fr.combined_tol
    elapsed = time.perf_counter() - start
    _report(7, "antisymmetric-folding", ok,
            f"max residual/tol = {worst:.3f} <= 1 (tol = 2x combined est)", elapsed, 60.0)


def test_criterion_8_liouville():
    start = time.perf_counter()
    rng = np.random.default_rng(4242)
    grids = [
        TorusGrid(1, 16, 8.0, 16, 8.0),
        TorusGrid(1, 32, 10.0, 64, 20.0),
        TorusGrid(2, 16, 8.0, 16, 8.0),
    ]
    ok = True
    spreads = []
    for grid in grids:
        p = FracParams(grid.n, 0.5)
        ok = ok and liouville_nullspace_dimension(grid, p) == 1
        data = GridField(rng.uniform(-1.0, 1.0, grid.shape), grid)
        proj = project_onto_kernel(data, p)
        spread = float(np.max(proj.values) - np.min(proj.values))
        spreads.append(spread)
        ok = ok and spread <= 1e-10
    elapsed = time.perf_counter() - start
    _report(8, "liouville", ok,
            f"nullspace dim 1 x3, projection spread max {max(spreads):.1e} <= 1e-10",
            elapsed, 10.0)


def test_criterion_9_falsification_sweep():
    start = time.perf_counter()
    p = FracParams(1, 0.5)
    cfg = PlaneConfig([1.0], 0.0)
    rng = np.random.default_rng(31337)
    candidates = 0
    for _ in range(50):
        base = random_spacetime_bump(rng, 1)
        w = antisymmetrize(base, lambda X: reflect(X, cfg))
        samples = [([float(rng.uniform(-3.0, -0.05))], float(rng.uniform(-1.0, 1.0)))
                   for _ in range(6)]
        rep = unbounded_mp_probe(w, cfg, samples, p, SCH, tol=1e-3)
        candidates += int(rep.counterexample_candidate)

    # diagnostic sensitivity: the shifted profile must be flagged
    problem = BallProblem(p, 129, nonlinearity_by_name("one"))
    shifted = torsion_profile(1, 0.5, shift=[0.2])
    full = np.zeros(problem.nodes().shape[0])
    full[problem.interior_mask()] = shifted.eval(problem.interior_nodes())
    h = problem.h
    lams = [snap_lambda(v, h) for v in (-0.9, -0.7, -0.5, -0.3, -0.1)] + [-h / 2.0]
    flagged = False
    for direction in ([1.0], [-1.0]):
        rep = narrow_region_check(problem, full, lams, direction=direction, tol_geom=1e-3)
        flagged = flagged or not rep.passed
    elapsed = time.perf_counter() - start
    _report(9, "falsification-sweep", candidates == 0 and flagged,
            f"candidates={candidates} (want 0), shifted flagged={flagged}", elapsed, 300.0)


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    scenario_configs = [
        {"scenario": "eval", "field": {"name": "gaussian-bump"},
         "point": {"x": [0.0], "t": 0.0}},
        {"scenario": "reduce-check", "seed": 5},
        {"scenario": "lemma-scaling", "kind": "time-cutoff", "r_list": [0.5, 1.0, 2.0, 5.0]},
        {"scenario": "solve-ball", "problem": {"h": 1.0 / 16.0, "f": "one"}},
        {"scenario": "moving-planes", "problem": {"h": 1.0 / 16.0, "f": "one"}},
        {"scenario": "liouville", "seed": 5},
    ]
    identical = True
    for kwargs in scenario_configs:
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{kwargs['scenario']}-{attempt}"
            run_scenario(ScenarioConfig(output_dir=str(out), **kwargs))
            blobs.append({
                f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.suffix == ".csv"
            })
        identical = identical and blobs[0] == blobs[1] and blobs[0]
    elapsed = time.perf_counter() - start
    _report(10, "determinism", bool(identical),
            "byte-identical CSVs across reruns for all six scenarios", elapsed, 120.0)
