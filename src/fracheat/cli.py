"""Scenario harness: configuration, reproducible runs, reports and CSV data.

The only I/O layer of the package.  A scenario is selected on the command
line, configured from an optional JSON file plus flag overrides (flags
win), and produces a ``report.json`` and plain two-column CSV series in
the output directory.  Every artifact carries the hash of the resolved
configuration in a single '#'-prefixed header line, and the seed fully
determines all randomized sampling, so reruns are byte-identical.

Exit codes: 0 all checks pass, 1 check failure, 2 configuration error,
3 runtime/numerical error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .core import FracParams, SpaceTimePoint
from .errors import ConfigError, FracHeatError
from .fields import (
    FIELD_NAMES,
    build_field,
    constant_field,
    plane_wave,
    random_space_bump,
    random_time_field,
)
from .planes import (
    narrow_region_check,
    snap_lambda,
    symmetry_and_monotonicity_report,
    verify_lemma_scaling,
)
from .quadrature import (
    QuadratureScheme,
    fractional_laplacian_pointwise,
    marchaud_left,
    master_operator_pointwise,
)
from .solver import BallProblem, nonlinearity_by_name, residual_field, solve_steady
from .spectral import (
    GridField,
    TorusGrid,
    apply_operator_spectral,
    liouville_nullspace_dimension,
    min_nonzero_symbol,
    project_onto_kernel,
    spacetime_symbol,
)

SCENARIOS = ("eval", "reduce-check", "lemma-scaling", "solve-ball", "moving-planes", "liouville")

_TOP_KEYS = {
    "scenario", "n", "s", "seed", "output_dir", "scheme", "problem", "field",
    "point", "lambdas", "r_list", "kind", "torus",
}
_SCHEME_KEYS = {"r_min", "r_max", "nodes_per_decade", "hermite_order", "target_tol"}
_PROBLEM_KEYS = {"h", "points_per_axis", "f", "coeffs", "theta", "max_iter", "tol"}
_FIELD_KEYS = {"name", "params"}
_TORUS_KEYS = {"N_x", "L_x", "N_t", "L_t"}


@dataclass
class ScenarioConfig:
    scenario: str
    n: int = 1
    s: float = 0.5
    seed: int = 12345
    output_dir: str = "fracheat-out"
    scheme: dict = dc_field(default_factory=dict)
    problem: dict = dc_field(default_factory=dict)
    field: dict = dc_field(default_factory=dict)
    point: dict = dc_field(default_factory=dict)
    lambdas: list = dc_field(default_factory=list)
    r_list: list = dc_field(default_factory=list)
    kind: str = "time-cutoff"
    torus: dict = dc_field(default_factory=dict)

    def resolved(self) -> dict:
        return {
            "scenario": self.scenario, "n": self.n, "s": self.s, "seed": self.seed,
            "scheme": dict(sorted(self.scheme.items())),
            "problem": dict(sorted(self.problem.items())),
            "field": dict(sorted(self.field.items())),
            "point": dict(sorted(self.point.items())),
            "lambdas": list(self.lambdas), "r_list": list(self.r_list),
            "kind": self.kind, "torus": dict(sorted(self.torus.items())),
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def frac_params(self) -> FracParams:
        return FracParams(self.n, self.s)

    def quadrature_scheme(self) -> QuadratureScheme:
        return QuadratureScheme(**self.scheme)


def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")


def parse_config(path: str | None = None, overrides: dict | None = None) -> ScenarioConfig:
    """Load and validate a scenario configuration.

    ``overrides`` wins over file contents.  Unknown keys are rejected with
    the list of accepted ones; scenario-specific requirements are checked
    with actionable messages.
    """
    data: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key == "h":
            data.setdefault("problem", {})
            data["problem"]["h"] = value
        elif key in ("r_max", "target_tol", "nodes_per_decade"):
            data.setdefault("scheme", {})
            data["scheme"][key] = value
        elif key == "field_name":
            data.setdefault("field", {})
            data["field"]["name"] = value
        else:
            data[key] = value

    _check_keys(data, _TOP_KEYS, "config")
    if "scenario" not in data:
        raise ConfigError(f"missing required key 'scenario'; one of {SCENARIOS}")
    if data["scenario"] not in SCENARIOS:
        raise ConfigError(f"unknown scenario {data['scenario']!r}; one of {SCENARIOS}")
    # shorthand forms: a bare field name, and a point given as [x..., t]
    if isinstance(data.get("field"), str):
        data["field"] = {"name": data["field"]}
    if isinstance(data.get("point"), (list, tuple)):
        flat = list(data["point"])
        if len(flat) < 2:
            raise ConfigError("a flat point needs at least [x, t]")
        data["point"] = {"x": flat[:-1], "t": flat[-1]}
    for sub, allowed in (("scheme", _SCHEME_KEYS), ("problem", _PROBLEM_KEYS),
                         ("field", _FIELD_KEYS), ("torus", _TORUS_KEYS)):
        if sub in data:
            if not isinstance(data[sub], dict):
                raise ConfigError(f"'{sub}' must be an object")
            _check_keys(data[sub], allowed, f"config.{sub}")
    if "point" in data:
        _check_keys(data["point"], {"x", "t"}, "config.point")

    cfg = ScenarioConfig(
        scenario=data["scenario"],
        n=int(data.get("n", 1)),
        s=float(data.get("s", 0.5)),
        seed=int(data.get("seed", 12345)),
        output_dir=str(data.get("output_dir", "fracheat-out")),
        scheme=dict(data.get("scheme", {})),
        problem=dict(data.get("problem", {})),
        field=dict(data.get("field", {})),
        point=dict(data.get("point", {})),
        lambdas=list(data.get("lambdas", [])),
        r_list=list(data.get("r_list", [])),
        kind=str(data.get("kind", "time-cutoff")),
        torus=dict(data.get("torus", {})),
    )
    if not 0.0 < cfg.s < 1.0:
        raise ConfigError(f"s must lie in (0,1), got {cfg.s}")
    if cfg.n < 1:
        raise ConfigError(f"n must be a positive integer, got {cfg.n}")
    if cfg.scenario == "eval":
        if "name" not in cfg.field:
            raise ConfigError(
                f"scenario 'eval' needs field.name (one of {FIELD_NAMES})"
            )
        if cfg.field["name"] not in FIELD_NAMES:
            raise ConfigError(f"unknown field {cfg.field['name']!r}; one of {FIELD_NAMES}")
    if cfg.scenario in ("solve-ball", "moving-planes"):
        if cfg.n > 2:
            raise ConfigError("ball scenarios support n in {1, 2}")
        fname = cfg.problem.get("f", "one")
        if fname not in ("zero", "one", "one-minus-half-u", "custom-polynomial"):
            raise ConfigError(
                "problem.f must be one of zero, one, one-minus-half-u, custom-polynomial"
            )
    return cfg


@dataclass
class CheckRecord:
    name: str
    value: float
    tolerance: float
    passed: bool


@dataclass
class RunReport:
    scenario: str
    config_hash: str
    config: dict
    records: list
    wall_time_s: float
    artifacts: list

    @property
    def overall_pass(self) -> bool:
        return all(bool(r.passed) for r in self.records)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "config_hash": self.config_hash,
            "config": self.config,
            "overall_pass": self.overall_pass,
            "records": [
                {"name": r.name, "value": float(r.value), "tolerance": float(r.tolerance),
                 "pass": bool(r.passed)}
                for r in self.records
            ],
            "wall_time_s": self.wall_time_s,
            "artifacts": self.artifacts,
        }


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _thread_count() -> int:
    """The FRACHEAT_THREADS setting (default 1); a non-integer is a ConfigError."""
    raw = os.environ.get("FRACHEAT_THREADS", "1") or "1"
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"FRACHEAT_THREADS must be an integer, got {raw!r}") from None


def _pmap(fn, items):
    """Order-preserving map, parallel when FRACHEAT_THREADS > 1."""
    threads = _thread_count()
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _write_series(outdir: Path, name: str, columns, rows, cfg_hash: str, scenario: str) -> str:
    path = outdir / name
    lines = [f"# fracheat {scenario} config={cfg_hash} columns={','.join(columns)}"]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return name


def emit_plot_data(series: dict, outdir, cfg_hash: str, scenario: str) -> list:
    """Write each named series as a '#'-headed CSV; warns when there is nothing."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if not series:
        warnings.warn("no plot data to emit", stacklevel=2)
        return []
    written = []
    for name in sorted(series):
        columns, rows = series[name]
        written.append(_write_series(outdir, name, columns, rows, cfg_hash, scenario))
    return written


# ---------------------------------------------------------------------------
# scenario implementations: each returns (records, series)


def _scenario_eval(cfg: ScenarioConfig, rng):
    p = cfg.frac_params()
    sch = cfg.quadrature_scheme()
    field = build_field(cfg.field["name"], cfg.n, cfg.s, cfg.field.get("params"), rng)
    x = cfg.point.get("x", [0.0] * cfg.n)
    t = float(cfg.point.get("t", 0.0))
    ov = master_operator_pointwise(field, SpaceTimePoint(x, t), p, sch)
    # the quadrature raises ToleranceError on a non-finite value or an
    # estimate above target_tol, so an evaluation that returns has no check left
    series = {"eval.csv": (("value", "est_error"), [(ov.value, ov.est_error)])}
    return [], series


def _scenario_reduce_check(cfg: ScenarioConfig, rng):
    p = cfg.frac_params()
    sch = cfg.quadrature_scheme()
    records = []
    rows = []

    # draw all random instances up front so threading cannot reorder them
    space_cases = [(random_space_bump(rng, cfg.n), rng.uniform(-0.5, 0.5, size=cfg.n))
                   for _ in range(3)]
    time_cases = [(random_time_field(rng), float(rng.uniform(-0.5, 0.5))) for _ in range(3)]

    def space_case(case):
        g, x0 = case
        m = master_operator_pointwise(g.as_spacetime(), SpaceTimePoint(x0, 0.0), p, sch)
        l = fractional_laplacian_pointwise(g, x0, p, sch)
        return abs(m.value - l.value), m.est_error + l.est_error

    diffs = _pmap(space_case, space_cases)
    worst = max(d for d, _ in diffs)
    tol = min(t for _, t in diffs)
    records.append(CheckRecord("master-vs-laplacian", worst, tol, worst <= tol))
    rows.extend(("master-vs-laplacian", d, t) for d, t in diffs)

    def time_case(case):
        h, t0 = case
        m = master_operator_pointwise(h.as_spacetime(cfg.n), SpaceTimePoint([0.0] * cfg.n, t0),
                                      p, sch)
        ml = marchaud_left(h, t0, cfg.s, sch)
        return abs(m.value - ml.value), m.est_error + ml.est_error

    diffs = _pmap(time_case, time_cases)
    worst = max(d for d, _ in diffs)
    tol = min(t for _, t in diffs)
    records.append(CheckRecord("master-vs-marchaud", worst, tol, worst <= tol))
    rows.extend(("master-vs-marchaud", d, t) for d, t in diffs)

    ov = master_operator_pointwise(constant_field(cfg.n, 1.0),
                                   SpaceTimePoint([0.1] * cfg.n, 0.0), p, sch)
    records.append(CheckRecord("constant-annihilation", abs(ov.value), ov.est_error,
                               abs(ov.value) <= ov.est_error))
    rows.append(("constant-annihilation", abs(ov.value), ov.est_error))

    worst_rel = 0.0
    for xi in (-1.0, 0.0, 1.0):
        for rho in (-1.0, 0.0, 1.0):
            if xi == 0.0 and rho == 0.0:
                continue
            u = plane_wave(cfg.n, [xi] + [0.0] * (cfg.n - 1), rho)
            x0, t0 = [0.3] + [0.0] * (cfg.n - 1), 0.2
            m = master_operator_pointwise(u, SpaceTimePoint(x0, t0), p, sch)
            sym = spacetime_symbol([xi] + [0.0] * (cfg.n - 1), rho, cfg.s)
            exact = (sym * np.exp(1j * (xi * x0[0] + rho * t0))).real
            rel = abs(m.value - exact) / abs(sym)
            worst_rel = max(worst_rel, rel)
            rows.append((f"plane-wave({xi:g},{rho:g})", rel, 1e-3))
    records.append(CheckRecord("spectral-plane-wave", worst_rel, 1e-3, worst_rel <= 1e-3))

    series = {"reduce_check.csv": (("check", "value", "tolerance"), rows)}
    return records, series


def _scenario_lemma_scaling(cfg: ScenarioConfig, rng):
    p = cfg.frac_params()
    sch = cfg.quadrature_scheme()
    r_list = cfg.r_list or [0.5, 1.0, 2.0, 5.0]
    fit = verify_lemma_scaling(cfg.kind, r_list, cfg.s, p, sch)
    target = -2.0 * cfg.s
    dev = abs(fit.slope - target)
    records = [CheckRecord(f"{cfg.kind}-slope", fit.slope, 0.15, dev <= 0.15)]
    rows = [(math.log(r), math.log(m)) for r, m in zip(fit.r_values, fit.sup_values)]
    series = {"scaling.csv": (("log_r", "log_sup"), rows)}
    return records, series


def _ball_problem(cfg: ScenarioConfig) -> BallProblem:
    if "points_per_axis" in cfg.problem:
        K = int(cfg.problem["points_per_axis"])
    else:
        h = float(cfg.problem.get("h", 1.0 / 32.0))
        K = int(round(2.0 / h)) + 1
        if K % 2 == 0:
            K += 1
    f = nonlinearity_by_name(cfg.problem.get("f", "one"), cfg.problem.get("coeffs"))
    return BallProblem(cfg.frac_params(), K, f)


def _scenario_solve_ball(cfg: ScenarioConfig, rng):
    sch = cfg.quadrature_scheme()
    problem = _ball_problem(cfg)
    sol = solve_steady(problem, sch,
                       theta=float(cfg.problem.get("theta", 0.8)),
                       max_iter=int(cfg.problem.get("max_iter", 200)),
                       tol=float(cfg.problem.get("tol", 1e-8)))
    full = sol.full_values(problem)
    sym = symmetry_and_monotonicity_report(problem, full)
    records = [
        CheckRecord("converged", float(sol.converged), 1.0, sol.converged),
        CheckRecord("iterations", float(sol.iterations), math.inf, True),
        CheckRecord("residual-inf", sol.residual_inf, float(cfg.problem.get("tol", 1e-8)),
                    sol.residual_inf <= float(cfg.problem.get("tol", 1e-8))),
        CheckRecord("symmetry-defect", sym.symmetry_defect, 1e-12,
                    sym.symmetry_defect <= 1e-12),
        CheckRecord("monotonicity-violations", float(sym.monotonicity_violations), 0.0,
                    sym.monotonicity_violations == 0),
        CheckRecord("hypothesis-f", float(problem.f.hypothesis_ok), 1.0,
                    problem.f.hypothesis_ok),
        CheckRecord("positivity", float(sol.positivity_ok), 1.0, sol.positivity_ok),
    ]
    nodes = problem.interior_nodes()
    values = sol.values
    cols = tuple(f"x{i+1}" for i in range(problem.p.n)) + ("value",)
    rows = [tuple(nd) + (v,) for nd, v in zip(nodes, values)]
    series = {"profile.csv": (cols, rows)}
    return records, series


def _scenario_moving_planes(cfg: ScenarioConfig, rng):
    sch = cfg.quadrature_scheme()
    problem = _ball_problem(cfg)
    field_name = cfg.field.get("name", "")
    if field_name:
        fld = build_field(field_name, problem.p.n, cfg.s, cfg.field.get("params"), rng)
        nodes = problem.interior_nodes()
        full = problem.full_values(fld.eval(nodes, np.zeros(len(nodes))))
        disc_est = 1e-3
    else:
        sol = solve_steady(problem, sch, theta=1.0)
        full = sol.full_values(problem)
        n_int = len(sol.values)
        subset = None
        if n_int > 64:
            subset = np.linspace(0, n_int - 1, 64).astype(int)
        res = residual_field(problem, sol, sch, node_subset=subset)
        disc_est = float(np.median(res))
    h = problem.h
    tol_geom = max(10.0 * disc_est, 1e-12)
    lams = cfg.lambdas or [-0.9, -0.7, -0.5, -0.3, -0.1, -h / 2.0]
    lams = sorted({snap_lambda(l, h) for l in lams})

    # sweep every axis orientation; the primary (+x1) run feeds the CSV
    directions = []
    for axis in range(problem.p.n):
        for sgn in (1.0, -1.0):
            e = np.zeros(problem.p.n)
            e[axis] = sgn
            directions.append(e)
    reports = _pmap(
        lambda e: narrow_region_check(problem, full, lams, direction=e, tol_geom=tol_geom),
        directions,
    )
    all_pass = all(rep.passed for rep in reports)
    primary = reports[0]
    lambda_star = min(rep.lambda_star for rep in reports)
    rows = [(r.lam, r.min_w) for r in primary.records]
    sym = symmetry_and_monotonicity_report(problem, full, tol_geom=tol_geom)
    records = [
        CheckRecord("all-lambdas-pass", float(all_pass), 1.0, all_pass),
        CheckRecord("lambda-star", lambda_star, -h, lambda_star >= -h - 1e-12),
        CheckRecord("symmetry-defect", sym.symmetry_defect, tol_geom,
                    sym.symmetry_defect <= tol_geom),
        CheckRecord("monotonicity-violations", float(sym.monotonicity_violations), 0.0,
                    sym.monotonicity_violations == 0),
    ]
    series = {"lambda_minw.csv": (("lambda", "min_w"), rows)}
    return records, series


def _scenario_liouville(cfg: ScenarioConfig, rng):
    p = cfg.frac_params()
    torus = cfg.torus
    grid = TorusGrid(
        n=cfg.n,
        N_x=int(torus.get("N_x", 32)),
        L_x=float(torus.get("L_x", 10.0)),
        N_t=int(torus.get("N_t", 32)),
        L_t=float(torus.get("L_t", 10.0)),
    )
    dim = liouville_nullspace_dimension(grid, p)
    min_sym = min_nonzero_symbol(grid, p)
    data = GridField(rng.uniform(-1.0, 1.0, grid.shape), grid)
    proj = project_onto_kernel(data, p)
    spread = float(np.max(proj.values) - np.min(proj.values))
    out, residue = apply_operator_spectral(data, p)
    records = [
        CheckRecord("nullspace-dim", float(dim), 1.0, dim == 1),
        CheckRecord("min-nonzero-symbol", min_sym, 0.0, min_sym > 0.0),
        CheckRecord("projection-constant", spread, 1e-10, spread <= 1e-10),
        CheckRecord("imag-residue", residue, 1e-10, residue <= 1e-10),
    ]
    series = {"liouville.csv": (("nullspace_dim", "min_nonzero_symbol", "projection_spread"),
                                [(float(dim), min_sym, spread)])}
    return records, series


_RUNNERS = {
    "eval": _scenario_eval,
    "reduce-check": _scenario_reduce_check,
    "lemma-scaling": _scenario_lemma_scaling,
    "solve-ball": _scenario_solve_ball,
    "moving-planes": _scenario_moving_planes,
    "liouville": _scenario_liouville,
}


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Execute the scenario, write report.json and CSV series, return the report."""
    start = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    records, series = _RUNNERS[cfg.scenario](cfg, rng)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg_hash = cfg.config_hash()
    artifacts = emit_plot_data(series, outdir, cfg_hash, cfg.scenario) if series else []
    wall = time.perf_counter() - start
    report = RunReport(
        scenario=cfg.scenario,
        config_hash=cfg_hash,
        config=cfg.resolved(),
        records=records,
        wall_time_s=wall,
        artifacts=artifacts + ["report.json"],
    )
    (outdir / "report.json").write_text(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    return report


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracheat",
        description="Diagnostics harness for the fully fractional heat operator",
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--n", type=int, help="space dimension")
    parser.add_argument("--s", type=float, help="fractional order in (0,1)")
    parser.add_argument("--h", type=float, help="ball grid spacing")
    parser.add_argument("--seed", type=int, help="seed for randomized sampling")
    parser.add_argument("--out", dest="output_dir", help="output directory")
    parser.add_argument("--r-max", dest="r_max", type=float, help="lag truncation")
    parser.add_argument("--tol", dest="target_tol", type=float, help="quadrature target tolerance")
    parser.add_argument("--field", dest="field_name", help="named field for eval scenarios")
    parser.add_argument("--kind", choices=("time-cutoff", "spacetime-cutoff"),
                        help="cutoff family for lemma-scaling")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    overrides = {
        "scenario": args.scenario,
        "n": args.n,
        "s": args.s,
        "h": args.h,
        "seed": args.seed,
        "output_dir": args.output_dir,
        "r_max": args.r_max,
        "target_tol": args.target_tol,
        "field_name": args.field_name,
        "kind": args.kind,
    }
    try:
        cfg = parse_config(args.config, overrides)
        _thread_count()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_scenario(cfg)
    except FracHeatError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - surface numerical failures as exit 3
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 3
    for rec in report.records:
        status = "PASS" if rec.passed else "FAIL"
        print(f"[{status}] {rec.name}: value={_fmt(rec.value)} tolerance={_fmt(rec.tolerance)}")
    print(f"report: {Path(cfg.output_dir) / 'report.json'} (config {report.config_hash})")
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
