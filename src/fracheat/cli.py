"""Scenario harness: configuration, reproducible runs, reports and CSV data.

The only I/O layer of the package.  A scenario is selected on the command
line, configured from an optional JSON file plus flag overrides (flags
win), and produces a ``report.json`` and plain two-column CSV series in
the output directory.  ``parse_config`` only reads the file and the flags;
a ``ScenarioConfig`` checks itself when built, however it is built, so
every malformed configuration is a ConfigError before anything runs.
Every artifact carries the hash of the resolved configuration in a single
'#'-prefixed header line, and the seed fully determines all randomized
sampling, so reruns are byte-identical.

Exit codes: 0 all checks pass, 1 check failure, 2 configuration error,
3 runtime/numerical error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field as dc_field, fields as dc_fields
from pathlib import Path

import numpy as np

from .core import FracParams, SpaceTimePoint, as_int, as_real
from .errors import ConfigError, FracHeatError
from .fields import (
    FIELD_NAMES,
    build_field,
    constant_field,
    plane_wave,
    random_space_bump,
    random_time_field,
    spot_check,
)
from .planes import (
    narrow_region_check,
    scaling_radii,
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

# each section's settings: the integers with their least value, the positive reals, and
# the keys that the objects the scenario builds check themselves
_SECTIONS = {
    "scheme": ({"nodes_per_decade": 1, "hermite_order": 1}, ("r_min", "r_max", "target_tol"), ()),
    "problem": ({"points_per_axis": 1, "max_iter": 1}, ("h", "theta", "tol"), ("f", "coeffs")),
    "field": ({}, (), ("name", "params")),
    "point": ({}, (), ("x", "t")),
    "torus": ({"N_x": 1, "N_t": 1}, ("L_x", "L_t"), ()),
}
_DEFAULT_RADII = (0.5, 1.0, 2.0, 5.0)  # lemma-scaling's radii when the config gives none


def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")


def _check_integer(value, where: str, least: int) -> int:
    if as_int(value, where) < least:
        raise ConfigError(f"{where} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass
class ScenarioConfig:
    """A scenario and its settings, checked when built, from a file or in Python alike.

    Unknown section keys are rejected with the list of accepted ones and every
    number is checked.  Integer settings are stored as int, so 20 and 20.0 give
    one config hash; sections are stored as copies without defaults, so the hash
    covers the settings as given.  Last, the scheme, evaluation point, lemma
    radii, torus grid, ball problem and named field the scenario runs on are
    built once, so the library's own checks reject a bad setting here.  Every
    rejection is a ConfigError.
    """

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

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; one of {SCENARIOS}")
        try:
            self.n, self.seed = _check_integer(self.n, "n", 1), _check_integer(self.seed, "seed", 0)
            if not 0.0 < as_real(self.s, "s") < 1.0:
                raise ConfigError(f"s must lie in (0,1), got {self.s}")
            for name, (integers, reals, others) in _SECTIONS.items():
                if not isinstance(getattr(self, name), dict):
                    raise ConfigError(f"'{name}' must be an object")
                section = dict(getattr(self, name))  # a copy: callers may reuse their dicts
                _check_keys(section, {*integers, *reals, *others}, f"config.{name}")
                for key in section.keys() & integers.keys():
                    section[key] = _check_integer(section[key], f"{name}.{key}", integers[key])
                for key in section.keys() & reals:
                    if as_real(section[key], f"{name}.{key}") <= 0:
                        raise ConfigError(f"{name}.{key} must be positive, got {section[key]!r}")
                setattr(self, name, section)
            if self.problem.get("theta", 1) > 1:
                raise ConfigError(f"problem.theta must lie in (0, 1], got {self.problem['theta']!r}")
            for name in ("lambdas", "r_list"):
                if not isinstance(getattr(self, name), (list, tuple)):
                    raise ConfigError(f"{name} must be a list, got {getattr(self, name)!r}")
                for value in getattr(self, name):
                    as_real(value, f"every entry of {name}")
            x = self.point.get("x", [])
            for value in [*(x if isinstance(x, (list, tuple)) else [x]), self.point.get("t", 0.0)]:
                as_real(value, "every entry of point")
            if self.scenario == "eval" and not self.field.get("name"):
                raise ConfigError(f"scenario 'eval' needs field.name (one of {FIELD_NAMES})")
            self.quadrature_scheme()
            if self.scenario == "eval":
                self.eval_point().validate(self.frac_params())
            if self.scenario == "lemma-scaling":
                scaling_radii(self.kind, self.r_list or _DEFAULT_RADII)
            if self.scenario == "liouville":
                self.torus_grid()
            if self.scenario in ("solve-ball", "moving-planes"):
                self.ball_problem()
            if self.field.get("name"):
                build_field(self.field["name"], self.n, self.s, self.field.get("params"))
        except (ArithmeticError, TypeError, ValueError) as exc:  # e.g. a DomainValidationError
            raise ConfigError(str(exc)) from exc

    def resolved(self) -> dict:
        """Every setting but ``output_dir``: what the hash covers and report.json records."""
        out = asdict(self)
        del out["output_dir"]
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def frac_params(self) -> FracParams:
        return FracParams(self.n, self.s)

    def quadrature_scheme(self) -> QuadratureScheme:
        return QuadratureScheme(**self.scheme)

    def eval_point(self) -> SpaceTimePoint:
        return SpaceTimePoint(self.point.get("x", [0.0] * self.n), self.point.get("t", 0.0))

    def ball_problem(self) -> BallProblem:
        if "points_per_axis" in self.problem:
            K = self.problem["points_per_axis"]
        else:
            h = self.problem.get("h", 1.0 / 32.0)
            if not math.isfinite(2.0 / h):
                raise ConfigError(f"problem.h = {h!r} is too small: 2 / h overflows to infinity")
            K = int(round(2.0 / h)) + 1
            if K % 2 == 0:
                K += 1
        f = nonlinearity_by_name(self.problem.get("f", "one"), self.problem.get("coeffs"))
        return BallProblem(self.frac_params(), K, f)

    def torus_grid(self) -> TorusGrid:
        t = self.torus
        return TorusGrid(self.n, t.get("N_x", 32), t.get("L_x", 10.0), t.get("N_t", 32),
                         t.get("L_t", 10.0))


_TOP_KEYS = {f.name for f in dc_fields(ScenarioConfig)}
# the flags that set one key of a section
_FLAG_KEYS = {"h": ("problem", "h"), "r_max": ("scheme", "r_max"),
              "target_tol": ("scheme", "target_tol"), "field_name": ("field", "name")}


def parse_config(path: str | None = None, overrides: dict | None = None) -> ScenarioConfig:
    """Read a scenario configuration: the JSON file, its shorthand forms, then ``overrides``.

    ``overrides`` wins over file contents, also inside the shorthand forms (a
    bare field name, a flat point [x..., t]).  Unknown top-level keys are
    rejected with the list of accepted ones; every other check runs when the
    ScenarioConfig is built.
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
    if isinstance(data.get("field"), str):
        data["field"] = {"name": data["field"]}
    if isinstance(data.get("point"), list) and len(data["point"]) >= 2:
        data["point"] = {"x": data["point"][:-1], "t": data["point"][-1]}
    for key, value in (overrides or {}).items():
        if value is not None and key in _FLAG_KEYS:
            sub, name = _FLAG_KEYS[key]
            if isinstance(data.setdefault(sub, {}), dict):  # a non-object is the config's to reject
                data[sub][name] = value
        elif value is not None:
            data[key] = value
    _check_keys(data, _TOP_KEYS, "config")
    if "scenario" not in data:
        raise ConfigError(f"missing required key 'scenario'; one of {SCENARIOS}")
    return ScenarioConfig(**data)


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
    field = build_field(cfg.field["name"], cfg.n, cfg.s, cfg.field.get("params"))
    # a generator of its own, so the scenario's draws and CSV bytes stay as they were
    spot_check(field, np.random.default_rng(0))
    ov = master_operator_pointwise(field, cfg.eval_point(), p, sch)
    # the quadrature raises ToleranceError on a non-finite value or an
    # estimate above target_tol, so an evaluation that returns has no check left
    series = {"eval.csv": (("value", "est_error"), [(ov.value, ov.est_error)])}
    return [], series


def _scenario_reduce_check(cfg: ScenarioConfig, rng):
    p = cfg.frac_params()
    sch = cfg.quadrature_scheme()
    records = []
    rows = []

    def laplacian_pair():
        g, x0 = random_space_bump(rng, cfg.n), rng.uniform(-0.5, 0.5, size=cfg.n)
        return (master_operator_pointwise(g.as_spacetime(), SpaceTimePoint(x0, 0.0), p, sch),
                fractional_laplacian_pointwise(g, x0, p, sch))

    def marchaud_pair():
        h, t0 = random_time_field(rng), float(rng.uniform(-0.5, 0.5))
        return (master_operator_pointwise(h.as_spacetime(cfg.n),
                                          SpaceTimePoint([0.0] * cfg.n, t0), p, sch),
                marchaud_left(h, t0, cfg.s, sch))

    # three random draws per reduction; the check holds the worst difference
    # to the smallest combined estimate
    for name, pair in (("master-vs-laplacian", laplacian_pair),
                       ("master-vs-marchaud", marchaud_pair)):
        diffs = []
        for _ in range(3):
            m, r = pair()
            diffs.append((abs(m.value - r.value), m.est_error + r.est_error))
        worst = max(d for d, _ in diffs)
        tol = min(t for _, t in diffs)
        records.append(CheckRecord(name, worst, tol, worst <= tol))
        rows.extend((name, d, t) for d, t in diffs)

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
    fit = verify_lemma_scaling(cfg.kind, cfg.r_list or _DEFAULT_RADII, p, sch)
    target = -2.0 * cfg.s
    dev = abs(fit.slope - target)
    records = [CheckRecord(f"{cfg.kind}-slope", fit.slope, 0.15, dev <= 0.15)]
    rows = [(math.log(r), math.log(m)) for r, m in zip(fit.r_values, fit.sup_values)]
    series = {"scaling.csv": (("log_r", "log_sup"), rows)}
    return records, series


def _scenario_solve_ball(cfg: ScenarioConfig, rng):
    sch = cfg.quadrature_scheme()
    problem = cfg.ball_problem()
    tol = cfg.problem.get("tol", 1e-8)
    sol = solve_steady(problem, sch, theta=cfg.problem.get("theta", 0.8),
                       max_iter=cfg.problem.get("max_iter", 200), tol=tol)
    full = sol.full_values(problem)
    sym = symmetry_and_monotonicity_report(problem, full)
    records = [
        CheckRecord("converged", float(sol.converged), 1.0, sol.converged),
        CheckRecord("iterations", float(sol.iterations), math.inf, True),
        CheckRecord("residual-inf", sol.residual_inf, tol, sol.residual_inf <= tol),
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
    problem = cfg.ball_problem()
    field_name = cfg.field.get("name", "")
    solved = []
    if field_name:
        fld = build_field(field_name, problem.p.n, cfg.s, cfg.field.get("params"))
        # a generator of its own, as in eval, so the CSV bytes stay as they were
        spot_check(fld, np.random.default_rng(0))
        nodes = problem.interior_nodes()
        full = problem.full_values(fld.eval(nodes, np.zeros(len(nodes))))
        disc_est = 1e-3
    else:
        sol = solve_steady(problem, sch, theta=cfg.problem.get("theta", 1.0),
                           max_iter=cfg.problem.get("max_iter", 200),
                           tol=cfg.problem.get("tol", 1e-8))
        solved = [CheckRecord("converged", float(sol.converged), 1.0, sol.converged)]
        full = sol.full_values(problem)
        n_int = len(sol.values)
        subset = np.linspace(0, n_int - 1, 64).astype(int) if n_int > 64 else None
        res = residual_field(problem, sol, sch, node_subset=subset)
        disc_est = float(np.median(res))
    h = problem.h
    tol_geom = max(10.0 * disc_est, 1e-12)
    lams = cfg.lambdas or [-0.9, -0.7, -0.5, -0.3, -0.1, -h / 2.0]
    lams = sorted({snap_lambda(l, h) for l in lams})

    # sweep every axis orientation; the primary (+x1) run feeds the CSV
    directions = [sgn * e for e in np.eye(problem.p.n) for sgn in (1.0, -1.0)]
    reports = [narrow_region_check(problem, full, lams, direction=e, tol_geom=tol_geom)
               for e in directions]
    all_pass = all(rep.passed for rep in reports)
    primary = reports[0]
    lambda_star = min(rep.lambda_star for rep in reports)
    rows = [(r.lam, r.min_w) for r in primary.records]
    sym = symmetry_and_monotonicity_report(problem, full, tol_geom=tol_geom)
    records = solved + [
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
    grid = cfg.torus_grid()
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
SCENARIOS = tuple(_RUNNERS)


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
    overrides = {k: v for k, v in vars(args).items() if k != "config"}
    try:
        cfg = parse_config(args.config, overrides)
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
