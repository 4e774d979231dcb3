"""fracheat benchmark: end-to-end and per-layer cost of the public API.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``workloads.py``): pointwise-spacetime, pointwise-static,
grid, scenarios; ``--workload all`` runs each of them in turn, in a process
of its own, and fails if any of them fails.  One run imports the library from ``src/`` of this
checkout, builds the workload's inputs from the seed, computes the oracles,
then repeats passes over the workload's fixed operation list for the given
number of seconds, checking every output.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and the object holds the per-layer metrics, derived from spans
recorded around the public calls (see ``tracer.py``).  The line before it
holds run metadata and the metrics that have no bound (failure fraction,
error-bound calibration, the tail percentile used).  Spans of a traced run
are written to ``.bench_out/``.  The exit code is 0 only when every
operation succeeded and passed its check.
"""

from time import perf_counter

_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("pointwise-spacetime", "pointwise-static", "grid", "scenarios")
SETUP_REPEATS = 3
# The tail percentile is fixed per workload: the highest that leaves
# TAIL_BEYOND samples beyond it in a run of TAIL_PASSES passes.  A longer run
# keeps more samples beyond it, and every run reports the same percentile.
TAIL_BEYOND = 10
TAIL_PASSES = 4
# floor on the true error in est_error / true_err, near the oracles' own accuracy
SHARPNESS_FLOOR = 1e-10

END_TO_END = {
    "setup_s": "s", "pass_s": "s", "op_tail_ms": "ms", "peak_rss_mb": "MB", "max_rel_err": "1",
}
# end-to-end metrics reported in the details line only
UNBOUNDED = {"op_p50_ms": "ms", "failed_frac": "1", "bound_miss_frac": "1", "est_sharpness": "1"}
CLI_SCENARIOS = ("eval", "reduce-check", "lemma-scaling", "solve-ball", "moving-planes",
                 "liouville")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_library():
    """Import fracheat from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fracheat

    where = Path(fracheat.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"fracheat imported from {where}, not from {src}")
    return fracheat


# ---------------------------------------------------------------------------
# run metadata


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _blas():
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    maps = _read("/proc/self/maps") or ""
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return {"name": info.get("name"), "version": info.get("version"),
            "config": info.get("openblas configuration"), "threads": threads}


def _commit() -> str:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    head = head.strip()
    if head.startswith("ref: "):
        ref = head[5:]
        loose = _read(str(ROOT / ".git" / ref))
        if loose:
            return loose.strip()
        for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
        return "unknown"
    return head


def metadata(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = next((ln.split(":", 1)[1].strip() for ln in (_read("/proc/cpuinfo") or "").splitlines()
                if ln.startswith("model name")), platform.processor() or "unknown")
    llc = None
    for idx in range(4, -1, -1):
        size = _read(f"/sys/devices/system/cpu/cpu0/cache/index{idx}/size")
        if size:
            llc = size.strip()
            break
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu_model": cpu,
        "last_level_cache": llc, "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": _blas(),
        "FRACHEAT_THREADS": os.environ.get("FRACHEAT_THREADS", "unset (default 1)"),
        "seed": seed, "commit": _commit(),
    }


# ---------------------------------------------------------------------------
# measurement


class Runner:
    """Runs passes over one workload's operations and keeps every outcome."""

    def __init__(self, workload, errors):
        self.ops = workload.ops
        self.errors = errors
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.op_latencies: dict[str, list] = {op.name: [] for op in self.ops}
        self.cases: list = []
        self.signatures: dict = {}

    def run_pass(self, tr=None) -> float:
        start = perf_counter()
        for op in self.ops:
            self.attempted += 1
            t0 = perf_counter()
            try:
                result = op.run(tr)
            except self.errors.FracHeatError as exc:
                if tr is not None and isinstance(exc, self.errors.ToleranceError):
                    tr.count("quadrature.tolerance_errors")
                self._fail(op, f"{type(exc).__name__}: {exc}")
                continue
            except Exception:  # noqa: BLE001 - a crashing operation is a failure; keep running
                self._fail(op, traceback.format_exc())
                continue
            finally:
                if tr is None:
                    self.latencies.append(perf_counter() - t0)
                    self.op_latencies[op.name].append(self.latencies[-1])
            try:
                check = op.check(result, op.expected)
            except Exception:  # noqa: BLE001 - a check that cannot run is a failed check
                self._fail(op, "check raised: " + traceback.format_exc())
                continue
            first = self.signatures.setdefault(op.name, check.signature)
            if first != check.signature:
                check.ok = False
                check.detail += "; output differs from the first pass"
            if not check.ok:
                self._fail(op, check.detail)
            self.cases.extend(check.cases)
        return perf_counter() - start

    def _fail(self, op, detail: str) -> None:
        self.failures.append(f"{op.name}: {detail}")
        print(f"FAILED {op.name}: {detail}", file=sys.stderr)


def tail(latencies, ops_per_pass: int):
    """The latency at the workload's tail percentile: (value, percentile, samples beyond)."""
    import numpy as np

    pct = 100.0 * (1.0 - TAIL_BEYOND / (TAIL_PASSES * ops_per_pass))
    value = float(np.percentile(latencies, pct, method="inverted_cdf"))
    return value, pct, sum(v > value for v in latencies)


def accuracy(cases) -> dict:
    rel = [abs(v - exact) / scale for v, _, exact, scale in cases]
    bounded = [(abs(v - exact), est, scale) for v, est, exact, scale in cases if est is not None]
    out = {"max_rel_err": max(rel) if rel else None, "oracle_cases": len(rel),
           "bounded_cases": len(bounded), "sharpness_floor_rel": SHARPNESS_FLOOR}
    if bounded:
        out["bound_miss_frac"] = sum(err > est for err, est, _ in bounded) / len(bounded)
        out["est_sharpness"] = statistics.median(
            est / max(err, SHARPNESS_FLOOR * scale) for err, est, scale in bounded)
    return out


def layer_metrics(tr, passes, untraced_pass_s, traced_pass_s, mismatches) -> dict:
    """Per-pass layer metrics from the spans of the traced passes.

    Counts must repeat exactly from pass to pass; a count that does not is
    appended to ``mismatches``.
    """
    from tracer import FIELD_SPAN, call_durations, median_or_zero, pass_totals

    totals = pass_totals(tr, passes)

    def per_pass(key):
        return median_or_zero(t.get(key, 0.0) for t in totals)

    def count(key):
        values = sorted({t.get(key, 0.0) for t in totals})
        if len(values) > 1:
            mismatches.append(f"count {key} differs between passes: {values}")
        return per_pass(key)

    master = "quadrature.master_operator_pointwise"
    m = {
        "quadrature.master_s": per_pass(master + "|incl"),
        "quadrature.master_calls": count(master + "|calls"),
        "quadrature.master_n1_ms": 1e3 * median_or_zero(call_durations(tr, master, passes, "n=1")),
        "quadrature.master_n2_ms": 1e3 * median_or_zero(call_durations(tr, master, passes, "n=2")),
        "quadrature.laplacian_s": per_pass("quadrature.fractional_laplacian_pointwise|incl"),
        "quadrature.laplacian_calls": count("quadrature.fractional_laplacian_pointwise|calls"),
        "quadrature.marchaud_s": per_pass("quadrature.marchaud_left|incl"),
        "quadrature.marchaud_calls": count("quadrature.marchaud_left|calls"),
        "quadrature.tolerance_errors": count("quadrature.tolerance_errors"),
        "fields.eval_points": count(FIELD_SPAN + "|points"),
        "fields.eval_calls": count(FIELD_SPAN + "|calls"),
        "fields.eval_s": per_pass(FIELD_SPAN + "|incl"),
        "solver.assemble_s": per_pass("solver.assemble_dirichlet_matrix|incl"),
        "solver.solve_s": per_pass("solver.solve_steady|incl"),
        "solver.picard_iters": count("solver.picard_iters"),
        "solver.unknowns": count("solver.unknowns"),
        "solver.matrix_mb": count("solver.matrix_mb"),
        "solver.residual_s": per_pass("solver.residual_field|incl"),
        "solver.residual_nodes": count("solver.residual_nodes"),
        "planes.fold_s": per_pass("planes.antisymmetric_fold_residual|incl"),
        "planes.fold_calls": count("planes.antisymmetric_fold_residual|calls"),
        "planes.grid_diag_s": per_pass("planes.symmetry_and_monotonicity_report|incl")
        + per_pass("planes.narrow_region_check|incl"),
        "spectral.apply_s": per_pass("spectral.apply_operator_spectral|incl"),
        "spectral.project_s": per_pass("spectral.project_onto_kernel|incl"),
        "spectral.nullspace_s": per_pass("spectral.liouville_nullspace_dimension|incl"),
        "spectral.modes": count("spectral.modes"),
        # report.json records a wall time, so its length may move by a digit
        "cli.artifact_bytes": per_pass("cli.artifact_bytes"),
    }
    master_calls = m["quadrature.master_calls"]
    m["fields.points_per_master_call"] = (
        count(master + "|points") / master_calls if master_calls else 0.0)
    for scenario in CLI_SCENARIOS:
        durations = [sum(rec[2] - rec[1] for rec in tr.spans
                         if rec[0] == "cli.run_scenario" and rec[5] == p and rec[6] == scenario)
                     for p in passes]
        m[f"cli.{scenario.replace('-', '_')}_s"] = median_or_zero(durations)
    names = {k.rsplit("|", 1)[0] for t in totals for k in t if k.endswith("|self")}
    for layer in ("quadrature", "fields", "solver", "planes", "spectral", "cli"):
        m[f"{layer}.self_s"] = sum(per_pass(k + "|self") for k in names
                                   if k.split(".", 1)[0] == layer)
    m["trace.overhead_s"] = traced_pass_s - untraced_pass_s
    return m


LAYER_UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB", "_bytes": "bytes"}


def layer_unit(name: str) -> str:
    return next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count")


def run_all(args) -> int:
    """Every workload in a child process of its own; the worst exit code."""
    import subprocess

    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        print(f"{name}: exit {proc.returncode}", flush=True)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        fracheat = load_library()
        import numpy  # noqa: F401
        import scipy  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the library from this checkout: {exc}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    errors = fracheat.errors
    import_s = perf_counter() - _START
    scratch = OUT / f"{args.workload}-{os.getpid()}"
    try:
        # set-up: input generation plus warm-up, several times; the last one is used
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(scratch, ignore_errors=True)
            t0 = perf_counter()
            wl = workloads.BUILDERS[args.workload](args.seed, scratch)
            for warm in wl.warm:
                warm()
            setups.append(perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)

        for op in wl.ops:  # oracles, outside every timed interval
            if op.expect is not None:
                op.expected = op.expect()

        runner = Runner(wl, errors)
        tr = tracer.Tracer() if args.trace else None
        durations = {False: [], True: []}
        start = perf_counter()
        k = 0
        while True:
            traced = bool(args.trace) and k % 2 == 1
            if tr is not None:
                tr.pass_index = k
            durations[traced].append(runner.run_pass(tr if traced else None))
            k += 1
            estimate = statistics.median(durations[not traced] or durations[traced])
            enough = k >= (2 if args.trace else 1)
            if enough and perf_counter() - start + estimate > args.seconds:
                break
        meta = metadata(args.seed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    pass_s = statistics.median(durations[False])
    acc = accuracy(runner.cases)
    details = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "passes": len(durations[False]), "ops_per_pass": len(wl.ops),
        "pass_durations_s": durations[False], "import_s": import_s, "setup_repeats_s": setups,
        "failed_frac": len(runner.failures) / runner.attempted, "failures": runner.failures[:20],
        **acc, "metadata": meta,
    }
    if args.trace:
        traced_passes = list(range(1, k, 2))
        traced_s = statistics.median(durations[True])
        mismatches = []
        layers = layer_metrics(tr, traced_passes, pass_s, traced_s, mismatches)
        for msg in mismatches:
            runner.failures.append(msg)
            print(f"FAILED trace: {msg}", file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tr.write(trace_path)
        details.update(traced_pass_s=durations[True], trace_file=str(trace_path.relative_to(ROOT)),
                       points_per_op=_points_per_op(tr, wl, traced_passes[0]))
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    else:
        value, pct, beyond = tail(runner.latencies, len(wl.ops))
        details.update(op_tail_percentile=pct, op_samples=len(runner.latencies),
                       op_samples_beyond_tail=beyond, op_median_ms={
            name: 1e3 * statistics.median(v) for name, v in runner.op_latencies.items() if v})
        # the pooled median sits among light operations whose latency on a
        # shared machine is bimodal, so it is reported here without a bound
        details["op_p50_ms"] = 1e3 * statistics.median(runner.latencies)
        values = {
            "setup_s": setup_s, "pass_s": pass_s, "op_tail_ms": 1e3 * value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "max_rel_err": acc["max_rel_err"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    for name, m in metrics.items():
        print(f"{args.workload:20s} {name:32s} {m['value']:.6g} {m['unit']}")
    for name, unit in UNBOUNDED.items():
        if details.get(name) is not None:
            print(f"{args.workload:20s} {name:32s} {details[name]:.6g} {unit} (no bound)")
    print(json.dumps({"details": details}))
    failed = len(runner.failures)
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def _points_per_op(tr, wl, pass_index) -> dict:
    """Field points per top-level operation of one traced pass (its root spans)."""
    from tracer import points_under

    points = points_under(tr.spans)
    roots = [points[i] for i, rec in enumerate(tr.spans) if rec[5] == pass_index and rec[3] < 0]
    return dict(zip((op.name for op in wl.ops), roots)) if len(roots) == len(wl.ops) else {}


if __name__ == "__main__":
    sys.exit(main())
