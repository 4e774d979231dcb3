"""Bit-level fingerprint of fracheat's numerical outputs.

    python3 tools/fingerprint.py > fingerprint.txt

Prints one line per output: the hex of value and est_error of pointwise
operator values (master, fractional Laplacian and Marchaud at n = 1 and
n = 2; the master also on a time-dependent zero-ball field, on a bump
antisymmetrised about a plane at 30 degrees and on a plane wave of random
wave vector, and Marchaud also on a time field without support), fold
residuals of time-dependent and time-independent fields, `solve_steady`
results (SHA-256 prefix of the values, hex of the residual, iteration
count) from the offset table, also at the n = 2 K = 65 size that
`solve-ball` runs, with a `custom-polynomial` right-hand side, and from a
supplied matrix, the ball-grid symmetry
report (defect hex, violation count) and every
narrow-region record (lambda, min_w hex, argmin, strict flag, passed) on
solved, noisy and shifted-torsion grid data, SHA-256
prefixes of `residual_field` arrays (all nodes, and the 64 nodes that
`moving-planes` samples at n = 2 K = 33; with the hex of each array's
largest entry and of its sum), of a few kernel, field and
reflection arrays (also across the four axis planes of n = 2 on points
with signed-zero coordinates), of the operator symbol on a 1-, 2- and 3-D
torus and of `apply_operator_spectral` on random data there (with the hex
of its imaginary residue), the zero-ball mask on coordinate-major points
within 3 ulps of the unit sphere at n = 3, the metadata that
`as_spacetime` carries over from each library `SpaceField` and a
`TimeField` (exterior, sup bound hex,
ball radius, support digest, feature scale, time support and time
independence), and of the CSV files of the six determinism configs plus
n = 2 `eval`, `reduce-check` and `moving-planes` (solved and
named-field).  A change meant to leave the numbers alone shows an empty
diff between the fingerprints of the two trees.  The library is imported
from ``src/`` next to this file.  Takes about 15 s on a 2-core Xeon; it is
a tool, not a test, and stays out of the test suite.
"""

import hashlib
import itertools
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fracheat.cli import ScenarioConfig, run_scenario  # noqa: E402
from fracheat.core import FracParams, SpaceTimePoint, heat_kernel, sq_dist  # noqa: E402
from fracheat.fields import (  # noqa: E402
    ZERO_BALL,
    SpaceField,
    SpaceTimeField,
    TimeField,
    antisymmetrize,
    gaussian_bump,
    mollifier,
    plane_wave,
    polynomial_cutoff,
    random_space_bump,
    random_spacetime_bump,
    random_time_field,
    torsion_profile,
)
from fracheat.planes import (  # noqa: E402
    PlaneConfig,
    antisymmetric_fold_residual,
    narrow_region_check,
    reflect,
    snap_lambda,
    symmetry_and_monotonicity_report,
)
from fracheat.quadrature import (  # noqa: E402
    QuadratureScheme,
    fractional_laplacian_pointwise,
    marchaud_left,
    marchaud_right,
    master_operator_pointwise,
)
from fracheat.solver import (  # noqa: E402
    BallProblem,
    assemble_dirichlet_matrix,
    interpolant_field,
    nonlinearity_by_name,
    residual_field,
    solve_steady,
)
from fracheat.spectral import GridField, TorusGrid, _symbol_grid, apply_operator_spectral  # noqa: E402

SCH = QuadratureScheme()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _array(name: str, arr) -> None:
    print(f"{name} {_digest(np.ascontiguousarray(arr, dtype=float).tobytes())}")


def _value(name: str, compute) -> None:
    try:
        ov = compute()
    except Exception as exc:  # the exception is part of the fingerprint
        print(f"{name} raised {type(exc).__name__}: {exc}")
        return
    print(f"{name} {float(ov.value).hex()} {float(ov.est_error).hex()}")


def pointwise() -> None:
    for n in (1, 2):
        p = FracParams(n, 0.5)
        x = np.array([0.3, -0.2][:n])
        rng = np.random.default_rng(10 + n)
        fields = {
            "gauss": gaussian_bump(n, center=[0.1] * n, width=0.8, t_center=0.2),
            "gauss-static": gaussian_bump(n, width=0.7, t_width=None),
            "torsion": torsion_profile(n, 0.5).as_spacetime(),
            "shifted-torsion": torsion_profile(n, 0.5, shift=[0.2] + [0.0] * (n - 1)).as_spacetime(),
            "cutoff": polynomial_cutoff(n, [1.0, -0.5]).as_spacetime(),
            "plane-wave": plane_wave(n, [1.0] * n, 1.0),
            "space-bump": random_space_bump(rng, n).as_spacetime(),
            "spacetime-bump": random_spacetime_bump(rng, n),
        }
        # zero-ball and time-dependent: the panel average evaluates it at every lag
        tor = torsion_profile(n, 0.5)
        fields["torsion-gauss-t"] = SpaceTimeField(
            lambda X, t, g=tor.func: g(X) * np.exp(-((t - 0.2) ** 2) / 0.8**2), n=n,
            exterior=ZERO_BALL, ball_radius=1.0, space_scale=0.5, t_support=(-7.8, 8.2))
        if n == 1:
            fields["time-field"] = random_time_field(rng).as_spacetime(1)
        for name, u in fields.items():
            for s in (0.3, 0.7) if n == 1 else (0.5,):
                _value(f"master n={n} s={s} {name}",
                       lambda: master_operator_pointwise(u, SpaceTimePoint(x, 0.1),
                                                         FracParams(n, s), SCH))
        for name, g in (("torsion", torsion_profile(n, 0.5)),
                        ("shifted-torsion", torsion_profile(n, 0.5, shift=[0.2] + [0.0] * (n - 1))),
                        ("cutoff", polynomial_cutoff(n, [1.0, -0.5])),
                        ("space-bump", random_space_bump(rng, n))):
            _value(f"laplacian n={n} {name}",
                   lambda: fractional_laplacian_pointwise(g, x, p, SCH))
    # a point outside the ball, where 16 of the 40 directions miss the sphere, and
    # breakpoints beside the sphere cusps
    p2, tor = FracParams(2, 0.5), torsion_profile(2, 0.5)
    _value("laplacian n=2 torsion x=[1.2, 0.3]",
           lambda: fractional_laplacian_pointwise(tor, [1.2, 0.3], p2, SCH))
    _value("laplacian n=2 torsion x=[0.25, -0.5] breakpoints=(0.1, 0.4)",
           lambda: fractional_laplacian_pointwise(tor, [0.25, -0.5], p2, SCH,
                                                  breakpoints=(0.1, 0.4)))
    # about an oblique plane the support box of w must hold the mirror images of all corners
    oblique = PlaneConfig([np.cos(np.pi / 6.0), np.sin(np.pi / 6.0)], 0.0)
    w = antisymmetrize(gaussian_bump(2, center=[0.8, 0.8], width=0.1, t_width=None),
                       lambda X: reflect(X, oblique))
    _value("master n=2 s=0.5 antisymmetrized-30deg",
           lambda: master_operator_pointwise(w, SpaceTimePoint([0.8, 0.8], 0.0), p2, SCH))
    # a random xi, whose products x_k xi_k round: the bits follow how x . xi is summed
    wave = plane_wave(2, np.random.default_rng(9).normal(size=2), 0.7)
    _value("master n=2 s=0.5 plane-wave random-xi",
           lambda: master_operator_pointwise(wave, SpaceTimePoint([0.3, -0.2], 0.2), p2, SCH))
    h = random_time_field(np.random.default_rng(7))
    for s in (0.3, 0.5, 0.8):
        _value(f"marchaud-left s={s}", lambda: marchaud_left(h, 0.2, s, SCH))
        _value(f"marchaud-right s={s}", lambda: marchaud_right(h, 0.2, s, SCH))
    # no support: the lag cells run to r_max, more than 10,000 of them
    _value("marchaud-left s=0.5 cos", lambda: marchaud_left(TimeField(np.cos), 0.3, 0.5, SCH))


def folds() -> None:
    cases = [
        # (n, direction, lam, centre, x, t, t_width)
        (1, [1.0], 0.0, [-0.65], [-0.55], 0.2, 0.8),
        (1, [-1.0], 0.1, [0.7], [0.5], 0.0, 0.9),
        (1, [1.0], 0.0, [-0.6], [-0.4], -1.5, 0.5),  # t_support cuts the lag range
        (2, [1.0, 0.0], 0.0, [-0.65, 0.2], [-0.55, 0.0], 0.2, 0.8),
        (2, [-1.0, 0.0], 0.0, [0.6, -0.1], [0.5, 0.1], 0.1, 0.8),
        (2, [0.0, 1.0], 0.0, [0.1, -0.6], [0.0, -0.5], 0.2, 0.8),
        (2, [0.0, -1.0], -0.05, [-0.1, 0.6], [0.1, 0.5], 0.1, 0.8),  # free axis 0, sign -1
        # time-independent: geometric lag cells and the static tail model
        (1, [1.0], 0.0, [-0.65], [-0.55], 0.2, None),
        (2, [1.0, 0.0], 0.0, [-0.65, 0.2], [-0.55, 0.0], 0.2, None),
    ]
    for n, direction, lam, centre, x, t, tw in cases:
        cfg = PlaneConfig(direction, lam)
        base = gaussian_bump(n, center=centre, width=0.55, t_width=tw)
        w = antisymmetrize(base, lambda X, cfg=cfg: reflect(X, cfg))
        try:
            fr = antisymmetric_fold_residual(w, cfg, SpaceTimePoint(x, t), FracParams(n, 0.5), SCH)
        except Exception as exc:
            print(f"fold n={n} e={direction} raised {type(exc).__name__}: {exc}")
            continue
        static = " static" if tw is None else ""
        print(f"fold n={n} e={direction} lam={lam} t={t}{static} {fr.residual.hex()} "
              f"{fr.whole_space.hex()} {fr.folded.hex()} {fr.combined_tol.hex()}")


def solves() -> None:
    for n, points in ((1, 33), (2, 17)):
        for f in ("one", "one-minus-half-u"):
            problem = BallProblem(FracParams(n, 0.5), points, nonlinearity_by_name(f))
            sol = solve_steady(problem, SCH)
            print(f"solve_steady n={n} K={points} f={f} {_digest(sol.values.tobytes())} "
                  f"{sol.residual_inf.hex()} {sol.iterations}")
        # the rows of a supplied matrix instead of the offset table: same line after "matrix="
        sol = solve_steady(problem, SCH, matrix=assemble_dirichlet_matrix(problem, SCH))
        print(f"solve_steady n={n} K={points} f={f} matrix= {_digest(sol.values.tobytes())} "
              f"{sol.residual_inf.hex()} {sol.iterations}")
    # a custom-polynomial right-hand side, f and f' by numpy.polynomial
    for n, points in ((1, 33), (2, 17)):
        f = nonlinearity_by_name("custom-polynomial", [1.0, -0.3, 0.05])
        sol = solve_steady(BallProblem(FracParams(n, 0.5), points, f), SCH)
        print(f"solve_steady n={n} K={points} f=custom-polynomial[1.0, -0.3, 0.05] "
              f"{_digest(sol.values.tobytes())} {sol.residual_inf.hex()} {sol.iterations}")
    # the size that n = 2 solve-ball runs (h = 1/32), whose every-row product is an FFT
    problem = BallProblem(FracParams(2, 0.5), 65, nonlinearity_by_name("one"))
    sol = solve_steady(problem, SCH)
    print(f"solve_steady n=2 K=65 f=one {_digest(sol.values.tobytes())} "
          f"{sol.residual_inf.hex()} {sol.iterations}")


def residuals() -> None:
    # n=2 K=33 on the 64 nodes that moving-planes samples; n=1 K=129 spans several field calls
    for n, points, subset in ((1, 33, False), (2, 17, False), (2, 33, True), (1, 129, False)):
        problem = BallProblem(FracParams(n, 0.5), points, nonlinearity_by_name("one"))
        sol = solve_steady(problem, SCH, theta=1.0)
        nodes = np.linspace(0, len(sol.values) - 1, 64).astype(int) if subset else None
        label = f"residual_field n={n} K={points}" + (" nodes=64" if subset else "")
        res = residual_field(problem, sol, SCH, node_subset=nodes)
        # the largest entry and the sum show how far a rounding change moves the array
        print(f"{label} {_digest(res.tobytes())} max={res.max().hex()} sum={res.sum().hex()}")


def grid_diagnostics() -> None:
    for n, points in ((1, 33), (2, 17)):
        problem = BallProblem(FracParams(n, 0.5), points, nonlinearity_by_name("one"))
        full = solve_steady(problem, SCH, theta=1.0).full_values(problem)
        shifted = torsion_profile(n, 0.5, shift=[0.2] + [0.0] * (n - 1))
        data = {
            "solved": full,
            "noisy": full + 1e-3 * np.random.default_rng(20 + n).standard_normal(full.shape),
            "shifted-torsion": problem.full_values(shifted.eval(problem.interior_nodes())),
        }
        # -1.2 lies beyond the grid edge; mirrors across 0.5 leave the grid
        lams = [snap_lambda(v, problem.h) for v in (-1.2, -0.7, -0.3, -problem.h / 2, 0.5)]
        for name, values in data.items():
            label = f"n={n} K={points} {name}"
            sym = symmetry_and_monotonicity_report(problem, values)
            print(f"symmetry {label} {sym.symmetry_defect.hex()} {sym.monotonicity_violations}")
            for direction in np.concatenate([np.eye(n), -np.eye(n)]):
                rep = narrow_region_check(problem, values, lams, direction=direction)
                for r in rep.records:
                    argmin = ",".join(float(v).hex() for v in r.argmin)
                    print(f"narrow {label} e={direction.tolist()} lam={r.lam} {r.min_w.hex()} "
                          f"({argmin}) {r.strict_positive_interior} {r.passed}")


def arrays() -> None:
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        pts = rng.uniform(-2.0, 2.0, size=(1000, n))
        _array(f"heat_kernel n={n}", heat_kernel(pts, 0.37, FracParams(n, 0.5)))
        directions = [np.eye(n)[0], -np.eye(n)[n - 1]] + ([np.ones(n) / np.sqrt(n)] if n > 1 else [])
        for direction in directions:
            _array(f"reflect n={n} e={np.round(direction, 3).tolist()}",
                   reflect(pts, PlaneConfig(direction, 0.3)))
        _array(f"mollifier n={n}", mollifier(0.6 * pts))
        _array(f"cutoff n={n}", polynomial_cutoff(n, [1.0, -0.5, 0.25]).eval(0.6 * pts))
    # axis planes, where x . e is x_i e_i, on points with signed-zero coordinates
    grid = np.array(list(itertools.product([0.0, -0.0, 0.3, -0.3, 1.7], repeat=2)))
    for direction in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]):
        for lam in (0.0, 0.3):
            _array(f"reflect n=2 signed-zeros e={direction} lam={lam}",
                   reflect(grid, PlaneConfig(direction, lam)))
    for n, points in ((1, 64), (2, 32), (3, 16)):
        grid, p = TorusGrid(n, points, 7.3, points, 5.1), FracParams(n, 0.3)
        sym = _symbol_grid(grid, p)
        print(f"symbol n={n} N={points} s=0.3 {_digest(np.ascontiguousarray(sym).tobytes())}")
        data = GridField(np.random.default_rng(40 + n).uniform(-1.0, 1.0, grid.shape), grid)
        out, residue = apply_operator_spectral(data, p)
        print(f"apply_operator_spectral n={n} N={points} s=0.3 {_digest(out.values.tobytes())} "
              f"{residue.hex()}")
    # coordinate-major rows within 3 ulps of the unit sphere: a zero-ball field equal to 1
    # in the ball gives its mask, so the line follows the order the mask sums squares in
    rng = np.random.default_rng(12)
    rows = rng.normal(size=(3, 20_000))
    rows /= np.sqrt(sq_dist(rows.T, 0.0))
    rows *= 1.0 + rng.integers(-3, 4, size=rows.shape[1]) * np.finfo(float).eps
    ones = SpaceField(lambda X: np.ones(len(X)), n=3, exterior=ZERO_BALL, ball_radius=1.0)
    _array("zero-ball mask n=3 near-sphere", ones.eval(rows.T))


def lifts() -> None:
    # the metadata each library SpaceField (and a TimeField) carries into its SpaceTimeField
    for n in (1, 2):
        problem = BallProblem(FracParams(n, 0.5), 17, nonlinearity_by_name("one"))
        sol = solve_steady(problem, SCH)
        lifted = {
            "torsion": torsion_profile(n, 0.5),
            "shifted-torsion": torsion_profile(n, 0.5, shift=[0.2] + [0.0] * (n - 1)),
            "cutoff": polynomial_cutoff(n, [1.0, -0.5]),
            "space-bump": random_space_bump(np.random.default_rng(30 + n), n),
            "interpolant K=17": interpolant_field(problem, sol.full_values(problem)),
        }
        if n == 1:
            lifted["time-field"] = random_time_field(np.random.default_rng(30))
        for name, fld in lifted.items():
            u = fld.as_spacetime() if isinstance(fld, SpaceField) else fld.as_spacetime(n)
            support = (None if u.space_support is None else
                       _digest(np.concatenate([np.asarray(a, dtype=float).ravel()
                                               for a in u.space_support]).tobytes()))
            print(f"lift n={n} {name} {u.exterior} {float(u.sup_bound).hex()} {u.ball_radius} "
                  f"{support} {u.space_scale} {u.t_support} {u.time_independent}")


def scenarios() -> None:
    configs = [
        {"scenario": "eval", "field": {"name": "gaussian-bump"}, "point": {"x": [0.0], "t": 0.0}},
        {"scenario": "reduce-check", "seed": 5},
        {"scenario": "lemma-scaling", "kind": "time-cutoff", "r_list": [0.5, 1.0, 2.0, 5.0]},
        {"scenario": "solve-ball", "problem": {"h": 1.0 / 16.0, "f": "one"}},
        {"scenario": "moving-planes", "problem": {"h": 1.0 / 16.0, "f": "one"}},
        {"scenario": "liouville", "seed": 5},
        {"scenario": "eval", "n": 2, "field": {"name": "gaussian-bump"},
         "point": {"x": [0.1, 0.2], "t": 0.0}},
        {"scenario": "eval", "n": 2, "field": {"name": "shifted-torsion"},
         "point": {"x": [0.1, 0.2], "t": 0.0}},
        {"scenario": "reduce-check", "n": 2, "seed": 5},
        {"scenario": "moving-planes", "n": 2, "problem": {"h": 1.0 / 8.0, "f": "one"}},
        {"scenario": "moving-planes", "n": 2, "problem": {"h": 1.0 / 8.0},
         "field": {"name": "shifted-torsion"}},
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for i, kwargs in enumerate(configs):
            out = Path(tmp) / str(i)
            label = f"csv[{i}] {kwargs['scenario']} n={kwargs.get('n', 1)}"
            try:
                run_scenario(ScenarioConfig(output_dir=str(out), **kwargs))
            except Exception as exc:
                print(f"{label} raised {type(exc).__name__}: {exc}")
                continue
            for f in sorted(out.glob("*.csv")):
                print(f"{label} {f.name} {_digest(f.read_bytes())}")


if __name__ == "__main__":
    pointwise()
    folds()
    solves()
    residuals()
    grid_diagnostics()
    arrays()
    lifts()
    scenarios()
