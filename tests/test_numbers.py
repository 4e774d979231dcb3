"""One number rule: every public entry point reads its settings through ``core``.

``core.as_int``, ``core.as_real`` and ``core.as_reals`` decide what a number
is; each entry point stores what they return and checks only its own range.
"""

import ast
import functools
import math
import re
from pathlib import Path

import numpy as np
import pytest

import fracheat
from fracheat.core import FracParams, SpaceTimePoint
from fracheat.errors import DomainValidationError
from fracheat.fields import SpaceField, SpaceTimeField, torsion_profile
from fracheat.planes import (
    PlaneConfig,
    build_antisym_bump,
    build_cutoff_eta,
    scaling_radii,
    spacetime_cutoff,
)
from fracheat.quadrature import (
    QuadratureScheme,
    fractional_laplacian_pointwise,
    marchaud_left,
    marchaud_right,
)
from fracheat.solver import (
    BallProblem,
    assemble_dirichlet_matrix,
    nonlinearity_by_name,
    solve_steady,
)
from fracheat.spectral import TorusGrid

P1 = FracParams(1, 0.5)
SCH = QuadratureScheme()


@functools.lru_cache(maxsize=None)
def _ball():
    problem = BallProblem(P1, 9, nonlinearity_by_name("one"))
    return problem, assemble_dirichlet_matrix(problem, SCH)


def _solve(**kwargs):
    problem, matrix = _ball()
    sol = solve_steady(problem, SCH, matrix=matrix, **kwargs)
    return sol.values.tobytes(), sol.residual_inf, sol.iterations


def _value(ov):
    return ov.value, ov.est_error


# (setting as the message names it, kind, a valid value, what the entry point stores
# or returns for a value); an "entry" is one entry of a sequence setting
ENTRY_POINTS = {
    "FracParams.n": ("dimension n", "int", 2, lambda v: FracParams(v, 0.5).n),
    "FracParams.s": ("order s", "real", 0.5, lambda v: FracParams(1, v).s),
    "SpaceTimePoint.x": ("x", "entry", 0.2, lambda v: SpaceTimePoint([v], 0.1).x),
    "SpaceTimePoint.t": ("t", "real", 0.2, lambda v: SpaceTimePoint([0.0], v).t),
    "QuadratureScheme.r_min": ("r_min", "real", 1e-6, lambda v: QuadratureScheme(r_min=v).r_min),
    "QuadratureScheme.r_max": ("r_max", "real", 500.0, lambda v: QuadratureScheme(r_max=v).r_max),
    "QuadratureScheme.target_tol": ("target_tol", "real", 10.0,
                                    lambda v: QuadratureScheme(target_tol=v).target_tol),
    "fractional_laplacian_pointwise.x": ("x", "entry", 0.3, lambda v: _value(
        fractional_laplacian_pointwise(torsion_profile(1, 0.5), [v], P1, SCH))),
    "marchaud_left.t": ("t", "real", 0.2, lambda v: _value(
        marchaud_left(build_cutoff_eta(0.0, 1.0), v, 0.5, SCH))),
    "marchaud_right.t": ("t", "real", 0.2, lambda v: _value(
        marchaud_right(build_cutoff_eta(0.0, 1.0), v, 0.5, SCH))),
    "TorusGrid.n": ("n", "int", 1, lambda v: TorusGrid(v, 8, 10.0, 8, 10.0).n),
    "TorusGrid.L_x": ("L_x", "real", 10.0, lambda v: TorusGrid(1, 8, v, 8, 10.0).L_x),
    "TorusGrid.L_t": ("L_t", "real", 10.0, lambda v: TorusGrid(1, 8, 10.0, 8, v).L_t),
    "solve_steady.theta": ("theta", "real", 0.8, lambda v: _solve(theta=v)),
    "solve_steady.tol": ("tol", "real", 1e-8, lambda v: _solve(tol=v)),
    "solve_steady.max_iter": ("max_iter", "int", 200, lambda v: _solve(max_iter=v)),
    "PlaneConfig.direction": ("direction", "entry", 1.0, lambda v: PlaneConfig([v], 0.0).direction),
    "PlaneConfig.lam": ("lam", "real", 0.3, lambda v: PlaneConfig([1.0], v).lam),
    "build_cutoff_eta.r": ("r", "real", 1.0, lambda v: build_cutoff_eta(0.0, v).support),
    "build_antisym_bump.r_k": ("r_k", "real", 0.5, lambda v: build_antisym_bump(
        [2.0], v, PlaneConfig([1.0], 0.0)).space_scale),
    "spacetime_cutoff.r": ("r", "real", 1.0, lambda v: spacetime_cutoff(v, 1).space_scale),
    "scaling_radii.r_list": ("r_list", "entry", 0.5,
                             lambda v: scaling_radii("time-cutoff", [v, 1.0, 2.0, 8.0])),
    "SpaceField.n": ("n", "int", 2, lambda v: SpaceField(lambda X: X[:, 0], n=v).n),
    "SpaceTimeField.n": ("n", "int", 2, lambda v: SpaceTimeField(lambda X, t: t, n=v).n),
}


def _same(a, b) -> bool:
    """Equal values of one type, entry by entry for arrays, lists and tuples."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


NOT_REALS = {"bool": True, "string": "0.5", "nan": math.nan, "inf": math.inf, "-inf": -math.inf}


@pytest.mark.parametrize("entry, bad", [
    pytest.param(entry, bad, id=f"{entry}-{label}") for entry, spec in ENTRY_POINTS.items()
    for label, bad in [*NOT_REALS.items(), *[("non-integral", 2.5)] * (spec[1] == "int")]])
def test_non_numbers_raise_naming_the_setting(entry, bad):
    name, kind, _, build = ENTRY_POINTS[entry]
    message = {"int": f"{name} must be an integer",
               "real": f"{name} must be a finite real number",
               "entry": f"every entry of {name} must be a finite real number"}[kind]
    with pytest.raises(DomainValidationError, match=re.escape(message)):
        build(bad)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numpy_scalars_give_what_the_python_number_gives(entry):
    _, kind, good, build = ENTRY_POINTS[entry]
    numpy_scalar = np.int64(good) if kind == "int" else np.float64(good)
    assert _same(build(numpy_scalar), build(good))


def test_only_core_imports_numbers():
    """The number rule lives in ``core``; no other module asks ``numbers`` what a number is."""
    importers = []
    for path in sorted(Path(fracheat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names]
        modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        if "numbers" in modules:
            importers.append(path.stem)
    assert importers == ["core"]
