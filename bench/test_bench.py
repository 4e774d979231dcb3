"""Checks of the benchmark's own parts: oracles, tracer, percentile rule, metric list.

    python3 -m pytest bench -q
"""

import ast
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import FIELD_SPAN, Tracer, pass_totals, self_times  # noqa: E402


def _bits(x: float) -> bytes:
    return struct.pack("<d", float(x))


# ---------------------------------------------------------------------------
# oracles


def test_oracles_import_nothing_from_the_library():
    tree = ast.parse((BENCH / "oracles.py").read_text())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [n for n in names if n.split(".")[0] in ("fracheat", "workloads", "tracer")]


def test_closed_forms():
    # n = 1, s = 1/2: (1 - x^2)^{1/2} solves the unit-source problem; n = 2: 2/pi
    assert oracles.torsion_constant(1, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert oracles.ball_centre(2, 0.5) == pytest.approx(2.0 / math.pi, abs=1e-15)
    # s -> 1 of the static Gaussian is -Laplacian exp(-|x|^2): (2n - 4|x|^2) exp(-|x|^2)
    x = np.array([0.3, -0.4])
    minus_lap = (4.0 - 4.0 * float(x @ x)) * math.exp(-float(x @ x))
    assert oracles.static_gaussian(2, 1.0 - 1e-12, x, [0.0, 0.0], 1.0, 1.0) == pytest.approx(
        minus_lap, rel=1e-9)
    value, amplitude = oracles.plane_wave([1.0], 1.0, [0.0], 0.0, 0.5)
    assert amplitude == pytest.approx(2.0**0.25)
    assert value == pytest.approx(2.0**0.25 * math.cos(math.pi / 8.0))


def _lag_integral(n, s, x, t, c, w, tc, tau, amp):
    """(d_t - Lap)^s of a Gaussian from its exact heat semigroup, in 30-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    d2 = sum((a - b) ** 2 for a, b in zip(x, c))
    T = t - tc

    def average(r):
        return (amp * (w**2 / (w**2 + 4 * r)) ** (mp.mpf(n) / 2) * mp.e ** (-d2 / (w**2 + 4 * r))
                * mp.e ** (-(T - r) ** 2 / tau**2))

    u = average(mp.mpf(0))
    eps = mp.mpf("1e-10")
    inner = -mp.diff(average, 0) * eps ** (1 - s) / (1 - s)
    outer = mp.quad(lambda r: r ** (-1 - s) * (u - average(r)),
                    [eps, 1e-6, 1e-3, 0.1, 1, 5, 20, 100, mp.inf])
    return float((inner + outer) * s / mp.gamma(1 - s))


@pytest.mark.parametrize("case", [
    (1, 0.5, [0.3], 0.2, [0.0], 1.0, 0.0, 1.0, 1.0),
    (1, 0.5, [-0.7], 0.1, [0.2], 0.6, -0.2, 0.8, -0.7),
    (2, 0.5, [0.3, -0.2], 0.2, [0.1, 0.1], 0.8, 0.1, 0.9, 1.0),
    (2, 0.3, [1.1, 0.5], -0.3, [0.0, 0.0], 0.5, 0.2, 0.7, 1.0),
])
def test_spacetime_gaussian_matches_lag_integral(case):
    assert oracles.spacetime_gaussian(*case) == pytest.approx(_lag_integral(*case), abs=1e-11)


def test_time_gaussian_matches_lag_integral():
    # a space-time Gaussian of infinite spatial width reduces to the time part
    for s, t, tc, tau, amp in ((0.5, 0.3, 0.0, 1.0, 1.0), (0.3, 2.0, 0.0, 0.7, -0.8)):
        ref = _lag_integral(1, s, [0.0], t, [0.0], 1e8, tc, tau, amp)
        assert oracles.time_gaussian(s, t, tc, tau, amp) == pytest.approx(ref, abs=1e-9)


# ---------------------------------------------------------------------------
# tracer


def _sample_ops():
    rng = np.random.default_rng(7)
    ops = [W._spacetime_gauss_op(rng, 1, 0), W._plane_wave_op(rng, 2, 0), W._fold_op(rng, 1, 0)]
    ops += W._time_field_ops(rng, 0)
    ops += W._torsion_ops(rng, 2, (0.6,), 1)
    ops += W._space_bump_ops(rng, 0)
    return ops


def test_wrapped_fields_give_bitwise_identical_values():
    tr = Tracer()
    for op in _sample_ops():
        plain, traced = op.run(None), op.run(tr)
        fields = ("value", "est_error") if hasattr(plain, "est_error") else (
            "residual", "whole_space", "folded", "combined_tol")
        for name in fields:
            assert _bits(getattr(plain, name)) == _bits(getattr(traced, name)), (op.name, name)
    assert any(rec[0] == FIELD_SPAN and rec[4] > 0 for rec in tr.spans)


def test_point_count_of_the_default_n2_bump():
    from fracheat import FracParams, QuadratureScheme, SpaceTimePoint, master_operator_pointwise
    from fracheat.fields import gaussian_bump

    tr = Tracer()
    tr.pass_index = 0
    u = tr.field(gaussian_bump(2))
    with tr.span("quadrature.master_operator_pointwise"):
        master_operator_pointwise(u, SpaceTimePoint([0.0, 0.0], 0.0), FracParams(2, 0.5),
                                  QuadratureScheme())
    points = pass_totals(tr, [0])[0]["quadrature.master_operator_pointwise|points"]
    assert 15.5e6 <= points <= 17.5e6


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["op", 0.0, 10.0, -1, 0, 0, ""],
        ["fields.eval", 1.0, 3.0, 0, 5, 0, ""],
        ["fields.eval", 2.0, 4.0, 0, 5, 0, ""],  # overlaps the first child
        ["fields.eval", 6.0, 7.0, 0, 5, 0, ""],
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 2.0, 1.0])


# ---------------------------------------------------------------------------
# percentile rule and the metric list


def test_tail_percentile_is_fixed_and_keeps_ten_beyond():
    ops_per_pass = 20
    for passes in (4, 5, 9):
        lat = list(np.random.default_rng(passes).random(ops_per_pass * passes))
        value, pct, beyond = run.tail(lat, ops_per_pass)
        assert pct == pytest.approx(100.0 * (1.0 - 10.0 / 80.0))
        assert beyond >= 10


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert all(m["unit"] == run.END_TO_END[m["name"]] for m in spec["end_to_end"])
    layers = run.layer_metrics(Tracer(), [0], 1.0, 1.0, [])
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
