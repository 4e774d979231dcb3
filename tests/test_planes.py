"""Reflections, comparison fields, folding identity, cutoffs and scaling laws."""

import ast
import functools
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss

from fracheat import planes, quadrature
from fracheat.core import FracParams, SpaceTimePoint
from fracheat.errors import (
    AlignmentError,
    AntisymmetryError,
    DomainValidationError,
    OverlapError,
)
from fracheat.fields import (
    SpaceTimeField,
    antisymmetrize,
    gaussian_bump,
    random_spacetime_bump,
    torsion_profile,
)
from fracheat.planes import (
    PlaneConfig,
    antisymmetric_fold_residual,
    build_antisym_bump,
    build_cutoff_eta,
    narrow_region_check,
    reflect,
    snap_lambda,
    symmetry_and_monotonicity_report,
    unbounded_mp_probe,
    verify_lemma_scaling,
    w_lambda_field,
)
from fracheat.quadrature import (
    QuadratureScheme,
    _master_passes,
    _panel_axes,
    master_operator_pointwise,
)
from fracheat.solver import BallProblem, nonlinearity_by_name, solve_steady
from test_quadrature import _counting, _refine_toward

P1 = FracParams(1, 0.5)
SCH = QuadratureScheme()


def _unit(v):
    return v / np.linalg.norm(v)


def torsion_solution(K=129):
    prob = BallProblem(P1, K, nonlinearity_by_name("one"))
    sol = solve_steady(prob, SCH, theta=1.0)
    return prob, sol.full_values(prob)


def grid_samples(problem, field):
    return problem.full_values(field.eval(problem.interior_nodes())).ravel()


@functools.lru_cache(maxsize=None)
def _solved(n, K):
    prob = BallProblem(FracParams(n, 0.5), K, nonlinearity_by_name("one"))
    return prob, solve_steady(prob, SCH, theta=1.0).full_values(prob)


def _grid_data(n, K):
    """Solved, noisy, random and random-inside-the-ball values on an n-D grid of K per axis."""
    prob, full = _solved(n, K)
    rng = np.random.default_rng(100 * n + K)
    rand = rng.standard_normal(prob.shape)
    return prob, {
        "solution": full,
        "noisy": full + 1e-3 * rng.standard_normal(prob.shape),
        "random": rand,
        "random-inside": np.where(prob.interior_mask().reshape(prob.shape), rand, 0.0),
    }


def _reference_w(prob, full, cfg):
    """w_lambda by coordinates: reflect the nodes, round back to grid indices."""
    axis_idx, sign = cfg.axis()
    nodes = prob.nodes()
    vals = np.asarray(full, dtype=float).ravel()
    sel = np.flatnonzero(sign * nodes[:, axis_idx] < cfg.lam - 1e-12)
    refl = reflect(nodes[sel], cfg)
    idx = np.rint((refl - prob.axis[0]) / prob.h).astype(int)
    assert np.max(np.abs(refl - (prob.axis[0] + idx * prob.h)), initial=0.0) <= 1e-9
    flat = np.ravel_multi_index(tuple(idx.T), prob.shape, mode="clip")
    return nodes[sel], np.where(prob.inside(refl), vals[flat], 0.0) - vals[sel]


def _reference_report(prob, full, tol):
    """Symmetry defect and ray violations by dicts of orbits and gcd rays."""
    m = (prob.points_per_axis - 1) // 2
    vals = np.asarray(full, dtype=float).ravel()
    centered_all = np.indices(prob.shape).reshape(prob.p.n, -1).T - m
    orbits, rays = {}, {}
    for flat, centered in enumerate(centered_all):
        c = tuple(int(v) for v in centered)
        orbits.setdefault(tuple(sorted(abs(v) for v in c)), []).append(vals[flat])
        if any(c):
            g = math.gcd(*c)
            rays.setdefault(tuple(v // g for v in c), []).append((g, vals[flat]))
    defect = max(max(v) - min(v) for v in orbits.values())
    violations = 0
    for seq in rays.values():
        seq.sort()
        violations += sum(v1 <= v2 - tol for (_, v1), (_, v2) in zip(seq[:-1], seq[1:]))
    return float(defect), violations


class TestReflect:
    def test_spec_example(self):
        cfg = PlaneConfig([1.0, 0.0], -0.2)
        assert np.allclose(reflect(np.array([0.3, 0.1]), cfg), [-0.7, 0.1])

    def test_fixed_points(self):
        cfg = PlaneConfig([0.0, 1.0], 0.4)
        x = np.array([1.3, 0.4])
        assert np.allclose(reflect(x, cfg), x)

    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=2),
           st.floats(min_value=-2, max_value=2))
    @settings(max_examples=60, deadline=None)
    def test_involution(self, x, lam):
        cfg = PlaneConfig([1.0, 0.0], lam)
        x = np.asarray(x)
        assert np.max(np.abs(reflect(reflect(x, cfg), cfg) - x)) <= 1e-14

    def test_isometry(self):
        rng = np.random.default_rng(0)
        cfg = PlaneConfig(np.array([3.0, 4.0]) / 5.0, 0.7)
        for _ in range(40):
            x, y = rng.uniform(-3, 3, size=(2, 2))
            d0 = np.linalg.norm(x - y)
            d1 = np.linalg.norm(reflect(x, cfg) - reflect(y, cfg))
            assert d1 == pytest.approx(d0, abs=1e-12)

    def test_same_side_reflection_inequality(self):
        rng = np.random.default_rng(1)
        lam = -0.3
        cfg = PlaneConfig([1.0, 0.0], lam)
        for _ in range(60):
            x = np.array([rng.uniform(-3, lam - 1e-9), rng.uniform(-3, 3)])
            y = np.array([rng.uniform(-3, lam - 1e-9), rng.uniform(-3, 3)])
            assert np.linalg.norm(x - y) < np.linalg.norm(x - reflect(y, cfg)) + 1e-15

    def test_bad_direction(self):
        with pytest.raises(DomainValidationError):
            PlaneConfig([1.0, 1.0], 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bits_of_the_broadcast_formula(self, n):
        rng = np.random.default_rng(n)
        pts = rng.uniform(-3.0, 3.0, size=(3000, n))
        directions = [np.eye(n)[0], -np.eye(n)[n - 1]]
        if n > 1:
            directions += [np.ones(n) / math.sqrt(n), _unit(rng.normal(size=n))]
        for e in directions:
            cfg = PlaneConfig(e, -0.3)
            # x . e summed one column at a time, so a single point has the bits of its row
            dot = pts[:, 0] * cfg.direction[0]
            for k in range(1, n):
                dot = dot + pts[:, k] * cfg.direction[k]
            old = pts + 2.0 * (cfg.lam - dot)[:, None] * cfg.direction[None, :]
            assert np.array_equal(reflect(pts, cfg), old)
            assert np.array_equal(reflect(pts[0], cfg), old[0])

    @pytest.mark.parametrize("n", [2, 3])
    def test_oblique_rows_do_not_depend_on_the_block(self, n):
        rng = np.random.default_rng(60 + n)
        pts = rng.uniform(-3.0, 3.0, size=(2000, n))
        for layout in ("C", "F"):
            block = np.asarray(pts, order=layout)
            for _ in range(3):
                cfg = PlaneConfig(_unit(rng.normal(size=n)), rng.uniform(-1.0, 1.0))
                alone = np.array([reflect(x, cfg) for x in pts])
                assert reflect(block, cfg).tobytes(order="C") == alone.tobytes()

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_axis_planes_keep_the_general_formula_bits(self, layout):
        rng = np.random.default_rng(11)
        values = np.array([0.0, -0.0, 0.3, -0.3, 1.7, -2.2])
        for n in (1, 2, 3):
            pts = np.concatenate([np.array(list(itertools.product(values, repeat=n))),
                                  rng.uniform(-2.0, 2.0, size=(500, n))])
            pts = np.asarray(pts, order=layout)
            # -e_i with free entries -0.0 and +0.0
            directions = [*np.eye(n), *-np.eye(n), *(0.0 - np.eye(n))]
            for e, lam in itertools.product(directions, (0.0, 0.3, -0.3)):
                cfg = PlaneConfig(e, lam)
                rows = np.ascontiguousarray(pts)
                old = rows + 2.0 * (cfg.lam - rows @ cfg.direction)[:, None] * cfg.direction
                got = reflect(pts, cfg)
                assert got.flags.f_contiguous == pts.flags.f_contiguous
                assert got.flags.c_contiguous == pts.flags.c_contiguous
                assert got.tobytes() == old.tobytes(), (e, lam)
                assert reflect(pts[3], cfg).tobytes() == old[3].tobytes()

    def test_antisymmetrized_bump_across_axis_planes(self):
        rng = np.random.default_rng(12)
        X = np.asfortranarray(rng.uniform(-2.0, 2.0, size=(3000, 2)))
        t = np.repeat(rng.uniform(-1.0, 1.0, size=6), 500)
        bump = gaussian_bump(2, center=[0.4, -0.3], width=0.6, t_center=0.2, t_width=0.8)
        for e in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]):
            cfg = PlaneConfig(e, -0.1)
            w = antisymmetrize(bump, lambda pts: reflect(pts, cfg))
            rows = np.ascontiguousarray(X)
            mirror = rows + 2.0 * (cfg.lam - rows @ cfg.direction)[:, None] * cfg.direction
            assert np.array_equal(w.eval(X, t), bump.eval(X, t) - bump.eval(mirror, t)), e


class TestWLambda:
    def test_even_data_lambda_zero(self):
        prob, full = torsion_solution(K=65)
        data = w_lambda_field(prob, full, PlaneConfig([1.0], 0.0))
        assert np.max(np.abs(data.w_values)) <= 1e-12

    def test_torsion_positive(self):
        prob, full = torsion_solution(K=65)
        data = w_lambda_field(prob, full, PlaneConfig([1.0], -0.5))
        assert np.min(data.w_values) >= 0.0
        interior = np.einsum("ij,ij->i", data.node_coords, data.node_coords) < 1.0 - 1e-12
        assert np.all(data.w_values[interior] > 0.0)

    def test_antisymmetry_on_pairs(self):
        prob, full = torsion_solution(K=65)
        cfg = PlaneConfig([1.0], -0.25)
        data = w_lambda_field(prob, full, cfg)
        vals = np.asarray(full, dtype=float)
        ax = prob.axis
        for coords, w in zip(data.node_coords[:5], data.w_values[:5]):
            mirrored = reflect(coords, cfg)
            i = int(round((coords[0] - ax[0]) / prob.h))
            j = int(round((mirrored[0] - ax[0]) / prob.h))
            w_mirror = vals[i] - vals[j]
            assert w == pytest.approx(-w_mirror, abs=1e-15)

    def test_misaligned_lambda(self):
        prob, full = torsion_solution(K=65)
        with pytest.raises(AlignmentError):
            w_lambda_field(prob, full, PlaneConfig([1.0], -0.23))

    def test_non_axis_direction(self):
        prob, full = torsion_solution(K=65)
        with pytest.raises(AlignmentError):
            w_lambda_field(prob, full, PlaneConfig(np.array([1.0, 1.0]) / math.sqrt(2), 0.0))

    @pytest.mark.parametrize("direction", [[0.0, 0.0, 1.0], [1.0]])
    def test_direction_of_wrong_length(self, direction):
        prob, full = _solved(2, 9)
        with pytest.raises(DomainValidationError, match="components"):
            w_lambda_field(prob, full, PlaneConfig(direction, -0.5))

    def test_lambda_within_alignment_tolerance(self):
        # 3e-12 off the half-grid plane passes the alignment test; the on-plane
        # node (w = 0) must still stay out of Sigma_lambda
        prob, full = torsion_solution(K=129)
        exact = w_lambda_field(prob, full, PlaneConfig([1.0], -0.5))
        near = w_lambda_field(prob, full, PlaneConfig([1.0], -0.5 + 3e-12))
        assert near.w_values.size == 32
        assert np.array_equal(near.node_coords, exact.node_coords)
        assert np.array_equal(near.w_values, exact.w_values)
        rec = narrow_region_check(prob, full, [-0.5 + 3e-12], tol_geom=1e-10).records[0]
        assert rec.min_w > 0.0 and rec.strict_positive_interior

    @pytest.mark.parametrize("n, K", [(1, 33), (2, 17)])
    def test_matches_coordinate_reference(self, n, K):
        prob, datas = _grid_data(n, K)
        h = prob.h
        lams = [snap_lambda(v, h) for v in np.arange(-1.2, 1.2 + h / 4, h / 2)]
        assert lams[0] < -1.0 and lams[-1] > 1.0
        for full in datas.values():
            for e in np.concatenate([np.eye(n), -np.eye(n)]):
                for lam in lams:
                    cfg = PlaneConfig(e, lam)
                    data = w_lambda_field(prob, full, cfg)
                    coords, w = _reference_w(prob, full, cfg)
                    assert np.array_equal(data.node_coords, coords), (e, lam)
                    assert np.array_equal(data.w_values, w), (e, lam)


class TestNarrowRegion:
    def test_torsion_passes_both_orientations(self):
        prob, full = torsion_solution()
        h = prob.h
        lams = [snap_lambda(v, h) for v in (-0.9, -0.7, -0.5, -0.3, -0.1)] + [-h / 2]
        for direction in ([1.0], [-1.0]):
            rep = narrow_region_check(prob, full, lams, direction=direction, tol_geom=1e-10)
            assert rep.passed
            assert rep.lambda_star >= -h
            assert all(r.strict_positive_interior for r in rep.records)

    def test_zero_field_passes(self):
        prob, _ = torsion_solution(K=33)
        full = np.zeros(prob.points_per_axis)
        rep = narrow_region_check(prob, full, [-0.5, -0.25], tol_geom=1e-12)
        assert rep.passed is False or rep.lambda_star >= -prob.h
        assert all(r.min_w == 0.0 for r in rep.records)

    def test_plane_at_grid_edge_is_empty(self):
        # no node lies strictly left of lam = -1, so Sigma_lambda is empty
        prob, full = torsion_solution(K=9)
        data = w_lambda_field(prob, full, PlaneConfig([1.0], -1.0))
        assert data.w_values.size == 0 and data.node_coords.shape == (0, 1)
        rep = narrow_region_check(prob, full, [-1.0, -0.5])
        edge = rep.records[0]
        assert edge.lam == -1.0 and edge.min_w == 0.0 and edge.passed
        assert rep.lambda_star == -0.5

    def test_two_dimensional_sweep(self):
        p2 = FracParams(2, 0.5)
        prob = BallProblem(p2, 17, nonlinearity_by_name("one"))
        sol = solve_steady(prob, SCH, theta=1.0)
        full = sol.full_values(prob)
        h = prob.h
        lams = [snap_lambda(v, h) for v in (-0.75, -0.5, -0.25)] + [-h / 2]
        for d in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]):
            rep = narrow_region_check(prob, full, lams, direction=d, tol_geom=1e-10)
            assert rep.passed
            assert rep.lambda_star >= -h

    def test_shifted_profile_detected(self):
        prob, _ = torsion_solution(K=129)
        shifted = torsion_profile(1, 0.5, shift=[0.2])
        full = grid_samples(prob, shifted)
        h = prob.h
        lams = [snap_lambda(v, h) for v in (-0.9, -0.7, -0.5, -0.3, -0.1)] + [-h / 2]
        flagged = False
        for direction in ([1.0], [-1.0]):
            rep = narrow_region_check(prob, full, lams, direction=direction, tol_geom=1e-3)
            flagged = flagged or not rep.passed
        assert flagged


class TestSymmetryReport:
    def test_exact_solution(self):
        prob, full = torsion_solution()
        rep = symmetry_and_monotonicity_report(prob, full)
        assert rep.symmetry_defect <= 1e-12
        assert rep.monotonicity_violations == 0

    def test_noise_detected(self):
        # near the origin the radial decrement is O(h^2), far below the noise
        prob, full = torsion_solution(K=129)
        rng = np.random.default_rng(3)
        noisy = full + 1e-3 * rng.standard_normal(full.shape)
        rep = symmetry_and_monotonicity_report(prob, noisy, tol_geom=1e-8)
        assert rep.monotonicity_violations > 0
        assert rep.symmetry_defect > 1e-4

    def test_2d_orbits(self):
        p2 = FracParams(2, 0.5)
        prob = BallProblem(p2, 9, nonlinearity_by_name("one"))
        K = prob.points_per_axis
        ax = prob.axis
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        radial = np.maximum(1.0 - X**2 - Y**2, 0.0)
        rep = symmetry_and_monotonicity_report(prob, radial)
        assert rep.symmetry_defect == 0.0
        assert rep.monotonicity_violations == 0

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("K", [5, 9, 17, 33])
    def test_matches_dict_reference(self, n, K):
        prob, datas = _grid_data(n, K)
        for name, full in datas.items():
            for tol in (0.0, 1e-8, 1e-3):
                rep = symmetry_and_monotonicity_report(prob, full, tol_geom=tol)
                defect, violations = _reference_report(prob, full, tol)
                assert rep.symmetry_defect.hex() == defect.hex(), (name, tol)
                assert rep.monotonicity_violations == violations, (name, tol)

    @pytest.mark.parametrize("check", [
        symmetry_and_monotonicity_report,
        lambda prob, vals: w_lambda_field(prob, vals, PlaneConfig([1.0, 0.0], -0.5)),
    ], ids=["report", "w_lambda"])
    def test_values_must_cover_the_grid(self, check):
        prob, full = _solved(2, 9)
        with pytest.raises(DomainValidationError, match="one value per grid node"):
            check(prob, np.zeros(200))
        # the interior-only solution vector is not a grid
        interior = full.ravel()[prob.interior_mask()]
        with pytest.raises(DomainValidationError, match="one value per grid node"):
            check(prob, interior)

    def test_nan_fails_the_report(self):
        prob, _ = _solved(2, 9)
        vals = np.zeros(prob.shape)
        vals[2, 3] = np.nan
        rep = symmetry_and_monotonicity_report(prob, vals)
        assert math.isnan(rep.symmetry_defect)
        assert not rep.symmetry_defect <= 1e-12


class TestFoldResidual:
    CFG = PlaneConfig([1.0], 0.0)

    def test_zero_field(self):
        w = SpaceTimeField(lambda X, t: np.zeros(X.shape[0]), n=1, sup_bound=0.0,
                          space_scale=1.0,
                          space_support=(np.array([-2.0]), np.array([2.0])))
        fr = antisymmetric_fold_residual(w, self.CFG, SpaceTimePoint([-0.5], 0.2), P1, SCH)
        assert fr.residual == 0.0

    def test_gaussian_antisymmetric(self):
        base = gaussian_bump(1, center=[-0.6], width=0.5, t_center=0.0, t_width=0.7)
        w = antisymmetrize(base, lambda X: reflect(X, self.CFG))
        fr = antisymmetric_fold_residual(w, self.CFG, SpaceTimePoint([-0.5], 0.3), P1, SCH)
        assert fr.residual <= fr.combined_tol
        assert fr.residual <= 1e-9

    def test_sine_bump(self):
        w = SpaceTimeField(
            lambda X, t: np.sin(np.pi * X[:, 0]) * np.exp(-(t**2)),
            n=1, sup_bound=1.0, space_scale=0.5,
            space_support=(np.array([-8.0]), np.array([8.0])), t_support=(-10.0, 10.0))
        fr = antisymmetric_fold_residual(w, self.CFG, SpaceTimePoint([-0.4], 0.1), P1, SCH)
        assert fr.residual <= fr.combined_tol
        assert fr.residual <= 1e-9

    def test_n2_field(self):
        cfg = PlaneConfig([1.0, 0.0], 0.0)
        base = gaussian_bump(2, center=[-0.7, 0.2], width=0.6, t_center=0.0, t_width=0.8)
        w = antisymmetrize(base, lambda X: reflect(X, cfg))
        fr = antisymmetric_fold_residual(w, cfg, SpaceTimePoint([-0.5, 0.1], 0.2),
                                         FracParams(2, 0.5), SCH)
        assert fr.residual <= fr.combined_tol
        assert fr.residual <= 1e-9

    def test_rejects_non_antisymmetric(self):
        w = gaussian_bump(1, center=[-0.5], width=0.5, t_width=0.6)
        with pytest.raises(AntisymmetryError):
            antisymmetric_fold_residual(w, self.CFG, SpaceTimePoint([-0.4], 0.0), P1, SCH)

    def test_zero_at_minimum_sign(self):
        # for w >= 0 on Sigma with w(q) = 0 the folded form collapses to
        # an integral against K(q - y^lambda) - K(q - y) < 0
        cfg = PlaneConfig([1.0], -0.1)
        phi = build_antisym_bump([0.6], 0.4, cfg)
        eta = build_cutoff_eta(0.0, 1.0)
        w = SpaceTimeField(lambda X, t: -phi.eval(X) * eta.eval(t), n=1, sup_bound=1.0,
                           space_scale=0.1,
                           space_support=(np.array([-1.2]), np.array([1.0])),
                           t_support=(-1.0, 1.0))
        for xq in (-0.3, -0.45, -1.3):
            q = SpaceTimePoint([xq], 0.2)
            assert w.at(np.array([xq]), 0.2) == 0.0
            fr = antisymmetric_fold_residual(w, cfg, q, P1, SCH)
            assert fr.whole_space < 0.0
            assert fr.folded < 0.0
            # the whole-space Gaussian average of this narrow bump is off by
            # up to 6.3e-5 here; the folded average is within about 1e-6
            assert fr.residual <= 1e-4

    def test_rejects_wrong_side(self):
        base = gaussian_bump(1, center=[-0.6], width=0.5, t_width=0.7)
        w = antisymmetrize(base, lambda X: reflect(X, self.CFG))
        with pytest.raises(DomainValidationError):
            antisymmetric_fold_residual(w, self.CFG, SpaceTimePoint([0.5], 0.0), P1, SCH)


class TestObliqueAntisymmetrize:
    """About an oblique plane the support box of w covers the mirror images of all corners."""

    CFG = PlaneConfig([math.cos(math.pi / 6.0), math.sin(math.pi / 6.0)], 0.0)

    def _field(self):
        base = gaussian_bump(2, center=[0.8, 0.8], width=0.1, t_width=None)
        return antisymmetrize(base, lambda X: reflect(X, self.CFG)), base

    def test_box_holds_both_lobes(self):
        w, base = self._field()
        lo, hi = base.space_support
        corners = np.array([[a, b] for a in (lo[0], hi[0]) for b in (lo[1], hi[1])])
        boxed = np.concatenate([corners, reflect(corners, self.CFG)])
        w_lo, w_hi = w.space_support
        assert np.all(boxed >= w_lo) and np.all(boxed <= w_hi)
        # the corner (hi_x, lo_y) maps below y = -1.1; lo and hi alone reach only -0.51
        assert w_lo[1] < -1.1

    def test_operator_is_antisymmetric(self):
        w, _ = self._field()
        centre = np.array([0.8, 0.8])
        p = FracParams(2, 0.5)
        at_centre = master_operator_pointwise(w, SpaceTimePoint(centre, 0.0), p, SCH).value
        at_mirror = master_operator_pointwise(
            w, SpaceTimePoint(reflect(centre, self.CFG), 0.0), p, SCH).value
        # a box that missed part of the mirror lobe broke this by 1.8e-5
        assert abs(at_centre + at_mirror) <= 1e-9 * abs(at_centre)


def test_planes_reaches_the_fold_quadrature_through_one_entry():
    """planes imports no private quadrature name but ``_fold_passes``, nor the module itself."""
    tree = ast.parse(Path(planes.__file__).read_text())
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    names += [(None, alias.name) for node in ast.walk(tree) if isinstance(node, ast.Import)
              for alias in node.names]
    assert not [name for m, name in names if "quadrature" in name]
    private = [name for m, name in names if m and m.endswith("quadrature") and name[0] == "_"]
    assert private == ["_fold_passes"]


def _per_lag_folded_average(w, cfg, q, sch, r_mid):
    """The folded average with one field call per lag, each lag's sum kept.

    The kernel factors by axis: the normal-axis weights carry the kernel
    difference and (4 pi r)^{-1/2}; at n = 2 the free axis takes Hermite
    weights w / sqrt(pi) or panel weights w exp(-(y - x)^2 / 4r) / sqrt(4 pi r).
    Each n = 2 lag's points are laid out normal-major, and its values are
    summed over the free axis first, then over the normal axis.
    """
    axis_idx, sign = cfg.axis()
    x, t = q.x, q.t
    free = 1 - axis_idx
    q_par = sign * x[axis_idx]
    q_refl = 2.0 * cfg.lam - q_par
    a, b = (float(np.atleast_1d(e)[axis_idx]) for e in w.space_support)
    lo_supp, hi_supp = (a, b) if sign > 0 else (-b, -a)
    r_cross = (0.5 * w.space_scale) ** 2
    zn, wn = hermgauss(sch.hermite_order)
    gl_x, gl_w = np.polynomial.legendre.leggauss(8)
    out = np.zeros_like(r_mid)
    for i, r in enumerate(r_mid):
        sigma = 2.0 * math.sqrt(r)
        lo, hi = max(q_par - 8.0 * sigma, lo_supp), min(cfg.lam, hi_supp)
        if lo >= hi:
            continue
        count = min(int(math.ceil((hi - lo) / w.space_scale)), 160)
        edges_y = _refine_toward(np.linspace(lo, hi, count + 1), lo, hi, [q_par, q_refl],
                                 sigma * np.arange(1, 9))
        y_mid = 0.5 * (edges_y[:-1] + edges_y[1:])
        y_half = 0.5 * np.diff(edges_y)
        y = (y_mid[:, None] + y_half[:, None] * gl_x[None, :]).ravel()
        kern = np.exp(-((q_par - y) ** 2) / (4.0 * r)) - np.exp(-((q_refl - y) ** 2) / (4.0 * r))
        normal_w = (y_half[:, None] * gl_w[None, :]).ravel() * kern / math.sqrt(4.0 * math.pi * r)
        if w.n == 1:
            vals = w.eval(sign * y[:, None], np.full(y.size, t - r))
            out[i] = float(np.dot(normal_w, vals))
            continue
        if r <= r_cross:
            free_y, free_w = x[free] + sigma * zn, wn / math.sqrt(math.pi)
        else:
            free_y, weights = (ax[free] for ax in _panel_axes(w, sch))
            free_w = (np.exp(-((free_y - x[free]) ** 2) / (4.0 * r)) * weights
                      / math.sqrt(4.0 * math.pi * r))
        pts = np.empty((y.size, free_y.size, 2))
        pts[..., axis_idx] = sign * y[:, None]
        pts[..., free] = free_y
        vals = w.eval(pts.reshape(-1, 2), np.full(pts.shape[0] * pts.shape[1], t - r))
        out[i] = float(np.dot(normal_w, np.einsum("mj,j->m", vals.reshape(y.size, -1), free_w)))
    return out


def _reference_folded(w, cfg, q, p, sch, whole_space):
    """The folded coarse pass over the per-lag average, on the footing of whole_space."""
    one_pass = _master_passes(w, q, p, sch)[1]
    folded_coarse = one_pass(
        sch, average=lambda r_mid: (_per_lag_folded_average(w, cfg, q, sch, r_mid), 0.0))[0]
    return folded_coarse + (whole_space - one_pass(sch)[0])


def _fold_field(direction, centre, tw, lam=0.0, width=0.55, t_centre=0.0):
    cfg = PlaneConfig(direction, lam)
    base = gaussian_bump(len(direction), center=centre, width=width, t_center=t_centre,
                         t_width=tw)
    return cfg, antisymmetrize(base, lambda X: reflect(X, cfg))


def _criterion_7_geometries():
    """The ten fold geometries of acceptance criterion 7, drawn as it draws them."""
    rng = np.random.default_rng(777)
    cases = []
    for k in range(10):
        n = 2 if k >= 8 else 1
        centre = [-float(rng.uniform(0.4, 0.9))] + [float(rng.uniform(-0.3, 0.3))] * (n - 1)
        width, t_centre = float(rng.uniform(0.4, 0.7)), float(rng.uniform(-0.3, 0.3))
        tw = float(rng.uniform(0.6, 1.0))
        x = [-float(rng.uniform(0.3, 0.8))] + [0.0] * (n - 1)
        cases.append(([1.0] + [0.0] * (n - 1), centre, x, width, t_centre, tw))
    return cases


class TestChunkedFold:
    """The fold evaluates runs of lags per field call and keeps the bits of a per-lag loop."""

    CASES = [
        # (direction, lam, centre, x, t, t_width, field points of the fold before the
        # lag rule was shared); the fifth one's history is cut by t_support
        ([1.0], 0.0, [-0.65], [-0.55], 0.2, 0.8, 211_754),
        ([1.0, 0.0], 0.0, [-0.65, 0.2], [-0.55, 0.0], 0.2, 0.8, 19_172_216),
        ([-1.0, 0.0], 0.0, [0.6, -0.1], [0.5, 0.1], 0.1, 0.8, 18_933_240),
        ([0.0, 1.0], 0.0, [0.1, -0.6], [0.0, -0.5], 0.2, 0.8, 19_166_616),
        ([1.0], 0.0, [-0.6], [-0.4], -1.5, 0.5, 90_610),
        ([-1.0], 0.1, [0.7], [0.5], 0.0, 0.9, 237_370),
        # the free axis first and a negative normal, with the plane off the origin
        ([0.0, -1.0], -0.05, [-0.1, 0.6], [0.1, 0.5], 0.1, 0.8, 17_606_520),
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_bits_of_the_per_lag_loop(self, case):
        direction, lam, centre, x, t, tw, parent_points = case
        cfg, w = _fold_field(direction, centre, tw, lam)
        q, p = SpaceTimePoint(x, t), FracParams(len(direction), 0.5)
        sizes = []
        fr = antisymmetric_fold_residual(_counting(w, sizes), cfg, q, p, SCH)
        whole = master_operator_pointwise(w, q, p, SCH).value
        assert fr.whole_space == whole
        assert fr.folded == _reference_folded(w, cfg, q, p, SCH, whole)
        assert fr.residual == abs(fr.whole_space - fr.folded)
        assert fr.residual <= 1e-9
        assert sum(sizes) <= parent_points

    def test_runs_spanning_several_calls(self, monkeypatch):
        cfg, w = _fold_field([1.0], [-0.65], 0.8)
        q = SpaceTimePoint([-0.55], 0.2)
        whole, calls = [], []
        # at most 500 points per call, where one lag holds at most 192; the
        # whole-space side shares the block size
        monkeypatch.setattr(quadrature, "_FIELD_BLOCK", 500)
        whole_space = master_operator_pointwise(_counting(w, whole), q, P1, SCH).value
        fr = antisymmetric_fold_residual(_counting(w, calls), cfg, q, P1, SCH)
        assert fr.folded == _reference_folded(w, cfg, q, P1, SCH, whole_space)
        assert len(calls) - len(whole) > 20
        # only the whole-space value's own calls may hold more
        assert sum(m > 500 for m in calls) == sum(m > 500 for m in whole)

    def test_quadrature_field_block_alone_regroups_the_fold(self, monkeypatch):
        # the folded side of an n = 2 fold: patching quadrature's one block size
        # splits its runs of lags into one field call per lag, with the same bits
        cfg, w = _fold_field([1.0, 0.0], [-0.65, 0.2], 0.8)
        q, r_mid = SpaceTimePoint([-0.55, 0.0], 0.2), np.geomspace(1e-4, 50.0, 40)

        def folded(block):
            monkeypatch.setattr(quadrature, "_FIELD_BLOCK", block)
            sizes = []
            out = quadrature._folded_average(_counting(w, sizes), *cfg.axis(), cfg.lam, q, SCH,
                                             r_mid)
            return out, sizes

        grouped, grouped_sizes = folded(quadrature._FIELD_BLOCK)
        single, single_sizes = folded(1)
        assert np.array_equal(single, grouped)
        assert sum(single_sizes) == sum(grouped_sizes)
        assert len(single_sizes) == len(r_mid) > len(grouped_sizes)

    def test_n2_runs_hold_at_most_a_block(self, monkeypatch):
        # runs are sized by field points, not by the coordinates of an axis: a call holds
        # several lags only within the block, and a lag larger than the block alone
        cfg, w = _fold_field([1.0, 0.0], [-0.65, 0.2], 0.8)
        q, r_mid = SpaceTimePoint([-0.55, 0.0], 0.2), np.geomspace(1e-4, 50.0, 40)

        def call_sizes(block):
            monkeypatch.setattr(quadrature, "_FIELD_BLOCK", block)
            sizes = []
            quadrature._folded_average(_counting(w, sizes), *cfg.axis(), cfg.lam, q, SCH, r_mid)
            return sizes

        per_lag, calls = call_sizes(1), call_sizes(10_000)
        ends = np.cumsum(per_lag)
        last_lag = np.searchsorted(ends, np.cumsum(calls))
        assert np.array_equal(ends[last_lag], np.cumsum(calls))
        lags_per_call = np.diff(last_lag, prepend=-1)
        assert all(m <= 10_000 or k == 1 for m, k in zip(calls, lags_per_call))
        assert max(calls) > 10_000 and max(lags_per_call) > 1

    def test_n1_fold_makes_few_field_calls(self):
        cfg, w = _fold_field([1.0], [-0.65], 0.8)
        q = SpaceTimePoint([-0.55], 0.2)
        whole, calls = [], []
        master_operator_pointwise(_counting(w, whole), q, P1, SCH)
        antisymmetric_fold_residual(_counting(w, calls), cfg, q, P1, SCH)
        # beyond the whole-space value: the antisymmetry probe, w(q), the
        # folded lags in one run and the heat stencil; one call per lag before
        assert len(calls) - len(whole) <= 10

    @pytest.mark.parametrize("direction, centre, x", [
        ([1.0], [-0.65], [-0.55]),
        ([0.0, -1.0], [-0.1, 0.6], [0.1, 0.5]),
    ])
    def test_no_runtime_warnings(self, direction, centre, x):
        cfg, w = _fold_field(direction, centre, 0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            antisymmetric_fold_residual(w, cfg, SpaceTimePoint(x, 0.2),
                                        FracParams(len(direction), 0.5), SCH)

    @staticmethod
    def _fold_edges(monkeypatch, lam, q_par, feature, lo_supp, hi_supp, r_mid):
        """The normal-axis edges the fold builds for the lags r_mid, one array per live lag."""
        built, refine = [], quadrature._refine_rows

        def recording(*args):
            built.append(refine(*args))
            return built[-1]

        monkeypatch.setattr(quadrature, "_refine_rows", recording)
        w = SpaceTimeField(lambda X, t: np.zeros(len(X)), n=1, space_scale=feature,
                           space_support=(np.array([lo_supp]), np.array([hi_supp])))
        quadrature._folded_average(w, 0, 1.0, lam, SpaceTimePoint([q_par], 0.0), SCH, r_mid)
        if not built:
            return []
        edges, counts = built[0]
        return np.split(edges, np.cumsum(counts)[:-1])

    def test_edges_of_every_lag_in_one_pass(self, monkeypatch):
        rng = np.random.default_rng(31)
        for k in range(200):
            if k % 4 == 0:
                # dyadic values: refinement points land on each other and on edges
                lam, q_par, feature = 0.0, -float(rng.integers(1, 16)) / 8.0, 0.25
                sigma = 2.0 ** -rng.integers(0, 6, size=12).astype(float)
                r_mid = sigma * sigma / 4.0  # the fold's 2 sqrt(r) gives sigma back exactly
            else:
                lam = float(rng.uniform(-1.0, 1.0))
                q_par = lam - float(10.0 ** rng.uniform(-3.0, 0.5))
                feature = float(rng.choice([1.0, rng.uniform(0.01, 1.0)]))
                r_mid = 10.0 ** rng.uniform(-6.0, 2.7, size=12)
            hi = lam - float(rng.choice([0.0, rng.uniform(0.0, 0.3)]))
            # a support box is finite; a side beyond every lag's eight widths never binds
            lo_supp = float(rng.choice([-1e3, q_par - rng.uniform(0.0, 3.0)]))
            if k % 5 == 0:
                lo_supp = np.nextafter(hi, -math.inf)  # panels one ulp wide
            sigma = 2.0 * np.sqrt(r_mid)
            lo = np.maximum(q_par - 8.0 * sigma, lo_supp)
            live = lo < hi
            centres = (q_par, 2.0 * lam - q_par)
            rows = self._fold_edges(monkeypatch, lam, q_par, feature, lo_supp, hi, r_mid)
            assert len(rows) == np.count_nonzero(live)
            for row, lo_i, sigma_i in zip(rows, lo[live], sigma[live]):
                count = min(int(math.ceil((hi - lo_i) / feature)), 160)
                want = _refine_toward(np.linspace(lo_i, hi, count + 1), lo_i, hi, centres,
                                      sigma_i * np.arange(1, 9))
                assert row.tobytes() == want.tobytes(), (k, lo_i, sigma_i)
        # steps below the float spacing: numpy.linspace repeats edges, and a lag
        # without refinement points keeps them
        rows = self._fold_edges(monkeypatch, 1e17 + 64.0, 0.0, 1.0, 1e17, 1e18, np.array([0.25]))
        want = np.linspace(1e17, 1e17 + 64.0, 65)
        assert np.unique(want).size < want.size
        assert len(rows) == 1 and rows[0].tobytes() == want.tobytes()

    def test_criterion_7_geometries(self):
        for direction, centre, x, width, t_centre, tw in _criterion_7_geometries():
            cfg, w = _fold_field(direction, centre, tw, width=width, t_centre=t_centre)
            fr = antisymmetric_fold_residual(w, cfg, SpaceTimePoint(x, 0.2),
                                             FracParams(len(direction), 0.5), SCH)
            assert fr.residual <= 1e-9

    @pytest.mark.parametrize("direction, centre, x", [
        ([1.0], [-0.65], [-0.55]),
        ([1.0, 0.0], [-0.65, 0.2], [-0.55, 0.0]),
    ])
    def test_time_independent_fold(self, direction, centre, x):
        cfg, w = _fold_field(direction, centre, None)
        assert w.time_independent
        fr = antisymmetric_fold_residual(w, cfg, SpaceTimePoint(x, 0.2),
                                         FracParams(len(direction), 0.5), SCH)
        assert fr.residual <= 1e-9


class TestCutoffs:
    def test_eta_plateau_and_support(self):
        eta = build_cutoff_eta(0.5, 1.2)
        r_sq = 1.44
        assert eta.eval(np.array([0.5]))[0] == 1.0
        assert eta.eval(np.array([0.5 + 0.49 * r_sq]))[0] == 1.0
        assert eta.eval(np.array([0.5 + 1.01 * r_sq]))[0] == 0.0
        ts = np.linspace(0.5 - 2 * r_sq, 0.5 + 2 * r_sq, 10_000)
        vals = eta.eval(ts)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_bump_peak_and_antisymmetry(self):
        cfg = PlaneConfig([1.0], -0.1)
        bump = build_antisym_bump([0.6], 0.4, cfg)
        assert bump.eval(np.array([[0.6]]))[0] == 1.0
        rng = np.random.default_rng(4)
        xs = rng.uniform(-3, 3, size=(1000, 1))
        total = bump.eval(xs) + bump.eval(reflect(xs, cfg))
        assert np.max(np.abs(total)) <= 1e-14

    def test_bump_support(self):
        cfg = PlaneConfig([1.0], -0.1)
        bump = build_antisym_bump([0.6], 0.4, cfg)
        # outside both balls of radius 0.2 around 0.6 and its mirror -0.8
        for x in (0.35, 0.85, -0.55, -1.05, 2.0):
            assert bump.eval(np.array([[x]]))[0] == 0.0

    def test_overlap_rejected(self):
        cfg = PlaneConfig([1.0], 0.0)
        with pytest.raises(OverlapError):
            build_antisym_bump([0.1], 0.4, cfg)


class TestLemmaScaling:
    def test_time_cutoff_slope(self):
        fit = verify_lemma_scaling("time-cutoff", [0.5, 1.0, 2.0, 5.0], P1, SCH)
        assert abs(fit.slope + 1.0) <= 0.15

    def test_doubling_ratio(self):
        fit = verify_lemma_scaling("time-cutoff", [0.5, 1.0, 2.0, 4.0], P1, SCH)
        for lo, hi in zip(fit.sup_values[:-1], fit.sup_values[1:]):
            assert hi / lo == pytest.approx(0.5, rel=0.1)

    def test_spacetime_cutoff_slope(self):
        fit = verify_lemma_scaling("spacetime-cutoff", [0.5, 1.0, 2.0, 5.0],
                                   FracParams(1, 0.25), SCH)
        assert abs(fit.slope + 0.5) <= 0.15

    def test_validation(self):
        with pytest.raises(DomainValidationError):
            verify_lemma_scaling("time-cutoff", [1.0, 2.0, 3.0], P1, SCH)
        with pytest.raises(DomainValidationError):
            verify_lemma_scaling("time-cutoff", [1.0, 2.0, 3.0, 4.0], P1, SCH)
        with pytest.raises(DomainValidationError):
            verify_lemma_scaling("sideways-cutoff", [0.5, 1.0, 2.0, 5.0], P1, SCH)


class TestMpProbe:
    CFG = PlaneConfig([1.0], 0.0)

    def test_nonpositive_field_trivial(self):
        w = SpaceTimeField(lambda X, t: -np.exp(-np.sum(X * X, -1) - t * t) * 0.0, n=1,
                          sup_bound=0.0, space_scale=1.0,
                          space_support=(np.array([-4.0]), np.array([4.0])))
        rep = unbounded_mp_probe(w, self.CFG, [([-0.5], 0.0), ([-1.0], 0.3)], P1, SCH)
        assert len(rep.hypothesis_points) == 0
        assert not rep.counterexample_candidate

    def test_positive_bump_not_flagged(self):
        # at the positive maximum the folded form makes the operator positive,
        # so the hypothesis fails there and no contradiction arises
        base = gaussian_bump(1, center=[-0.7], width=0.5, t_center=0.0, t_width=0.8)
        w = antisymmetrize(base, lambda X: reflect(X, self.CFG))
        samples = [([-0.7], 0.0), ([-0.5], 0.1), ([-1.2], -0.2), ([-0.9], 0.4)]
        rep = unbounded_mp_probe(w, self.CFG, samples, P1, SCH, tol=1e-3)
        assert rep.max_w > 0.0
        assert rep.hypothesis_violations >= 1
        assert not rep.counterexample_candidate

    def test_random_sweep_no_candidates(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            base = random_spacetime_bump(rng, 1)
            w = antisymmetrize(base, lambda X: reflect(X, self.CFG))
            samples = [([float(rng.uniform(-3.0, -0.05))], float(rng.uniform(-1, 1)))
                       for _ in range(6)]
            rep = unbounded_mp_probe(w, self.CFG, samples, P1, SCH, tol=1e-3)
            assert not rep.counterexample_candidate
