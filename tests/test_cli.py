"""Configuration parsing, scenario runs, artifacts and exit codes."""

import json

import numpy as np
import pytest

from fracheat import cli
from fracheat.cli import (
    ScenarioConfig,
    emit_plot_data,
    main,
    parse_config,
    run_scenario,
)
from fracheat.errors import ConfigError, DomainValidationError
from fracheat.fields import SpaceTimeField


class TestParseConfig:
    def test_minimal_eval(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "scenario": "eval", "n": 1, "s": 0.5,
            "point": {"x": [0.0], "t": 0.0},
            "field": {"name": "gaussian-bump"},
        }))
        cfg = parse_config(str(cfg_file))
        assert cfg.scenario == "eval"
        assert cfg.field["name"] == "gaussian-bump"

    def test_s_out_of_range(self):
        with pytest.raises(ConfigError, match=r"s must lie in \(0,1\)"):
            parse_config(None, {"scenario": "solve-ball", "s": 1.0})

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"scenario": "liouville", "alpha_decay": 2.0}))
        with pytest.raises(ConfigError, match="alpha_decay"):
            parse_config(str(cfg_file))

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config(None, {"scenario": "frobnicate"})

    def test_missing_field_for_eval(self):
        with pytest.raises(ConfigError, match="field.name"):
            parse_config(None, {"scenario": "eval"})

    def test_flag_overrides_win(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"scenario": "liouville", "s": 0.25, "seed": 1}))
        cfg = parse_config(str(cfg_file), {"s": 0.75})
        assert cfg.s == 0.75
        assert cfg.seed == 1

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/cfg.json")

    def test_hash_stable(self):
        a = parse_config(None, {"scenario": "liouville", "seed": 5})
        b = parse_config(None, {"scenario": "liouville", "seed": 5})
        assert a.config_hash() == b.config_hash()
        c = parse_config(None, {"scenario": "liouville", "seed": 6})
        assert a.config_hash() != c.config_hash()

    def test_numeric_configs_keep_their_hash(self):
        # hashes of the same configs before list entries and problem.h were validated
        planes = parse_config(None, {"scenario": "moving-planes", "lambdas": [-0.5, -0.25],
                                     "problem": {"h": 0.125, "f": "one"}})
        scaling = parse_config(None, {"scenario": "lemma-scaling", "r_list": [0.5, 1, 2.0, 5.0]})
        assert (planes.config_hash(), scaling.config_hash()) == ("2108602b753f", "1e2e8788fdcc")

    def test_a_config_built_in_python_is_checked(self):
        with pytest.raises(ConfigError, match="field.name"):
            ScenarioConfig(scenario="eval")
        with pytest.raises(ConfigError, match="points_per_axis must be an integer"):
            ScenarioConfig(scenario="solve-ball", problem={"points_per_axis": 9.5})
        # N_x is stored as int in a copy, so 16.0 hashes like 16 and the caller's dict is kept
        torus = {"N_x": 16.0}
        cfg = ScenarioConfig(scenario="liouville", torus=torus)
        assert cfg.config_hash() == ScenarioConfig(scenario="liouville",
                                                   torus={"N_x": 16}).config_hash()
        assert type(cfg.torus["N_x"]) is int and type(torus["N_x"]) is float

    def test_flat_shorthand_forms(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "scenario": "eval", "n": 1, "s": 0.5,
            "point": [0.0, 0.0], "field": "gaussian-bump",
        }))
        cfg = parse_config(str(cfg_file))
        assert cfg.field == {"name": "gaussian-bump"}
        assert cfg.point == {"x": [0.0], "t": 0.0}


class TestScenarios:
    def test_liouville(self, tmp_path):
        cfg = ScenarioConfig(scenario="liouville", output_dir=str(tmp_path / "out"))
        report = run_scenario(cfg)
        assert report.overall_pass
        names = {r.name for r in report.records}
        assert "nullspace-dim" in names and "projection-constant" in names
        assert (tmp_path / "out" / "report.json").exists()
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["overall_pass"] is True
        assert payload["config_hash"] == cfg.config_hash()

    def test_reduce_check(self, tmp_path):
        cfg = ScenarioConfig(scenario="reduce-check", output_dir=str(tmp_path / "out"), seed=7)
        report = run_scenario(cfg)
        assert report.overall_pass
        names = [r.name for r in report.records]
        assert names == ["master-vs-laplacian", "master-vs-marchaud",
                         "constant-annihilation", "spectral-plane-wave"]

    def test_lemma_scaling_rows(self, tmp_path):
        cfg = ScenarioConfig(scenario="lemma-scaling", output_dir=str(tmp_path / "out"),
                             kind="time-cutoff", r_list=[0.5, 1.0, 2.0, 5.0])
        report = run_scenario(cfg)
        assert report.overall_pass
        lines = (tmp_path / "out" / "scaling.csv").read_text().strip().splitlines()
        assert lines[0].startswith("# fracheat lemma-scaling config=")
        assert len(lines) - 1 == 4

    def test_solve_ball_artifacts(self, tmp_path):
        cfg = ScenarioConfig(scenario="solve-ball", output_dir=str(tmp_path / "out"),
                             problem={"h": 1.0 / 16.0, "f": "one"})
        report = run_scenario(cfg)
        assert report.overall_pass
        profile = (tmp_path / "out" / "profile.csv").read_text().splitlines()
        assert profile[0].startswith(f"# fracheat solve-ball config={report.config_hash}")
        assert len(profile) - 1 == 31  # interior nodes at h = 1/16
        sym = [r for r in report.records if r.name == "symmetry-defect"][0]
        assert sym.value <= 1e-12

    def test_moving_planes_sorted_lambdas(self, tmp_path):
        cfg = ScenarioConfig(scenario="moving-planes", output_dir=str(tmp_path / "out"),
                             problem={"h": 1.0 / 16.0, "f": "one"})
        report = run_scenario(cfg)
        assert report.overall_pass
        lines = (tmp_path / "out" / "lambda_minw.csv").read_text().strip().splitlines()[1:]
        lams = [float(line.split(",")[0]) for line in lines]
        assert lams == sorted(lams)

    def test_moving_planes_two_dimensional(self, tmp_path):
        cfg = ScenarioConfig(scenario="moving-planes", n=2,
                             output_dir=str(tmp_path / "out"),
                             problem={"h": 0.125, "f": "one"},
                             lambdas=[-0.75, -0.5, -0.25, -0.0625])
        report = run_scenario(cfg)
        assert report.overall_pass

    def test_moving_planes_flags_shifted(self, tmp_path):
        cfg = ScenarioConfig(scenario="moving-planes", output_dir=str(tmp_path / "out"),
                             problem={"h": 1.0 / 16.0, "f": "one"},
                             field={"name": "shifted-torsion"})
        report = run_scenario(cfg)
        assert not report.overall_pass

    @pytest.mark.parametrize("scenario, sub, key, value", [
        ("eval", "scheme", "hermite_order", 20),
        ("solve-ball", "problem", "points_per_axis", 33),
    ])
    def test_integral_float_settings_share_hash_and_csv_bytes(self, tmp_path, scenario, sub,
                                                              key, value):
        # 20 and 20.0 run the same computation, so they write one config hash and one CSV
        outs = []
        for spelling in (value, float(value)):
            out = tmp_path / repr(spelling)
            cfg = parse_config(None, {"scenario": scenario, "field_name": "gaussian-bump" if scenario == "eval" else None,
                                      sub: {key: spelling}, "output_dir": str(out)})
            run_scenario(cfg)
            outs.append((cfg.config_hash(), {f.name: f.read_bytes() for f in sorted(out.iterdir())
                                             if f.suffix == ".csv"}))
        assert outs[0] == outs[1] and outs[0][1]

    def test_eval_scenario(self, tmp_path):
        cfg = ScenarioConfig(scenario="eval", output_dir=str(tmp_path / "out"),
                             field={"name": "plane-wave", "params": {"xi": [1.0], "rho": 1.0}},
                             point={"x": [0.0], "t": 0.0})
        report = run_scenario(cfg)
        assert report.overall_pass

    def test_eval_spot_checks_the_field(self, tmp_path, monkeypatch):
        # declared time-independent, but it depends on t
        liar = SpaceTimeField(lambda X, t: np.cos(t), n=1, time_independent=True)
        monkeypatch.setattr(cli, "build_field", lambda *args: liar)
        cfg = ScenarioConfig(scenario="eval", output_dir=str(tmp_path / "out"),
                             field={"name": "gaussian-bump"})
        with pytest.raises(DomainValidationError, match="time_independent"):
            run_scenario(cfg)

    def test_moving_planes_spot_checks_the_named_field(self, tmp_path, monkeypatch):
        # |u| reaches 2, but the declared sup_bound is 1
        liar = SpaceTimeField(lambda X, t: 2.0 * np.cos(X[:, 0]), n=1, sup_bound=1.0)
        monkeypatch.setattr(cli, "build_field", lambda *args: liar)
        cfg = ScenarioConfig(scenario="moving-planes", output_dir=str(tmp_path / "out"),
                             problem={"h": 1.0 / 16.0, "f": "one"},
                             field={"name": "torsion-profile"})
        with pytest.raises(DomainValidationError, match="sup_bound"):
            run_scenario(cfg)


class TestEmitPlotData:
    def test_empty_series_warns(self, tmp_path):
        with pytest.warns(UserWarning, match="no plot data"):
            written = emit_plot_data({}, tmp_path, "abc", "eval")
        assert written == []

    def test_header_carries_hash(self, tmp_path):
        written = emit_plot_data({"x.csv": (("a", "b"), [(1.0, 2.0)])}, tmp_path, "ffff", "eval")
        assert written == ["x.csv"]
        head = (tmp_path / "x.csv").read_text().splitlines()[0]
        assert "config=ffff" in head


class TestMainExitCodes:
    def test_pass_is_zero(self, tmp_path):
        assert main(["liouville", "--out", str(tmp_path / "a")]) == 0

    def test_config_error_is_two(self, tmp_path, capsys):
        assert main(["solve-ball", "--s", "1.5", "--out", str(tmp_path / "b")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_check_failure_is_one(self, tmp_path):
        code = main(["moving-planes", "--h", "0.0625", "--field", "shifted-torsion",
                     "--out", str(tmp_path / "c")])
        assert code == 1

    def test_moving_planes_fails_when_its_solve_diverges(self, tmp_path, capsys):
        # f(u) = 1 + 5u has no bounded fixed point the undamped iteration reaches
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"scenario": "moving-planes", "problem": {
            "h": 0.0625, "f": "custom-polynomial", "coeffs": [1, 5]}}))
        code = main(["moving-planes", "--config", str(cfg_file), "--out", str(tmp_path / "d")])
        assert code == 1
        assert "[FAIL] converged" in capsys.readouterr().out

    @pytest.mark.parametrize("config, message", [
        ({"scenario": "moving-planes", "lambdas": [float("nan")]}, "lambdas"),
        ({"scenario": "moving-planes", "lambdas": ["a"]}, "lambdas"),
        ({"scenario": "moving-planes", "lambdas": [-0.5, float("inf")]}, "lambdas"),
        ({"scenario": "lemma-scaling", "r_list": ["x", 1, 2, 3]}, "r_list"),
        ({"scenario": "solve-ball", "problem": {"h": 0}}, "problem.h"),
        ({"scenario": "solve-ball", "problem": {"h": -0.1}}, "problem.h"),
        ({"scenario": "moving-planes", "problem": {"h": float("nan")}}, "problem.h"),
        ({"scenario": "solve-ball", "problem": {"points_per_axis": "x"}}, "points_per_axis"),
        ({"scenario": "solve-ball", "problem": {"points_per_axis": 4}}, "points_per_axis"),
        ({"scenario": "solve-ball", "problem": {"points_per_axis": 3}}, "points_per_axis"),
        ({"scenario": "moving-planes", "problem": {"points_per_axis": 9.5}}, "points_per_axis"),
        ({"scenario": "solve-ball", "problem": {"theta": "a"}}, "problem.theta"),
        ({"scenario": "solve-ball", "problem": {"theta": 0}}, "problem.theta"),
        ({"scenario": "solve-ball", "problem": {"theta": 1.5}}, "problem.theta"),
        ({"scenario": "solve-ball", "problem": {"max_iter": 2.5}}, "problem.max_iter"),
        ({"scenario": "solve-ball", "problem": {"max_iter": 0}}, "problem.max_iter"),
        ({"scenario": "solve-ball", "problem": {"max_iter": True}}, "problem.max_iter"),
        ({"scenario": "solve-ball", "problem": {"tol": "q"}}, "problem.tol"),
        ({"scenario": "solve-ball", "problem": {"tol": -1e-8}}, "problem.tol"),
        ({"scenario": "solve-ball", "problem": {"tol": float("inf")}}, "problem.tol"),
        ({"scenario": "liouville", "n": "x"}, "n must"),
        ({"scenario": "liouville", "n": 2.5}, "n must"),
        ({"scenario": "liouville", "n": True}, "n must"),
        ({"scenario": "liouville", "n": 0}, "n must"),
        ({"scenario": "liouville", "s": "a"}, "s must"),
        ({"scenario": "liouville", "s": float("nan")}, "s must"),
        ({"scenario": "liouville", "seed": "q"}, "seed"),
        ({"scenario": "liouville", "seed": -1}, "seed"),
        ({"scenario": "liouville", "torus": {"N_x": "a"}}, "torus.N_x"),
        ({"scenario": "liouville", "torus": {"N_t": 16.5}}, "torus.N_t"),
        ({"scenario": "liouville", "torus": {"L_x": 0}}, "torus.L_x"),
        ({"scenario": "eval", "field": "gaussian-bump", "scheme": {"nodes_per_decade": "x"}},
         "scheme.nodes_per_decade"),
        ({"scenario": "eval", "field": "gaussian-bump", "scheme": {"hermite_order": 20.5}},
         "scheme.hermite_order"),
        ({"scenario": "eval", "field": "gaussian-bump", "scheme": {"r_max": "x"}}, "scheme.r_max"),
        ({"scenario": "eval", "field": "gaussian-bump", "point": {"x": ["a"], "t": 0.0}}, "point"),
        ({"scenario": "eval", "field": "gaussian-bump", "point": {"x": [0.0], "t": "z"}}, "point"),
        # caught by the objects the scenario builds, which parse_config builds too
        ({"scenario": "liouville", "torus": {"N_x": 9}}, "N_x must be even"),
        ({"scenario": "eval", "field": "gaussian-bump", "scheme": {"r_min": 600}}, "r_min"),
        ({"scenario": "solve-ball", "problem": {"h": 0.9}}, "points_per_axis"),  # K = 3
        ({"scenario": "solve-ball", "n": 3}, "n in {1, 2}"),
        ({"scenario": "moving-planes", "problem": {"f": "cubic"}}, "one-minus-half-u"),
        ({"scenario": "eval", "field": "sombrero"}, "gaussian-bump"),
        ({"scenario": "eval", "field": {"name": "gaussian-bump", "params": {"width": "x"}}}, "'x'"),
        # inverted or mis-sized field metadata, which the field kinds reject when built
        ({"scenario": "eval", "field": {"name": "gaussian-bump", "params": {"t_width": -1.0}}},
         "t_support"),
        ({"scenario": "eval", "field": {"name": "gaussian-bump", "params": {"width": -0.5}}},
         "space_scale"),
        # the case keeps the id it took from its former message
        pytest.param({"scenario": "eval", "field": {"name": "gaussian-bump",
                                                    "params": {"center": [1, 2]}}},
                     "center must have n = 1 entries", id="config45-space_support"),
        # a list or object of the wrong kind, a mis-sized point, and lemma-scaling's own checks
        ({"scenario": "moving-planes", "lambdas": 5}, "lambdas must be a list"),
        ({"scenario": "eval", "field": "gaussian-bump", "point": "x"}, "'point' must be an object"),
        ({"scenario": "eval", "field": "gaussian-bump", "point": {"x": [0, 0], "t": 0}},
         "expected (1,)"),
        ({"scenario": "lemma-scaling", "kind": "bogus"}, "kind must"),
        ({"scenario": "lemma-scaling", "r_list": [1, 2]}, "four distinct radii"),
        ({"scenario": "lemma-scaling", "r_list": [0.5, 1, 2, 3]}, "decade"),
        ({"scenario": "lemma-scaling", "r_list": [0, 1, 2, 8]}, "positive"),
        # numbers beyond float range: 2 / h overflows, and 10**400 has no float; the
        # case keeps the id it took from its former message
        ({"scenario": "solve-ball", "problem": {"h": 1e-320}}, "infinity"),
        pytest.param({"scenario": "solve-ball", "problem": {"h": 10**400}},
                     "problem.h must be a finite real number", id="config54-too large"),
        ({"scenario": "solve-ball", "problem": {"h": 1e-310}}, "problem.h"),
        # widths whose squares under- or overflow, and a bool or string taken for a width;
        # these once ran (exit 0) or failed in the quadrature (exit 3)
        *[({"scenario": "eval", "field": {"name": "gaussian-bump", "params": {key: value}}},
           f"{key} must") for key, value in [("width", 1e-300), ("width", 1e200),
                                              ("t_width", 1e200), ("width", True),
                                              ("t_width", "1"), ("width", "1")]],
        # field parameters the field does not declare, and numbers that are not finite
        # reals; these once ran (exit 0) or failed with a broadcast error (exit 3)
        ({"scenario": "eval", "field": {"name": "gaussian-bump", "params": {"widht": 0.5}}},
         "accepted: ['center', 'width', 't_center', 't_width']"),
        ({"scenario": "eval", "field": {"name": "gaussian-bump", "params": [1, 2]}},
         "must be an object"),
        *[({"scenario": "eval", "field": {"name": name, "params": {key: value}}}, message)
          for name, key, value, message in [
              ("gaussian-bump", "t_center", True, "t_center must"),
              ("gaussian-bump", "t_center", "0.5", "t_center must"),
              ("gaussian-bump", "center", ["0.1"], "every entry of center"),
              ("gaussian-bump", "center", [True], "every entry of center"),
              ("plane-wave", "rho", True, "rho must"),
              ("plane-wave", "rho", "1", "rho must"),
              ("plane-wave", "xi", ["1"], "every entry of xi"),
              ("shifted-torsion", "shift", ["0.2"], "every entry of shift"),
              ("shifted-torsion", "shift", [0.2, 0.0], "shift must have n = 1 entries"),
              ("custom-polynomial-cutoff", "coeffs", [True, -0.5], "every entry of coeffs")]],
        ({"scenario": "solve-ball", "problem": {"f": "custom-polynomial", "coeffs": ["1", -0.5]}},
         "every entry of coeffs"),
        ({"scenario": "solve-ball", "problem": {"f": "custom-polynomial", "coeffs": [True]}},
         "every entry of coeffs"),
        # coefficients for a right-hand side without any, and none for a polynomial;
        # these once ran (exit 0), ignoring them or solving f = 1
        ({"scenario": "solve-ball", "problem": {"f": "one", "coeffs": [5, 7]}}, "takes no coeffs"),
        ({"scenario": "solve-ball", "problem": {"f": "custom-polynomial", "coeffs": []}},
         "at least one coefficient"),
    ])
    def test_malformed_numbers_are_config_errors(self, tmp_path, capsys, config, message):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))  # NaN and Infinity as Python's json writes them
        out = tmp_path / "out"
        assert main([config["scenario"], "--config", str(cfg_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err
        assert not out.exists()

    def test_flags_apply_inside_the_shorthand_forms(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"scenario": "eval", "field": "gaussian-bump"}))
        out = tmp_path / "wave"
        assert main(["eval", "--config", str(cfg_file), "--field", "plane-wave",
                     "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["config"]["field"] == {
            "name": "plane-wave"}
        # the flag does not turn a malformed section into a crash
        cfg_file.write_text(json.dumps({"scenario": "solve-ball", "problem": "x"}))
        out = tmp_path / "ball"
        assert main(["solve-ball", "--config", str(cfg_file), "--h", "0.25",
                     "--out", str(out)]) == 2
        assert "'problem' must be an object" in capsys.readouterr().err
        assert not out.exists()

    def test_moving_planes_solve_takes_the_problem_settings(self, tmp_path, capsys):
        # it converges in 22 undamped iterations; one is not enough
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"scenario": "moving-planes", "problem": {
            "h": 0.125, "f": "one-minus-half-u", "max_iter": 1}}))
        code = main(["moving-planes", "--config", str(cfg_file), "--out", str(tmp_path / "m")])
        assert code == 1
        assert "[FAIL] converged" in capsys.readouterr().out

    def test_plane_snapped_to_grid_edge(self, tmp_path):
        # at h = 0.5 the default lambda = -0.9 snaps to -1, where no node lies
        assert main(["moving-planes", "--h", "0.5", "--out", str(tmp_path / "e")]) == 0

    def test_integral_float_scheme_setting_runs(self, tmp_path):
        # 20.0 passes the config's integer check, so the scheme must take it as 20
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"scenario": "eval", "field": "gaussian-bump",
                                        "scheme": {"hermite_order": 20.0}}))
        assert main(["eval", "--config", str(cfg_file), "--out", str(tmp_path / "f")]) == 0

    def test_numerical_error_is_three(self, tmp_path, capsys):
        # an unattainable quadrature tolerance raises through run_scenario
        code = main(["eval", "--field", "plane-wave", "--tol", "1e-9",
                     "--out", str(tmp_path / "d")])
        assert code == 3
        assert "error" in capsys.readouterr().err


def test_report_json_lists_the_returned_artifacts(tmp_path):
    report = run_scenario(ScenarioConfig(scenario="liouville", output_dir=str(tmp_path)))
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["artifacts"] == report.artifacts == ["liouville.csv", "report.json"]


class TestDeterminism:
    @staticmethod
    def _run_twice(cfg_kwargs, tmp_path):
        outs = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            cfg = ScenarioConfig(output_dir=str(out), **cfg_kwargs)
            run_scenario(cfg)
            outs.append({
                f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.suffix == ".csv"
            })
        return outs

    def test_reduce_check_byte_identical(self, tmp_path):
        a, b = self._run_twice({"scenario": "reduce-check", "seed": 99}, tmp_path)
        assert a == b and a

    def test_liouville_byte_identical(self, tmp_path):
        a, b = self._run_twice({"scenario": "liouville", "seed": 99}, tmp_path)
        assert a == b and a
