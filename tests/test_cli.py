"""Configuration parsing, scenario runs, artifacts and exit codes."""

import json


import pytest

from fracheat.cli import (
    ScenarioConfig,
    emit_plot_data,
    main,
    parse_config,
    run_scenario,
)
from fracheat.errors import ConfigError


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

    def test_eval_scenario(self, tmp_path):
        cfg = ScenarioConfig(scenario="eval", output_dir=str(tmp_path / "out"),
                             field={"name": "plane-wave", "params": {"xi": [1.0], "rho": 1.0}},
                             point={"x": [0.0], "t": 0.0})
        report = run_scenario(cfg)
        assert report.overall_pass


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

    def test_plane_snapped_to_grid_edge(self, tmp_path):
        # at h = 0.5 the default lambda = -0.9 snaps to -1, where no node lies
        assert main(["moving-planes", "--h", "0.5", "--out", str(tmp_path / "e")]) == 0

    def test_numerical_error_is_three(self, tmp_path, capsys):
        # an unattainable quadrature tolerance raises through run_scenario
        code = main(["eval", "--field", "plane-wave", "--tol", "1e-9",
                     "--out", str(tmp_path / "d")])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_malformed_thread_count_is_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FRACHEAT_THREADS", "two")
        assert main(["liouville", "--out", str(tmp_path / "e")]) == 2
        assert "FRACHEAT_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()


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

    def test_thread_cap_preserves_results(self, tmp_path, monkeypatch):
        out1 = tmp_path / "serial"
        run_scenario(ScenarioConfig(scenario="reduce-check", seed=3, output_dir=str(out1)))
        monkeypatch.setenv("FRACHEAT_THREADS", "4")
        out2 = tmp_path / "threaded"
        run_scenario(ScenarioConfig(scenario="reduce-check", seed=3, output_dir=str(out2)))
        assert (out1 / "reduce_check.csv").read_bytes() == (out2 / "reduce_check.csv").read_bytes()
