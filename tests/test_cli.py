import dataclasses
import json
import math

import numpy as np
import pytest

from cradmm import (
    check_lasso_kkt,
    experiment_config_from_dict,
    experiment_config_to_dict,
    load_experiment_config,
    nmse,
    read_matrix,
    read_vector,
    soft_threshold,
    write_matrix,
    write_vector,
)
from cradmm.cli import cmd_generate, main
from cradmm.errors import ConfigError

TOY_CONFIG = {
    "scenario": {
        "n_theta": 3,
        "n_freq": 2,
        "grid": [4, 4, 2],
        "roi_extent": [6.0, 6.0, 3.0],
        "snr_db": None,
        "rng_seed": 5,
    },
    "targets": [
        {"box": [[0, 2], [0, 2], [0, 1]], "amplitude": [1.0, 0.0]},
        {"box": [[2, 4], [2, 4], [1, 2]], "amplitude": [0.0, 1.0]},
    ],
    "admm": {"lambda": 0.05, "rho": 1.0, "n_blocks": 3, "max_iter": 200,
             "eps_abs": 1e-10, "eps_rel": 1e-10},
    "fista": {"lambda": 0.05, "max_iter": 400, "tol": 1e-14},
    "pinv": {"trunc_rel_tol": 1e-10},
    "noise_seed": 3,
}


def write_config(tmp_path, overrides=None, drop=None):
    cfg = json.loads(json.dumps(TOY_CONFIG))
    cfg["output_dir"] = str(tmp_path / "out")
    for key in drop or ():
        cfg.pop(key, None)
    if overrides:
        for key, value in overrides.items():
            if isinstance(value, dict) and isinstance(cfg.get(key), dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path / "out"


def read_trace_without_timing(path):
    lines = path.read_text().splitlines()
    return [line.rsplit(",", 1)[0] for line in lines]


def read_summary_without_timing(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header) if name != "wall_seconds"]
    return [",".join(line.split(",")[i] for i in keep) for line in lines]


class TestConfigParsing:
    def test_round_trips_through_dict(self, tmp_path):
        path, _ = write_config(tmp_path)
        cfg = load_experiment_config(path)
        again = experiment_config_from_dict(experiment_config_to_dict(cfg))
        assert again == cfg

    def test_missing_scenario_is_named(self, tmp_path):
        path, _ = write_config(tmp_path, drop=["scenario"])
        with pytest.raises(ConfigError, match="scenario"):
            load_experiment_config(path)

    def test_all_violations_reported_together(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            overrides={
                "admm": {"lambda": -1.0, "rho": 0.0},
                "pinv": {"trunc_rel_tol": 2.0},
                "noise_seed": -4,
            },
        )
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        text = str(err.value)
        for needle in ("admm.lambda", "admm.rho", "pinv.trunc_rel_tol", "noise_seed"):
            assert needle in text

    def test_unknown_keys_rejected(self, tmp_path):
        path, _ = write_config(tmp_path, overrides={"scenario": {"bogus": 1}})
        with pytest.raises(ConfigError, match="scenario.bogus"):
            load_experiment_config(path)

    def test_snr_inf_spellings(self, tmp_path):
        for spelling in (None, "inf", "Infinity"):
            path, _ = write_config(tmp_path, overrides={"scenario": {"snr_db": spelling}})
            assert math.isinf(load_experiment_config(path).scenario.snr_db)

    def test_sweep_lists_validated(self, tmp_path):
        path, _ = write_config(tmp_path, overrides={"sweep": {"lambda": []}})
        with pytest.raises(ConfigError, match="sweep.lambda"):
            load_experiment_config(path)


class TestGenerate:
    def test_writes_expected_files(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 0
        h = read_matrix(out / "H.cmat")
        assert h.shape == (6, 32)
        assert read_vector(out / "u_true.cvec").shape == (32,)
        assert read_vector(out / "g.cvec").shape == (6,)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["scenario"]["n_theta"] == 3

    def test_invalid_config_exits_2_and_writes_nothing(self, tmp_path):
        path, out = write_config(tmp_path, drop=["scenario"])
        assert main(["generate", "--config", str(path)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf, [1.0, math.nan], [math.inf, 0.0]])
    def test_non_finite_amplitude_exits_2_and_writes_nothing(self, tmp_path, capsys, amplitude):
        path, out = write_config(tmp_path, overrides={
            "targets": [{"box": [[0, 1], [0, 1], [0, 1]], "amplitude": amplitude}]})
        assert main(["generate", "--config", str(path)]) == 2
        assert not out.exists()
        assert "config error: targets[0].amplitude: must be finite" in capsys.readouterr().err

    def test_integer_beyond_float_range_exits_2_and_writes_nothing(self, tmp_path, capsys):
        path, out = write_config(tmp_path, overrides={"admm": {"lambda": 10**400}})
        assert main(["generate", "--config", str(path)]) == 2
        assert not out.exists()
        assert "config error: admm.lambda: must be a finite number >= 0" in capsys.readouterr().err

    def test_manifest_config_reproduces_run(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        echoed = experiment_config_from_dict(manifest["config"])
        other = tmp_path / "again"
        cmd_generate(dataclasses.replace(echoed, output_dir=str(other)))
        for name in ("H.cmat", "u_true.cvec", "g.cvec"):
            assert (out / name).read_bytes() == (other / name).read_bytes()

    def test_default_scale_matrix_file_size(self, tmp_path):
        # demo defaults: 93 x 25000 complex values + 24-byte header
        cfg = {"scenario": {}, "targets": [], "output_dir": str(tmp_path / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["generate", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "H.cmat").stat().st_size == 24 + 93 * 25000 * 16

    def test_single_voxel_scenario(self, tmp_path):
        path, out = write_config(
            tmp_path,
            overrides={
                "scenario": {"n_theta": 1, "n_freq": 1, "grid": [1, 1, 1], "roi_extent": [1.0, 1.0, 1.0]},
                "targets": [],
                "admm": {"n_blocks": 1},
            },
        )
        assert main(["generate", "--config", str(path)]) == 0
        assert read_matrix(out / "H.cmat").shape == (1, 1)


class TestSolve:
    def test_solve_before_generate_exits_2(self, tmp_path):
        path, _ = write_config(tmp_path)
        assert main(["solve", "--config", str(path), "--method", "admm"]) == 2

    def test_admm_identity_toy_problem(self, tmp_path):
        # handcrafted inputs: H = I, truth = the closed-form lasso solution
        path, out = write_config(
            tmp_path,
            overrides={
                "scenario": {"n_theta": 4, "n_freq": 1, "grid": [4, 1, 1], "roi_extent": [1.0, 1.0, 1.0]},
                "targets": [],
                "admm": {"lambda": 0.5, "n_blocks": 2, "max_iter": 3000,
                         "eps_abs": 1e-13, "eps_rel": 1e-13},
            },
        )
        out.mkdir(parents=True)
        rng = np.random.default_rng(11)
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        truth = soft_threshold(g, 0.5)
        write_matrix(out / "H.cmat", np.eye(4, dtype=complex))
        write_vector(out / "u_true.cvec", truth)
        write_vector(out / "g.cvec", g)
        assert main(["solve", "--config", str(path), "--method", "admm"]) == 0
        metrics = json.loads((out / "metrics_admm.json").read_text())
        assert metrics["nmse"] <= 1e-10
        estimate = read_vector(out / "estimate_admm.cvec")
        assert nmse(estimate, truth) <= 1e-10

    def test_each_method_writes_artifacts(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 0
        for method in ("admm", "fista", "pinv"):
            assert main(["solve", "--config", str(path), "--method", method]) == 0
            assert (out / f"estimate_{method}.cvec").exists()
            for view in ("top", "front", "side"):
                assert (out / f"{method}_{view}.pgm").exists()
            assert (out / f"metrics_{method}.json").exists()
        assert (out / "trace_admm.csv").exists()
        assert (out / "trace_fista.csv").exists()
        assert not (out / "trace_pinv.csv").exists()

    def test_fixed_budget_trace_has_one_row_per_iteration(self, tmp_path):
        path, out = write_config(
            tmp_path,
            overrides={"admm": {"max_iter": 500, "eps_abs": 0.0, "eps_rel": 0.0}},
        )
        assert main(["generate", "--config", str(path)]) == 0
        assert main(["solve", "--config", str(path), "--method", "admm"]) == 0
        lines = (out / "trace_admm.csv").read_text().splitlines()
        assert len(lines) == 501
        metrics = json.loads((out / "metrics_admm.json").read_text())
        assert metrics["iterations"] == 500

    def test_workers_do_not_change_results(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 0
        assert main(["solve", "--config", str(path), "--method", "admm", "--workers", "1"]) == 0
        estimate_1 = (out / "estimate_admm.cvec").read_bytes()
        trace_1 = read_trace_without_timing(out / "trace_admm.csv")
        assert main(["solve", "--config", str(path), "--method", "admm", "--workers", "8"]) == 0
        assert (out / "estimate_admm.cvec").read_bytes() == estimate_1
        assert read_trace_without_timing(out / "trace_admm.csv") == trace_1

    def test_metrics_record_the_stop(self, tmp_path):
        path, out = write_config(
            tmp_path,
            overrides={"admm": {"max_iter": 5000, "eps_abs": 1e-4, "eps_rel": 1e-4},
                       "fista": {"max_iter": 7, "tol": 0.0}},
        )
        assert main(["generate", "--config", str(path)]) == 0
        for method in ("admm", "fista", "pinv"):
            assert main(["solve", "--config", str(path), "--method", method]) == 0
        admm = json.loads((out / "metrics_admm.json").read_text())
        assert admm["stop_reason"] == "converged"
        assert admm["iterations"] < 5000
        assert admm["primal_residual"] <= admm["eps_pri"]
        assert admm["dual_residual"] <= admm["eps_dual"]
        last = (out / "trace_admm.csv").read_text().splitlines()[-1].split(",")
        assert float(last[2]) == admm["primal_residual"]
        assert float(last[3]) == admm["dual_residual"]
        fista = json.loads((out / "metrics_fista.json").read_text())
        assert fista["stop_reason"] == "max_iter" and fista["iterations"] == 7
        assert "stop_reason" not in json.loads((out / "metrics_pinv.json").read_text())

    def test_metrics_carry_the_kkt_violation(self, tmp_path):
        path, out = write_config(tmp_path, overrides={"admm": {"max_iter": 30}, "fista": {"max_iter": 30}})
        assert main(["generate", "--config", str(path)]) == 0
        h, g = read_matrix(out / "H.cmat"), read_vector(out / "g.cvec")
        for method, lam in (("admm", 0.05), ("fista", 0.05), ("pinv", 0.0)):
            assert main(["solve", "--config", str(path), "--method", method]) == 0
            record = json.loads((out / f"metrics_{method}.json").read_text())
            report = check_lasso_kkt(h, g, lam, read_vector(out / f"estimate_{method}.cvec"), 0.0)
            expected = max(report.max_active_violation, report.max_inactive_excess)
            assert record["kkt_violation"] == expected, method
            assert record["kkt_violation_rel"] == (expected / lam if lam else None), method
        assert record["kkt_violation"] > 0  # the pinv estimate is not a lasso solution at lam = 0.05

    @pytest.mark.parametrize("name, command", [
        ("g.cvec", ["solve", "--method", "admm"]),
        ("g.cvec", ["solve", "--method", "fista"]),
        ("g.cvec", ["solve", "--method", "pinv"]),
        ("g.cvec", ["compare"]),
        ("H.cmat", ["solve", "--method", "pinv"]),
        ("u_true.cvec", ["compare"]),
    ])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, name, command):
        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 0
        read, write = (read_matrix, write_matrix) if name == "H.cmat" else (read_vector, write_vector)
        values = read(out / name)
        values.flat[1] = complex(0.0, np.inf) if name == "H.cmat" else np.nan
        write(out / name, values)
        assert main([command[0], "--config", str(path), *command[1:]]) == 2
        assert f"{name} holds a non-finite value" in capsys.readouterr().err
        assert not list(out.glob("estimate_*.cvec"))
        assert not (out / "summary.csv").exists()

    def test_fista_divergence_exits_3(self, tmp_path):
        path, out = write_config(
            tmp_path,
            overrides={
                "scenario": {"n_theta": 1, "n_freq": 1, "grid": [1, 1, 1], "roi_extent": [1.0, 1.0, 1.0]},
                "targets": [],
                "admm": {"n_blocks": 1},
                "fista": {"lambda": 2.0},
            },
        )
        out.mkdir(parents=True)
        write_matrix(out / "H.cmat", np.array([[1.0 + 0.0j]]))
        write_vector(out / "u_true.cvec", np.array([1.0 + 0.0j]))
        write_vector(out / "g.cvec", np.array([1e308 + 0.0j]))
        assert main(["solve", "--config", str(path), "--method", "fista"]) == 3
        assert not (out / "estimate_fista.cvec").exists()

    def test_divergence_exits_3(self, tmp_path):
        path, out = write_config(
            tmp_path,
            overrides={
                "scenario": {"n_theta": 1, "n_freq": 1, "grid": [1, 1, 1], "roi_extent": [1.0, 1.0, 1.0]},
                "targets": [],
                "admm": {"lambda": 0.0, "n_blocks": 1, "max_iter": 5, "eps_abs": 0.0, "eps_rel": 0.0},
            },
        )
        out.mkdir(parents=True)
        write_matrix(out / "H.cmat", np.array([[1.0 + 0.0j]]))
        write_vector(out / "u_true.cvec", np.array([1.0 + 0.0j]))
        write_vector(out / "g.cvec", np.array([1e308 + 0.0j]))
        assert main(["solve", "--config", str(path), "--method", "admm"]) == 3


class TestCompare:
    def test_without_sweep_three_rows(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 0
        assert main(["compare", "--config", str(path)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 4  # header + admm + fista + pinv
        methods = [line.split(",")[0] for line in lines[1:]]
        assert methods == ["admm", "fista", "pinv"]
        assert all(line.endswith("ok") for line in lines[1:])

    def test_cross_solver_objectives_close(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 0
        assert main(["compare", "--config", str(path)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        by_method = {line.split(",")[0]: line.split(",") for line in rows}
        f_admm = float(by_method["admm"][5])
        f_fista = float(by_method["fista"][5])
        assert abs(f_admm - f_fista) <= 0.05 * min(f_admm, f_fista)

    def test_sweep_emits_nine_admm_traces(self, tmp_path):
        path, out = write_config(
            tmp_path,
            overrides={
                "sweep": {"lambda": [0.001, 0.01, 0.1], "rho": [0.1, 1.0, 10.0]},
                "admm": {"max_iter": 40, "eps_abs": 0.0, "eps_rel": 0.0},
            },
        )
        assert main(["generate", "--config", str(path)]) == 0
        assert main(["compare", "--config", str(path)]) == 0
        traces = sorted(out.glob("trace_admm_lam*_rho*.csv"))
        assert len(traces) == 9
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 12  # header + 9 admm + fista + pinv

    def test_sweep_matches_fresh_solver_per_point(self, tmp_path):
        # the sweep shares one ADMM set-up; each point must come out as from its own solver
        sweep = {"lambda": [0.001, 0.1], "rho": [0.1, 1.0, 10.0]}
        admm = {"max_iter": 60, "eps_abs": 1e-8, "eps_rel": 1e-8}
        path, out = write_config(tmp_path, overrides={"sweep": sweep, "admm": admm})
        assert main(["generate", "--config", str(path)]) == 0
        assert main(["compare", "--config", str(path)]) == 0
        swept = read_summary_without_timing(out / "summary.csv")
        for lam in sweep["lambda"]:
            for rho in sweep["rho"]:
                point = tmp_path / f"lam{lam:g}_rho{rho:g}"
                point.mkdir()
                single, single_out = write_config(
                    point, overrides={"admm": dict(admm, **{"lambda": lam, "rho": rho})}
                )
                single_out.mkdir()
                for name in ("H.cmat", "u_true.cvec", "g.cvec"):
                    (single_out / name).write_bytes((out / name).read_bytes())
                assert main(["compare", "--config", str(single)]) == 0
                tag = f"admm_lam{lam:g}_rho{rho:g}"
                assert (out / f"estimate_{tag}.cvec").read_bytes() == (
                    single_out / "estimate_admm.cvec").read_bytes()
                assert read_trace_without_timing(out / f"trace_{tag}.csv") == read_trace_without_timing(
                    single_out / "trace_admm.csv")
                row = read_summary_without_timing(single_out / "summary.csv")[1]
                assert row in swept, (row, swept)

    def test_sweep_builds_one_admm_setup(self, tmp_path, monkeypatch):
        import cradmm.cli as cli_mod

        built = []

        class CountingSetup(cli_mod.ConsensusSetup):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(cli_mod, "ConsensusSetup", CountingSetup)
        path, out = write_config(
            tmp_path,
            overrides={"sweep": {"lambda": [0.01, 0.1], "rho": [0.1, 1.0, 10.0]}, "admm": {"max_iter": 5}},
        )
        assert main(["generate", "--config", str(path)]) == 0
        assert main(["compare", "--config", str(path)]) == 0
        assert len(built) == 1
        assert len(list(out.glob("estimate_admm_lam*_rho*.cvec"))) == 6

    def test_failing_setup_marks_every_sweep_row(self, tmp_path, monkeypatch):
        import cradmm.cli as cli_mod

        attempts = []

        def failing_setup(*args):
            attempts.append(args)
            raise ValueError("synthetic set-up failure")

        monkeypatch.setattr(cli_mod, "ConsensusSetup", failing_setup)
        path, out = write_config(
            tmp_path, overrides={"sweep": {"lambda": [0.01], "rho": [0.1, 1.0]}}
        )
        assert main(["generate", "--config", str(path)]) == 0
        assert main(["compare", "--config", str(path)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()[1:]
        admm_rows = [line for line in lines if line.startswith("admm,")]
        assert len(admm_rows) == 2
        assert all("error: synthetic set-up failure" in line for line in admm_rows)
        assert len(attempts) == 2  # retried by each point, not cached as a failure
        assert not list(out.glob("trace_admm*.csv"))
        assert [line.split(",")[0] for line in lines] == ["admm", "admm", "fista", "pinv"]
        assert lines[2].endswith(",ok") and lines[3].endswith(",ok")

    def test_sweep_metrics_carry_the_row_parameters(self, tmp_path):
        path, out = write_config(
            tmp_path,
            overrides={"sweep": {"lambda": [0.01, 0.1], "rho": [0.5, 2.0]}, "admm": {"max_iter": 20}},
        )
        assert main(["generate", "--config", str(path)]) == 0
        assert main(["compare", "--config", str(path)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 6
        for row in rows:
            tag = row["method"]
            if tag == "admm":
                tag = f"admm_lam{float(row['lambda']):g}_rho{float(row['rho']):g}"
            record = json.loads((out / f"metrics_{tag}.json").read_text())
            assert record["method"] == row["method"]
            for name in ("lambda", "rho", "N"):
                if row[name]:
                    assert float(record[name]) == float(row[name]), (tag, name)
                else:
                    assert name not in record, (tag, name)
        admm = json.loads((out / "metrics_admm_lam0.1_rho2.json").read_text())
        assert (admm["lambda"], admm["rho"], admm["N"]) == (0.1, 2.0, 3)
        assert json.loads((out / "metrics_fista.json").read_text())["lambda"] == 0.05

    def test_sweep_metrics_carry_the_kkt_violation(self, tmp_path):
        path, out = write_config(
            tmp_path, overrides={"sweep": {"lambda": [0.01, 0.1], "rho": [2.0]}, "admm": {"max_iter": 20}})
        assert main(["generate", "--config", str(path)]) == 0
        assert main(["compare", "--config", str(path)]) == 0
        h, g = read_matrix(out / "H.cmat"), read_vector(out / "g.cvec")
        for lam in (0.01, 0.1):
            tag = f"admm_lam{lam:g}_rho2"
            record = json.loads((out / f"metrics_{tag}.json").read_text())
            report = check_lasso_kkt(h, g, lam, read_vector(out / f"estimate_{tag}.cvec"), 0.0)
            expected = max(report.max_active_violation, report.max_inactive_excess)
            assert (record["kkt_violation"], record["kkt_violation_rel"]) == (expected, expected / lam)
        header = (out / "summary.csv").read_text().splitlines()[0]
        assert "kkt" not in header

    def test_method_failure_marks_row_and_keeps_others(self, tmp_path, monkeypatch):
        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 0

        import cradmm.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic fista failure")

        monkeypatch.setattr(cli_mod.baselines, "solve_fista", boom)
        assert main(["compare", "--config", str(path)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()[1:]
        by_method = {line.split(",")[0]: line for line in lines}
        assert "error: synthetic fista failure" in by_method["fista"]
        assert by_method["admm"].endswith("ok")
        assert by_method["pinv"].endswith("ok")

    def test_end_to_end_determinism(self, tmp_path):
        path, out = write_config(tmp_path)
        for _ in range(2):
            assert main(["generate", "--config", str(path)]) == 0
            assert main(["compare", "--config", str(path)]) == 0
            if not (tmp_path / "snap").exists():
                (tmp_path / "snap").mkdir()
                for f in out.iterdir():
                    (tmp_path / "snap" / f.name).write_bytes(f.read_bytes())
        for f in sorted(out.iterdir()):
            snap = tmp_path / "snap" / f.name
            if f.name == "summary.csv":
                assert read_summary_without_timing(f) == read_summary_without_timing(snap)
            elif f.suffix == ".csv":
                assert read_trace_without_timing(f) == read_trace_without_timing(snap), f.name
            elif f.suffix in (".cvec", ".cmat", ".pgm"):
                assert f.read_bytes() == snap.read_bytes(), f.name
