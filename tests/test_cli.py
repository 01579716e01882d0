import csv
import dataclasses
import errno
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import rand_complex
from cradmm import (
    check_lasso_kkt,
    evaluate_objective,
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
from cradmm import baselines, fileio, linop, scene
from cradmm.cli import _load_inputs, cmd_generate, main
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


def peak_rss_bytes(argv):
    """Peak resident set of ``argv`` run to success, measured by a small spawner with os.wait4."""
    spawner = ("import os, subprocess, sys; proc = subprocess.Popen(sys.argv[1:]); "
               "_, status, usage = os.wait4(proc.pid, 0); "
               "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    env = dict(os.environ, PYTHONPATH=str(Path(scene.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", spawner, *argv], env=env, capture_output=True, text=True,
                          check=True)
    code, kib = map(int, done.stdout.split())
    assert code == 0, done.stderr
    return kib * 1024


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

    @pytest.mark.parametrize("sweep, clash", [
        ({"lambda": [0.1, 0.1000001]}, "sweep.lambda: 0.1 and 0.1000001 share the run tag admm_lam0.1_rho1"),
        ({"lambda": [0.01], "rho": [1.0, 2.0, 1.0]}, "sweep.rho: 1.0 and 1.0 share the run tag admm_lam0.01_rho1"),
    ])
    def test_sweep_values_sharing_a_run_tag_exit_2(self, tmp_path, capsys, sweep, clash):
        # the second run would overwrite the first one's trace, estimate, metrics and views
        path, out = write_config(tmp_path, overrides={"sweep": sweep})
        assert main(["compare", "--config", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {clash}"]
        assert not out.exists()

    @pytest.mark.parametrize("name, reason", [("", "Is a directory"), ("missing.json", "No such file or directory")])
    def test_config_path_that_cannot_be_read_exits_2(self, tmp_path, capsys, name, reason):
        path = tmp_path / name
        assert main(["generate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: config file {path} cannot be read: {reason}\n"

    def test_config_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"scenario": "\xff"}')
        assert main(["generate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == ("config error: config file is not UTF-8 text: 'utf-8' codec can't decode "
                                           "byte 0xff in position 14: invalid start byte\n")


class TestOutputOverride:
    def test_every_output_goes_under_the_override(self, tmp_path):
        path, _ = write_config(tmp_path)
        other = tmp_path / "other"
        for argv in (["generate"], ["solve", "--method", "admm"], ["compare"]):
            assert main([*argv, "--config", str(path), "--output", str(other)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "other"]
        written = {p.name for p in other.iterdir()}
        assert {"H.cmat", "g.cvec", "u_true.cvec", "estimate_admm.cvec", "metrics_pinv.json", "summary.csv"} <= written
        assert json.loads((other / "manifest.json").read_text())["config"]["output_dir"] == str(other)

    @pytest.mark.parametrize("argv", [["generate"], ["solve", "--method", "admm"], ["compare"]])
    def test_empty_override_exits_2_and_writes_nothing(self, tmp_path, capsys, monkeypatch, argv):
        path, _ = write_config(tmp_path)
        monkeypatch.chdir(tmp_path)  # an empty path would name the working directory
        assert main([*argv, "--config", str(path), "--output", ""]) == 2
        assert capsys.readouterr().err == "config error: --output: must be a nonempty string\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


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

    @pytest.mark.parametrize("snr_db", [-4000, -3075])
    def test_noise_power_beyond_the_float_range_exits_2(self, tmp_path, capsys, snr_db):
        # -4000 dB overflows 10^(-snr/10) itself; at -3075 dB only its product with the signal power
        path, out = write_config(tmp_path, overrides={"scenario": {"snr_db": snr_db}})
        assert main(["generate", "--config", str(path)]) == 2
        assert "config error: scenario.snr_db: " in capsys.readouterr().err
        assert not (out / "g.cvec").exists() and not (out / "manifest.json").exists()

    def test_refused_generate_leaves_the_previous_inputs_whole(self, tmp_path, capsys):
        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["H.cmat", "g.cvec", "manifest.json", "u_true.cvec"]  # no temporary file
        path, _ = write_config(tmp_path, overrides={"scenario": {"rng_seed": 9, "snr_db": -4000}})
        assert main(["generate", "--config", str(path)]) == 2
        assert "config error: scenario.snr_db: " in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("scenario", [{"n_theta": 10**400}, {"grid": [4, 4, 10**400]}], ids=["n_theta", "grid"])
    def test_count_beyond_the_addressable_size_exits_2_and_writes_nothing(self, tmp_path, capsys, scenario):
        path, out = write_config(tmp_path, overrides={"scenario": scenario})
        assert main(["generate", "--config", str(path)]) == 2
        assert not out.exists()
        assert "config error: scenario.grid: with n_theta * n_freq rows" in capsys.readouterr().err

    @pytest.mark.parametrize("output, reason", [("taken", "File exists"), ("taken/out", "Not a directory")])
    def test_output_dir_blocked_by_a_file_exits_2(self, tmp_path, capsys, output, reason):
        path, _ = write_config(tmp_path, overrides={"output_dir": str(tmp_path / output)})
        (tmp_path / "taken").write_text("not a directory")
        assert main(["generate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (f"config error: output_dir: cannot create directory "
                                           f"{tmp_path / output}: {reason}\n")
        assert (tmp_path / "taken").read_text() == "not a directory"

    def test_scenario_larger_than_memory_exits_2_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # a 160 GB H: the reservation of its buffer is stubbed to fail as numpy does, without allocating
        reserved = []

        def out_of_memory(scenario):
            reserved.append(scenario)
            raise MemoryError("Unable to allocate 149.0 GiB")

        monkeypatch.setattr(scene, "allocate_sensing_entries", out_of_memory)
        path, out = write_config(tmp_path, overrides={
            "scenario": {"n_theta": 1, "n_freq": 1, "grid": [100000, 100000, 1]}, "targets": [],
            "admm": {"n_blocks": 1}})
        assert main(["generate", "--config", str(path)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == ("config error: scenario: H of 1 x 10000000000 complex entries "
                                           "(149.0 GiB) does not fit in memory\n")
        assert len(reserved) == 1  # refused by the reservation, before anything else is allocated

    @pytest.mark.parametrize("n_freq", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_files_equal_the_library_writing_the_whole_matrix(self, tmp_path, n_freq, seed):
        # generate streams H one rotation at a time; its bytes are those of the whole-matrix path
        path, out = write_config(tmp_path, overrides={
            "scenario": {"n_freq": n_freq, "rng_seed": seed, "snr_db": 20.0}, "noise_seed": seed})
        assert main(["generate", "--config", str(path)]) == 0
        cfg = load_experiment_config(path)
        sensing = scene.synthesize_sensing_matrix(cfg.scenario)
        phantom = scene.build_phantom(cfg.scenario, cfg.targets)
        measured = scene.forward_measure(sensing, phantom, cfg.scenario.snr_db, cfg.noise_seed)
        write_matrix(tmp_path / "H.cmat", sensing.entries)
        write_vector(tmp_path / "g.cvec", measured.g)
        write_vector(tmp_path / "u_true.cvec", phantom.reflectivity)
        for name in ("H.cmat", "g.cvec", "u_true.cvec"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["noise_power"] == measured.noise_power > 0
        assert np.array_equal(np.concatenate(list(scene.sensing_blocks(cfg.scenario))), sensing.entries)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB and counts this way on Linux")
    def test_peak_memory_stays_well_below_the_matrix(self, tmp_path):
        # demo defaults: H is 93 x 25000 complex, 37.2 MB. Each child is started from a small
        # spawner, since a child's ru_maxrss counts the resident set of the process that forked it.
        cfg = {"scenario": {}, "targets": [], "output_dir": str(tmp_path / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        matrix = 93 * 25000 * 16
        base = peak_rss_bytes([sys.executable, "-c", "import cradmm.cli, numpy.random"])
        peak = peak_rss_bytes([sys.executable, "-m", "cradmm", "generate", "--config", str(path)])
        assert (tmp_path / "out" / "H.cmat").stat().st_size == 24 + matrix
        assert peak - base < matrix / 4, f"generate peaks {(peak - base) / 1e6:.1f} MB above the imports"

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

    @pytest.mark.parametrize("lam, all_sparse", [(0.05, False), (1e3, True)])
    def test_metrics_count_the_support_path_iterations(self, tmp_path, lam, all_sparse):
        # at a lambda past max|H^H g| every iterate is zero, so every forward product takes the
        # support path, and every adjoint but the first (the dense anchor) is screened
        path, out = write_config(tmp_path, overrides={"admm": {"lambda": lam, "max_iter": 40},
                                                      "fista": {"lambda": lam, "max_iter": 40, "tol": 0.0}})
        assert main(["generate", "--config", str(path)]) == 0
        for method in ("admm", "fista", "pinv"):
            assert main(["solve", "--config", str(path), "--method", method]) == 0
        for method in ("admm", "fista"):
            record = json.loads((out / f"metrics_{method}.json").read_text())
            count = record["sparse_forward_iters"]
            assert isinstance(count, int) and 0 <= count <= record["iterations"], method
            screened = record["screened_adjoint_iters"]
            assert isinstance(screened, int) and 0 <= screened < record["iterations"], method
            if all_sparse:
                assert count == record["iterations"] == 40, method
                assert screened == 39, method
        pinv = json.loads((out / "metrics_pinv.json").read_text())
        assert "sparse_forward_iters" not in pinv and "screened_adjoint_iters" not in pinv

    def test_metrics_carry_the_kkt_violation(self, tmp_path):
        path, out = write_config(tmp_path, overrides={"admm": {"max_iter": 30}, "fista": {"max_iter": 30}})
        assert main(["generate", "--config", str(path)]) == 0
        h, g = read_matrix(out / "H.cmat"), read_vector(out / "g.cvec")
        for method, lam in (("admm", 0.05), ("fista", 0.05), ("pinv", 0.0)):
            assert main(["solve", "--config", str(path), "--method", method]) == 0
            record = json.loads((out / f"metrics_{method}.json").read_text())
            estimate = read_vector(out / f"estimate_{method}.cvec")
            report = check_lasso_kkt(h, g, lam, estimate, 0.0)
            expected = max(report.max_active_violation, report.max_inactive_excess)
            assert record["kkt_violation"] == expected, method
            assert record["kkt_violation"] == report.violation, method
            assert record["kkt_violation_rel"] == (expected / lam if lam else None), method
            # the objective comes from the certificate's residual, bit for bit the standalone one
            assert record["final_objective"] == evaluate_objective(h, g, estimate, lam), method
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

    @pytest.mark.parametrize("case, message", [
        ("not-json", "config error: config file is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("matrix-shape", "config error: scenario: stored matrix is (6, 31), config expects (6, 32)"),
        ("vector-length", "config error: scenario: stored vectors do not match the stored matrix"),
    ])
    def test_input_that_does_not_match_exits_2_with_one_line(self, tmp_path, capsys, case, message):
        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 0
        if case == "not-json":
            path.write_text("scenario = 1\n")
        elif case == "matrix-shape":
            write_matrix(out / "H.cmat", read_matrix(out / "H.cmat")[:, 1:])
        else:
            write_vector(out / "g.cvec", read_vector(out / "g.cvec")[1:])
        capsys.readouterr()
        assert main(["solve", "--config", str(path), "--method", "admm"]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert not (out / "estimate_admm.cvec").exists()

    @pytest.mark.parametrize("command", [["solve", "--method", "admm"], ["compare"]])
    def test_input_that_is_a_directory_exits_2_and_writes_nothing(self, tmp_path, capsys, command):
        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 0
        (out / "H.cmat").unlink()
        (out / "H.cmat").mkdir()
        before = sorted(p.name for p in out.iterdir())
        assert main([command[0], "--config", str(path), *command[1:]]) == 2
        assert capsys.readouterr().err == f"input error: {out / 'H.cmat'} cannot be read: Is a directory\n"
        assert sorted(p.name for p in out.iterdir()) == before

    @pytest.mark.parametrize("name, command", [("H.cmat", ["generate"]),
                                               ("metrics_pinv.json", ["solve", "--method", "pinv"])])
    def test_output_that_is_a_directory_exits_2(self, tmp_path, capsys, name, command):
        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 0
        (out / name).unlink(missing_ok=True)
        (out / name).mkdir()
        assert main([command[0], "--config", str(path), *command[1:]]) == 2
        assert capsys.readouterr().err == f"output error: {out / name} cannot be written: Is a directory\n"
        assert not (out / "H.cmat.partial").exists()  # where generate streams H before renaming it

    def test_failed_write_that_names_no_file_names_the_output_directory(self, tmp_path, capsys, monkeypatch):
        # a failed write() (a full disk, say) raises an OSError with no file name
        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 0
        monkeypatch.setattr(fileio, "write_view_pgm", full_disk)
        assert main(["solve", "--config", str(path), "--method", "pinv"]) == 2
        assert capsys.readouterr().err == f"output error: {out} cannot be written: No space left on device\n"

    def test_finiteness_scan_makes_no_matrix_sized_mask(self, tmp_path):
        # the load holds the three files' payloads; a mask of H would add one byte per entry of H
        path, out = write_config(tmp_path, overrides={"scenario": {"n_theta": 8, "n_freq": 4, "grid": [40, 40, 5]}})
        cfg = load_experiment_config(path)
        rng = np.random.default_rng(3)
        rows, cols = cfg.scenario.n_measurements, cfg.scenario.n_voxels
        out.mkdir()
        write_matrix(out / "H.cmat", rand_complex(rng, rows, cols))
        write_vector(out / "u_true.cvec", rand_complex(rng, cols))
        write_vector(out / "g.cvec", rand_complex(rng, rows))
        tracemalloc.start()
        try:
            op, u_true, g = _load_inputs(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = op.h.nbytes + u_true.nbytes + g.nbytes
        assert peak - held <= 2 * linop.GRAM_CHUNK_ENTRIES, (peak - held, op.h.size)

    @pytest.mark.parametrize("command", [["solve", "--method", "admm"], ["solve", "--method", "pinv"], ["compare"]])
    def test_matrix_too_large_for_memory_exits_2_and_writes_nothing(self, tmp_path, capsys, monkeypatch, command):
        # the allocation for H's payload is stubbed to fail as numpy's does for a file too large to hold
        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 0
        before = sorted(p.name for p in out.iterdir())
        read_payload = fileio._read_payload

        def out_of_memory(fh, offset, n_values):
            if n_values == 6 * 32:
                raise MemoryError("Unable to allocate 3.00 KiB for an array with shape (192,) "
                                  "and data type complex128")
            return read_payload(fh, offset, n_values)

        monkeypatch.setattr(fileio, "_read_payload", out_of_memory)
        assert main([command[0], "--config", str(path), *command[1:]]) == 2
        assert capsys.readouterr().err == (
            f"input error: {out / 'H.cmat'} does not fit in memory: Unable to allocate 3.00 KiB "
            "for an array with shape (192,) and data type complex128\n")
        assert sorted(p.name for p in out.iterdir()) == before

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

    def test_fista_non_finite_lipschitz_constant_exits_3(self, tmp_path):
        # H is finite, but ||H||^2 = 1e400 overflows
        path, out = write_config(
            tmp_path,
            overrides={
                "scenario": {"n_theta": 1, "n_freq": 1, "grid": [1, 1, 1], "roi_extent": [1.0, 1.0, 1.0]},
                "targets": [],
                "admm": {"n_blocks": 1},
            },
        )
        out.mkdir(parents=True)
        write_matrix(out / "H.cmat", np.array([[1e200 + 0.0j]]))
        write_vector(out / "u_true.cvec", np.array([1.0 + 0.0j]))
        write_vector(out / "g.cvec", np.array([1.0 + 0.0j]))
        assert main(["solve", "--config", str(path), "--method", "fista"]) == 3
        assert not (out / "estimate_fista.cvec").exists()

    def test_non_finite_certificate_exits_3(self, tmp_path):
        # the pinv estimate of this finite H and g is finite, but 0.5 ||H v - g||^2 and H^H (H v - g) overflow
        path, out = write_config(
            tmp_path,
            overrides={
                "scenario": {"n_theta": 2, "n_freq": 1, "grid": [1, 1, 1], "roi_extent": [1.0, 1.0, 1.0]},
                "targets": [],
                "admm": {"n_blocks": 1},
            },
        )
        out.mkdir(parents=True)
        write_matrix(out / "H.cmat", np.array([[1e200 + 0.0j], [1e200 + 0.0j]]))
        write_vector(out / "u_true.cvec", np.array([1.0 + 0.0j]))
        write_vector(out / "g.cvec", np.array([1e200 + 0.0j, -1e200 + 0.0j]))
        assert main(["solve", "--config", str(path), "--method", "pinv"]) == 3
        assert not (out / "estimate_pinv.cvec").exists() and not (out / "metrics_pinv.json").exists()
        assert main(["compare", "--config", str(path)]) == 0
        pinv_row = (out / "summary.csv").read_text().splitlines()[-1].split(",")
        assert pinv_row[0] == "pinv" and pinv_row[-1].startswith("error: non-finite certificate")
        assert not (out / "metrics_pinv.json").exists()

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

    @pytest.mark.parametrize("method, rho, g_scale, h_scale",
                             [("admm", 1e-310, 1.0, 1.0), ("admm", 1e-300, 1e10, 1.0), ("fista", 1.0, 1e-160, 1e-160)],
                             ids=["setup", "step", "fista"])
    def test_rho_that_overflows_exits_3_with_one_line(self, tmp_path, capsys, method, rho, g_scale, h_scale):
        # G_ii / rho overflows as S is formed, or (g - H z) / rho in ADMM's first step, or, with the problem
        # scaled by 1e-160, lam / ||H||^2 in FISTA's: one solver error, no numpy warning (which the test run
        # would raise as an error)
        path, out = write_config(tmp_path, overrides={"admm": {"rho": rho}})
        assert main(["generate", "--config", str(path)]) == 0
        write_vector(out / "g.cvec", g_scale * read_vector(out / "g.cvec"))
        write_matrix(out / "H.cmat", h_scale * read_matrix(out / "H.cmat"))
        capsys.readouterr()
        assert main(["solve", "--config", str(path), "--method", method]) == 3
        expected = ("Woodbury inverse (I + G_ii / rho)^-1 is not finite at rho 1e-310" if rho == 1e-310
                    else "non-finite iterate at iteration 0")
        assert capsys.readouterr().err == f"solver error: {expected}\n"
        assert not (out / f"estimate_{method}.cvec").exists()
        # S is refused at set-up, before the trace opens
        assert (out / f"trace_{method}.csv").exists() == (rho != 1e-310)
        assert main(["compare", "--config", str(path)]) == 0
        rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:]]
        statuses = {"admm": "ok", "fista": "ok", "pinv": "ok", method: f"error: {expected}"}
        assert [(row[0], row[-1]) for row in rows] == list(statuses.items())

    def test_pinv_of_h_alone_rewritten_at_1e_160_exits_0(self, tmp_path, capsys):
        # the streamed QR route solves relative to sigma_max, so the estimate, about 1e160 times the toy's,
        # is finite and no numpy warning (an error in the test run) is raised on the way; its NMSE overflows
        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 0
        write_matrix(out / "H.cmat", 1e-160 * read_matrix(out / "H.cmat"))
        capsys.readouterr()
        assert main(["solve", "--config", str(path), "--method", "pinv"]) == 0
        assert capsys.readouterr().err == ""
        assert np.all(np.isfinite(read_vector(out / "estimate_pinv.cvec")))
        assert main(["compare", "--config", str(path)]) == 0
        row = next(row for row in csv.DictReader((out / "summary.csv").open()) if row["method"] == "pinv")
        assert (row["status"], row["nmse"]) == ("ok", "inf")

    @pytest.mark.parametrize("method, warnings_as_errors", [("admm", False), ("admm", True), ("fista", False),
                                                            ("fista", True)],
                             ids=["default", "error", "fista-default", "fista-error"])
    def test_rho_that_overflows_exits_3_from_the_console(self, tmp_path, method, warnings_as_errors):
        # ADMM's S overflows at rho = 1e-310, FISTA's first step on H rewritten at 1e-160 times its entries
        path, out = write_config(tmp_path, overrides={"admm": {"rho": 1e-310 if method == "admm" else 1.0}})
        assert main(["generate", "--config", str(path)]) == 0
        if method == "fista":
            write_matrix(out / "H.cmat", 1e-160 * read_matrix(out / "H.cmat"))
        env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(Path(scene.__file__).parents[1])
        if warnings_as_errors:
            env["PYTHONWARNINGS"] = "error::RuntimeWarning"
        done = subprocess.run([sys.executable, "-m", "cradmm", "solve", "--config", str(path), "--method", method],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 3
        expected = ("Woodbury inverse (I + G_ii / rho)^-1 is not finite at rho 1e-310" if method == "admm"
                    else "non-finite iterate at iteration 0")
        assert done.stderr == f"solver error: {expected}\n"


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
        # every sweep point shares the command's operator, which forms the block Grams once
        built = []

        def counting_block_gram(h, blocks):
            built.append(blocks)
            return block_gram(h, blocks)

        block_gram = linop._block_gram
        monkeypatch.setattr(linop, "_block_gram", counting_block_gram)
        path, out = write_config(
            tmp_path,
            overrides={"sweep": {"lambda": [0.01, 0.1], "rho": [0.1, 1.0, 10.0]}, "admm": {"max_iter": 5}},
        )
        assert main(["generate", "--config", str(path)]) == 0
        assert main(["compare", "--config", str(path)]) == 0
        assert built == [((0, 2), (2, 4), (4, 6))]
        assert len(list(out.glob("estimate_admm_lam*_rho*.cvec"))) == 6

    def test_sweep_forms_one_woodbury_inverse_per_rho(self, tmp_path, monkeypatch):
        # the points of one rho share the operator's S: a 3 x 3 sweep forms 3, not 9
        formed = []
        woodbury = linop._woodbury

        def counting_woodbury(gram, blocks, rho):
            formed.append(rho)
            return woodbury(gram, blocks, rho)

        monkeypatch.setattr(linop, "_woodbury", counting_woodbury)
        path, out = write_config(
            tmp_path,
            overrides={"sweep": {"lambda": [0.01, 0.1, 1.0], "rho": [0.1, 1.0, 10.0]}, "admm": {"max_iter": 5}},
        )
        assert main(["generate", "--config", str(path)]) == 0
        assert main(["compare", "--config", str(path)]) == 0
        assert formed == [0.1, 1.0, 10.0]
        assert len(list(out.glob("estimate_admm_lam*_rho*.cvec"))) == 9

    def test_failing_setup_marks_every_sweep_row(self, tmp_path, monkeypatch):
        attempts = []

        def failing_block_gram(h, blocks):
            attempts.append(blocks)
            raise ValueError("synthetic set-up failure")

        monkeypatch.setattr(linop, "_block_gram", failing_block_gram)
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

    def test_compare_forms_column_norms_at_most_once(self, tmp_path, monkeypatch):
        formed = []

        def counting_column_norms(h):
            formed.append(h.shape)
            return column_norms(h)

        column_norms = linop.column_norms
        monkeypatch.setattr(linop, "column_norms", counting_column_norms)
        # a wider scene and large weights, so every ADMM and FISTA run screens
        path, out = write_config(
            tmp_path,
            overrides={"scenario": {"grid": [8, 8, 4]}, "fista": {"lambda": 2.0},
                       "sweep": {"lambda": [2.0, 5.0], "rho": [1.0, 10.0]}, "admm": {"max_iter": 60}},
        )
        assert main(["generate", "--config", str(path)]) == 0
        assert main(["compare", "--config", str(path)]) == 0
        screened = [json.loads(p.read_text())["screened_adjoint_iters"]
                    for p in sorted(out.glob("metrics_*.json")) if "pinv" not in p.name]
        assert len(screened) == 5 and all(count > 0 for count in screened)
        assert formed == [(6, 256)]

    def test_compare_forms_the_gram_of_h_once_and_no_streamed_factor(self, tmp_path, monkeypatch):
        # FISTA's step and the pseudoinverse share one Gram of the whole H; ADMM's row-block Grams
        # are of another shape and are not counted
        path, out = write_config(tmp_path, overrides={"sweep": {"lambda": [0.01, 0.1], "rho": [1.0]}})
        assert main(["generate", "--config", str(path)]) == 0
        shapes = []
        gram = linop.gram
        monkeypatch.setattr(linop, "gram", lambda h: shapes.append(h.shape) or gram(h))
        monkeypatch.setattr(baselines, "triangular_factor", lambda *args: pytest.fail("the streamed QR ran"))
        assert main(["compare", "--config", str(path)]) == 0
        assert shapes.count((6, 32)) == 1 and len(shapes) > 1
        assert all(line.endswith(",ok") for line in (out / "summary.csv").read_text().splitlines()[1:])

    @pytest.mark.parametrize("argv", [["solve", "--method", "admm"], ["solve", "--method", "fista"],
                                      ["solve", "--method", "pinv"], ["compare"]],
                             ids=["admm", "fista", "pinv", "compare"])
    def test_one_operator_per_command(self, tmp_path, monkeypatch, argv):
        path, _ = write_config(tmp_path, overrides={"sweep": {"lambda": [0.01, 0.1], "rho": [1.0]}})
        assert main(["generate", "--config", str(path)]) == 0
        built = []
        init = linop.SensingOperator.__init__

        def counting_init(self, h):
            built.append(self)
            init(self, h)

        monkeypatch.setattr(linop.SensingOperator, "__init__", counting_init)
        assert main([*argv, "--config", str(path)]) == 0
        assert len(built) == 1

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

    def test_metrics_key_sets(self, tmp_path):
        # the exact keys of each method's record, from `solve` and from a sweep point of `compare`
        common = ["final_objective", "iterations", "kkt_violation", "kkt_violation_rel", "method", "nmse",
                  "precision", "recall", "wall_seconds"]
        iterative = common + ["lambda", "screened_adjoint_iters", "sparse_forward_iters", "stop_reason"]
        admm = iterative + ["N", "dual_residual", "eps_dual", "eps_pri", "primal_residual", "rho"]
        path, out = write_config(
            tmp_path, overrides={"sweep": {"lambda": [0.01], "rho": [2.0]}, "admm": {"max_iter": 20}})
        assert main(["generate", "--config", str(path)]) == 0
        for method in ("admm", "fista", "pinv"):
            assert main(["solve", "--config", str(path), "--method", method]) == 0
        assert main(["compare", "--config", str(path)]) == 0
        for tag, keys in (("admm", admm), ("fista", iterative), ("pinv", common), ("admm_lam0.01_rho2", admm)):
            assert sorted(json.loads((out / f"metrics_{tag}.json").read_text())) == sorted(keys), tag

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

    def test_error_row_with_a_comma_keeps_the_columns(self, tmp_path, monkeypatch):
        message = "Unable to allocate 37.3 MiB for an array with shape (93, 25000) and data type complex128"

        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(baselines, "solve_pseudoinverse", out_of_memory)
        path, out = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 0
        assert main(["compare", "--config", str(path)]) == 0
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [11] * 4
        assert [row[0] for row in rows] == ["method", "admm", "fista", "pinv"]
        assert [row[-1] for row in rows] == ["status", "ok", "ok", f"error: {message}"]

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
