"""Experiment runner: generate a scenario, solve it, and compare methods.

Subcommands:
    generate --config cfg.json [--output DIR]
    solve    --config cfg.json --method admm|fista|pinv [--workers N] [--output DIR]
    compare  --config cfg.json [--workers N] [--output DIR]

Exit status: 0 on success, 2 on configuration or input-file problems (an
input file that is missing, malformed or holds a non-finite value), 3 on
solver failure. ``--output`` overrides the config's output_dir. ``--workers``
is accepted for compatibility and has no effect: the collapsed ADMM iteration
is two products with H and has no per-block work to spread over threads.

ADMM and FISTA stream ``trace_<tag>.csv`` as they iterate. Every run writes
one record as ``metrics_<tag>.json``: the method's own parameters (``lambda``;
ADMM adds ``rho`` and ``N``), the quality metrics and, for an iterative solve,
``stop_reason`` ("converged" or "max_iter"); ADMM adds its final primal and
dual residuals next to their thresholds ``eps_pri`` and ``eps_dual``. Every
record carries the lasso KKT violation of its estimate at the method's lambda
(0 for pinv), ``kkt_violation``, and that over lambda, ``kkt_violation_rel``
(null when lambda is 0). A run's ``summary.csv`` row is its record cut to the
summary columns.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import baselines, fileio, metrics, scene
from .admm import ConsensusLassoSolver, ConsensusSetup, evaluate_objective
from .config import experiment_config_to_dict, load_experiment_config
from .errors import ConfigError, DivergenceError, FileFormatError

MATRIX_FILE = "H.cmat"
SCENE_FILE = "u_true.cvec"
MEASUREMENT_FILE = "g.cvec"
MANIFEST_FILE = "manifest.json"
SUMMARY_FILE = "summary.csv"

SUMMARY_COLUMNS = ("method", "lambda", "rho", "N", "iterations", "final_objective",
                   "nmse", "precision", "recall", "wall_seconds", "status")


def cmd_generate(cfg):
    """Synthesize H, the phantom, and the noisy measurement; write them plus a manifest."""
    sensing = scene.synthesize_sensing_matrix(cfg.scenario)
    phantom = scene.build_phantom(cfg.scenario, cfg.targets)
    measured = scene.forward_measure(sensing, phantom, cfg.scenario.snr_db, cfg.noise_seed)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_matrix(out / MATRIX_FILE, sensing.entries)
    fileio.write_vector(out / SCENE_FILE, phantom.reflectivity)
    fileio.write_vector(out / MEASUREMENT_FILE, measured.g)
    manifest = {
        "format": "cradmm-manifest-v1",
        "config": experiment_config_to_dict(cfg),
        "files": {
            "sensing_matrix": MATRIX_FILE,
            "scene": SCENE_FILE,
            "measurement": MEASUREMENT_FILE,
        },
        "noise_power": measured.noise_power,
        "realized_snr_db": None if math.isinf(measured.realized_snr_db) else measured.realized_snr_db,
    }
    (out / MANIFEST_FILE).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cmd_solve(cfg, method):
    """Run one method against the generated files and write its artifacts."""
    _run(cfg, _load_inputs(cfg), method, method, cfg.admm)


def cmd_compare(cfg):
    """Run every configured method (and the lambda/rho sweep) and summarize.

    The ADMM points share one rho-independent set-up, built on first use; a
    set-up that fails is retried, and reported, by every point. A run that
    raises becomes an error row, and the remaining runs still go.
    """
    if cfg.has_sweep:
        runs = [("admm", f"admm_lam{lam:g}_rho{rho:g}", dataclasses.replace(cfg.admm, lam=lam, rho=rho))
                for lam in cfg.sweep_lambdas for rho in cfg.sweep_rhos]
    else:
        runs = [("admm", "admm", cfg.admm)]
    inputs = _load_inputs(cfg)
    rows = []
    for method, tag, params in runs + [("fista", "fista", None), ("pinv", "pinv", None)]:
        try:
            rows.append({**_run(cfg, inputs, method, tag, params), "status": "ok"})
        except Exception as exc:  # noqa: BLE001
            rows.append({**_own_keys(cfg, method, params), "status": f"error: {exc}"})
    _write_summary(Path(cfg.output_dir) / SUMMARY_FILE, rows)


def _own_keys(cfg, method, params):
    """The record keys a method run has before it runs: its name and parameters."""
    if method == "admm":
        return {"method": method, "lambda": params.lam, "rho": params.rho, "N": cfg.admm_blocks}
    if method == "fista":
        return {"method": method, "lambda": cfg.fista_lam}
    return {"method": method}


def _run(cfg, inputs, method, tag, params):
    """Run one method, write its artifacts, and return its record.

    The record is what ``metrics_<tag>.json`` holds; ADMM runs with
    ``params``. Iterative methods stream ``trace_<tag>.csv`` as they go.
    """
    h, u_true, g, setup = inputs
    out = Path(cfg.output_dir)
    record = _own_keys(cfg, method, params)
    t0 = time.perf_counter()
    if method == "admm":
        engine = ConsensusLassoSolver.from_setup(setup(), params)
        with fileio.TraceCsvWriter(out / f"trace_{tag}.csv") as writer:
            estimate, trace, state = engine.run(writer.write_row)
        record.update(stop_reason=trace.stop_reason, primal_residual=trace[-1].primal_residual,
                      eps_pri=state.eps_pri, dual_residual=trace[-1].dual_residual, eps_dual=state.eps_dual)
    elif method == "fista":
        with fileio.TraceCsvWriter(out / f"trace_{tag}.csv") as writer:
            estimate, trace = baselines.solve_fista(h, g, cfg.fista_lam, max_iter=cfg.fista_max_iter,
                                                    tol=cfg.fista_tol, on_iteration=writer.write_row)
        record["stop_reason"] = trace.stop_reason
    else:
        estimate, trace = baselines.solve_pseudoinverse(h, g, cfg.pinv_trunc_rel_tol), ()
    wall = time.perf_counter() - t0

    # the pseudoinverse has no lambda: its objective is the data-fit term alone
    lam = record.get("lambda", 0.0)
    kkt = baselines.check_lasso_kkt(h, g, lam, estimate, 0.0)
    kkt_violation = max(kkt.max_active_violation, kkt.max_inactive_excess)
    precision, recall = metrics.support_metrics(estimate, u_true, cfg.support_rel_threshold)
    record.update(
        iterations=len(trace),
        final_objective=evaluate_objective(h, g, estimate, lam),
        nmse=metrics.nmse(estimate, u_true) if np.any(u_true) else None,
        precision=precision,
        recall=recall,
        wall_seconds=wall,
        kkt_violation=kkt_violation,
        kkt_violation_rel=kkt_violation / lam if lam > 0 else None,
    )
    fileio.write_vector(out / f"estimate_{tag}.cvec", estimate)
    views = metrics.project_views(estimate, cfg.scenario.grid)
    for name in ("top", "front", "side"):
        fileio.write_view_pgm(getattr(views, name), out / f"{tag}_{name}.pgm")
    metrics_text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    (out / f"metrics_{tag}.json").write_text(metrics_text, encoding="utf-8")
    return record


def _load_inputs(cfg):
    """H, u_true, g and a cached ADMM set-up on them, built on first use.

    The files must match the config and hold only finite values.
    """
    out = Path(cfg.output_dir)
    for name in (MATRIX_FILE, SCENE_FILE, MEASUREMENT_FILE):
        if not (out / name).exists():
            raise FileNotFoundError(f"missing input {out / name}; run `generate` first")
    h = fileio.read_matrix(out / MATRIX_FILE)
    u_true = fileio.read_vector(out / SCENE_FILE)
    g = fileio.read_vector(out / MEASUREMENT_FILE)
    expected = (cfg.scenario.n_measurements, cfg.scenario.n_voxels)
    if h.shape != expected:
        raise ConfigError([f"scenario: stored matrix is {h.shape}, config expects {expected}"])
    if u_true.shape[0] != h.shape[1] or g.shape[0] != h.shape[0]:
        raise ConfigError(["scenario: stored vectors do not match the stored matrix"])
    for name, values in ((MATRIX_FILE, h), (SCENE_FILE, u_true), (MEASUREMENT_FILE, g)):
        if not np.all(np.isfinite(values)):
            raise FileFormatError(f"{out / name} holds a non-finite value")
    return h, u_true, g, functools.cache(lambda: ConsensusSetup(h, g, cfg.admm_blocks))


def _write_summary(path, rows):
    def fmt(value):
        if value is None:
            return ""
        if isinstance(value, float):
            return f"{value:.17g}"
        return str(value)

    with open(path, "w", newline="") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(fmt(row.get(name)) for name in SUMMARY_COLUMNS) + "\n")


def build_parser():
    parser = argparse.ArgumentParser(prog="cradmm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "generate": "synthesize the sensing matrix, phantom, and measurement files",
        "solve": "run one solver against generated files",
        "compare": "run all solvers (plus any sweep) and write summary.csv",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to the JSON experiment config")
        sp.add_argument("--output", default=None, help="override the config output_dir")
        sp.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                        help="accepted for compatibility; has no effect on any command")
    sub.choices["solve"].add_argument("--method", required=True, choices=("admm", "fista", "pinv"))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_experiment_config(args.config)
        if args.output:
            cfg = dataclasses.replace(cfg, output_dir=args.output)
        if args.command == "generate":
            cmd_generate(cfg)
        elif args.command == "solve":
            cmd_solve(cfg, args.method)
        else:
            cmd_compare(cfg)
    except ConfigError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except (FileNotFoundError, FileFormatError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, np.linalg.LinAlgError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
