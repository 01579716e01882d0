"""Experiment runner: generate a scenario, solve it, and compare methods.

Subcommands:
    generate --config cfg.json [--output DIR]
    solve    --config cfg.json --method admm|fista|pinv [--workers N] [--output DIR]
    compare  --config cfg.json [--workers N] [--output DIR]

Exit status: 0 on success, 2 on configuration or input-file problems, 3 on
solver failure. ``--output`` overrides the config's output_dir. ``--workers``
is accepted for compatibility and has no effect: the collapsed ADMM iteration
is two products with H and has no per-block work to spread over threads.

``metrics_<tag>.json`` records why an iterative solve stopped: ``stop_reason``
is "converged" or "max_iter", and ADMM adds its final primal and dual
residuals next to their thresholds ``eps_pri`` and ``eps_dual``.
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
    with open(out / MANIFEST_FILE, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_solve(cfg, method, workers):
    """Run one method against the generated files and write its artifacts."""
    h, u_true, g = _load_inputs(cfg)
    _run_method(cfg, method, h, u_true, g, workers)


def cmd_compare(cfg, workers):
    """Run every configured method (and the lambda/rho sweep) and summarize.

    The ADMM points share one rho-independent set-up, built on first use; a
    set-up that fails is retried, and reported, by every point.
    """
    h, u_true, g = _load_inputs(cfg)
    consensus = functools.cache(lambda: ConsensusSetup(h, g, cfg.admm_blocks))
    rows = []
    if cfg.has_sweep:
        admm_runs = [
            (lam, rho, f"admm_lam{lam:g}_rho{rho:g}")
            for lam in cfg.sweep_lambdas
            for rho in cfg.sweep_rhos
        ]
    else:
        admm_runs = [(cfg.admm.lam, cfg.admm.rho, "admm")]
    for lam, rho, tag in admm_runs:
        rows.append(_guarded_run(cfg, "admm", h, u_true, g, workers, lam=lam, rho=rho, tag=tag,
                                 consensus=consensus))
    rows.append(_guarded_run(cfg, "fista", h, u_true, g, workers))
    rows.append(_guarded_run(cfg, "pinv", h, u_true, g, workers))
    _write_summary(Path(cfg.output_dir) / SUMMARY_FILE, rows)


def _guarded_run(cfg, method, h, u_true, g, workers, lam=None, rho=None, tag=None, consensus=None):
    # a failing method must not take the other rows down with it
    try:
        return _run_method(cfg, method, h, u_true, g, workers, lam=lam, rho=rho, tag=tag,
                           consensus=consensus)
    except Exception as exc:  # noqa: BLE001
        row = {name: None for name in SUMMARY_COLUMNS}
        row.update(method=method, status=f"error: {exc}")
        if method == "admm":
            row.update({"lambda": lam, "rho": rho, "N": cfg.admm_blocks})
        return row


def _run_method(cfg, method, h, u_true, g, workers, lam=None, rho=None, tag=None, consensus=None):
    """Run one method and write its artifacts; returns its summary row.

    ``consensus``, when given, returns the ConsensusSetup that ADMM runs on.
    ``workers`` has no effect.
    """
    out = Path(cfg.output_dir)
    tag = tag or method
    t0 = time.perf_counter()
    trace = None
    stop = {}
    row = {name: None for name in SUMMARY_COLUMNS}
    if method == "admm":
        params = cfg.admm
        if lam is not None or rho is not None:
            params = dataclasses.replace(
                params,
                lam=params.lam if lam is None else lam,
                rho=params.rho if rho is None else rho,
            )
        setup = consensus() if consensus else ConsensusSetup(h, g, cfg.admm_blocks)
        engine = ConsensusLassoSolver.from_setup(setup, params)
        # trace rows stream to disk as iterations complete
        with fileio.TraceCsvWriter(out / f"trace_{tag}.csv") as writer:
            estimate, trace, state = engine.run(writer.write_row)
        row.update({"lambda": params.lam, "rho": params.rho, "N": cfg.admm_blocks})
        objective_lam = params.lam
        stop = {
            "stop_reason": trace.stop_reason,
            "primal_residual": trace[-1].primal_residual,
            "eps_pri": state.eps_pri,
            "dual_residual": trace[-1].dual_residual,
            "eps_dual": state.eps_dual,
        }
    elif method == "fista":
        estimate, trace = baselines.solve_fista(
            h, g, cfg.fista_lam, max_iter=cfg.fista_max_iter, tol=cfg.fista_tol
        )
        row["lambda"] = cfg.fista_lam
        objective_lam = cfg.fista_lam
        stop = {"stop_reason": trace.stop_reason}
    elif method == "pinv":
        estimate = baselines.solve_pseudoinverse(h, g, cfg.pinv_trunc_rel_tol)
        objective_lam = 0.0  # data-fit term only; no 1-norm weight applies
    else:
        raise ValueError(f"unknown method {method!r}")
    wall = time.perf_counter() - t0

    final_objective = evaluate_objective(h, g, estimate, objective_lam)
    reference_nonzero = bool(np.any(u_true))
    est_nmse = metrics.nmse(estimate, u_true) if reference_nonzero else None
    precision, recall = metrics.support_metrics(estimate, u_true, cfg.support_rel_threshold)

    fileio.write_vector(out / f"estimate_{tag}.cvec", estimate)
    if method == "fista":
        fileio.write_trace_csv(trace, out / f"trace_{tag}.csv")
    views = metrics.project_views(estimate, cfg.scenario.grid)
    for name in ("top", "front", "side"):
        fileio.write_view_pgm(getattr(views, name), out / f"{tag}_{name}.pgm")
    summary = {
        "method": method,
        "nmse": est_nmse,
        "precision": precision,
        "recall": recall,
        "wall_seconds": wall,
        "iterations": len(trace) if trace is not None else 0,
        "final_objective": final_objective,
        **stop,
    }
    with open(out / f"metrics_{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    row.update(
        method=method,
        iterations=summary["iterations"],
        final_objective=final_objective,
        nmse=est_nmse,
        precision=precision,
        recall=recall,
        wall_seconds=wall,
        status="ok",
    )
    return row


def _load_inputs(cfg):
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
    return h, u_true, g


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
            cmd_solve(cfg, args.method, args.workers)
        else:
            cmd_compare(cfg, args.workers)
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
