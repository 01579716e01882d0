"""Experiment runner: generate a scenario, solve it, and compare methods.

Subcommands:
    generate --config cfg.json [--output DIR]
    solve    --config cfg.json --method admm|fista|pinv [--workers N] [--output DIR]
    compare  --config cfg.json [--workers N] [--output DIR]

Exit status: 0 on success, 2 on configuration, input or output problems (a
config file that cannot be read as UTF-8 JSON, an output_dir that cannot be
created, an input file that is missing, unreadable, malformed, non-finite or
too large for memory, a scenario whose H does not fit in memory, or an output
file that cannot be written), 3 on solver failure. ``--output`` overrides the
config's output_dir and is checked by the same rule, so an empty one exits 2.
``--workers`` has no effect: the collapsed ADMM iteration has no per-block work
to spread, and the flag stays only because the benchmark passes it.

``METHODS`` gives ``solve --method`` its choices and ``compare`` its runs, in
order (ADMM once per sweep point). An entry holds the record keys a run has
before it runs, all that a ``compare`` error row holds, and a runner that
returns the estimate, the trace (None for pinv) and further record keys. An
iterative run streams ``trace_<tag>.csv``. Every run writes its record as
``metrics_<tag>.json``; ``final_objective``, ``kkt_violation`` and
``kkt_violation_rel`` come from one ``check_lasso_kkt`` report at the
method's lambda (0 for pinv). Every run of a command shares one
``linop.SensingOperator`` on H, so its factors are formed once per command.
"""

import argparse
import collections
import csv
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import baselines, fileio, linop, metrics, scene
from .admm import ConsensusLassoSolver
from .config import NONEMPTY_STR, experiment_config_to_dict, load_experiment_config, sweep_tag
from .errors import ConfigError, DivergenceError, FileFormatError

MATRIX_FILE = "H.cmat"
SCENE_FILE = "u_true.cvec"
MEASUREMENT_FILE = "g.cvec"
MANIFEST_FILE = "manifest.json"
SUMMARY_FILE = "summary.csv"

SUMMARY_COLUMNS = ("method", "lambda", "rho", "N", "iterations", "final_objective",
                   "nmse", "precision", "recall", "wall_seconds", "status")


def cmd_generate(cfg):
    """Synthesize H, the phantom, and the noisy measurement; write them plus a manifest.

    H is synthesized, written and multiplied by the phantom one rotation
    block (n_freq rows) at a time and is never held whole. Its full buffer
    is still allocated once, untouched, before anything is written: a
    scenario too large for memory, which ``solve`` could not load, is a
    config error, and nothing is written.
    """
    sc = cfg.scenario
    try:
        scene.allocate_sensing_entries(sc)  # released at once; its pages were never written
        phantom = scene.build_phantom(sc, cfg.targets)
    except MemoryError:
        rows, cols = sc.n_measurements, sc.n_voxels
        raise ConfigError([f"scenario: H of {rows} x {cols} complex entries ({rows * cols * 16 / 2**30:.1f} GiB) "
                           "does not fit in memory"]) from None
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in its place, or on its path
        raise ConfigError([f"output_dir: cannot create directory {out}: {exc.strerror}"]) from None
    clean = np.empty(sc.n_measurements, dtype=np.complex128)  # H u, filled as the blocks are written

    def measured_blocks():
        for r, block in enumerate(scene.sensing_blocks(sc)):
            clean[r * sc.n_freq:(r + 1) * sc.n_freq] = scene.rows_times(block, phantom.reflectivity,
                                                                        sc.n_measurements)
            yield block

    fileio.write_matrix_blocks(out / MATRIX_FILE, (sc.n_measurements, sc.n_voxels), measured_blocks())
    try:
        measured = scene.add_noise(clean, sc.snr_db, cfg.noise_seed)
    except ValueError as exc:  # a noise power beyond the float range: before g or the manifest is written
        raise ConfigError([f"scenario.snr_db: {exc}"]) from None
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
    """Run every method of ``METHODS`` (ADMM at each sweep point) and summarize.

    A factor of the shared operator that fails to form is retried, and
    reported, by every run that needs it. A run that raises becomes an error
    row, and the remaining runs still go.
    """
    inputs = _load_inputs(cfg)
    rows = []
    for method in METHODS:
        points = [(method, cfg.admm)]
        if method == "admm" and cfg.has_sweep:
            points = [(sweep_tag(lam, rho), dataclasses.replace(cfg.admm, lam=lam, rho=rho))
                      for lam in cfg.sweep_lambdas for rho in cfg.sweep_rhos]
        for tag, params in points:
            try:
                rows.append({**_run(cfg, inputs, method, tag, params), "status": "ok"})
            except Exception as exc:  # noqa: BLE001
                rows.append({"method": method, **METHODS[method].own_keys(cfg, params), "status": f"error: {exc}"})
    _write_summary(Path(cfg.output_dir) / SUMMARY_FILE, rows)


def _run(cfg, inputs, method, tag, params):
    """Run one method of ``METHODS``, write its artifacts, and return its record (``metrics_<tag>.json``)."""
    op, u_true, g = inputs
    out = Path(cfg.output_dir)
    own_keys, runner = METHODS[method]
    record = {"method": method, **own_keys(cfg, params)}
    t0 = time.perf_counter()
    estimate, trace, method_keys = runner(cfg, op, g, params, out / f"trace_{tag}.csv")
    wall = time.perf_counter() - t0
    if trace is not None:
        record.update(stop_reason=trace.stop_reason, sparse_forward_iters=trace.sparse_forward_iters,
                      screened_adjoint_iters=trace.screened_adjoint_iters)

    # the pseudoinverse has no lambda: its objective is the data-fit term alone
    lam = record.get("lambda", 0.0)
    kkt = baselines.check_lasso_kkt(op, g, lam, estimate, 0.0)
    if not (math.isfinite(kkt.objective) and math.isfinite(kkt.violation)):
        raise DivergenceError(f"non-finite certificate: objective {kkt.objective} and violation {kkt.violation}")
    precision, recall = metrics.support_metrics(estimate, u_true, cfg.support_rel_threshold)
    record.update(
        method_keys,
        iterations=0 if trace is None else len(trace),
        final_objective=kkt.objective,
        nmse=metrics.nmse(estimate, u_true) if np.any(u_true) else None,
        precision=precision,
        recall=recall,
        wall_seconds=wall,
        kkt_violation=kkt.violation,
        kkt_violation_rel=kkt.violation / lam if lam > 0 else None,
    )
    fileio.write_vector(out / f"estimate_{tag}.cvec", estimate)
    views = metrics.project_views(estimate, cfg.scenario.grid)
    for name in ("top", "front", "side"):
        fileio.write_view_pgm(getattr(views, name), out / f"{tag}_{name}.pgm")
    metrics_text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    (out / f"metrics_{tag}.json").write_text(metrics_text, encoding="utf-8")
    return record


def _run_admm(cfg, op, g, params, trace_path):
    # the solver is built before the trace opens, so a failed set-up writes no trace
    engine = ConsensusLassoSolver(op, g, params, cfg.admm_blocks)
    with fileio.TraceCsvWriter(trace_path) as writer:
        estimate, trace, state = engine.run(writer.write_row)
    return estimate, trace, {"primal_residual": trace[-1].primal_residual, "eps_pri": state.eps_pri,
                             "dual_residual": trace[-1].dual_residual, "eps_dual": state.eps_dual}


def _run_fista(cfg, op, g, params, trace_path):
    with fileio.TraceCsvWriter(trace_path) as writer:
        estimate, trace = baselines.solve_fista(op, g, cfg.fista_lam, max_iter=cfg.fista_max_iter,
                                                tol=cfg.fista_tol, on_iteration=writer.write_row)
    return estimate, trace, {}


def _run_pinv(cfg, op, g, params, trace_path):
    return baselines.solve_pseudoinverse(op, g, cfg.pinv_trunc_rel_tol), None, {}


Method = collections.namedtuple("Method", "own_keys run")
METHODS = {
    "admm": Method(lambda cfg, params: {"lambda": params.lam, "rho": params.rho, "N": cfg.admm_blocks}, _run_admm),
    "fista": Method(lambda cfg, params: {"lambda": cfg.fista_lam}, _run_fista),
    "pinv": Method(lambda cfg, params: {}, _run_pinv),
}


def _load_inputs(cfg):
    """The command's one SensingOperator on H, then u_true and g.

    The files must match the config and hold only finite values.
    """
    out = Path(cfg.output_dir)
    h = _read_input(fileio.read_matrix, out / MATRIX_FILE)
    u_true = _read_input(fileio.read_vector, out / SCENE_FILE)
    g = _read_input(fileio.read_vector, out / MEASUREMENT_FILE)
    expected = (cfg.scenario.n_measurements, cfg.scenario.n_voxels)
    if h.shape != expected:
        raise ConfigError([f"scenario: stored matrix is {h.shape}, config expects {expected}"])
    if u_true.shape[0] != h.shape[1] or g.shape[0] != h.shape[0]:
        raise ConfigError(["scenario: stored vectors do not match the stored matrix"])
    for name, values in ((MATRIX_FILE, h), (SCENE_FILE, u_true), (MEASUREMENT_FILE, g)):
        if not linop.all_finite(values):
            raise FileFormatError(f"{out / name} holds a non-finite value")
    return linop.SensingOperator(h), u_true, g


def _read_input(read, path):
    """``read(path)``; a file that is missing, unreadable or too large for memory is an input error that names it."""
    try:
        return read(path)
    except FileNotFoundError:
        raise FileNotFoundError(f"missing input {path}; run `generate` first") from None
    except OSError as exc:  # a directory in its place, say
        raise FileFormatError(f"{path} cannot be read: {exc.strerror}") from None
    except MemoryError as exc:
        raise FileFormatError(f"{path} does not fit in memory: {exc}") from None


def _write_summary(path, rows):
    def fmt(value):  # the csv writer writes None as an empty field
        if isinstance(value, float):
            return f"{value:.17g}"
        return value

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerows([fmt(row.get(name)) for name in SUMMARY_COLUMNS] for row in rows)


def build_parser():
    parser = argparse.ArgumentParser(prog="cradmm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "generate": ("synthesize the sensing matrix, phantom, and measurement files",
                     lambda cfg, args: cmd_generate(cfg)),
        "solve": ("run one solver against generated files", lambda cfg, args: cmd_solve(cfg, args.method)),
        "compare": ("run all solvers (plus any sweep) and write summary.csv", lambda cfg, args: cmd_compare(cfg)),
    }
    for name, (help_text, handler) in commands.items():
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        sp.add_argument("--config", required=True, help="path to the JSON experiment config")
        sp.add_argument("--output", default=None, help="override the config output_dir")
        sp.add_argument("--workers", type=int, help="has no effect on any command")
    sub.choices["solve"].add_argument("--method", required=True, choices=METHODS)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_experiment_config(args.config)
        if args.output is not None:
            if not NONEMPTY_STR.accepts(args.output):
                raise ConfigError([f"--output: {NONEMPTY_STR.message}"])
            cfg = dataclasses.replace(cfg, output_dir=args.output)
        args.handler(cfg, args)
    except ConfigError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except (FileNotFoundError, FileFormatError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output, as every input is read through _read_input; a failed write() names no file
        print(f"output error: {exc.filename or cfg.output_dir} cannot be written: {exc.strerror}", file=sys.stderr)
        return 2
    except (DivergenceError, np.linalg.LinAlgError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
