"""The traced run: per-layer timings from in-process calls into cradmm.

One pass replays a workload's scenario through the public functions of
``scene``, ``fileio``, ``admm``, ``baselines`` and ``metrics`` in the order
the CLI calls them, with a span around each call. Passes alternate between a
disabled and an enabled tracer; the difference of their median wall times is
the tracing overhead. Per-layer values are span self times, medians over the
traced passes.
"""

import statistics
import sys
import time
import uuid

import numpy as np

from cradmm import (
    AdmmParams,
    ConsensusLassoSolver,
    build_phantom,
    check_lasso_kkt,
    evaluate_objective,
    experiment_config_from_dict,
    forward_measure,
    nmse,
    project_views,
    read_matrix,
    soft_threshold,
    solve_fista,
    solve_pseudoinverse,
    support_metrics,
    synthesize_sensing_matrix,
    update_u,
    write_matrix,
    write_trace_csv,
    write_vector,
    write_view_pgm,
)
from harness import Tracer, file_digest, run_child
from workloads import CERT_REL, INPUT_FILES

FLOOR_REPEATS = 20  # matvecs per floor span; one matvec is ~1 ms at demo scale

# name -> unit; lower is better for all of them.
PER_LAYER = {
    "scene.synthesize_s": "s",
    "scene.forward_ms": "ms",
    "fileio.write_matrix_ms": "ms",
    "fileio.read_matrix_ms": "ms",
    "fileio.matrix_mb": "MB",
    "fileio.outputs_ms": "ms",
    "admm.precompute_ms": "ms",
    "admm.iter_ms": "ms",
    "admm.block_updates_ms": "ms",
    "admm.prox_ms": "ms",
    "admm.objective_ms": "ms",
    "baselines.fista_setup_ms": "ms",
    "baselines.fista_iter_ms": "ms",
    "baselines.pinv_s": "s",
    "baselines.kkt_ms": "ms",
    "metrics.quality_ms": "ms",
    "cli.startup_s": "s",
    "floor.matvec_ms": "ms",
    "floor.adjoint_ms": "ms",
    "floor.pass_mb": "MB",
    "admm.iter_over_floor": "ratio",
    "baselines.fista_iter_over_floor": "ratio",
}


def layer_pass(run, tracer):
    """One pass of the workload's scenario; every layer call inside a span."""
    wl = run.workload
    span = tracer.span
    # parsed exactly as the CLI parses it
    cfg = experiment_config_from_dict(wl.config(run.seed, run.out))
    points = wl.admm_points
    with span("pass"):
        with span("scene.synthesize"):
            sensing = synthesize_sensing_matrix(cfg.scenario)
        phantom = build_phantom(cfg.scenario, cfg.targets)
        with span("scene.forward"):
            measured = forward_measure(sensing, phantom, cfg.scenario.snr_db, cfg.noise_seed)
        with span("fileio.write_matrix"):
            write_matrix(run.out / "H.cmat", sensing.entries)
        with span("fileio.read_matrix"):
            h = read_matrix(run.out / "H.cmat")
        run.checks.check(np.array_equal(h, sensing.entries), "H.cmat does not round-trip")
        g, u_true = measured.g, phantom.reflectivity
        if not run.input_digests:  # first (warm-up) pass: record what the inputs were
            write_vector(run.out / "g.cvec", g)
            write_vector(run.out / "u_true.cvec", u_true)
            run.input_digests = {name: file_digest(run.out / name) for name in INPUT_FILES}

        for lam, rho in points:
            params = AdmmParams(lam=lam, rho=rho, max_iter=wl.trace_admm_iters, eps_abs=0.0, eps_rel=0.0)
            with span("admm.precompute"):
                engine = ConsensusLassoSolver(h, g, params, cfg.admm_blocks, workers=wl.effective_workers)
            with span("admm.run"):
                v, trace, _ = engine.run()
            run.checks.check(len(trace) == wl.trace_admm_iters and np.all(np.isfinite(v)),
                             f"admm lam={lam:g} rho={rho:g}: wrong trace length or non-finite estimate")
            with span("metrics.quality"):
                nmse(v, u_true)
                support_metrics(v, u_true, cfg.support_rel_threshold)
                views = project_views(v, cfg.scenario.grid)
            with span("fileio.outputs"):
                write_vector(run.out / "estimate.cvec", v)
                for name in ("top", "front", "side"):
                    write_view_pgm(getattr(views, name), run.out / f"view_{name}.pgm")
                write_trace_csv(trace, run.out / "trace.csv")

        zeros = np.zeros_like(v)
        with span("admm.block_updates"):
            for solver in engine.block_solvers:
                update_u(solver, v, zeros)
        with span("admm.prox"):
            soft_threshold(v, wl.lam / (wl.rho * cfg.admm_blocks))
        with span("admm.objective"):
            evaluate_objective(h, g, v, wl.lam)
        with span("baselines.fista_setup"):
            solve_fista(h, g, wl.lam, max_iter=1, tol=0.0)
        with span("baselines.fista_run"):
            x, ftrace = solve_fista(h, g, wl.lam, max_iter=wl.trace_fista_iters, tol=0.0)
        run.checks.check(len(ftrace) == wl.trace_fista_iters and np.all(np.isfinite(x)),
                         "fista: wrong trace length or non-finite estimate")
        with span("baselines.pinv"):
            u_pinv = solve_pseudoinverse(h, g, cfg.pinv_trunc_rel_tol)
        run.checks.check(np.all(np.isfinite(u_pinv)), "pinv: non-finite estimate")
        with span("baselines.kkt"):
            report = check_lasso_kkt(h, g, wl.lam, x, CERT_REL * wl.lam)
        run.checks.check(np.isfinite(report.max_active_violation), "kkt: non-finite report")

        h_adj = np.ascontiguousarray(h.conj().T)
        with span("floor.matvec"):
            for _ in range(FLOOR_REPEATS):
                r = h @ x
        with span("floor.adjoint"):
            for _ in range(FLOOR_REPEATS):
                h_adj @ r
        with span("cli.startup"):
            child = run_child([sys.executable, "-m", "cradmm", "--help"], run.env, run.log, 60.0)
        run.checks.check(child.returncode == 0, "cradmm --help failed")
    return len(points), h.shape


def pass_metrics(tracer, root, n_points, shape, wl):
    """Per-layer values of one traced pass from the self times of its spans."""
    self_times = tracer.self_times()
    s = {}
    for span in tracer.spans:
        if span.parent == root.span_id:
            s[span.name] = s.get(span.name, 0.0) + self_times[span.span_id]
    rows, cols = shape
    matvec = 1e3 * s["floor.matvec"] / FLOOR_REPEATS
    adjoint = 1e3 * s["floor.adjoint"] / FLOOR_REPEATS
    admm_iter = 1e3 * s["admm.run"] / (n_points * wl.trace_admm_iters)
    fista_iter = 1e3 * (s["baselines.fista_run"] - s["baselines.fista_setup"]) / (wl.trace_fista_iters - 1)
    return {
        "scene.synthesize_s": s["scene.synthesize"],
        "scene.forward_ms": 1e3 * s["scene.forward"],
        "fileio.write_matrix_ms": 1e3 * s["fileio.write_matrix"],
        "fileio.read_matrix_ms": 1e3 * s["fileio.read_matrix"],
        "fileio.matrix_mb": (24 + 16 * rows * cols) / 1e6,
        "fileio.outputs_ms": 1e3 * s["fileio.outputs"] / n_points,
        "admm.precompute_ms": 1e3 * s["admm.precompute"] / n_points,
        "admm.iter_ms": admm_iter,
        "admm.block_updates_ms": 1e3 * s["admm.block_updates"],
        "admm.prox_ms": 1e3 * s["admm.prox"],
        "admm.objective_ms": 1e3 * s["admm.objective"],
        "baselines.fista_setup_ms": 1e3 * s["baselines.fista_setup"],
        "baselines.fista_iter_ms": fista_iter,
        "baselines.pinv_s": s["baselines.pinv"],
        "baselines.kkt_ms": 1e3 * s["baselines.kkt"],
        "metrics.quality_ms": 1e3 * s["metrics.quality"] / n_points,
        "cli.startup_s": s["cli.startup"],
        "floor.matvec_ms": matvec,
        "floor.adjoint_ms": adjoint,
        "floor.pass_mb": 16 * rows * cols / 1e6,
        "admm.iter_over_floor": admm_iter / (matvec + adjoint),
        "baselines.fista_iter_over_floor": fista_iter / (matvec + adjoint),
    }


def run_traced(run, seconds):
    """Alternate untraced and traced passes for ``seconds``.

    Returns the per-layer medians over the traced passes, and the tracing
    overhead: median traced pass time less median untraced pass time.
    """
    tracer = Tracer(trace_id=uuid.uuid4().hex)
    untraced = Tracer(trace_id=tracer.trace_id, enabled=False)
    walls = {True: [], False: []}
    per_pass = []
    layer_pass(run, untraced)  # warm-up: first-touch costs are set-up, not layer time
    start = time.monotonic()
    while not per_pass or time.monotonic() - start < seconds:
        # alternate which side goes first so drift does not bias the overhead
        for traced in ((False, True) if len(per_pass) % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            n_points, shape = layer_pass(run, tracer if traced else untraced)
            walls[traced].append(time.perf_counter() - t0)
        root = next(s for s in reversed(tracer.spans) if s.name == "pass")
        per_pass.append(pass_metrics(tracer, root, n_points, shape, run.workload))
    tracer.dump(run.work / "spans.json")
    per_layer = {name: {"value": statistics.median(p[name] for p in per_pass), "unit": unit,
                        "n": len(per_pass)}
                 for name, unit in PER_LAYER.items()}
    traced_s, untraced_s = statistics.median(walls[True]), statistics.median(walls[False])
    overhead = {"value": 1e3 * (traced_s - untraced_s), "unit": "ms", "traced_pass_s": traced_s,
                "untraced_pass_s": untraced_s, "passes": len(per_pass),
                "spans_per_pass": len(tracer.spans) // len(per_pass)}
    return per_layer, overhead
