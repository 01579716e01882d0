"""Acceptance suite: every criterion at its stated tolerance, one line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

import functools
import json
import time

import numpy as np
import pytest

from conftest import rand_complex
from cradmm import (
    AdmmParams,
    ConsensusLassoSolver,
    ConvergenceTrace,
    IterationRecord,
    ScenarioConfig,
    build_phantom,
    check_lasso_kkt,
    forward_measure,
    nmse,
    precompute_block_solver,
    read_matrix,
    read_trace_csv,
    read_vector,
    soft_threshold,
    solve_consensus_lasso,
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
from cradmm.cli import main
from test_fileio import parse_pgm

DESK_SCENARIO = {
    "n_theta": 31,
    "n_freq": 3,
    "grid": [25, 25, 4],
    "roi_extent": [36.0, 36.0, 6.0],
    "snr_db": 30.0,
    "rng_seed": 0,
}
DESK_TARGETS = [
    {"box": [[4, 6], [4, 6], [1, 2]], "amplitude": [1.0, 0.0]},
    {"box": [[16, 18], [6, 8], [2, 3]], "amplitude": [1.0, 0.0]},
    {"box": [[7, 9], [17, 19], [0, 1]], "amplitude": [1.0, 0.0]},
    {"box": [[18, 20], [18, 20], [3, 4]], "amplitude": [1.0, 0.0]},
]


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number}: FAIL ({description})")
                raise
            print(f"[acceptance] criterion {number}: PASS ({description})")
            return result

        return wrapper

    return decorate


@criterion(1, "Woodbury block solve matches dense direct solve, rel err <= 1e-8")
def test_criterion_1_woodbury_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    rhos = (0.1, 1.0, 10.0)
    for trial in range(50):
        rho = rhos[trial % 3]
        m = int(rng.integers(1, 7))
        n = int(rng.integers(max(m, 2), 41))
        h = rand_complex(rng, m, n)
        g = rand_complex(rng, m)
        v = rand_complex(rng, n)
        s = rand_complex(rng, n)
        solver = precompute_block_solver(h, g, rho)
        u = update_u(solver, v, s)
        b = h.conj().T @ g + rho * (v - s)
        direct = np.linalg.solve(h.conj().T @ h + rho * np.eye(n), b)
        rel = np.linalg.norm(u - direct) / np.linalg.norm(direct)
        assert rel <= 1e-8, f"trial {trial}: rel err {rel:.3g}"
    assert time.perf_counter() - started < 5.0


@criterion(2, "identity-matrix lasso reaches the closed form within 1e-6 inf-norm")
def test_criterion_2_closed_form_lasso():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    for n in (2, 3, 8, 33, 64):
        g = rand_complex(rng, n)
        lam = float(rng.uniform(0.1, 0.6) * np.median(np.abs(g)))
        expected = soft_threshold(g, lam)
        for n_blocks in (1, 2, 4):
            if n_blocks > n:
                continue
            params = AdmmParams(lam=lam, rho=1.0, max_iter=2000, eps_abs=1e-12, eps_rel=1e-12)
            v, trace, _ = solve_consensus_lasso(np.eye(n), g, params, n_blocks)
            assert len(trace) <= 2000
            err = float(np.max(np.abs(v - expected)))
            assert err <= 1e-6, f"n={n} N={n_blocks}: inf err {err:.3g}"
    assert time.perf_counter() - started < 10.0


@criterion(3, "ADMM certified by KKT at 1e-3; objectives match FISTA within 1e-4")
def test_criterion_3_kkt_certification():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    for trial in range(20):
        m = int(rng.integers(4, 13))
        n = int(rng.integers(m, 41))
        h = rand_complex(rng, m, n)
        g = rand_complex(rng, m)
        lam = float(10.0 ** rng.uniform(-3, 0) * np.max(np.abs(h.conj().T @ g)))
        params = AdmmParams(lam=lam, rho=1.0, max_iter=5000, eps_abs=1e-8, eps_rel=1e-8)
        v, trace_a, _ = solve_consensus_lasso(h, g, params, min(4, m))
        report = check_lasso_kkt(h, g, lam, v, 1e-3)
        assert report.passed, f"trial {trial}: {report}"
        _, trace_f = solve_fista(h, g, lam, max_iter=20000, tol=1e-16)
        fa, fb = trace_a[-1].objective, trace_f[-1].objective
        assert abs(fa - fb) <= 1e-4 * min(fa, fb), f"trial {trial}: {fa} vs {fb}"
    assert time.perf_counter() - started < 30.0


@criterion(4, "93 x 25000 run: 31 cached 3x3 inverses, 500 iterations, linear cost")
def test_criterion_4_paper_scale_smoke():
    started = time.perf_counter()
    cfg = ScenarioConfig()  # 93 x 25000 demo defaults
    h = synthesize_sensing_matrix(cfg)
    targets = [
        (((10, 12), (10, 12), (2, 3)), 1.0),
        (((30, 32), (35, 37), (5, 6)), 1.0),
        (((20, 22), (40, 42), (7, 8)), 1.0),
        (((40, 42), (15, 17), (3, 4)), 1.0),
    ]
    phantom = build_phantom(cfg, targets)
    measured = forward_measure(h, phantom, 30.0, seed=1)
    params = AdmmParams(lam=0.01, rho=1.0, max_iter=500, eps_abs=0.0, eps_rel=0.0)
    engine = ConsensusLassoSolver(h, measured, params, n_blocks=31)
    # precomputation: exactly 31 small inverses, each 3 x 3
    assert len(engine.block_solvers) == 31
    assert all(b.small_inverse.shape == (3, 3) for b in engine.block_solvers)
    v, trace, _ = engine.run()
    assert len(trace) == 500
    assert np.all(np.isfinite(v.view(np.float64)))
    elapsed = trace.column("elapsed_seconds")
    assert np.all(np.diff(elapsed) >= 0)
    # linear per-iteration cost: the second half takes roughly half the time
    mid_fraction = (elapsed[-1] - elapsed[len(elapsed) // 2]) / elapsed[-1]
    assert 0.25 <= mid_fraction <= 0.75, f"second-half fraction {mid_fraction:.3f}"
    assert time.perf_counter() - started <= 120.0


@criterion(5, "desk-scale recovery: recall >= 0.9 and NMSE below the pseudoinverse")
def test_criterion_5_desk_scale_recovery():
    started = time.perf_counter()
    cfg = ScenarioConfig(grid=(25, 25, 4), roi_extent=(36.0, 36.0, 6.0))
    h = synthesize_sensing_matrix(cfg)
    targets = [(tuple(map(tuple, t["box"])), complex(*t["amplitude"])) for t in DESK_TARGETS]
    phantom = build_phantom(cfg, targets)
    assert np.count_nonzero(phantom.reflectivity) == 16
    measured = forward_measure(h, phantom, 30.0, seed=42)
    params = AdmmParams(lam=1.0, rho=1.0, max_iter=1000, eps_abs=1e-8, eps_rel=1e-8)
    v, _, _ = solve_consensus_lasso(h, measured, params, 31)
    _, recall = support_metrics(v, phantom.reflectivity, 0.2)
    assert recall >= 0.9, f"recall {recall:.3f}"
    u_pinv = solve_pseudoinverse(h, measured, 1e-10)
    admm_nmse = nmse(v, phantom.reflectivity)
    pinv_nmse = nmse(u_pinv, phantom.reflectivity)
    assert admm_nmse < pinv_nmse, f"admm {admm_nmse:.4f} vs pinv {pinv_nmse:.4f}"
    assert time.perf_counter() - started < 60.0


@criterion(6, "partition-count invariance at 1e-5 and worker-count bit-identity")
def test_criterion_6_partition_invariance_and_determinism(tmp_path):
    rng = np.random.default_rng(606)
    for n in (8, 33):
        g = rand_complex(rng, n)
        lam = float(0.3 * np.median(np.abs(g)))
        params = AdmmParams(lam=lam, rho=1.0, max_iter=2000, eps_abs=1e-12, eps_rel=1e-12)
        solutions = [solve_consensus_lasso(np.eye(n), g, params, nb)[0] for nb in (1, 2, 4)]
        for other in solutions[1:]:
            assert np.max(np.abs(solutions[0] - other)) <= 1e-5

    cfg = dict(
        scenario=DESK_SCENARIO,
        targets=DESK_TARGETS,
        admm={"lambda": 1.0, "rho": 1.0, "n_blocks": 31, "max_iter": 150,
              "eps_abs": 0.0, "eps_rel": 0.0},
        output_dir=str(tmp_path / "out"),
        noise_seed=42,
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(cfg_path)]) == 0
    snapshots = []
    for workers in ("1", "8"):
        assert main(["solve", "--config", str(cfg_path), "--method", "admm",
                     "--workers", workers]) == 0
        estimate = (tmp_path / "out" / "estimate_admm.cvec").read_bytes()
        trace_lines = (tmp_path / "out" / "trace_admm.csv").read_text().splitlines()
        no_timing = [line.rsplit(",", 1)[0] for line in trace_lines]
        snapshots.append((estimate, no_timing))
    assert snapshots[0] == snapshots[1]


@criterion(7, "lambda x rho sweep: 9 traces, all objectives finite and bounded")
def test_criterion_7_convergence_sweep(tmp_path):
    cfg = dict(
        scenario=DESK_SCENARIO,
        targets=DESK_TARGETS,
        admm={"lambda": 0.01, "rho": 1.0, "n_blocks": 31, "max_iter": 200,
              "eps_abs": 0.0, "eps_rel": 0.0},
        fista={"lambda": 1.0, "max_iter": 300, "tol": 1e-12},
        sweep={"lambda": [0.001, 0.01, 0.1], "rho": [0.1, 1.0, 10.0]},
        output_dir=str(tmp_path / "out"),
        noise_seed=42,
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(cfg_path)]) == 0
    assert main(["compare", "--config", str(cfg_path)]) == 0
    traces = sorted((tmp_path / "out").glob("trace_admm_lam*_rho*.csv"))
    assert len(traces) == 9
    for path in traces:
        objectives = read_trace_csv(path).column("objective")
        assert len(objectives) == 200
        assert np.all(np.isfinite(objectives)), path.name
        assert objectives[-1] <= 10.0 * objectives[0], path.name


@criterion(8, "binary, CSV, and PGM formats round-trip / parse bit-exactly")
def test_criterion_8_format_round_trips(tmp_path):
    rng = np.random.default_rng(808)
    for trial in range(10):
        a = rand_complex(rng, int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        write_matrix(tmp_path / "m.cmat", a)
        assert read_matrix(tmp_path / "m.cmat").tobytes() == a.tobytes()
        vec = rand_complex(rng, int(rng.integers(1, 500)))
        write_vector(tmp_path / "v.cvec", vec)
        assert read_vector(tmp_path / "v.cvec").tobytes() == vec.tobytes()
        records = [
            IterationRecord(k, float(rng.uniform(0, 1e6)), float(rng.uniform(0, 1)),
                            float(rng.uniform(0, 1)), float(rng.uniform(0, 100)))
            for k in range(int(rng.integers(1, 100)))
        ]
        trace = ConvergenceTrace(records)
        write_trace_csv(trace, tmp_path / "t.csv")
        back = read_trace_csv(tmp_path / "t.csv")
        assert list(back) == records
        view = np.abs(rand_complex(rng, int(rng.integers(1, 20)), int(rng.integers(1, 20))))
        write_view_pgm(view, tmp_path / "v.pgm")
        width, height, maxval, pixels = parse_pgm((tmp_path / "v.pgm").read_bytes())
        assert (height, width) == view.shape
        assert maxval == 65535
        expected = np.floor(view * (65535.0 / view.max()) + 0.5).astype(np.uint16)
        assert np.array_equal(pixels, expected)
