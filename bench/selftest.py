#!/usr/bin/env python3
"""Self-tests of the benchmark harness on tiny problems (about 20 seconds).

    python3 bench/selftest.py

Kept out of the package test suite on purpose: they test the benchmark, not
cradmm, and they start cradmm child processes.
"""

import sys
import time
import unittest
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from cradmm import AdmmParams, check_lasso_kkt, solve_consensus_lasso, solve_fista  # noqa: E402
from harness import (  # noqa: E402
    Span,
    Tracer,
    first_passing_count,
    percentile,
    self_time,
    timing_summary,
)
from run import Run, run_e2e  # noqa: E402
from workloads import CERT_REL, Workload  # noqa: E402

# 33 x 72: the smallest scenario that still takes the 31 row blocks.
TINY = dict(
    scenario={"n_theta": 11, "n_freq": 3, "grid": [6, 6, 2], "roi_extent": [9.0, 9.0, 3.0]},
    targets=[{"box": [[1, 3], [2, 4], [0, 1]], "amplitude": [1.0, 0.0]}],
    lam=1e-4, rho=1.0, trace_admm_iters=5, trace_fista_iters=5,
)


def tiny_run(kind, label, **budgets):
    """A Run of the tiny scenario that ``run_e2e`` treats as workload ``kind``."""
    workload = Workload(kind, **TINY, **budgets)
    return Run(workload, seed=3, work=BENCH_DIR / "work" / f"selftest-{label}",
               deadline=time.monotonic() + 120.0)


def tiny_problem(rng):
    h = rng.standard_normal((12, 40)) + 1j * rng.standard_normal((12, 40))
    g = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    return h, g, 0.1 * float(np.max(np.abs(h.conj().T @ g)))


def certified(h, g, lam, estimate):
    report = check_lasso_kkt(h, g, lam, estimate, CERT_REL * lam)
    return max(report.max_active_violation, report.max_inactive_excess) <= CERT_REL * lam


class CertificateSearch(unittest.TestCase):
    CAP = 1500

    def test_bisection_matches_brute_force_for_admm(self):
        rng = np.random.default_rng(5)
        for trial in range(2):
            h, g, lam = tiny_problem(rng)

            def passes(k):
                params = AdmmParams(lam=lam, rho=1.0, max_iter=k, eps_abs=0.0, eps_rel=0.0)
                return certified(h, g, lam, solve_consensus_lasso(h, g, params, 4)[0])

            brute = next(k for k in range(1, self.CAP + 1) if passes(k))
            self.assertEqual(first_passing_count(passes, self.CAP), brute, f"trial {trial}")

    def test_bisection_bounds_the_first_count_for_fista(self):
        # FISTA's KKT residual is not monotone in k: on these problems it dips
        # under the tolerance, rises above it and comes back, so bisection can
        # land on a later crossing. What it returns still certifies.
        rng = np.random.default_rng(5)
        h, g, lam = tiny_problem(rng)

        def passes(k):
            return certified(h, g, lam, solve_fista(h, g, lam, max_iter=k, tol=0.0)[0])

        brute = next(k for k in range(1, self.CAP + 1) if passes(k))
        found = first_passing_count(passes, self.CAP)
        self.assertGreaterEqual(found, brute)
        self.assertTrue(passes(found))
        self.assertFalse(passes(found - 1))

    def test_not_reached_probes_only_the_budget(self):
        probed = []
        self.assertIsNone(first_passing_count(lambda k: probed.append(k) or False, 64))
        self.assertEqual(probed, [64])

    def test_not_reached_is_a_failure_without_a_time(self):
        run = tiny_run("desk-certify", "certify", admm_iters=2, fista_iters=2)
        full, gated = run_e2e(run, seconds=0.0)
        self.assertEqual(run.checks.failures, [])
        for method in ("admm", "fista"):
            self.assertIsNone(full[f"{method}_iters_to_cert"]["value"])
            self.assertIsNone(full[f"{method}_s_to_cert"]["value"])
            self.assertIn("not reached", full[f"{method}_s_to_cert"]["status"])
        self.assertEqual(full["ops_failed_frac"]["value"], 2 / (run.checks.attempted + 2))
        self.assertGreater(gated["solve_cpu_s"]["value"], 0.0)


class Percentiles(unittest.TestCase):
    def test_reports_sample_count(self):
        values = [float(v) for v in range(100)]
        self.assertEqual(percentile(values, 90.0), (89.0, 100))
        summary = timing_summary(values)
        self.assertEqual(summary["n"], 100)
        self.assertEqual(summary["p90"], 89.0)

    def test_refuses_a_thin_tail(self):
        values = [float(v) for v in range(100)]
        with self.assertRaises(ValueError):
            percentile(values, 95.0)  # 5 samples beyond
        self.assertNotIn("p50", timing_summary(values[:15]))  # 7 beyond the median
        self.assertEqual(timing_summary(values[:15])["n"], 15)


class SelfTime(unittest.TestCase):
    def test_duration_less_child_coverage(self):
        parent = Span("p", 0.0, 10.0, 0, None, "t")
        children = [
            Span("a", 1.0, 3.0, 1, 0, "t"),
            Span("b", 2.0, 5.0, 2, 0, "t"),  # overlaps a: [1, 5] is covered once
            Span("c", 8.0, 12.0, 3, 0, "t"),  # only [8, 10] lies inside the parent
        ]
        self.assertAlmostEqual(self_time(parent, children), 10.0 - 4.0 - 2.0)

    def test_tracer_links_children_to_parents(self):
        tracer = Tracer("t")
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.01)
        outer, inner = tracer.spans
        self.assertEqual(inner.parent, outer.span_id)
        self.assertEqual({outer.trace_id, inner.trace_id}, {"t"})
        times = tracer.self_times()
        self.assertAlmostEqual(times[outer.span_id], (outer.end - outer.start) - (inner.end - inner.start))
        self.assertEqual(times[inner.span_id], inner.end - inner.start)

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer("t", enabled=False)
        with tracer.span("x"):
            pass
        self.assertEqual(tracer.spans, [])


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.run = tiny_run("desk-sweep", "checks", admm_iters=4, fista_iters=4,
                            sweep={"lambda": [1e-4], "rho": [1.0]})
        self.run.generate(reps=1)
        self.cfg = self.run.write_config()

    def solve(self, method, rows):
        self.run.clean_outputs()
        self.run.cli("solve", "--config", self.cfg, "--method", method)
        return self.run.check_solve(method, rows)

    def test_clean_outputs_pass(self):
        for method, rows in (("admm", 4), ("fista", 4), ("pinv", None)):
            self.solve(method, rows)
        self.assertEqual(self.run.checks.failures, [])

    def test_corrupted_estimate_is_a_failure(self):
        self.solve("admm", 4)
        path = self.run.out / "estimate_admm.cvec"
        path.write_bytes(path.read_bytes()[:-8])
        before = self.run.checks.failed
        self.run.check_solve("admm", 4)
        self.assertEqual(self.run.checks.failed, before + 1)
        self.assertIn("estimate_admm.cvec", self.run.checks.failures[-1])

    def test_short_trace_is_a_failure(self):
        self.solve("fista", 4)
        path = self.run.out / "trace_fista.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        self.run.check_solve("fista", 4)
        self.assertEqual(len(self.run.checks.failures), 1)
        self.assertIn("trace_fista.csv", self.run.checks.failures[0])

    def test_non_finite_estimate_is_a_failure(self):
        from cradmm import read_vector, write_vector

        self.solve("pinv", None)
        path = self.run.out / "estimate_pinv.cvec"
        est = read_vector(path)
        est[0] = np.nan
        write_vector(path, est)
        self.run.check_solve("pinv", None)
        self.assertEqual(len(self.run.checks.failures), 1)

    def test_summary_with_an_error_row_is_a_failure(self):
        self.run.clean_outputs()
        self.run.cli("compare", "--config", self.cfg)
        tags = [("admm_lam0.0001_rho1", 4), ("fista", 4), ("pinv", None)]
        self.run.checks.attempt("summary.csv", self.run.check_summary, tags)
        self.assertEqual(self.run.checks.failures, [])
        path = self.run.out / "summary.csv"
        path.write_text(path.read_text().replace(",ok\n", ",error: injected\n", 1))
        self.run.checks.attempt("summary.csv", self.run.check_summary, tags)
        self.assertEqual(len(self.run.checks.failures), 1)

    def test_different_estimate_across_repeats_is_a_failure(self):
        seen = {}
        self.run.same_digest(seen, "admm", "a" * 64)
        self.run.same_digest(seen, "admm", "b" * 64)
        self.assertEqual(len(self.run.checks.failures), 1)


if __name__ == "__main__":
    unittest.main()
