#!/usr/bin/env python3
"""Benchmark for cradmm: three workloads, end to end through the CLI, per layer
from a separate traced run.

    python3 bench/run.py --workload demo-solve --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 11 --seconds 30 --write out.json

With ``--trace 0`` every command runs ``python -m cradmm`` as a child process
(closed loop: one command at a time) and every output is checked. With
``--trace 1`` the same scenario runs in-process through the public functions
of each layer, inside spans (see layers.py). ``--workload all`` runs every
workload both ways and prints every metric. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for the metrics and the reasons for each workload.
"""

import argparse
import json
import math
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread in this process and in every child it starts. On a 2-vCPU
# shared VM, 40 timings of a threaded 93 x 25000 matvec had a quartile spread
# of 55% of their median; single-threaded, 5%.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402 - after the thread settings, which numpy reads on import

from harness import (  # noqa: E402
    Checks,
    environment,
    file_digest,
    first_passing_count,
    pgm_shape,
    run_child,
    step_durations,
    timing_summary,
)
from workloads import CERT_REL, INPUT_FILES, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# A run ends within this many seconds whatever happens; children are killed past it.
RUN_DEADLINE_S = 170.0
SETUP_REPS = 5  # generate runs per run; setup_s is their median
# The spec'd formats, written out here so that a change in the program shows up
# as a failed check rather than silently changing what is checked.
SUMMARY_COLUMNS = ("method", "lambda", "rho", "N", "iterations", "final_objective",
                   "nmse", "precision", "recall", "wall_seconds", "status")
TRACE_HEADER = "iter,objective,primal_residual,dual_residual,elapsed_seconds"

# Metrics printed for every end-to-end run: name -> unit (lower is better for all).
E2E_REPORT = {
    "setup_s": "s", "solve_admm_s": "s", "solve_fista_s": "s", "solve_pinv_s": "s",
    "compare_s": "s", "admm_iter_ms": "ms", "fista_iter_ms": "ms",
    "admm_iters_to_cert": "count", "admm_s_to_cert": "s",
    "fista_iters_to_cert": "count", "fista_s_to_cert": "s",
    "admm_kkt_rel": "ratio", "fista_kkt_rel": "ratio",
    "admm_peak_rss_mb": "MB", "ops_failed_frac": "ratio",
    "solve_s": "s", "solve_cpu_s": "s", "peak_rss_mb": "MB",
}
# The subset every workload yields, gated by BENCHMARK.json.
# Wall times on a shared VM include the time the hypervisor gives to other
# guests, so the solve phase is gated on the CPU time of its children.
E2E_GATED = {"setup_s": "s", "solve_cpu_s": "s", "peak_rss_mb": "MB"}


class OutOfTime(Exception):
    """The run deadline came before a command could start."""


class Run:
    """State of one benchmark run: work directory, check ledger, child results."""

    def __init__(self, workload, seed, work, deadline):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.out = work / "out"
        self.deadline = deadline
        self.checks = Checks()
        self.children = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = work / "stderr.log"
        self.h = self.g = None
        self.input_digests = {}
        shutil.rmtree(work, ignore_errors=True)
        self.out.mkdir(parents=True)

    def write_config(self, **budgets):
        path = self.work / "config.json"
        path.write_text(json.dumps(self.workload.config(self.seed, self.out, **budgets)))
        return str(path)

    def cli(self, *args):
        """One ``cradmm`` command as a child process; its exit code is one check."""
        remaining = self.deadline - time.monotonic()
        if remaining < 1.0:
            raise OutOfTime(f"run deadline reached before `cradmm {' '.join(args)}`")
        if self.workload.workers:
            args = (*args, "--workers", str(self.workload.workers))
        result = run_child([sys.executable, "-m", "cradmm", *args], self.env, self.log, remaining)
        self.children.append(result)
        self.checks.check(result.returncode == 0 and not result.timed_out,
                          f"cradmm {' '.join(args)}: exit {result.returncode}")
        return result

    def clean_outputs(self):
        """Remove every solver output so each check sees only the latest command's files."""
        for path in self.out.iterdir():
            if path.name not in INPUT_FILES and path.name != "manifest.json":
                path.unlink()

    def generate(self, reps):
        """Run ``generate`` ``reps`` times; check the inputs read back and repeat bit-exactly."""
        cfg = self.write_config()
        seconds, digests = [], []
        for _ in range(reps):
            seconds.append(self.cli("generate", "--config", cfg).seconds)
            digests.append(self.checks.attempt("generated inputs", self._read_inputs))
        self.checks.check(all(d == digests[0] for d in digests),
                          "generate gave different inputs for one seed")
        self.input_digests = digests[0] or {}
        return seconds

    def _read_inputs(self):
        from cradmm import fileio

        wl = self.workload
        self.h = fileio.read_matrix(self.out / "H.cmat")
        self.g = fileio.read_vector(self.out / "g.cvec")
        u_true = fileio.read_vector(self.out / "u_true.cvec")
        if self.h.shape != (wl.n_rows, wl.n_voxels) or self.g.shape != (wl.n_rows,):
            raise ValueError(f"inputs have shapes H {self.h.shape}, g {self.g.shape}")
        if u_true.shape != (wl.n_voxels,) or not np.any(u_true):
            raise ValueError("u_true is empty or has the wrong length")
        manifest = json.loads((self.out / "manifest.json").read_text())
        if manifest["config"]["scenario"]["rng_seed"] != self.seed:
            raise ValueError("manifest does not echo the seed")
        return {name: file_digest(self.out / name) for name in INPUT_FILES}

    def check_solve(self, tag, rows):
        """Check one solve's outputs; returns (estimate, digest, trace elapsed column)."""
        est = self.checks.attempt(f"estimate_{tag}.cvec", self._read_estimate, tag)
        elapsed = None
        if rows is not None:
            elapsed = self.checks.attempt(f"trace_{tag}.csv", self._read_trace, tag, rows)
        nx, ny, nz = self.workload.grid
        for view, shape in (("top", (ny, nx)), ("front", (nz, nx)), ("side", (nz, ny))):
            self.checks.attempt(f"{tag}_{view}.pgm", self._read_view, f"{tag}_{view}.pgm", shape)
        self.checks.attempt(f"metrics_{tag}.json", self._read_metrics, tag, rows or 0)
        digest = file_digest(self.out / f"estimate_{tag}.cvec") if est is not None else None
        return est, digest, elapsed

    def _read_estimate(self, tag):
        from cradmm import fileio

        est = fileio.read_vector(self.out / f"estimate_{tag}.cvec")
        if est.shape != (self.workload.n_voxels,) or not np.all(np.isfinite(est)):
            raise ValueError("estimate has the wrong length or a non-finite entry")
        return est

    def _read_trace(self, tag, rows):
        from cradmm import fileio

        path = self.out / f"trace_{tag}.csv"
        with open(path, encoding="ascii") as fh:
            header = fh.readline().rstrip("\n")
        if header != TRACE_HEADER:
            raise ValueError(f"header {header!r}")
        trace = fileio.read_trace_csv(path)
        if len(trace) != rows:
            raise ValueError(f"{len(trace)} rows, budget {rows}")
        return list(trace.column("elapsed_seconds"))

    def _read_view(self, name, shape):
        got = pgm_shape(self.out / name)
        if got != shape:
            raise ValueError(f"{got[0]}x{got[1]} pixels, expected {shape[0]}x{shape[1]}")

    def _read_metrics(self, tag, rows):
        metrics = json.loads((self.out / f"metrics_{tag}.json").read_text())
        if metrics["iterations"] != rows:
            raise ValueError(f"iterations {metrics['iterations']}, budget {rows}")

    def check_summary(self, tags):
        """summary.csv: the 11 spec'd columns, one ``ok`` row per expected run."""
        lines = (self.out / "summary.csv").read_text().splitlines()
        if lines[0] != ",".join(SUMMARY_COLUMNS):
            raise ValueError(f"header {lines[0]!r}")
        rows = [dict(zip(SUMMARY_COLUMNS, line.split(","))) for line in lines[1:]]
        if len(rows) != len(tags) or any(len(line.split(",")) != len(SUMMARY_COLUMNS) for line in lines[1:]):
            raise ValueError(f"{len(rows)} rows for {len(tags)} runs")
        bad = [r for r in rows if r["status"] != "ok"]
        if bad:
            raise ValueError(f"rows not ok: {bad}")

    def kkt_rel(self, est):
        from cradmm import check_lasso_kkt

        lam = self.workload.lam
        report = check_lasso_kkt(self.h, self.g, lam, est, CERT_REL * lam)
        return max(report.max_active_violation, report.max_inactive_excess) / lam

    def same_digest(self, seen, key, digest):
        if digest is not None:
            self.checks.check(seen.setdefault(key, digest) == digest,
                              f"{key}: estimate differs between repeats of one seed")


# ---------------------------------------------------------------- end-to-end workloads


def e2e_demo_solve(run, seconds):
    """generate, then rounds of solve admm / fista / pinv at fixed budgets."""
    wl = run.workload
    report = {"setup_s": run.generate(SETUP_REPS)}
    cfg = run.write_config()
    times = {"admm": [], "fista": [], "pinv": []}
    steps = {"admm": [], "fista": []}
    rounds, cpu, kkt, seen, rss = [], [], {}, {}, []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(0.0)
        cpu.append(0.0)
        for method, rows in (("admm", wl.admm_iters), ("fista", wl.fista_iters), ("pinv", None)):
            run.clean_outputs()
            child = run.cli("solve", "--config", cfg, "--method", method)
            rounds[-1] += child.seconds
            cpu[-1] += child.cpu_seconds
            times[method].append(child.seconds)
            if method == "admm":
                rss.append(child.maxrss_mb)
            est, digest, elapsed = run.check_solve(method, rows)
            run.same_digest(seen, method, digest)
            if elapsed:
                steps[method] += step_durations(elapsed)
            if est is not None and method in steps and method not in kkt:
                kkt[method] = run.kkt_rel(est)
    report.update(solve_admm_s=times["admm"], solve_fista_s=times["fista"],
                  solve_pinv_s=times["pinv"], solve_s=rounds, solve_cpu_s=cpu,
                  admm_iter_ms=_ms(steps["admm"]), fista_iter_ms=_ms(steps["fista"]),
                  admm_peak_rss_mb=max(rss))
    report.update({f"{m}_kkt_rel": v for m, v in kkt.items()})
    return report, []


def e2e_desk_certify(run, seconds):
    """generate, then for ADMM and FISTA the iteration count at which a KKT certificate holds.

    The k-th iterate does not depend on max_iter when early stopping is off,
    so each candidate count is one ``solve`` run to exactly that budget; the
    search bisects (README.md says when that finds the first such count).
    ``seconds`` is not used: one search is the unit of work and outlasts it.
    """
    wl = run.workload
    report = {"setup_s": run.generate(SETUP_REPS), "solve_s": 0.0, "solve_cpu_s": 0.0}
    searches = []
    for method, cap in (("admm", wl.admm_iters), ("fista", wl.fista_iters)):
        probes = {}

        def passes(k, method=method, probes=probes):
            run.clean_outputs()
            child = run.cli("solve", "--config", run.write_config(admm_iters=k, fista_iters=k),
                            "--method", method)
            est, digest, elapsed = run.check_solve(method, k)
            rel = run.kkt_rel(est) if est is not None else math.inf
            probes[k] = (child, rel, digest, elapsed)
            return rel <= CERT_REL

        count = first_passing_count(passes, cap)
        child, rel, _, elapsed = probes[cap]
        report["solve_s"] += child.seconds
        report["solve_cpu_s"] += child.cpu_seconds
        report[f"{method}_iter_ms"] = _ms(step_durations(elapsed or []))
        report[f"{method}_kkt_rel"] = rel
        if method == "admm":
            report["admm_peak_rss_mb"] = child.maxrss_mb
        if count is None:
            report[f"{method}_iters_to_cert"] = report[f"{method}_s_to_cert"] = None
        else:
            # a second solve to the found count: its time is the other sample,
            # and its estimate must repeat the first bit for bit
            first, _, digest, _ = probes[count]
            run.clean_outputs()
            again = run.cli("solve", "--config", run.write_config(admm_iters=count, fista_iters=count),
                            "--method", method)
            _, digest_again, _ = run.check_solve(method, count)
            run.same_digest({method: digest}, method, digest_again)
            report[f"{method}_iters_to_cert"] = count
            report[f"{method}_s_to_cert"] = [first.seconds, again.seconds]
        searches.append({"method": method, "budget": cap, "reached": count is not None,
                         "kkt_rel_at": {k: probes[k][1] for k in sorted(probes)}})
    return report, searches


def e2e_desk_sweep(run, seconds):
    """generate, then rounds of ``compare`` over the 3 x 3 (lam, rho) sweep plus FISTA and pinv."""
    wl = run.workload
    report = {"setup_s": run.generate(SETUP_REPS)}
    cfg = run.write_config()
    # the artifact tags `compare` writes, in its row order
    tags = [(f"admm_lam{lam:g}_rho{rho:g}", wl.admm_iters) for lam, rho in wl.admm_points]
    tags += [("fista", wl.fista_iters), ("pinv", None)]
    times, cpu, steps, seen, rss = [], [], {"admm": [], "fista": []}, {}, []
    start = time.monotonic()
    while not times or time.monotonic() - start < seconds:
        run.clean_outputs()
        child = run.cli("compare", "--config", cfg)
        times.append(child.seconds)
        cpu.append(child.cpu_seconds)
        rss.append(child.maxrss_mb)
        run.checks.attempt("summary.csv", run.check_summary, tags)
        for tag, rows in tags:
            _, digest, elapsed = run.check_solve(tag, rows)
            run.same_digest(seen, tag, digest)
            if elapsed:
                steps["fista" if tag == "fista" else "admm"] += step_durations(elapsed)
    report.update(compare_s=times, solve_s=times, solve_cpu_s=cpu, admm_iter_ms=_ms(steps["admm"]),
                  fista_iter_ms=_ms(steps["fista"]), admm_peak_rss_mb=max(rss))
    return report, []


E2E = {"demo-solve": e2e_demo_solve, "desk-certify": e2e_desk_certify,
       "desk-sweep": e2e_desk_sweep}


def _ms(seconds_list):
    return [1e3 * s for s in seconds_list]


def run_e2e(run, seconds):
    """The end-to-end run: returns (every metric as printed, the gated metrics)."""
    raw, searches = E2E[run.workload.name](run, seconds)
    raw["peak_rss_mb"] = max(c.maxrss_mb for c in run.children)
    # a certificate not reached within its budget is a failed operation too
    not_reached = sum(1 for s in searches if not s["reached"])
    raw["ops_failed_frac"] = (run.checks.failed + not_reached) / (run.checks.attempted + len(searches))
    full = {}
    for name, unit in E2E_REPORT.items():
        if name not in raw:
            continue
        full[name] = _entry(raw[name], unit)
        if raw[name] is None:
            budget = run.workload.admm_iters if name.startswith("admm") else run.workload.fista_iters
            full[name]["status"] = f"not reached within budget ({budget} iterations)"
    gated = {name: {"value": full[name]["value"], "unit": unit}
             for name, unit in E2E_GATED.items() if full[name]["value"] is not None}
    full["searches"] = searches
    return full, gated


def _entry(value, unit):
    """A metric entry: a list of samples becomes its median plus their summary."""
    if isinstance(value, list):
        if not value:
            return {"value": None, "unit": unit, "n": 0}
        summary = timing_summary(value)
        return {"value": summary.pop("median"), "unit": unit, **summary}
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------- output


def print_report(title, metrics):
    """One line per metric: name, value and unit (or why there is no value), then its summary."""
    print(f"== {title}")
    for name, m in metrics.items():
        if not isinstance(m, dict) or "unit" not in m:
            continue
        if m["value"] is None:
            value = m.get("status", "n/a")
        else:
            value = f"{m['value']:.6g} {m['unit']}"
        tail = " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in m.items() if k not in ("value", "unit", "status"))
        print(f"  {name:34s} {value:>18s}  {tail}")


def one_run(workload, seed, seconds, trace):
    """One workload, traced or not; returns (record, final-line result)."""
    work = BENCH_DIR / "work" / f"{workload.name}-seed{seed}-trace{trace}"
    run = Run(workload, seed, work, time.monotonic() + RUN_DEADLINE_S)
    record = {"workload": workload.name, "seed": seed, "trace": trace, "seconds": seconds}
    gated = {}
    try:
        if trace:
            import layers

            record["per_layer"], record["tracing_overhead"] = layers.run_traced(run, seconds)
            gated = {k: {"value": v["value"], "unit": v["unit"]} for k, v in record["per_layer"].items()}
        else:
            record["end_to_end"], gated = run_e2e(run, seconds)
    except Exception:  # noqa: BLE001 - the run still reports, as a failed one
        run.checks.check(False, traceback.format_exc())
        gated = {}
    record["environment"] = environment(str(ROOT), workload.effective_workers)
    record["inputs_sha256"] = run.input_digests
    record["checks"] = {"attempted": run.checks.attempted, "failed": run.checks.failed,
                        "failures": run.checks.failures}
    (work / "result.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    result = {"correct": run.checks.failed == 0, "attempted": max(1, run.checks.attempted),
              "failed": run.checks.failed, "metrics": gated}
    return record, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer timings from the traced in-process run")
    parser.add_argument("--write", help="also write every run's full record to this JSON file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "cradmm" / "__init__.py").is_file():
        print(f"error: no cradmm source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # --workload all: every workload, untraced and then traced
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    records, results = [], []
    for name in names:
        for trace in traces:
            record, result = one_run(WORKLOADS[name], args.seed, args.seconds, trace)
            print_report(f"{name} seed {args.seed} trace {trace}",
                         record.get("end_to_end") or {**record.get("per_layer", {}),
                                                      "tracing_overhead": record.get("tracing_overhead")})
            for failure in record["checks"]["failures"]:
                print(f"  FAILED: {failure}")
            print(json.dumps({"environment": record["environment"],
                              "inputs_sha256": record["inputs_sha256"]}))
            records.append(record)
            results.append(result)
    if args.write:
        Path(args.write).write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                                                "runs": records}, indent=1, default=str) + "\n")
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({"correct": all(r["correct"] for r in results),
                          "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results), "metrics": {}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
