"""Building blocks of the cradmm benchmark: spans, timing statistics, child
processes, output checks, the certificate search and run provenance.

Only the standard library and numpy are used. Everything here is independent
of the workloads, so ``selftest.py`` can exercise it on tiny problems.
"""

import contextlib
import hashlib
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


# ---------------------------------------------------------------- statistics


def percentile(values, p):
    """Nearest-rank percentile ``p`` of ``values`` and the sample count.

    Refuses (ValueError) a percentile with fewer than MIN_TAIL_SAMPLES
    samples strictly beyond its rank, since such a tail is a handful of
    points rather than a distribution.
    """
    n = len(values)
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {p}")
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{p:g} of {n} samples leaves {n - rank} beyond it; need {MIN_TAIL_SAMPLES}"
        )
    return sorted(values)[rank - 1], n


def timing_summary(values):
    """Median, minimum and sample count, plus the highest ladder percentile with a full tail."""
    if not values:
        raise ValueError("no samples")
    out = {"median": statistics.median(values), "min": min(values), "n": len(values)}
    for p in PERCENTILE_LADDER:
        try:
            out[f"p{p:g}"], _ = percentile(values, p)
        except ValueError:
            continue
        break
    return out


def step_durations(elapsed):
    """Per-iteration durations from a cumulative ``elapsed_seconds`` column."""
    return [b - a for a, b in zip(elapsed, elapsed[1:])]


# ---------------------------------------------------------------- tracing


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: object  # span_id of the enclosing span, or None at the root
    trace_id: str


class Tracer:
    """Records one span per ``with tracer.span(name)`` block, in memory.

    All spans of a run share ``trace_id``. A disabled tracer records nothing,
    so the same code path gives the untraced comparison run.
    """

    def __init__(self, trace_id, enabled=True):
        self.trace_id = trace_id
        self.enabled = enabled
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), math.nan, span_id, parent, self.trace_id)
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def self_times(self):
        """Self time of every span: its duration less the part its children cover."""
        children = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        return {s.span_id: self_time(s, children.get(s.span_id, ())) for s in self.spans}

    def dump(self, path):
        """Write the recorded spans as JSON (called once, when the run ends)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.__dict__ for s in self.spans], fh)
            fh.write("\n")


def self_time(span, children):
    """Duration of ``span`` minus the union of its children's intervals inside it."""
    covered = 0.0
    cursor = span.start
    for c in sorted(children, key=lambda c: c.start):
        lo = max(c.start, cursor)
        hi = min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (span.end - span.start) - covered


# ---------------------------------------------------------------- child processes


SPAWN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spawn.py")


@dataclass
class ChildResult:
    returncode: int
    seconds: float  # wall time
    cpu_seconds: float  # user + system time of the child and its threads
    maxrss_mb: float
    timed_out: bool


def run_child(argv, env, log_path, timeout):
    """Run ``argv`` to completion through spawn.py; wall and CPU time, exit code, peak RSS.

    The child's stdout is discarded and its stderr goes to ``log_path``. If
    it is still running after ``timeout`` seconds, its process group is
    killed, and every process in it is still waited for.
    """
    wrapper = [sys.executable, SPAWN, *argv]
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(wrapper, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=log, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return ChildResult(-signal.SIGKILL, timeout, 0.0, 0.0, True)
    # the command's own stdout shares the pipe; spawn.py's report is the last line
    report = json.loads(out.decode().strip().splitlines()[-1])
    return ChildResult(report["returncode"], report["seconds"], report["cpu_seconds"],
                       report["maxrss_mb"], False)


# ---------------------------------------------------------------- checks


@dataclass
class Checks:
    """Ledger of output checks; each check is one attempted operation."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def attempt(self, what, fn, *args):
        """Run ``fn(*args)`` as one check; an exception counts as its failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - any failure of a check is recorded
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    @property
    def failed(self):
        return len(self.failures)


def pgm_shape(path):
    """(height, width) of a 16-bit binary PGM whose payload length matches its header."""
    with open(path, "rb") as fh:
        raw = fh.read()
    match = re.match(rb"P5\n(\d+) (\d+)\n65535\n", raw)
    if match is None:
        raise ValueError(f"{path}: not a 16-bit P5 header")
    width, height = int(match.group(1)), int(match.group(2))
    if len(raw) - match.end() != 2 * width * height:
        raise ValueError(f"{path}: payload is not {width}x{height} 16-bit samples")
    return height, width


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------- certificate search


def first_passing_count(passes, cap):
    """Smallest iteration count k in [1, cap] with ``passes(k)``, or None.

    ``passes(cap)`` is tried first; if it fails the certificate is not
    reached within the budget and nothing else is run. Otherwise a bisection
    over [1, cap] assumes that once the certificate holds it keeps holding,
    which ``selftest.py`` checks against a brute-force scan.
    """
    if not passes(cap):
        return None
    lo, hi = 0, cap  # invariant: lo fails (0 = no iterations), hi passes
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------- provenance


def git_commit(root):
    """Commit of a git checkout at ``root`` read from .git, or None outside git."""
    git = os.path.join(root, ".git")

    def read(*parts):
        with open(os.path.join(git, *parts), encoding="ascii") as fh:
            return fh.read()

    try:
        head = read("HEAD").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            return read(ref).strip()
        for line in read("packed-refs").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root, workers):
    """numpy/BLAS, CPU and thread settings, Python and commit of this run."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = {
        key: {"name": deps.get(key, {}).get("name"), "version": deps.get(key, {}).get("version")}
        for key in ("blas", "lapack")
    }
    return {
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "workers": workers,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(root),
    }
