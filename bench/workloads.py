"""The three benchmark workloads. Each is generated from the run's seed, which
sets the scenario's ``rng_seed`` and the ``noise_seed``. README.md says why
each one exists and which layers it stresses."""

import os
from dataclasses import dataclass

CERT_REL = 1e-2  # certificate: KKT violation <= CERT_REL * lam
SNR_DB = 30.0
N_BLOCKS = 31
INPUT_FILES = ("H.cmat", "g.cvec", "u_true.cvec")  # what `cradmm generate` writes

DEMO_TARGETS = [  # the four-box phantom of acceptance criterion 4
    {"box": [[10, 12], [10, 12], [2, 3]], "amplitude": [1.0, 0.0]},
    {"box": [[30, 32], [35, 37], [5, 6]], "amplitude": [1.0, 0.0]},
    {"box": [[20, 22], [40, 42], [7, 8]], "amplitude": [1.0, 0.0]},
    {"box": [[40, 42], [15, 17], [3, 4]], "amplitude": [1.0, 0.0]},
]
DESK_SCENARIO = {"n_theta": 31, "n_freq": 3, "grid": [25, 25, 4], "roi_extent": [36.0, 36.0, 6.0]}
DESK_TARGETS = [  # DESK_TARGETS of the acceptance suite
    {"box": [[4, 6], [4, 6], [1, 2]], "amplitude": [1.0, 0.0]},
    {"box": [[16, 18], [6, 8], [2, 3]], "amplitude": [1.0, 0.0]},
    {"box": [[7, 9], [17, 19], [0, 1]], "amplitude": [1.0, 0.0]},
    {"box": [[18, 20], [18, 20], [3, 4]], "amplitude": [1.0, 0.0]},
]
SWEEP = {"lambda": [0.1, 1.0, 10.0], "rho": [0.1, 1.0, 10.0]}


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: dict  # ScenarioConfig fields; rng_seed and snr_db are added per run
    targets: list
    lam: float
    rho: float
    admm_iters: int  # fixed budget; on desk-certify, the certificate search budget
    fista_iters: int
    trace_admm_iters: int  # budgets of the traced in-process pass
    trace_fista_iters: int
    sweep: dict = None
    workers: int = None  # --workers for every command; None keeps the CLI default

    @property
    def effective_workers(self):
        return self.workers or os.cpu_count() or 1

    @property
    def grid(self):
        return tuple(self.scenario.get("grid", (50, 50, 10)))

    @property
    def n_voxels(self):
        nx, ny, nz = self.grid
        return nx * ny * nz

    @property
    def n_rows(self):
        return self.scenario.get("n_theta", 31) * self.scenario.get("n_freq", 3)

    @property
    def admm_points(self):
        """The (lam, rho) pairs one ADMM pass runs: the sweep, or the single pair."""
        if self.sweep:
            return [(lam, rho) for lam in self.sweep["lambda"] for rho in self.sweep["rho"]]
        return [(self.lam, self.rho)]

    def config(self, seed, output_dir, admm_iters=None, fista_iters=None):
        """The experiment config the CLI reads. Early stopping is off: budgets are exact."""
        cfg = {
            "scenario": dict(self.scenario, rng_seed=seed, snr_db=SNR_DB),
            "targets": self.targets,
            "admm": {"lambda": self.lam, "rho": self.rho, "n_blocks": N_BLOCKS,
                     "max_iter": admm_iters or self.admm_iters, "eps_abs": 0.0, "eps_rel": 0.0},
            "fista": {"lambda": self.lam, "max_iter": fista_iters or self.fista_iters, "tol": 0.0},
            "output_dir": str(output_dir),
            "noise_seed": seed,
        }
        if self.sweep:
            cfg["sweep"] = self.sweep
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        Workload("demo-solve", {}, DEMO_TARGETS, lam=0.01, rho=1.0, admm_iters=50,
                 fista_iters=100, trace_admm_iters=20, trace_fista_iters=40),
        # One worker at desk scale: with 2500 unknowns a block update takes
        # microseconds, so a second worker only adds GIL hand-offs, whose cost
        # swings with the load of the host (and doubles the wall time).
        Workload("desk-certify", DESK_SCENARIO, DESK_TARGETS, lam=1.0, rho=1.0, admm_iters=1600,
                 fista_iters=3200, trace_admm_iters=200, trace_fista_iters=400, workers=1),
        Workload("desk-sweep", DESK_SCENARIO, DESK_TARGETS, lam=1.0, rho=1.0, admm_iters=50,
                 fista_iters=50, trace_admm_iters=50, trace_fista_iters=50, sweep=SWEEP, workers=1),
    )
}
