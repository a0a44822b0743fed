"""Benchmark workloads: which cases run, and why.

Every workload is a closed loop: one caller runs its cases in order and
waits for each `run_trials` call (and the CSV write after it) to return
before starting the next. All cases are seeded from the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

# criterion 11's desk-scale hyperparameters
SYN = dict(sigma0=1e-3, rho0=1e-4)
SYN_PENALTY = dict(SYN, gamma0=1.0, eps0=1.0, lambda0=10.0)


@dataclass(frozen=True)
class Case:
    """One `run_trials` call followed by one `write_run_csv` call.

    record_every=None records only the last u-iteration of each trial.
    """

    problem: str
    solver: str
    cfg: dict
    trials: int
    pparams: dict = field(default_factory=dict)
    record_every: Optional[int] = None

    @property
    def K(self) -> int:
        return self.cfg["K"]

    @property
    def T(self) -> int:
        return self.cfg["T"]

    @property
    def uiters(self) -> int:
        """Trial-u-iterations the case performs."""
        return self.K * self.trials

    @property
    def id(self) -> str:
        dims = "".join(f"_{k}{v}" for k, v in sorted(self.pparams.items()))
        return f"{self.problem}{dims}_{self.solver}_T{self.T}_B{self.trials}"

    def with_k_max(self, k_max: int) -> "Case":
        cfg = dict(self.cfg, K=min(self.K, k_max))
        rec = self.record_every
        return Case(self.problem, self.solver, cfg, self.trials,
                    self.pparams, None if rec is None else min(rec, cfg["K"]))


def _cfg(solver, **kw):
    return dict(SYN_PENALTY if solver == "penalty" else SYN, **kw)


def desk_cases():
    # criterion 11's grid plus GD; K cut from 2000 to 100 so one pass of
    # all 32 cases takes under 2 s on one core
    return [Case(prob, solver, _cfg(solver, K=100, T=T), trials=10)
            for T in (5, 10)
            for prob in ("example1", "example2", "example3", "example4")
            for solver in ("penalty", "rmd", "approxgrad", "gd")]


# K per dim: enough u-iterations at dim 512 that the solve, not the
# factory's projector set-up, dominates each case
ORACLE_BOUND_K = {64: 50, 256: 12, 512: 10}


def oracle_bound_cases():
    return [Case("example3", solver, _cfg(solver, K=K, T=10), trials=10,
                 pparams={"dim": dim})
            for dim, K in ORACLE_BOUND_K.items()
            for solver in ("penalty", "rmd", "approxgrad", "gd")]


def curves_cases():
    ex1 = [Case("example1", solver, _cfg(solver, K=100, T=10), trials=20,
                record_every=1)
           for solver in ("penalty", "rmd", "approxgrad", "gd")]
    return ex1 + [
        Case("example1", "fmd", _cfg("fmd", K=100, T=10), trials=2,
             record_every=1),
        # criterion 07-09 hyperparameters, K cut to keep the pass short
        Case("constrained_toy", "penalty",
             dict(K=100, T=10, sigma0=1e-3, rho0=1e-3, gamma0=1.0, eps0=1.0,
                  lambda0=0.0), trials=2, record_every=1),
        Case("importance_toy", "penalty_plain",
             dict(K=50, T=20, sigma0=0.05, rho0=0.01, gamma0=300.0,
                  eps0=1.0), trials=1, record_every=1),
        Case("poison_toy", "penalty",
             dict(K=50, T=20, sigma0=0.1, rho0=0.01, gamma0=10.0, eps0=1.0,
                  lambda0=1.0), trials=1, record_every=1),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    cases: list
    why: str
    stresses: tuple
    bypasses: tuple
    # calibration kernel bound by the same resource as the cases
    calibration: str
    # case-id predicate per group whose layer split the traced pass reports
    groups: dict


WORKLOADS = {
    "desk": Workload(
        "desk", desk_cases(),
        why="Criterion 11's dim-10 batch-10 grid plus GD: the step-overhead "
            "regime behind xfail 11b and ROADMAP item 3. Measured on the "
            "penalty cases: stepper 33% and penalty assembly 14% of traced "
            "wall (together the largest block, short of the majority "
            "predicted), oracle callbacks 23%, driver 13%.",
        stresses=("core.stepper_step", "core.project_box",
                  "oracle.penalty_grad_*", "solvers.attach_counters",
                  "solvers.driver", "solvers.rmd/approxgrad_hypergrad"),
        bypasses=("per-iteration recording", "CSV volume",
                  "expensive oracle callbacks", "slackify", "dense path"),
        calibration="interpreter",
        groups={"penalty": lambda c: c.solver == "penalty"}),
    "oracle_bound": Workload(
        "oracle_bound", oracle_bound_cases(),
        why="example3 at dim 64/256/512 (batched A of 0.16/2.5/10 MiB "
            "against a 2 MiB L2 and 105 MiB L3): where the paper's "
            "call-count claim should turn into wall time. Measured at dim "
            "512: oracle callbacks 59% of traced wall, the factory (A and "
            "its row-space projector) 34%, stepper 3%.",
        stresses=("problems.* einsum callbacks", "problems.factory"),
        bypasses=("step overhead (under 10% at dim 512)",
                  "per-iteration recording", "CSV volume", "slackify",
                  "dense path"),
        calibration="mixed",
        groups={"dim512": lambda c: c.pparams.get("dim") == 512}),
    "curves": Workload(
        "curves", curves_cases(),
        why="Every u-iteration recorded and every run CSV written, on the "
            "single-point, slack and dense paths desk never takes. "
            "Measured on example1: CSV writer 32% and recorder 11% of "
            "traced wall.",
        stresses=("solvers.recorder", "bench.write_run_csv", "oracle.slackify",
                  "solvers.fmd_hypergrad", "single-point (unbatched) path"),
        bypasses=("large batched oracle callbacks",),
        calibration="interpreter",
        groups={"example1": lambda c: c.problem == "example1"}),
}
