"""Bilevel solvers with oracle-call instrumentation.

- penalty_solve: alternating minimization of the penalized objective with
  the gamma/eps tolerance schedule.
- penalty_aug_solve: same loop plus lower-cost regularization lambda_k and
  the method-of-multipliers term nu.
- gd_alternating: naive alternating descent baseline.
- rmd_hypergrad / fmd_hypergrad / approxgrad_hypergrad: hypergradient
  estimators (reverse-mode, forward-mode, iterative linear solve), driven
  by outer_loop for full runs.

Every solver runs the same u-iteration loop, ``_drive``. It owns the
p0 sampling, batching, oracle counters, the u-stepper and box projection,
the recorder and the numeric-abort path. A method supplies two callbacks:

- ``step(u, v) -> (du, v, gv_sq)``: the method's lower-level work and its
  u-direction. gv_sq is the per-trial |grad_v|^2 of the method's own
  v-steps, or None for the estimators; the driver then measures
  |grad_v g|^2 with the uncounted oracle when a row is due.
- ``schedule(u, v, tol_sq) -> (gamma, eps, lam)``: called after the
  u-step with tol_sq = |du|^2 (+ gv_sq). The penalty methods advance their
  gamma/eps/lambda/nu schedule here; the other solvers return NaN columns.

The driver and the callbacks look up stepper_step, project_box, the
penalty gradients, the estimators, attach_counters and _Recorder as module
globals at call time, so a timing harness can wrap them in place. The box
clamps each stepper output in place (``out=``), since a step always
returns a fresh array.

All solvers accept either a single point (u: (U,), v: (V,)) or a lockstep
batch of independent trials (u: (B, U), v: (B, V)); per-trial penalty
schedules are tracked as arrays, so one python-level loop serves every
trial. Oracle-call counters tally the algorithm's own calls; diagnostic
evaluations made to fill the trace are excluded.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import (BoxBounds, StepperState, make_stepper, project_box,
                   stepper_step)
from .errors import CapabilityError, ContractViolationError, NumericError
from .oracle import (PenaltyParams, Point, ProblemOracle, penalty_grad_u,
                     penalty_grad_v, sample_in_box, sqnorm)


@dataclass
class OracleCounters:
    """Per-run tallies of oracle calls plus peak stored trajectory length.

    peak_stored_vecs counts simultaneously retained V-dim trajectory /
    persistent-state vectors including the current iterate v (optimizer
    moments and per-step temporaries excluded): 1 for the penalty and GD
    loops, 2 for ApproxGrad (v and the warm-started q), T+1 for RMD's
    stored forward trajectory, U+1 for FMD (the U-by-V sensitivity matrix
    counted as U row vectors, plus v).
    """

    n_f: int = 0
    n_g: int = 0
    n_grad_u_f: int = 0
    n_grad_v_f: int = 0
    n_grad_v_g: int = 0
    n_hvp: int = 0
    n_jvp: int = 0
    n_dense_hess: int = 0
    n_dense_jac: int = 0
    peak_stored_vecs: int = 0

    def record_stored(self, n: int):
        self.peak_stored_vecs = max(self.peak_stored_vecs, int(n))

    def second_order_calls(self) -> int:
        return self.n_hvp + self.n_jvp + self.n_dense_hess + self.n_dense_jac

    def snapshot(self) -> dict:
        return dict(self.__dict__)


def attach_counters(oracle: ProblemOracle,
                    counters: OracleCounters) -> ProblemOracle:
    """Counting view of an oracle; the original is untouched."""
    tally = counters.__dict__

    def cf(fn, name):
        def wrapped(*args):
            tally[name] += 1
            return fn(*args)
        return wrapped

    kw = dict(
        eval_f=cf(oracle.eval_f, "n_f"),
        eval_g=cf(oracle.eval_g, "n_g"),
        grad_u_f=cf(oracle.grad_u_f, "n_grad_u_f"),
        grad_v_f=cf(oracle.grad_v_f, "n_grad_v_f"),
        grad_v_g=cf(oracle.grad_v_g, "n_grad_v_g"),
        hvp_vv_g=cf(oracle.hvp_vv_g, "n_hvp"),
        jvp_uv_g=cf(oracle.jvp_uv_g, "n_jvp"),
    )
    if oracle.hess_vv_g is not None:
        kw["hess_vv_g"] = cf(oracle.hess_vv_g, "n_dense_hess")
    if oracle.jac_uv_g is not None:
        kw["jac_uv_g"] = cf(oracle.jac_uv_g, "n_dense_jac")
    return replace(oracle, **kw)


# the float fields of PenaltyConfig, each of which must be finite
FLOAT_KEYS = ("sigma0", "rho0", "gamma0", "eps0", "lambda0", "nu0",
              "c_gamma", "c_eps", "c_lambda", "approx_reg")


@dataclass
class PenaltyConfig:
    """Solver hyperparameters; defaults follow the synthetic protocol."""

    K: int = 1000
    T: int = 10
    sigma0: float = 1e-3
    rho0: float = 1e-4
    gamma0: float = 1.0
    eps0: float = 1.0
    lambda0: float = 10.0
    nu0: float = 0.0
    c_gamma: float = 1.1
    c_eps: float = 0.9
    c_lambda: float = 0.9
    # u-steps allowed per tolerance phase before the schedule advances
    # anyway; effectively uncapped by default (a tight cap lets gamma
    # outrun what float64 can represent in the v-gradient balance).
    while_cap: int = 10**6
    stepper: str = "adam"
    # box and seed belong to the problem and trial, not to a config file;
    # seed only draws p0 for a solver called without one
    box: Optional[BoxBounds] = None
    seed: int = 0
    approx_reg: float = 0.0          # ridge on the ApproxGrad linear system

    def __post_init__(self):
        if self.K < 1 or self.T < 1:
            raise ContractViolationError("K and T must be >= 1")
        for key in ("sigma0", "rho0", "gamma0", "eps0"):
            # `not > 0` also rejects NaN
            if not getattr(self, key) > 0:
                raise ContractViolationError(
                    f"{key} must be positive, got {getattr(self, key)!r}")
        for key in FLOAT_KEYS:
            if not math.isfinite(getattr(self, key)):
                raise ContractViolationError(
                    f"{key} must be finite, got {getattr(self, key)!r}")
        if self.c_gamma < 1.0:
            raise ContractViolationError("c_gamma must be >= 1")
        if not (0.0 < self.c_eps <= 1.0 and 0.0 < self.c_lambda <= 1.0):
            raise ContractViolationError("c_eps, c_lambda must be in (0, 1]")
        if self.while_cap < 1:
            raise ContractViolationError("while_cap must be >= 1")
        if self.stepper not in ("adam", "plain-gd"):
            raise ContractViolationError(f"unknown stepper {self.stepper!r}")
        if self.lambda0 < 0 or self.approx_reg < 0:
            raise ContractViolationError("lambda0, approx_reg must be >= 0")


@dataclass(slots=True)
class TraceRow:
    """One recorded u-iteration of a run."""

    k: int
    gamma: float
    eps: float
    lam: float
    f: float
    g: float
    grad_u_norm: float
    grad_v_norm: float
    feas_norm: float
    distance: float
    wall_seconds: float
    n_hvp: int
    n_jvp: int
    peak_stored_vecs: int


@dataclass
class SolverTrace:
    rows: list = field(default_factory=list)

    def __len__(self):
        return len(self.rows)

    @property
    def final(self) -> TraceRow:
        return self.rows[-1]

    def column(self, name) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


def traces_equal(a: SolverTrace, b: SolverTrace) -> bool:
    """Bitwise equality of two traces, timing columns excluded."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a.rows, b.rows):
        for name in ra.__dataclass_fields__:
            if name == "wall_seconds":
                continue
            va, vb = getattr(ra, name), getattr(rb, name)
            if va != vb and not (np.isnan(va) and np.isnan(vb)):
                return False
    return True


def _batchify(p: Point):
    u = np.asarray(p.u, dtype=np.float64)
    v = np.asarray(p.v, dtype=np.float64)
    if u.ndim == 1:
        return u[None, :].copy(), v[None, :].copy(), True
    return u.copy(), v.copy(), False


def _unbatch(u, v, traces, squeeze):
    if squeeze:
        return Point(u[0], v[0]), traces[0]
    return Point(u, v), traces


class _Recorder:
    """Collects per-trial trace rows; uses the uncounted oracle.

    Each recorded u-iteration fills one (9, B) slab of a float64 buffer
    (schedule, costs, norms, distance) plus one tuple of the scalars the
    batch shares (k, wall time, counters); trace rows are built only when
    the traces are handed back.
    """

    def __init__(self, oracle, metric, counters, batch, record_every, total):
        self.oracle = oracle
        self.metric = metric
        self.counters = counters
        self.batch = batch
        self.every = max(1, record_every)
        self.total = total
        due = total // self.every + (total % self.every != 0)
        self.cols = np.empty((due, 9, batch))
        self.shared = []
        self.t0 = time.perf_counter()

    def due(self, k):
        return (k + 1) % self.every == 0 or k == self.total - 1

    def record(self, k, pt, gu_sq, gv_sq, gamma, eps, lam):
        shared = self.shared
        if not self.due(k) or (shared and shared[-1][0] == k):
            return
        o = self.oracle
        # gamma, eps, lam, f, g, |grad_u|, |grad_v|, feas, distance
        slab = self.cols[len(shared)]
        slab[0] = gamma
        slab[1] = eps
        slab[2] = lam
        slab[3] = o.eval_f(pt)
        slab[4] = o.eval_g(pt)
        slab[5] = gu_sq
        slab[6] = gv_sq
        feas_sq = sqnorm(o.grad_v_g(pt))
        if o.has_constraints:
            feas_sq = feas_sq + sqnorm(o.eval_h(pt))
        slab[7] = feas_sq
        np.sqrt(slab[5:8], out=slab[5:8])
        slab[8] = self.metric(pt) if self.metric else np.nan
        c = self.counters
        shared.append((k, (time.perf_counter() - self.t0) / self.batch,
                       c.n_hvp, c.n_jvp, c.peak_stored_vecs))

    def traces(self):
        shared = self.shared
        cols = self.cols[:len(shared)]
        # one trial's values at a time keeps the temporary lists small
        return [SolverTrace([
            TraceRow(k, ga, ep, la, f, g, gun, gvn, feas, dist, wall,
                     n_hvp, n_jvp, peak)
            for (k, wall, n_hvp, n_jvp, peak),
                (ga, ep, la, f, g, gun, gvn, feas, dist)
            in zip(shared, cols[:, :, i].tolist())])
            for i in range(self.batch)]


def _abort(message, recorder):
    err = NumericError(message)
    err.traces = recorder.traces()
    raise err


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

def _drive(oracle: ProblemOracle, cfg: PenaltyConfig, p0: Optional[Point],
           method, stored: int, metric, record_every: int,
           counters: Optional[OracleCounters]):
    """K u-iterations of one method; see the module docstring.

    ``method(alg, v)`` builds the method's step and schedule callbacks
    from the counted oracle and the batched initial v; ``stored`` is its
    peak stored-vector count. Non-finite values abort with the trace
    collected so far attached to the NumericError.
    """
    if p0 is None:
        if cfg.box is None:
            raise ContractViolationError("need p0 or a box to sample from")
        p0 = sample_in_box(oracle.dim_u, oracle.dim_v, cfg.box, cfg.seed)
    u, v, squeeze = _batchify(p0)
    oracle.check_point(Point(u, v))
    counters = counters if counters is not None else OracleCounters()
    alg = attach_counters(oracle, counters)
    counters.record_stored(stored)
    step, schedule = method(alg, v)
    st_u = make_stepper(cfg.stepper, u.shape)
    box = cfg.box
    rec = _Recorder(oracle, metric, counters, u.shape[0], record_every, cfg.K)

    for k in range(cfg.K):
        try:
            du, v, gv_sq = step(u, v)
            u = stepper_step(st_u, u, du, cfg.sigma0)
        except NumericError as exc:
            _abort(f"{exc} (u-iteration {k})", rec)
        if box is not None:
            u = project_box(u, box, out=u)
        gu_sq = sqnorm(du)
        tol_sq = gu_sq if gv_sq is None else gu_sq + gv_sq
        finite = np.isfinite(tol_sq)
        if not finite.all():
            _abort(f"non-finite gradient at u-iteration {k}, "
                   f"trial(s) {np.flatnonzero(~finite).tolist()}", rec)
        gamma, eps, lam = schedule(u, v, tol_sq)
        if rec.due(k):
            pt = Point(u, v)
            if gv_sq is None:
                gv_sq = sqnorm(oracle.grad_v_g(pt))
            rec.record(k, pt, gu_sq, gv_sq, gamma, eps, lam)

    return _unbatch(u, v, rec.traces(), squeeze)


def _nan_schedule(batch):
    """Schedule hook of the solvers without a schedule: NaN columns."""
    nan = np.full(batch, np.nan)
    return lambda u, v, tol_sq: (nan, nan, nan)


# ---------------------------------------------------------------------------
# Penalty solvers
# ---------------------------------------------------------------------------

# ceiling on the penalty weight; keeps the schedule and the v-step size
# finite in float64 on runs whose tolerance test keeps being met
GAMMA_CAP = 1e100


def _schedule_weights(cfg, gamma, lam, nu, nu_h):
    """Penalty weights and per-trial v-step sizes of one schedule phase."""
    params = PenaltyParams(gamma=gamma, lam=lam, nu=nu, nu_h=nu_h)
    # v-step size shrinks with the penalty weight so the step on the
    # gamma-scaled stationarity term stays constant; without this the
    # v iterate limit-cycles at amplitude rho0 and the u-gradient
    # inherits gamma * rho0 noise. Read-only, so the v-stepper checks it
    # once per phase rather than on every step.
    rho_k = cfg.rho0 * (cfg.gamma0 / gamma)[:, None]
    rho_k.setflags(write=False)
    return params, rho_k


def _penalty_method(oracle: ProblemOracle, cfg: PenaltyConfig, aug: bool):
    """Step and schedule callbacks of penalty_solve / penalty_aug_solve."""
    def method(alg, v):
        B = v.shape[0]
        st_v = make_stepper(cfg.stepper, v.shape)
        box = cfg.box
        gamma = np.full(B, cfg.gamma0)
        eps = np.full(B, cfg.eps0)
        if aug:
            lam = np.full(B, cfg.lambda0)
            nu = np.full((B, oracle.dim_v), cfg.nu0)
            nu_h = (np.full((B, oracle.dim_c), cfg.nu0)
                    if oracle.has_constraints else None)
        else:
            lam, nu, nu_h = 0.0, None, None
        zeros = np.zeros(B)
        phase = np.zeros(B, dtype=np.int64)
        # rebuilt only when the schedule advances
        params, rho_k = _schedule_weights(cfg, gamma, lam, nu, nu_h)

        def step(u, v):
            for _ in range(cfg.T):
                gv = penalty_grad_v(alg, Point(u, v), params)
                v = stepper_step(st_v, v, gv, rho_k)
                if box is not None:
                    v = project_box(v, box, out=v)
            return penalty_grad_u(alg, Point(u, v), params), v, sqnorm(gv)

        def schedule(u, v, tol_sq):
            nonlocal gamma, eps, lam, nu, nu_h, phase, params, rho_k
            phase += 1
            advance = (tol_sq <= eps * eps) | (phase >= cfg.while_cap)
            if advance.any():
                pt_new = Point(u, v)
                if aug:
                    gvg = alg.grad_v_g(pt_new)
                    nu = np.where(advance[:, None],
                                  nu + gamma[:, None] * gvg, nu)
                    if nu_h is not None:
                        h = alg.eval_h(pt_new)
                        nu_h = np.where(advance[:, None],
                                        nu_h + gamma[:, None] * h, nu_h)
                    lam = np.where(advance, lam * cfg.c_lambda, lam)
                gamma = np.where(advance,
                                 np.minimum(gamma * cfg.c_gamma, GAMMA_CAP),
                                 gamma)
                eps = np.where(advance, eps * cfg.c_eps, eps)
                phase = np.where(advance, 0, phase)
                params, rho_k = _schedule_weights(cfg, gamma, lam, nu, nu_h)
            return gamma, eps, lam if aug else zeros

        return step, schedule
    return method


def penalty_solve(oracle: ProblemOracle, cfg: PenaltyConfig,
                  p0: Optional[Point] = None, *, metric=None,
                  record_every: int = 1,
                  counters: Optional[OracleCounters] = None):
    """Alternating penalty minimization with the gamma/eps schedule.

    Per u-iteration: T v-steps on the penalized v-gradient, one u-step on
    the penalized u-gradient. The tolerance test reuses the gradients
    computed for those steps; once |grad_u|^2 + |grad_v|^2 <= eps_k^2 (or
    while_cap u-steps elapse) the schedule advances: gamma *= c_gamma,
    eps *= c_eps. The budget K counts total u-iterations. Exhausting
    while_cap is not an error; non-finite gradients abort with the trace
    collected so far attached to the exception.
    """
    return _drive(oracle, cfg, p0, _penalty_method(oracle, cfg, aug=False),
                  1, metric, record_every, counters)


def penalty_aug_solve(oracle: ProblemOracle, cfg: PenaltyConfig,
                      p0: Optional[Point] = None, *, metric=None,
                      record_every: int = 1,
                      counters: Optional[OracleCounters] = None):
    """Penalty loop with regularization and multiplier terms.

    The v-gradient gains hess_vv_g . nu + lambda_k grad_v_g, the
    u-gradient gains the matching mixed term; per schedule advance,
    lambda *= c_lambda and nu += gamma_k grad_v_g (method of multipliers;
    nu_h is updated the same way when constraints are present). With
    lambda0 = nu0 = 0 the iterates coincide bit-for-bit with
    penalty_solve.
    """
    return _drive(oracle, cfg, p0, _penalty_method(oracle, cfg, aug=True),
                  1, metric, record_every, counters)


# ---------------------------------------------------------------------------
# Alternating gradient descent baseline
# ---------------------------------------------------------------------------

def gd_alternating(oracle: ProblemOracle, cfg: PenaltyConfig,
                   p0: Optional[Point] = None, *, metric=None,
                   record_every: int = 1,
                   counters: Optional[OracleCounters] = None):
    """T v-steps on grad_v g then one u-step on grad_u f, K times.

    Uses no second-order oracle at all; converges only where the bilevel
    solution happens to be a stationary point of the naive dynamics.
    """
    def method(alg, v):
        st_v = make_stepper(cfg.stepper, v.shape)
        box = cfg.box

        def step(u, v):
            for _ in range(cfg.T):
                gv = alg.grad_v_g(Point(u, v))
                v = stepper_step(st_v, v, gv, cfg.rho0)
                if box is not None:
                    v = project_box(v, box, out=v)
            return alg.grad_u_f(Point(u, v)), v, sqnorm(gv)

        return step, _nan_schedule(v.shape[0])

    return _drive(oracle, cfg, p0, method, 1, metric, record_every, counters)


# ---------------------------------------------------------------------------
# Hypergradient estimators
# ---------------------------------------------------------------------------

def _require_unconstrained(oracle, who):
    if oracle.has_constraints:
        raise ContractViolationError(
            f"{who} handles unconstrained problems only (h must be absent)")


def rmd_hypergrad(oracle: ProblemOracle, u: np.ndarray, v0: np.ndarray,
                  T: int, rho: float,
                  counters: Optional[OracleCounters] = None):
    """Reverse-mode differentiation through T unrolled plain-GD v-steps.

    Forward: v_{t+1} = v_t - rho grad_v g (trajectory stored). Backward:
    q <- grad_v f, p <- grad_u f at v_T, then for t = T..1
    p <- p - rho jvp(q), q <- q - rho hvp(q), both evaluated at v_{t-1}.
    Returns (p, v_T). Stores T+1 trajectory vectors and uses exactly T
    hvp and T jvp calls.
    """
    _require_unconstrained(oracle, "rmd_hypergrad")
    if T < 1:
        raise ContractViolationError("T must be >= 1")
    if not rho > 0:
        raise ContractViolationError("rho must be positive")
    alg = attach_counters(oracle, counters) if counters is not None else oracle
    if counters is not None:
        counters.record_stored(T + 1)
    v = np.asarray(v0, dtype=np.float64)
    traj = np.empty((T + 1,) + v.shape)
    traj[0] = v
    for t in range(T):
        v = v - rho * alg.grad_v_g(Point(u, v))
        traj[t + 1] = v
    pt_T = Point(u, v)
    q = alg.grad_v_f(pt_T)
    p = alg.grad_u_f(pt_T)
    for t in range(T - 1, -1, -1):
        pt = Point(u, traj[t])
        p = p - rho * alg.jvp_uv_g(pt, q)
        q = q - rho * alg.hvp_vv_g(pt, q)
    if not np.isfinite(p).all():
        raise NumericError("non-finite reverse-mode hypergradient")
    return p, v


def fmd_hypergrad(oracle: ProblemOracle, u: np.ndarray, v0: np.ndarray,
                  T: int, rho: float,
                  counters: Optional[OracleCounters] = None):
    """Forward-mode differentiation through T unrolled plain-GD v-steps.

    Maintains the dense U-by-V sensitivity P via
    P <- P (I - rho H) - rho J with dense H, J at each step; the result
    is grad_u f + P grad_v f at v_T. Needs the dense capability and is
    gated to U * V <= 1e6; single (unbatched) points only.
    """
    oracle.require_dense("fmd_hypergrad")
    _require_unconstrained(oracle, "fmd_hypergrad")
    if T < 1:
        raise ContractViolationError("T must be >= 1")
    if np.ndim(u) != 1:
        raise ContractViolationError("fmd_hypergrad is single-point only")
    if oracle.dim_u * oracle.dim_v > 10**6:
        raise CapabilityError("dense sensitivity would exceed 1e6 entries")
    alg = attach_counters(oracle, counters) if counters is not None else oracle
    if counters is not None:
        counters.record_stored(oracle.dim_u + 1)
    v = np.asarray(v0, dtype=np.float64)
    P = np.zeros((oracle.dim_u, oracle.dim_v))
    eye = np.eye(oracle.dim_v)
    for _ in range(T):
        pt = Point(u, v)
        A = eye - rho * alg.hess_vv_g(pt)
        Bm = -rho * alg.jac_uv_g(pt)
        P = P @ A + Bm
        v = v - rho * alg.grad_v_g(pt)
    pt_T = Point(u, v)
    hg = alg.grad_u_f(pt_T) + P @ alg.grad_v_f(pt_T)
    if not np.isfinite(hg).all():
        raise NumericError("non-finite forward-mode hypergradient")
    return hg, v


def approxgrad_hypergrad(oracle: ProblemOracle, u: np.ndarray,
                         v0: np.ndarray, T_v: int, T_lin: int, rho: float,
                         reg_lambda: float = 0.0, *,
                         q0: Optional[np.ndarray] = None,
                         lin_solver: str = "adam",
                         v_stepper: Optional[StepperState] = None,
                         q_stepper: Optional[StepperState] = None,
                         counters: Optional[OracleCounters] = None):
    """Hypergradient via an approximate solve of H q = grad_v f.

    T_v v-steps descend g at step rho (plain GD, or the given stepper
    state); then T_lin iterations reduce |(H + reg I) q - grad_v f|^2
    from q0 (default 0): per iteration r = (H + reg I) q - b, step along
    (H + reg I) r at rho, costing exactly two hvp calls. The returned
    hypergradient is grad_u f - jvp(q); v and q are returned for warm
    starts. lin_solver "dense" solves the regularized system directly
    instead (single points only).
    """
    _require_unconstrained(oracle, "approxgrad_hypergrad")
    if T_v < 1 or T_lin < 1:
        raise ContractViolationError("T_v and T_lin must be >= 1")
    if reg_lambda < 0:
        raise ContractViolationError("reg_lambda must be >= 0")
    alg = attach_counters(oracle, counters) if counters is not None else oracle
    if counters is not None:
        counters.record_stored(2)
    v = np.asarray(v0, dtype=np.float64)
    for _ in range(T_v):
        gv = alg.grad_v_g(Point(u, v))
        v = (v - rho * gv if v_stepper is None
             else stepper_step(v_stepper, v, gv, rho))
    pt = Point(u, v)
    b = alg.grad_v_f(pt)
    q = (np.zeros_like(v) if q0 is None
         else np.asarray(q0, dtype=np.float64))

    if lin_solver == "adam":
        for _ in range(T_lin):
            r = alg.hvp_vv_g(pt, q) + reg_lambda * q - b
            gq = alg.hvp_vv_g(pt, r) + reg_lambda * r
            q = (q - rho * gq if q_stepper is None
                 else stepper_step(q_stepper, q, gq, rho))
    elif lin_solver == "dense":
        oracle.require_dense("approxgrad dense solve")
        if np.ndim(u) != 1:
            raise ContractViolationError("dense solve is single-point only")
        H = alg.hess_vv_g(pt) + reg_lambda * np.eye(oracle.dim_v)
        q = np.linalg.solve(H, b)
    else:
        raise ContractViolationError(f"unknown lin_solver {lin_solver!r}")

    hg = alg.grad_u_f(pt) - alg.jvp_uv_g(pt, q)
    if not np.isfinite(hg).all():
        raise NumericError("non-finite approximate hypergradient")
    return hg, v, q


ESTIMATORS = ("rmd", "fmd", "approxgrad")


def outer_loop(oracle: ProblemOracle, estimator: str, cfg: PenaltyConfig,
               p0: Optional[Point] = None, *, metric=None,
               record_every: int = 1,
               counters: Optional[OracleCounters] = None):
    """K u-updates driven by a hypergradient estimator.

    v (and ApproxGrad's q) warm-start across iterations; q is zero only
    at run start. RMD/FMD unroll plain GD at rho0; ApproxGrad uses the
    configured stepper (Adam by default) at rho0 for both the v-steps and
    the T linear-system iterations, with ridge cfg.approx_reg. The u-step
    uses the configured stepper at sigma0 and box projection if set.
    """
    if estimator not in ESTIMATORS:
        raise ContractViolationError(
            f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    _require_unconstrained(oracle, f"outer_loop({estimator})")
    if estimator == "fmd":
        oracle.require_dense("outer_loop(fmd)")

    def method(alg, v):
        if estimator == "rmd":
            def step(u, v):
                hg, v = rmd_hypergrad(alg, u, v, cfg.T, cfg.rho0)
                return hg, v, None
        elif estimator == "fmd":
            if v.shape[0] != 1:
                raise ContractViolationError("fmd runs unbatched")

            def step(u, v):
                hg, v = fmd_hypergrad(alg, u[0], v[0], cfg.T, cfg.rho0)
                return hg[None, :], v[None, :], None
        else:
            q = np.zeros_like(v)
            st_v = st_q = None
            if cfg.stepper == "adam":
                st_v = make_stepper("adam", v.shape)
                st_q = make_stepper("adam", v.shape)

            def step(u, v):
                nonlocal q
                hg, v, q = approxgrad_hypergrad(
                    alg, u, v, cfg.T, cfg.T, cfg.rho0, cfg.approx_reg,
                    q0=q, v_stepper=st_v, q_stepper=st_q)
                return hg, v, None
        return step, _nan_schedule(v.shape[0])

    stored = {"rmd": cfg.T + 1, "fmd": oracle.dim_u + 1, "approxgrad": 2}
    return _drive(oracle, cfg, p0, method, stored[estimator], metric,
                  record_every, counters)
