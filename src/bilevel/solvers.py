"""Bilevel solvers with oracle-call instrumentation.

- penalty_solve: alternating minimization of the penalized objective with
  the gamma/eps tolerance schedule.
- penalty_aug_solve: same loop plus lower-cost regularization lambda_k and
  the method-of-multipliers term nu.
- gd_alternating: naive alternating descent baseline.
- rmd_hypergrad / fmd_hypergrad / approxgrad_hypergrad: hypergradient
  estimators (reverse-mode, forward-mode, iterative linear solve), driven
  by outer_loop for full runs.

All solvers accept either a single point (u: (U,), v: (V,)) or a lockstep
batch of independent trials (u: (B, U), v: (B, V)); per-trial penalty
schedules are tracked as arrays, so one python-level loop serves every
trial. Oracle-call counters tally the algorithm's own calls; diagnostic
evaluations made to fill the trace are excluded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .core import (BoxBounds, Stepper, make_rng, make_stepper, project_box,
                   stepper_step, uniform_in_box)
from .errors import CapabilityError, ContractViolationError, NumericError
from .oracle import (PenaltyParams, Point, ProblemOracle, penalty_grad_u,
                     penalty_grad_v, sqnorm)


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
    box: Optional[BoxBounds] = None
    seed: int = 0
    approx_reg: float = 0.0          # ridge on the ApproxGrad linear system
    approx_lin_solver: str = "adam"  # adam | cg | dense

    def __post_init__(self):
        if self.K < 1 or self.T < 1:
            raise ContractViolationError("K and T must be >= 1")
        if not (self.gamma0 > 0 and self.eps0 > 0):
            raise ContractViolationError("gamma0 and eps0 must be positive")
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
        if self.approx_lin_solver not in ("adam", "cg", "dense"):
            raise ContractViolationError(
                f"unknown linear solver {self.approx_lin_solver!r}")


@dataclass
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


def traces_equal(a: SolverTrace, b: SolverTrace,
                 ignore_wall: bool = True) -> bool:
    """Bitwise equality of two traces, timing columns excluded by default."""
    if len(a) != len(b):
        return False
    skip = {"wall_seconds"} if ignore_wall else set()
    for ra, rb in zip(a.rows, b.rows):
        for name in ra.__dataclass_fields__:
            if name in skip:
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


def sample_initial_point(oracle: ProblemOracle, box: BoxBounds,
                         seed) -> Point:
    rng = make_rng(seed, 0x1A17)
    return Point(uniform_in_box(rng, oracle.dim_u, box),
                 uniform_in_box(rng, oracle.dim_v, box))


class _Recorder:
    """Collects per-trial trace rows; uses the uncounted oracle."""

    def __init__(self, oracle, metric, counters, batch, record_every, total):
        self.oracle = oracle
        self.metric = metric
        self.counters = counters
        self.batch = batch
        self.every = max(1, record_every)
        self.total = total
        self.rows = [[] for _ in range(batch)]
        self.t0 = time.perf_counter()

    def due(self, k):
        return (k + 1) % self.every == 0 or k == self.total - 1

    def record(self, k, pt, gu_sq, gv_sq, gamma, eps, lam):
        if not self.due(k) or (self.rows[0] and self.rows[0][-1].k == k):
            return
        o = self.oracle
        f = np.broadcast_to(o.eval_f(pt), (self.batch,))
        g = np.broadcast_to(o.eval_g(pt), (self.batch,))
        gvg = o.grad_v_g(pt)
        feas_sq = sqnorm(gvg)
        if o.has_constraints:
            feas_sq = feas_sq + sqnorm(o.eval_h(pt))
        feas = np.sqrt(np.broadcast_to(feas_sq, (self.batch,)))
        dist = (np.broadcast_to(self.metric(pt), (self.batch,))
                if self.metric else np.full(self.batch, np.nan))
        wall = (time.perf_counter() - self.t0) / self.batch
        snap = self.counters
        gamma = np.broadcast_to(gamma, (self.batch,))
        eps = np.broadcast_to(eps, (self.batch,))
        lam = np.broadcast_to(lam, (self.batch,))
        gun = np.sqrt(np.broadcast_to(gu_sq, (self.batch,)))
        gvn = np.sqrt(np.broadcast_to(gv_sq, (self.batch,)))
        for i in range(self.batch):
            self.rows[i].append(TraceRow(
                k=k, gamma=float(gamma[i]), eps=float(eps[i]),
                lam=float(lam[i]), f=float(f[i]), g=float(g[i]),
                grad_u_norm=float(gun[i]), grad_v_norm=float(gvn[i]),
                feas_norm=float(feas[i]), distance=float(dist[i]),
                wall_seconds=wall,
                n_hvp=snap.n_hvp, n_jvp=snap.n_jvp,
                peak_stored_vecs=snap.peak_stored_vecs))

    def traces(self):
        return [SolverTrace(r) for r in self.rows]


def _abort(message, recorder):
    err = NumericError(message)
    err.traces = recorder.traces()
    raise err


# ---------------------------------------------------------------------------
# Penalty solvers
# ---------------------------------------------------------------------------

def _schedule_weights(cfg, gamma, lam, nu, nu_h):
    """Penalty weights and per-trial v-step sizes of one schedule phase."""
    params = PenaltyParams(gamma=gamma, lam=lam, nu=nu, nu_h=nu_h)
    # v-step size shrinks with the penalty weight so the step on the
    # gamma-scaled stationarity term stays constant; without this the
    # v iterate limit-cycles at amplitude rho0 and the u-gradient
    # inherits gamma * rho0 noise.
    return params, cfg.rho0 * (cfg.gamma0 / gamma)[:, None]


def _penalty_engine(oracle: ProblemOracle, cfg: PenaltyConfig, p0: Point,
                    aug: bool, metric=None, record_every: int = 1,
                    counters: Optional[OracleCounters] = None):
    u, v, squeeze = _batchify(p0)
    oracle.check_point(Point(u, v))
    B = u.shape[0]
    counters = counters if counters is not None else OracleCounters()
    alg = attach_counters(oracle, counters)
    counters.record_stored(1)

    st_u = make_stepper(cfg.stepper, u.shape)
    st_v = make_stepper(cfg.stepper, v.shape)
    gamma = np.full(B, cfg.gamma0)
    eps = np.full(B, cfg.eps0)
    if aug:
        lam = np.full(B, cfg.lambda0)
        nu = np.full((B, oracle.dim_v), cfg.nu0)
        nu_h = (np.full((B, oracle.dim_c), cfg.nu0)
                if oracle.has_constraints else None)
    else:
        lam, nu, nu_h = 0.0, None, None
    phase = np.zeros(B, dtype=np.int64)
    box = cfg.box
    rec = _Recorder(oracle, metric, counters, B, record_every, cfg.K)

    # rebuilt only when the schedule advances
    params, rho_k = _schedule_weights(cfg, gamma, lam, nu, nu_h)
    for k in range(cfg.K):
        try:
            for _ in range(cfg.T):
                gv = penalty_grad_v(alg, Point(u, v), params)
                v = stepper_step(st_v, v, gv, rho_k)
                if box is not None:
                    v = project_box(v, box)
            pt = Point(u, v)
            gu = penalty_grad_u(alg, pt, params)
            u = stepper_step(st_u, u, gu, cfg.sigma0)
        except NumericError as exc:
            _abort(f"{exc} (u-iteration {k})", rec)
        if box is not None:
            u = project_box(u, box)

        gu_sq = sqnorm(gu)
        gv_sq = sqnorm(gv)
        tol_sq = gu_sq + gv_sq
        if not np.isfinite(tol_sq).all():
            bad = np.flatnonzero(~np.isfinite(tol_sq))
            _abort(f"non-finite penalty gradient at u-iteration {k}, "
                   f"trial(s) {bad.tolist()}", rec)

        phase += 1
        advance = (tol_sq <= eps * eps) | (phase >= cfg.while_cap)
        if advance.any():
            pt_new = Point(u, v)
            if aug:
                gvg = alg.grad_v_g(pt_new)
                nu = np.where(advance[:, None], nu + gamma[:, None] * gvg, nu)
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

        rec.record(k, Point(u, v), gu_sq, gv_sq, gamma, eps,
                   lam if aug else np.zeros(B))

    return _unbatch(u, v, rec.traces(), squeeze)


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
    if p0 is None:
        if cfg.box is None:
            raise ContractViolationError("need p0 or a box to sample from")
        p0 = sample_initial_point(oracle, cfg.box, cfg.seed)
    return _penalty_engine(oracle, cfg, p0, aug=False, metric=metric,
                           record_every=record_every, counters=counters)


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
    if p0 is None:
        if cfg.box is None:
            raise ContractViolationError("need p0 or a box to sample from")
        p0 = sample_initial_point(oracle, cfg.box, cfg.seed)
    return _penalty_engine(oracle, cfg, p0, aug=True, metric=metric,
                           record_every=record_every, counters=counters)


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
    if p0 is None:
        if cfg.box is None:
            raise ContractViolationError("need p0 or a box to sample from")
        p0 = sample_initial_point(oracle, cfg.box, cfg.seed)
    u, v, squeeze = _batchify(p0)
    oracle.check_point(Point(u, v))
    B = u.shape[0]
    counters = counters if counters is not None else OracleCounters()
    alg = attach_counters(oracle, counters)
    counters.record_stored(1)
    st_u = make_stepper(cfg.stepper, u.shape)
    st_v = make_stepper(cfg.stepper, v.shape)
    box = cfg.box
    rec = _Recorder(oracle, metric, counters, B, record_every, cfg.K)
    nan = np.full(B, np.nan)

    for k in range(cfg.K):
        try:
            for _ in range(cfg.T):
                gv = alg.grad_v_g(Point(u, v))
                v = stepper_step(st_v, v, gv, cfg.rho0)
                if box is not None:
                    v = project_box(v, box)
            gu = alg.grad_u_f(Point(u, v))
            u = stepper_step(st_u, u, gu, cfg.sigma0)
        except NumericError as exc:
            _abort(f"{exc} (u-iteration {k})", rec)
        if box is not None:
            u = project_box(u, box)
        gu_sq, gv_sq = sqnorm(gu), sqnorm(gv)
        if not np.isfinite(gu_sq + gv_sq).all():
            _abort(f"non-finite gradient at u-iteration {k}", rec)
        rec.record(k, Point(u, v), gu_sq, gv_sq, nan, nan, nan)

    return _unbatch(u, v, rec.traces(), squeeze)


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
                         v_stepper: Optional[Stepper] = None,
                         q_stepper: Optional[Stepper] = None,
                         counters: Optional[OracleCounters] = None):
    """Hypergradient via an approximate solve of H q = grad_v f.

    T_v v-steps descend g (plain GD, or the provided stepper); then
    T_lin iterations reduce |(H + reg I) q - grad_v f|^2 from q0
    (default 0): per iteration r = (H + reg I) q - b, step along
    (H + reg I) r, costing exactly two hvp calls. The returned
    hypergradient is grad_u f - jvp(q); v and q are returned for warm
    starts. lin_solver "cg" runs conjugate gradient (one hvp per
    iteration) and "dense" solves the regularized system directly
    (single points only).
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
        v = v_stepper.step(v, gv) if v_stepper else v - rho * gv
    pt = Point(u, v)
    b = alg.grad_v_f(pt)
    q = (np.zeros_like(v) if q0 is None
         else np.asarray(q0, dtype=np.float64))

    if lin_solver == "adam":
        for _ in range(T_lin):
            r = alg.hvp_vv_g(pt, q) + reg_lambda * q - b
            gq = alg.hvp_vv_g(pt, r) + reg_lambda * r
            q = q_stepper.step(q, gq) if q_stepper else q - rho * gq
    elif lin_solver == "cg":
        r = b - (alg.hvp_vv_g(pt, q) + reg_lambda * q)
        d = r.copy()
        rs = np.sum(r * r, axis=-1, keepdims=True)
        for _ in range(T_lin):
            Hd = alg.hvp_vv_g(pt, d) + reg_lambda * d
            denom = np.sum(d * Hd, axis=-1, keepdims=True)
            alpha = np.where(denom != 0.0, rs / np.where(denom == 0, 1, denom),
                             0.0)
            q = q + alpha * d
            r = r - alpha * Hd
            rs_new = np.sum(r * r, axis=-1, keepdims=True)
            beta = np.where(rs != 0.0, rs_new / np.where(rs == 0, 1, rs), 0.0)
            d = r + beta * d
            rs = rs_new
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

T_STORED = {"rmd": lambda T: T + 1, "approxgrad": lambda T: 2}

# ceiling on the penalty weight; keeps the schedule and the v-step size
# finite in float64 on runs whose tolerance test keeps being met
GAMMA_CAP = 1e100


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
    if p0 is None:
        if cfg.box is None:
            raise ContractViolationError("need p0 or a box to sample from")
        p0 = sample_initial_point(oracle, cfg.box, cfg.seed)
    u, v, squeeze = _batchify(p0)
    if estimator == "fmd" and u.shape[0] != 1:
        raise ContractViolationError("fmd runs unbatched")
    oracle.check_point(Point(u, v))
    B = u.shape[0]
    counters = counters if counters is not None else OracleCounters()
    alg = attach_counters(oracle, counters)
    counters.record_stored(oracle.dim_u + 1 if estimator == "fmd"
                           else T_STORED[estimator](cfg.T))
    st_u = make_stepper(cfg.stepper, u.shape)
    box = cfg.box
    rec = _Recorder(oracle, metric, counters, B, record_every, cfg.K)
    nan = np.full(B, np.nan)
    q = np.zeros_like(v)
    v_stepper = q_stepper = None
    if estimator == "approxgrad" and cfg.stepper == "adam":
        v_stepper = Stepper(make_stepper("adam", v.shape), cfg.rho0)
        q_stepper = Stepper(make_stepper("adam", v.shape), cfg.rho0)

    for k in range(cfg.K):
        try:
            if estimator == "rmd":
                hg, v = rmd_hypergrad(alg, u, v, cfg.T, cfg.rho0)
            elif estimator == "fmd":
                hg1, v1 = fmd_hypergrad(alg, u[0], v[0], cfg.T, cfg.rho0)
                hg, v = hg1[None, :], v1[None, :]
            else:
                hg, v, q = approxgrad_hypergrad(
                    alg, u, v, cfg.T, cfg.T, cfg.rho0, cfg.approx_reg,
                    q0=q, v_stepper=v_stepper, q_stepper=q_stepper)
            u = stepper_step(st_u, u, hg, cfg.sigma0)
        except NumericError as exc:
            _abort(f"{exc} (u-iteration {k})", rec)
        if box is not None:
            u = project_box(u, box)
        hg_sq = sqnorm(hg)
        if not np.isfinite(hg_sq).all():
            _abort(f"non-finite {estimator} hypergradient at iteration {k}",
                   rec)
        if rec.due(k):
            gv_sq = sqnorm(oracle.grad_v_g(Point(u, v)))
            rec.record(k, Point(u, v), hg_sq, gv_sq, nan, nan, nan)

    return _unbatch(u, v, rec.traces(), squeeze)
