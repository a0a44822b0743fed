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
float64 copy of p0, the oracle counters, the u-stepper and box
projection, the recorder and the numeric-abort path. A method supplies
two callbacks:

- ``step(u, v) -> (du, v, gv_sq)``: the method's lower-level work and its
  u-direction. gv_sq is the per-trial |grad_v|^2 of the method's own
  v-steps, or None for the estimators; a recorded row then takes
  |grad_v g|^2 from the recorder's feasibility term, the one uncounted
  grad_v_g call at that point.
- ``schedule(u, v, tol_sq) -> (gamma, eps, lam)``: called after the
  u-step with tol_sq = |du|^2 (+ gv_sq). The penalty methods advance their
  gamma/eps/lambda/nu schedule here; the other solvers return NaN columns.

The driver and the callbacks look up stepper_step, project_box, the
penalty gradients, the estimators, attach_counters and _Recorder as module
globals at call time, so a timing harness can wrap them in place. The box
clamps each stepper output in place (``out=``), since a step always
returns a fresh array. The driver tests the per-trial |du|^2, and each
estimator its result, with the stepper's one-call finite test (see
``core``), and the estimators turn their step size and a non-zero ridge
into 0-d float64 arrays once per call, the cheaper operand at desk
scale; ApproxGrad skips a zero ridge (see ``approxgrad_hypergrad``). The
counting view wraps each callback in a wrapper of its own arity, ``(p)``
or ``(p, q)``: about 150 ns a call against 220 ns for a ``*args`` one,
on the 67,200 counted calls of a desk pass.

Every solver takes p0 as a lockstep batch of independent trials (u:
(B, U), v: (B, V); a lone trial is a batch of one) and returns the final
Point of the same shape and a list of B traces. Per-trial penalty
schedules are tracked as arrays, so one python-level loop serves every
trial. Oracle-call counters tally the algorithm's own calls; diagnostic
evaluations made to fill the trace are excluded. The estimators take a
single point or a batch and count only through the oracle they are
handed: outer_loop hands them the driver's counting view.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .core import (COUNT, FINITE, NON_NEGATIVE, POSITIVE, BoxBounds,
                   StepperState, _vdot, allocate, check_number, make_stepper,
                   project_box, stepper_step)
from .errors import CapabilityError, ContractViolationError, NumericError
from .oracle import (PenaltyParams, Point, ProblemOracle, penalty_grad_u,
                     penalty_grad_v, spread, sqnorm)


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
        def wrapped(p):
            tally[name] += 1
            return fn(p)
        return wrapped

    def cf2(fn, name):
        def wrapped(p, q):
            tally[name] += 1
            return fn(p, q)
        return wrapped

    return replace(
        oracle,
        eval_f=cf(oracle.eval_f, "n_f"),
        eval_g=cf(oracle.eval_g, "n_g"),
        grad_u_f=cf(oracle.grad_u_f, "n_grad_u_f"),
        grad_v_f=cf(oracle.grad_v_f, "n_grad_v_f"),
        grad_v_g=cf(oracle.grad_v_g, "n_grad_v_g"),
        hvp_vv_g=cf2(oracle.hvp_vv_g, "n_hvp"),
        jvp_uv_g=cf2(oracle.jvp_uv_g, "n_jvp"),
        hess_vv_g=cf(oracle.hess_vv_g, "n_dense_hess"),
        jac_uv_g=cf(oracle.jac_uv_g, "n_dense_jac"))


# PenaltyConfig's number fields, in field order, and their rules (see
# core.check_number)
_FRACTION = (False, lambda x: 0 < x <= 1, "in (0, 1]")
_CONFIG_RULES = {
    "K": COUNT, "T": COUNT,
    "sigma0": POSITIVE, "rho0": POSITIVE, "gamma0": POSITIVE,
    "eps0": POSITIVE, "lambda0": NON_NEGATIVE, "nu0": FINITE,
    "c_gamma": (False, lambda x: 1 <= x < math.inf, ">= 1 and finite"),
    "c_eps": _FRACTION, "c_lambda": _FRACTION, "approx_reg": NON_NEGATIVE,
}


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
    stepper: str = "adam"
    # the box belongs to the problem, not to a config file
    box: Optional[BoxBounds] = None
    approx_reg: float = 0.0          # ridge on the ApproxGrad linear system

    def __post_init__(self):
        for key, rule in _CONFIG_RULES.items():
            check_number(key, getattr(self, key), rule)
        if self.box is not None and not isinstance(self.box, BoxBounds):
            raise ContractViolationError(
                f"box must be None or a BoxBounds, got {self.box!r}")
        if self.stepper not in ("adam", "plain-gd"):
            raise ContractViolationError(f"unknown stepper {self.stepper!r}")


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


# TraceRow's fields as the recorder lays them out: the ones a batch
# shares, one tuple per row, and the float columns of one trial
_SHARED = ("k", "wall_seconds", "n_hvp", "n_jvp", "peak_stored_vecs")
_COLUMNS = tuple(f.name for f in fields(TraceRow) if f.name not in _SHARED)


def _row(shared, values):
    """The TraceRow of one shared tuple and its list of column values."""
    k, wall, n_hvp, n_jvp, peak = shared
    return TraceRow(k, *values, wall, n_hvp, n_jvp, peak)


class SolverTrace:
    """One trial's recorded rows, kept as the recorder holds them.

    ``shared`` holds one (k, wall_seconds, n_hvp, n_jvp,
    peak_stored_vecs) tuple per row, which a batch's traces share, and
    ``values`` the trial's read-only (rows, 9) float64 array of the
    other fields, in TraceRow order (``_COLUMNS``). TraceRow objects are
    built on the first read of ``rows`` and then kept; ``final`` builds
    only the last row, and ``column`` reads the stored values. A trace
    built from rows, ``SolverTrace(rows)``, keeps them and lays their
    values out the same way.
    """

    def __init__(self, rows=(), *, shared=None, values=None):
        if shared is None:
            rows = list(rows)
            shared = [tuple(getattr(r, n) for n in _SHARED) for r in rows]
            values = np.array([[getattr(r, n) for n in _COLUMNS]
                               for r in rows], dtype=np.float64)
            values = values.reshape(-1, len(_COLUMNS))
            values.setflags(write=False)
        else:
            rows = None
        self.shared = shared
        self.values = values
        self._rows = rows

    def __setstate__(self, state):
        # an unpickled array is writeable
        self.__dict__.update(state)
        self.values.setflags(write=False)

    def __len__(self):
        return len(self.shared)

    @property
    def rows(self) -> list:
        if self._rows is None:
            self._rows = list(map(_row, self.shared, self.values.tolist()))
        return self._rows

    @property
    def final(self) -> TraceRow:
        if self._rows is not None:
            return self._rows[-1]
        return _row(self.shared[-1], self.values[-1].tolist())

    def column(self, name) -> np.ndarray:
        if name in _SHARED:
            i = _SHARED.index(name)
            return np.array([s[i] for s in self.shared])
        return self.values[:, _COLUMNS.index(name)].copy()


class _Recorder:
    """Collects per-trial trace rows; uses the uncounted oracle.

    Each recorded u-iteration fills one (9, B) slab of a float64 buffer
    (the ``_COLUMNS``) plus one tuple of the values the batch shares
    (``_SHARED``). ``traces`` hands each trial its read-only slice of
    the buffer and the shared tuples; no TraceRow is built here.
    ``_drive`` calls ``record`` once for each k that is ``due``.
    """

    def __init__(self, oracle, metric, counters, batch, record_every, total):
        self.oracle = oracle
        self.metric = metric
        self.counters = counters
        self.batch = batch
        self.every = record_every
        self.total = total
        due = total // self.every + (total % self.every != 0)
        self.cols, = allocate(
            f"the trace of K={total} at record_every={record_every} ({due} "
            f"recorded rows) for a batch of {batch} trial(s)",
            (due, len(_COLUMNS), batch))
        self.shared = []
        self.t0 = time.perf_counter()

    def due(self, k):
        return (k + 1) % self.every == 0 or k == self.total - 1

    def record(self, k, pt, gu_sq, gv_sq, gamma, eps, lam):
        shared = self.shared
        o = self.oracle
        # gamma, eps, lam, f, g, |grad_u|, |grad_v|, feas, distance
        slab = self.cols[len(shared)]
        slab[0] = gamma
        slab[1] = eps
        slab[2] = lam
        slab[3] = o.eval_f(pt)
        slab[4] = o.eval_g(pt)
        slab[5] = gu_sq
        feas_sq = sqnorm(o.grad_v_g(pt))
        # a method without v-steps of its own reports |grad_v g| here
        slab[6] = feas_sq if gv_sq is None else gv_sq
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
        cols.setflags(write=False)
        return [SolverTrace(shared=shared, values=cols[:, :, i])
                for i in range(self.batch)]


def _abort(message, recorder):
    err = NumericError(message)
    err.traces = recorder.traces()
    raise err


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

def _drive(oracle: ProblemOracle, cfg: PenaltyConfig, p0: Point,
           method, stored: int, metric, record_every: int,
           counters: Optional[OracleCounters]):
    """K u-iterations of one method from the (B, ·) batch p0; see the
    module docstring.

    ``method(alg, v)`` builds the method's step and schedule callbacks
    from the counted oracle and the initial v; ``stored`` is its peak
    stored-vector count. Non-finite values abort with the trace collected
    so far attached to the NumericError.
    """
    u = np.array(p0.u, dtype=np.float64)
    v = np.array(p0.v, dtype=np.float64)
    if u.ndim != 2 or v.ndim != 2 or len(u) != len(v):
        raise ContractViolationError(
            f"p0 must be a (B, U), (B, V) batch, got shapes {u.shape}, "
            f"{v.shape}")
    if record_every < 1:
        raise ContractViolationError(
            f"record_every must be >= 1, got {record_every!r}")
    oracle.check_point(Point(u, v))
    counters = counters if counters is not None else OracleCounters()
    alg = attach_counters(oracle, counters)
    counters.record_stored(stored)
    step, schedule = method(alg, v)
    st_u = make_stepper(cfg.stepper, u.shape)
    box = cfg.box
    rec = _Recorder(oracle, metric, counters, u.shape[0], record_every, cfg.K)
    # the stepper's one-call finite test, per trial
    zeros = np.zeros(u.shape[0])

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
        if not _vdot(tol_sq, zeros) == 0.0:
            bad = np.flatnonzero(~np.isfinite(tol_sq)).tolist()
            _abort(f"non-finite gradient at u-iteration {k}, "
                   f"trial(s) {bad}", rec)
        gamma, eps, lam = schedule(u, v, tol_sq)
        if rec.due(k):
            rec.record(k, Point(u, v), gu_sq, gv_sq, gamma, eps, lam)

    return Point(u, v), rec.traces()


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


def _schedule_weights(cfg, gamma, lam, nu, nu_h, v_shape):
    """Penalty weights and per-trial v-step sizes of one schedule phase,
    the v-side ones built at v's full shape (see PenaltyParams)."""
    params = PenaltyParams(gamma=gamma, lam=lam, nu=nu, nu_h=nu_h,
                           v_shape=v_shape)
    # v-step size shrinks with the penalty weight so the step on the
    # gamma-scaled stationarity term stays constant; without this the
    # v iterate limit-cycles at amplitude rho0 and the u-gradient
    # inherits gamma * rho0 noise. Read-only and owning its data, so the
    # v-stepper checks it once per phase rather than on every step.
    rho_k = spread(cfg.rho0 * (cfg.gamma0 / gamma)[:, None], v_shape)
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
        # rebuilt only when the schedule advances
        params, rho_k = _schedule_weights(cfg, gamma, lam, nu, nu_h,
                                           v.shape)

        def step(u, v):
            for _ in range(cfg.T):
                gv = penalty_grad_v(alg, Point(u, v), params)
                v = stepper_step(st_v, v, gv, rho_k)
                if box is not None:
                    v = project_box(v, box, out=v)
            return penalty_grad_u(alg, Point(u, v), params), v, sqnorm(gv)

        def schedule(u, v, tol_sq):
            nonlocal gamma, eps, lam, nu, nu_h, params, rho_k
            advance = tol_sq <= eps * eps
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
                params, rho_k = _schedule_weights(cfg, gamma, lam, nu,
                                                  nu_h, v.shape)
            return gamma, eps, lam if aug else zeros

        return step, schedule
    return method


def penalty_solve(oracle: ProblemOracle, cfg: PenaltyConfig,
                  p0: Point, *, metric=None,
                  record_every: int = 1,
                  counters: Optional[OracleCounters] = None):
    """Alternating penalty minimization with the gamma/eps schedule.

    Per u-iteration: T v-steps on the penalized v-gradient, one u-step on
    the penalized u-gradient. The tolerance test reuses the gradients
    computed for those steps; a trial advances its schedule exactly when
    its |grad_u|^2 + |grad_v|^2 <= eps_k^2: gamma *= c_gamma (capped at
    GAMMA_CAP), eps *= c_eps. The budget K counts total u-iterations;
    non-finite gradients abort with the trace collected so far attached
    to the exception. p0 is a (B, ·) batch; returns the final Point batch
    and B traces.
    """
    return _drive(oracle, cfg, p0, _penalty_method(oracle, cfg, aug=False),
                  1, metric, record_every, counters)


def penalty_aug_solve(oracle: ProblemOracle, cfg: PenaltyConfig,
                      p0: Point, *, metric=None,
                      record_every: int = 1,
                      counters: Optional[OracleCounters] = None):
    """Penalty loop with regularization and multiplier terms.

    The v-gradient gains hess_vv_g . nu + lambda_k grad_v_g, the
    u-gradient gains the matching mixed term; per schedule advance,
    lambda *= c_lambda and nu += gamma_k grad_v_g (method of multipliers;
    nu_h is updated the same way when constraints are present). With
    lambda0 = nu0 = 0 the iterates coincide bit-for-bit with
    penalty_solve only until the first schedule advance, whose
    nu += gamma_k grad_v_g moves them apart. p0 is a (B, ·) batch;
    returns the final Point batch and B traces.
    """
    return _drive(oracle, cfg, p0, _penalty_method(oracle, cfg, aug=True),
                  1, metric, record_every, counters)


# ---------------------------------------------------------------------------
# Alternating gradient descent baseline
# ---------------------------------------------------------------------------

def gd_alternating(oracle: ProblemOracle, cfg: PenaltyConfig,
                   p0: Point, *, metric=None,
                   record_every: int = 1,
                   counters: Optional[OracleCounters] = None):
    """T v-steps on grad_v g then one u-step on grad_u f, K times.

    Uses no second-order oracle at all; converges only where the bilevel
    solution happens to be a stationary point of the naive dynamics.
    Unconstrained problems only, as for the estimators. p0 is a (B, ·)
    batch; returns the final Point batch and B traces.
    """
    _require_unconstrained(oracle, "gd_alternating")

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


ESTIMATORS = ("rmd", "fmd", "approxgrad")


def stored_vecs(estimator: str, T: int, dim_u: int) -> int:
    """Peak stored V-vectors of an estimator (see OracleCounters)."""
    return {"rmd": T + 1, "fmd": dim_u + 1, "approxgrad": 2}[estimator]


def _all_finite(x):
    """The stepper's exact one-call finite test (see ``core``)."""
    return _vdot(x, np.zeros(x.shape)) == 0.0


def _check_estimator(oracle, who, u, v0, T, rho, reg_lambda=0.0):
    """The estimators' common input rules, checked before any oracle
    call: no constraints, PenaltyConfig's rules for T, rho0 and
    approx_reg, and a point of the oracle's dims."""
    _require_unconstrained(oracle, who)
    check_number("T", T, _CONFIG_RULES["T"])
    check_number("rho", rho, _CONFIG_RULES["rho0"])
    check_number("reg_lambda", reg_lambda, _CONFIG_RULES["approx_reg"])
    oracle.check_point(Point(np.asarray(u), np.asarray(v0)))


def rmd_hypergrad(oracle: ProblemOracle, u: np.ndarray, v0: np.ndarray,
                  T: int, rho: float):
    """Reverse-mode differentiation through T unrolled plain-GD v-steps.

    Forward: v_{t+1} = v_t - rho grad_v g (trajectory stored). Backward:
    q <- grad_v f, p <- grad_u f at v_T, then for t = T..1
    p <- p - rho jvp(q), q <- q - rho hvp(q), both evaluated at v_{t-1}.
    Returns (p, v_T). Stores T+1 trajectory vectors and uses exactly T
    hvp and T jvp calls of ``oracle``; u and v0 are one point or a batch.
    """
    _check_estimator(oracle, "rmd_hypergrad", u, v0, T, rho)
    rho = np.array(rho, dtype=np.float64)
    v = np.asarray(v0, dtype=np.float64)
    traj, = allocate("RMD's trajectory", (T + 1,) + v.shape)
    traj[0] = v
    for t in range(T):
        v = v - rho * oracle.grad_v_g(Point(u, v))
        traj[t + 1] = v
    pt_T = Point(u, v)
    q = oracle.grad_v_f(pt_T)
    p = oracle.grad_u_f(pt_T)
    for t in range(T - 1, -1, -1):
        pt = Point(u, traj[t])
        p = p - rho * oracle.jvp_uv_g(pt, q)
        q = q - rho * oracle.hvp_vv_g(pt, q)
    if not _all_finite(p):
        raise NumericError("non-finite reverse-mode hypergradient")
    return p, v


def fmd_hypergrad(oracle: ProblemOracle, u: np.ndarray, v0: np.ndarray,
                  T: int, rho: float):
    """Forward-mode differentiation through T unrolled plain-GD v-steps.

    Maintains the dense U-by-V sensitivity P via
    P <- P (I - rho H) - rho J with dense H, J at each step; the result
    is grad_u f + P grad_v f at v_T. u and v0 are one point or a batch,
    which gives P the shape (..., U, V); its entries, over the whole
    batch, are gated to 1e6. Uses exactly T hess_vv_g and T jac_uv_g
    calls of ``oracle``.
    """
    _check_estimator(oracle, "fmd_hypergrad", u, v0, T, rho)
    # negated before the conversion: a ufunc on a 0-d array returns a
    # NumPy scalar
    neg_rho = np.array(-rho, dtype=np.float64)
    rho = np.array(rho, dtype=np.float64)
    v = np.asarray(v0, dtype=np.float64)
    shape = v.shape[:-1] + (oracle.dim_u, oracle.dim_v)
    if math.prod(shape) > 10**6:
        raise CapabilityError("dense sensitivity would exceed 1e6 entries")
    P = np.zeros(shape)
    eye = np.eye(oracle.dim_v)
    for _ in range(T):
        pt = Point(u, v)
        A = eye - rho * oracle.hess_vv_g(pt)
        Bm = neg_rho * oracle.jac_uv_g(pt)
        P = P @ A + Bm
        v = v - rho * oracle.grad_v_g(pt)
    pt_T = Point(u, v)
    hg = oracle.grad_u_f(pt_T) + (P @ oracle.grad_v_f(pt_T)[..., None])[..., 0]
    if not _all_finite(hg):
        raise NumericError("non-finite forward-mode hypergradient")
    return hg, v


def approxgrad_hypergrad(oracle: ProblemOracle, u: np.ndarray,
                         v0: np.ndarray, T: int, *, rho: float,
                         reg_lambda: float = 0.0,
                         q0: Optional[np.ndarray] = None,
                         v_stepper: Optional[StepperState] = None,
                         q_stepper: Optional[StepperState] = None):
    """Hypergradient via an approximate solve of H q = grad_v f.

    T v-steps descend g at step rho > 0 through v_stepper; then T
    iterations reduce |(H + reg I) q - grad_v f|^2 from q0 (default 0)
    through q_stepper: per iteration r = (H + reg I) q - b, step along
    (H + reg I) r at rho, costing exactly two hvp calls. A stepper not
    given is a fresh plain-gd one, whose step is x - rho * grad. The
    returned hypergradient is grad_u f - jvp(q), one jvp call; v and q
    are returned for warm starts. u and v0 are one point or a batch.
    rho and every later parameter are keyword-only.

    With a zero ridge (+0 or -0; every benchmark case runs one) the two
    ridge additions are skipped: r = hvp(q) - b and the step is along
    hvp(r), two multiplies and two adds fewer per iteration. That is
    exact. For a finite y, x + 0*y differs from x only where x is -0,
    so r and the step direction differ from their ridge-kept values at
    most in the sign of exact-zero entries (hvp, a sum of products, maps
    such inputs to such outputs); an inf or NaN in r makes the direction
    non-finite in both loops, which the stepper refuses at the same
    step. A step whose direction differs only so moves no entry that
    is not -0: Adam's (1-b2)*g*g is +0 for either zero, b1*m + (1-b1)*g
    keeps m's bits (m starts at +0 and is never -0), and x - rho*(±0)
    is x unless x is -0. And q never holds -0: it starts at +0, or at a
    q this function returned, and x - y is -0 only when x is -0. The one
    exception is a caller's q0 that holds -0, stepped by plain gd:
    there -0 - rho*(-0) is +0, where the ridge-kept loop keeps -0.
    """
    _check_estimator(oracle, "approxgrad_hypergrad", u, v0, T, rho,
                     reg_lambda)
    v = np.asarray(v0, dtype=np.float64)
    if v_stepper is None:
        v_stepper = make_stepper("plain-gd", v.shape)
    for _ in range(T):
        gv = oracle.grad_v_g(Point(u, v))
        v = stepper_step(v_stepper, v, gv, rho)
    pt = Point(u, v)
    b = oracle.grad_v_f(pt)
    q = (np.zeros_like(v) if q0 is None
         else np.asarray(q0, dtype=np.float64))
    if q_stepper is None:
        q_stepper = make_stepper("plain-gd", q.shape)
    if reg_lambda == 0:
        # the ridge terms dropped: exact, see the docstring
        for _ in range(T):
            r = oracle.hvp_vv_g(pt, q) - b
            q = stepper_step(q_stepper, q, oracle.hvp_vv_g(pt, r), rho)
    else:
        reg = np.array(reg_lambda, dtype=np.float64)
        for _ in range(T):
            r = oracle.hvp_vv_g(pt, q) + reg * q - b
            gq = oracle.hvp_vv_g(pt, r) + reg * r
            q = stepper_step(q_stepper, q, gq, rho)
    hg = oracle.grad_u_f(pt) - oracle.jvp_uv_g(pt, q)
    if not _all_finite(hg):
        raise NumericError("non-finite approximate hypergradient")
    return hg, v, q


def outer_loop(oracle: ProblemOracle, estimator: str, cfg: PenaltyConfig,
               p0: Point, *, metric=None,
               record_every: int = 1,
               counters: Optional[OracleCounters] = None):
    """K u-updates driven by a hypergradient estimator.

    Each estimator call gets the driver's counting view of the oracle.
    v (and ApproxGrad's q) warm-start across iterations; q is zero only
    at run start. RMD/FMD unroll plain GD at rho0; ApproxGrad uses the
    configured stepper (Adam by default) at rho0 for both the v-steps and
    the T linear-system iterations, with ridge cfg.approx_reg. The u-step
    uses the configured stepper at sigma0 and box projection if set. p0
    is a (B, ·) batch; returns the final Point batch and B traces.
    """
    if estimator not in ESTIMATORS:
        raise ContractViolationError(
            f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    _require_unconstrained(oracle, f"outer_loop({estimator})")

    def method(alg, v):
        if estimator in ("rmd", "fmd"):
            unroll = rmd_hypergrad if estimator == "rmd" else fmd_hypergrad

            def step(u, v):
                hg, v = unroll(alg, u, v, cfg.T, cfg.rho0)
                return hg, v, None
        else:
            q = np.zeros_like(v)
            st_v = make_stepper(cfg.stepper, v.shape)
            st_q = make_stepper(cfg.stepper, v.shape)

            def step(u, v):
                nonlocal q
                hg, v, q = approxgrad_hypergrad(
                    alg, u, v, cfg.T, rho=cfg.rho0, reg_lambda=cfg.approx_reg,
                    q0=q, v_stepper=st_v, q_stepper=st_q)
                return hg, v, None
        return step, _nan_schedule(v.shape[0])

    return _drive(oracle, cfg, p0, method,
                  stored_vecs(estimator, cfg.T, oracle.dim_u), metric,
                  record_every, counters)
