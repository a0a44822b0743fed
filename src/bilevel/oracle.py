"""Bilevel problem oracles and the penalty function machinery.

A :class:`ProblemOracle` bundles analytic callbacks for the upper cost f,
the lower cost g, their first-order gradients, and Hessian/Jacobian-vector
products of g. Optional pieces: an inequality/equality constraint h with
Jacobian-transpose products, and dense second-order matrices (needed only
by forward-mode differentiation and the exact-hypergradient oracle).

All callbacks must broadcast over leading batch axes of the point
(``u: (..., U)``, ``v: (..., V)``), except the dense pair which is only
ever called with single (unbatched) points.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .core import BoxBounds, RealVec, make_rng
from .errors import CapabilityError, ContractViolationError, NumericError


@dataclass
class Point:
    """Upper/lower variable pair (u, v)."""

    u: np.ndarray
    v: np.ndarray


def sample_in_box(dim_u: int, dim_v: int, box: BoxBounds, seed) -> Point:
    """Initial point uniform in the box, u drawn before v from the seed's
    0x1A17 stream. A list of seeds gives a stacked batch, one row each."""
    if not isinstance(seed, (int, np.integer)):
        pts = [sample_in_box(dim_u, dim_v, box, s) for s in seed]
        return Point(np.stack([p.u for p in pts]),
                     np.stack([p.v for p in pts]))
    rng = make_rng(seed, 0x1A17)
    return Point(rng.uniform(box.lo, box.hi, dim_u),
                 rng.uniform(box.lo, box.hi, dim_v))


def sqnorm(x, axis=-1):
    # np.add.reduce is the reduction np.sum dispatches to, minus its
    # Python wrapper
    return np.add.reduce(x * x, axis=axis)


@dataclass
class ProblemOracle:
    """Callback bundle for one bilevel problem.

    ``dim_c == 0`` means unconstrained (constraint callbacks are None).
    ``hvp_vv_g(p, q)`` applies the lower-level Hessian to q; it must be
    linear in q and symmetric as a bilinear form. ``jvp_uv_g(p, q)``
    applies the U-by-V mixed second-derivative matrix to q.

    Callbacks are pure functions of their argument values: equal bytes in
    give equal bytes out, whatever was called before, and an output is
    the caller's to keep or alter. A problem may therefore share per-point
    terms between its callbacks; importance_toy, poison_toy and example4
    do, through a memo keyed by value (``problems._memo``).
    """

    name: str
    dim_u: int
    dim_v: int
    dim_c: int
    eval_f: Callable[[Point], np.ndarray]
    eval_g: Callable[[Point], np.ndarray]
    grad_u_f: Callable[[Point], np.ndarray]
    grad_v_f: Callable[[Point], np.ndarray]
    grad_v_g: Callable[[Point], np.ndarray]
    hvp_vv_g: Callable[[Point, np.ndarray], np.ndarray]
    jvp_uv_g: Callable[[Point, np.ndarray], np.ndarray]
    eval_h: Optional[Callable[[Point], np.ndarray]] = None
    jtvp_u_h: Optional[Callable[[Point, np.ndarray], np.ndarray]] = None
    jtvp_v_h: Optional[Callable[[Point, np.ndarray], np.ndarray]] = None
    hess_vv_g: Optional[Callable[[Point], np.ndarray]] = None
    jac_uv_g: Optional[Callable[[Point], np.ndarray]] = None

    @property
    def has_constraints(self) -> bool:
        return self.dim_c > 0

    @property
    def has_dense(self) -> bool:
        return self.hess_vv_g is not None and self.jac_uv_g is not None

    def require_dense(self, who: str):
        if not self.has_dense:
            raise CapabilityError(f"{who} requires dense hess_vv_g/jac_uv_g "
                                  f"(problem {self.name!r} lacks them)")

    def check_point(self, p: Point):
        if p.u.shape[-1] != self.dim_u or p.v.shape[-1] != self.dim_v:
            raise ContractViolationError(
                f"point dims ({p.u.shape[-1]}, {p.v.shape[-1]}) do not match "
                f"oracle dims ({self.dim_u}, {self.dim_v})")


@dataclass
class PenaltyParams:
    """Weights of the penalized objective.

    gamma > 0 is the penalty weight, lam >= 0 the lower-cost regularizer
    (applies to the v-gradient only), nu the multiplier for the
    stationarity constraint, nu_h the multiplier for h when present.
    gamma/lam may be scalars or per-batch arrays. The weights are read
    into column views (``gamma_col``, ``lam_col``) at construction; build
    a new instance to change them.
    """

    gamma: float | np.ndarray
    lam: float | np.ndarray = 0.0
    nu: Optional[np.ndarray] = None
    nu_h: Optional[np.ndarray] = None
    gamma_col: np.ndarray = field(init=False, repr=False, compare=False)
    # None when lam is the scalar 0.0: the lam term is then left out
    lam_col: Optional[np.ndarray] = field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        if np.any(np.asarray(self.gamma) < 0):
            raise ContractViolationError("gamma must be >= 0")
        if np.any(np.asarray(self.lam) < 0):
            raise ContractViolationError("lam must be >= 0")
        self.gamma_col = _col(self.gamma)
        lam = self.lam
        self.lam_col = (None if np.ndim(lam) == 0 and lam == 0.0
                        else _col(lam))


def _col(x):
    """Append a broadcast axis so a scalar/batch weight scales vectors."""
    return np.asarray(x, dtype=np.float64)[..., None]


def penalty_value(oracle: ProblemOracle, p: Point,
                  params: PenaltyParams) -> np.ndarray:
    """f + (gamma/2) (||h||^2 + ||grad_v g||^2), squared-norm penalty.

    The multiplier and regularization terms are deliberately excluded:
    this is the quantity whose gamma -> infinity minimizers solve the
    constrained reformulation.
    """
    f = oracle.eval_f(p)
    if not np.all(np.isfinite(f)):
        raise NumericError(f"eval_f returned non-finite value on {oracle.name!r}")
    gvg = oracle.grad_v_g(p)
    if not np.all(np.isfinite(gvg)):
        raise NumericError(f"grad_v_g returned non-finite value on {oracle.name!r}")
    pen = sqnorm(gvg)
    if oracle.has_constraints:
        h = oracle.eval_h(p)
        if not np.all(np.isfinite(h)):
            raise NumericError(f"eval_h returned non-finite value on {oracle.name!r}")
        pen = pen + sqnorm(h)
    return f + 0.5 * np.asarray(params.gamma) * pen


def _add(acc, x):
    """acc + x for an array acc made here, written into acc when x has
    its shape and dtype (the sum then has them too); bitwise equal to
    acc + x either way."""
    if x.shape == acc.shape and x.dtype == acc.dtype:
        acc += x
        return acc
    return acc + x


def _weighted_h(oracle, p, params):
    """gamma h + nu_h, the vector the constraint Jacobian is applied to."""
    mu = params.gamma_col * oracle.eval_h(p)
    if params.nu_h is not None:
        mu = _add(mu, params.nu_h)
    return mu


def penalty_grad_v(oracle: ProblemOracle, p: Point,
                   params: PenaltyParams) -> np.ndarray:
    """v-gradient of the penalized objective.

    grad_v f + gamma (Jv(h)^T h + H q) + H nu + lam grad_v g, with
    H = hess_vv_g applied through a single hvp call on the combined
    vector gamma*grad_v_g + nu (linearity keeps the second-order cost at
    one hvp regardless of nu).
    """
    gvf = oracle.grad_v_f(p)
    gvg = oracle.grad_v_g(p)
    w = params.gamma_col * gvg
    if params.nu is not None:
        w = _add(w, params.nu)
    out = gvf + oracle.hvp_vv_g(p, w)
    if params.lam_col is not None:
        out = _add(out, params.lam_col * gvg)
    if oracle.has_constraints:
        out = _add(out, oracle.jtvp_v_h(p, _weighted_h(oracle, p, params)))
    return out


def penalty_grad_u(oracle: ProblemOracle, p: Point,
                   params: PenaltyParams) -> np.ndarray:
    """u-gradient of the penalized objective (no lam term)."""
    guf = oracle.grad_u_f(p)
    gvg = oracle.grad_v_g(p)
    w = params.gamma_col * gvg
    if params.nu is not None:
        w = _add(w, params.nu)
    out = guf + oracle.jvp_uv_g(p, w)
    if oracle.has_constraints:
        out = _add(out, oracle.jtvp_u_h(p, _weighted_h(oracle, p, params)))
    return out


def penalty_value_full(oracle: ProblemOracle, p: Point,
                       params: PenaltyParams) -> np.ndarray:
    """Penalty value plus the multiplier and regularization terms.

    Finite-difference counterpart of penalty_grad_v/penalty_grad_u when
    nu or lam are nonzero (the lam g term only enters the v-gradient, so
    differentiate this along v for grad_v and along u with lam = 0 for
    grad_u).
    """
    out = penalty_value(oracle, p, params)
    if params.nu is not None:
        out = out + np.sum(oracle.grad_v_g(p) * params.nu, axis=-1)
    if params.nu_h is not None and oracle.has_constraints:
        out = out + np.sum(oracle.eval_h(p) * params.nu_h, axis=-1)
    if params.lam_col is not None:
        out = out + np.asarray(params.lam) * oracle.eval_g(p)
    return out


def slackify(oracle: ProblemOracle) -> ProblemOracle:
    """Convert inequality constraints h <= 0 into equalities h + s^2 = 0.

    The returned oracle has upper dimension U + C; the appended
    coordinates are the slacks s, optimized jointly with u. Costs ignore
    s; the constraint Jacobian-transpose gains the diagonal 2s block.
    """
    if oracle.dim_c < 1:
        raise ContractViolationError("slackify needs at least one constraint")
    U, C = oracle.dim_u, oracle.dim_c
    base = oracle

    def split(p: Point):
        return Point(p.u[..., :U], p.v), p.u[..., U:]

    def pad_u(vec):
        return np.concatenate([vec, np.zeros(vec.shape[:-1] + (C,))],
                              axis=-1)

    def eval_f(p):
        q, _ = split(p)
        return base.eval_f(q)

    def eval_g(p):
        q, _ = split(p)
        return base.eval_g(q)

    def grad_u_f(p):
        q, _ = split(p)
        return pad_u(base.grad_u_f(q))

    def grad_v_f(p):
        q, _ = split(p)
        return base.grad_v_f(q)

    def grad_v_g(p):
        q, _ = split(p)
        return base.grad_v_g(q)

    def hvp(p, vec):
        q, _ = split(p)
        return base.hvp_vv_g(q, vec)

    def jvp(p, vec):
        q, _ = split(p)
        return pad_u(base.jvp_uv_g(q, vec))

    def eval_h(p):
        q, s = split(p)
        return base.eval_h(q) + s * s

    def jtvp_u_h(p, mu):
        q, s = split(p)
        return np.concatenate([base.jtvp_u_h(q, mu), 2.0 * s * mu], axis=-1)

    def jtvp_v_h(p, mu):
        q, _ = split(p)
        return base.jtvp_v_h(q, mu)

    hess = None
    jac = None
    if base.has_dense:
        hess = lambda p: base.hess_vv_g(split(p)[0])

        def jac(p):
            q, _ = split(p)
            return np.concatenate(
                [base.jac_uv_g(q), np.zeros((C, base.dim_v))], axis=0)

    return ProblemOracle(
        name=base.name + "+slack", dim_u=U + C, dim_v=base.dim_v, dim_c=C,
        eval_f=eval_f, eval_g=eval_g, grad_u_f=grad_u_f, grad_v_f=grad_v_f,
        grad_v_g=grad_v_g, hvp_vv_g=hvp, jvp_uv_g=jvp, eval_h=eval_h,
        jtvp_u_h=jtvp_u_h, jtvp_v_h=jtvp_v_h, hess_vv_g=hess, jac_uv_g=jac)


def initial_slacks(oracle: ProblemOracle, p: Point) -> np.ndarray:
    """s_i = sqrt(max(-h_i, 1e-3)): small initial equality violation."""
    if oracle.dim_c < 1:
        raise ContractViolationError("no constraints to initialize slacks for")
    h = oracle.eval_h(p)
    return np.sqrt(np.maximum(-h, 1e-3))


def rel_err(approx, exact) -> float:
    """||approx - exact|| / max(1, ||exact||)."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    return float(np.linalg.norm(approx - exact)
                 / max(1.0, np.linalg.norm(exact)))


@dataclass
class FdCheckReport:
    """Per-callback max relative errors from central-difference checks."""

    errors: dict

    @property
    def max_error(self) -> float:
        return max(self.errors.values())

    def __str__(self):
        rows = ", ".join(f"{k}={v:.3e}" for k, v in self.errors.items())
        return f"FdCheckReport({rows})"


def _fd_grad(fun, x, eps):
    out = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = eps
        out[i] = (fun(x + step) - fun(x - step)) / (2.0 * eps)
    return out


def fd_check_oracle(oracle: ProblemOracle, p: Point,
                    eps: float = 1e-5) -> FdCheckReport:
    """Check analytic callbacks against central finite differences.

    Report-only: returns per-callback max relative error (denominator
    max(1, ||exact||)), never raises on mismatch. Second-order and
    constraint products are probed along two random unit directions
    from a fixed stream.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ContractViolationError("fd eps must lie in [1e-7, 1e-3]")
    oracle.check_point(p)
    rng = make_rng(0, 0xFD)
    u, v = np.asarray(p.u, float), np.asarray(p.v, float)
    errors = {}

    errors["grad_u_f"] = rel_err(
        _fd_grad(lambda x: oracle.eval_f(Point(x, v)), u, eps),
        oracle.grad_u_f(p))
    errors["grad_v_f"] = rel_err(
        _fd_grad(lambda x: oracle.eval_f(Point(u, x)), v, eps),
        oracle.grad_v_f(p))
    errors["grad_v_g"] = rel_err(
        _fd_grad(lambda x: oracle.eval_g(Point(u, x)), v, eps),
        oracle.grad_v_g(p))

    hvp_err = 0.0
    jvp_err = 0.0
    for _ in range(2):
        q = rng.standard_normal(oracle.dim_v)
        q /= np.linalg.norm(q)
        fd_hvp = (oracle.grad_v_g(Point(u, v + eps * q))
                  - oracle.grad_v_g(Point(u, v - eps * q))) / (2.0 * eps)
        hvp_err = max(hvp_err, rel_err(fd_hvp, oracle.hvp_vv_g(p, q)))
        # row i of the mixed matrix times q, via differences along u_i
        fd_jvp = np.empty(oracle.dim_u)
        for i in range(oracle.dim_u):
            step = np.zeros_like(u)
            step[i] = eps
            fd_jvp[i] = np.dot(
                oracle.grad_v_g(Point(u + step, v))
                - oracle.grad_v_g(Point(u - step, v)), q) / (2.0 * eps)
        jvp_err = max(jvp_err, rel_err(fd_jvp, oracle.jvp_uv_g(p, q)))
    errors["hvp_vv_g"] = hvp_err
    errors["jvp_uv_g"] = jvp_err

    if oracle.has_constraints:
        ju_err = 0.0
        jv_err = 0.0
        for _ in range(2):
            mu = rng.standard_normal(oracle.dim_c)
            mu /= np.linalg.norm(mu)
            fd_u = _fd_grad(
                lambda x: np.dot(oracle.eval_h(Point(x, v)), mu), u, eps)
            ju_err = max(ju_err, rel_err(fd_u, oracle.jtvp_u_h(p, mu)))
            fd_v = _fd_grad(
                lambda x: np.dot(oracle.eval_h(Point(u, x)), mu), v, eps)
            jv_err = max(jv_err, rel_err(fd_v, oracle.jtvp_v_h(p, mu)))
        errors["jtvp_u_h"] = ju_err
        errors["jtvp_v_h"] = jv_err

    return FdCheckReport(errors)


def with_zero_f(oracle: ProblemOracle) -> ProblemOracle:
    """Same lower level, identically-zero upper cost (feasibility limit)."""
    zero = lambda p: np.zeros(p.u.shape[:-1])
    return replace(
        oracle, name=oracle.name + "+f0", eval_f=zero,
        grad_u_f=lambda p: np.zeros_like(p.u),
        grad_v_f=lambda p: np.zeros_like(p.v))
