"""Bilevel problem oracles and the penalty function machinery.

A :class:`ProblemOracle` bundles analytic callbacks for the upper cost f,
the lower cost g, their first-order gradients, and Hessian/Jacobian-vector
products of g. An inequality/equality constraint h with Jacobian-transpose
products is optional. The dense second-order matrices, which forward-mode
differentiation and the verification yardsticks need, are derived from
the products (``dense_matrix``).

All callbacks must broadcast over leading batch axes of the point
(``u: (..., U)``, ``v: (..., V)``), the derived dense pair included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import BoxBounds, RealVec, make_rng
from .errors import ContractViolationError, NumericError


@dataclass(slots=True)
class Point:
    """Upper/lower variable pair (u, v); slotted, as one is built per
    callback on the step path."""

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


# 0-d float64 operands of the oracle callbacks: a ufunc takes one in
# about 0.39 µs at desk scale, against 0.56 µs for a Python float, which
# it converts on every call to the same bits
_ZERO = np.array(0.0)
_HALF = np.array(0.5)
_ONE = np.array(1.0)
_TWO = np.array(2.0)
_NEG_TWO = np.array(-2.0)


def sqnorm(x, axis=-1):
    # np.add.reduce is the reduction np.sum dispatches to, minus its
    # Python wrapper
    return np.add.reduce(x * x, axis=axis)


def dense_matrix(prod, dim_v: int):
    """The matrix of a product ``prod(p, q)`` linear in a V-vector q, as a
    callback of p: column i is ``prod(p, e_i)``.

    One call on V copies of p against the identity builds it. The copy
    axis goes first, so per-trial arrays of a stacked problem still
    broadcast against the batch axes of p, and the result, of shape
    (..., rows, V), is a fresh C-contiguous copy the caller owns.

    The closure keeps one buffer set, for the shapes of the last p: the
    V copies of u and of v, rewritten in place on every call, and the
    identity stack, read-only. The set is built on the first call and
    again when the shapes change, never before: an oracle whose dense
    pair is never called allocates nothing of size V^2 for it. A call on
    a point of the same shapes then allocates only the product and its
    transposed copy. The products see the same values as with fresh
    buffers (callbacks are pure), so the matrix has the same bytes. The
    buffers are shared by every caller of the closure, so one closure is
    not for concurrent threads; worker processes each have their own.
    """
    slot = None     # (u shape, v shape, Point of the copies, identity)

    def dense(p):
        nonlocal slot
        if slot is None or slot[0] != p.u.shape or slot[1] != p.v.shape:
            v = np.empty((dim_v,) + p.v.shape)
            q = np.zeros(v.shape)
            i = np.arange(dim_v)
            q[i, ..., i] = 1.0
            q.setflags(write=False)
            slot = (p.u.shape, p.v.shape,
                    Point(np.empty((dim_v,) + p.u.shape), v), q)
        pt, q = slot[2], slot[3]
        pt.u[...] = p.u
        pt.v[...] = p.v
        out = prod(pt, q)
        return out.transpose(tuple(range(1, out.ndim)) + (0,)).copy()
    return dense


@dataclass
class ProblemOracle:
    """Callback bundle for one bilevel problem.

    ``dim_c == 0`` means unconstrained (constraint callbacks are None).
    ``hvp_vv_g(p, q)`` applies the lower-level Hessian to q; it must be
    linear in q and symmetric as a bilinear form. ``jvp_uv_g(p, q)``
    applies the U-by-V mixed second-derivative matrix to q. The dense
    ``hess_vv_g(p)`` (V-by-V) and ``jac_uv_g(p)`` (U-by-V) are derived
    from these two products at construction, as ``dense_matrix`` closures
    that allocate nothing until first called; the fields exist so that a
    view (``dataclasses.replace``) keeps or wraps the derived pair, and no
    problem passes its own. ``has_constraints`` (``dim_c > 0``) is set
    here too, so every penalty-gradient call reads a field, and a view
    gets its own.

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
    has_constraints: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.has_constraints = self.dim_c > 0
        if self.hess_vv_g is None:
            self.hess_vv_g = dense_matrix(self.hvp_vv_g, self.dim_v)
        if self.jac_uv_g is None:
            self.jac_uv_g = dense_matrix(self.jvp_uv_g, self.dim_v)

    def check_point(self, p: Point):
        if p.u.shape[-1] != self.dim_u or p.v.shape[-1] != self.dim_v:
            raise ContractViolationError(
                f"point dims ({p.u.shape[-1]}, {p.v.shape[-1]}) do not match "
                f"oracle dims ({self.dim_u}, {self.dim_v})")


@dataclass
class PenaltyParams:
    """Weights of the penalized objective.

    gamma >= 0 is the penalty weight, lam >= 0 the lower-cost regularizer
    (applies to the v-gradient only), nu the multiplier for the
    stationarity constraint, nu_h the multiplier for h when present.
    gamma/lam may be scalars or per-batch arrays; a negative, NaN or
    infinite entry is a ContractViolationError naming the field. The
    weights are read at construction into the factors of the terms they
    scale: ``gamma_v`` and ``lam_v`` for the v-shaped grad_v_g,
    ``gamma_col`` (a column) for h. Given ``v_shape``, v's full (B, V)
    shape, gamma_v and lam_v are arrays of that shape: at desk scale a
    same-shape multiply costs about half a (B, 1)-by-(B, V) broadcast
    one, for the same bits. Build a new instance to change the weights.
    """

    gamma: float | np.ndarray
    lam: float | np.ndarray = 0.0
    nu: Optional[np.ndarray] = None
    nu_h: Optional[np.ndarray] = None
    v_shape: Optional[tuple] = None
    gamma_col: np.ndarray = field(init=False, repr=False, compare=False)
    gamma_v: np.ndarray = field(init=False, repr=False, compare=False)
    # None when lam is the scalar 0.0: the lam term is then left out
    lam_v: Optional[np.ndarray] = field(init=False, repr=False,
                                        compare=False)

    def __post_init__(self):
        # 0 <= x < inf is false for a negative, NaN or infinite weight;
        # the schedule builds one instance per phase, not per step
        for name in ("gamma", "lam"):
            value = getattr(self, name)
            x = np.asarray(value, dtype=np.float64)
            if not ((x >= 0.0) & (x < np.inf)).all():
                raise ContractViolationError(
                    f"{name} must be finite and >= 0, got {value!r}")
        self.gamma_col = _col(self.gamma)
        self.gamma_v = spread(self.gamma_col, self.v_shape)
        lam = self.lam
        self.lam_v = (None if np.ndim(lam) == 0 and lam == 0.0
                      else spread(_col(lam), self.v_shape))


def _col(x):
    """Append a broadcast axis so a scalar/batch weight scales vectors."""
    return np.asarray(x, dtype=np.float64)[..., None]


def spread(x, shape=None):
    """x broadcast to ``shape`` as a new array that owns its data; x
    itself when shape is None."""
    return x if shape is None else np.broadcast_to(x, shape).copy()


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
    w = params.gamma_v * gvg
    if params.nu is not None:
        w = _add(w, params.nu)
    out = gvf + oracle.hvp_vv_g(p, w)
    if params.lam_v is not None:
        out = _add(out, params.lam_v * gvg)
    if oracle.has_constraints:
        out = _add(out, oracle.jtvp_v_h(p, _weighted_h(oracle, p, params)))
    return out


def penalty_grad_u(oracle: ProblemOracle, p: Point,
                   params: PenaltyParams) -> np.ndarray:
    """u-gradient of the penalized objective (no lam term)."""
    guf = oracle.grad_u_f(p)
    gvg = oracle.grad_v_g(p)
    w = params.gamma_v * gvg
    if params.nu is not None:
        w = _add(w, params.nu)
    out = guf + oracle.jvp_uv_g(p, w)
    if oracle.has_constraints:
        out = _add(out, oracle.jtvp_u_h(p, _weighted_h(oracle, p, params)))
    return out


def slackify(oracle: ProblemOracle) -> ProblemOracle:
    """Convert inequality constraints h <= 0 into equalities h + s^2 = 0.

    The returned oracle has upper dimension U + C; the appended
    coordinates are the slacks s, optimized jointly with u. Costs ignore
    s: each callback is the base one on the u-prefix, a u-gradient padded
    with zero slack coordinates, except that ``eval_h`` adds s^2 and
    ``jtvp_u_h`` gains the diagonal 2s block. The dense pair is derived
    from the lifted products, so ``jac_uv_g`` has zero slack rows.

    The lifts are fixed-arity closures, ``lift`` for a callback of p and
    ``lift_q`` for a product of (p, q), picked by the field they lift,
    and the 2s block scales by a 0-d constant (the bits of the Python
    float 2.0). The lifted oracle runs on batches of one or two trials,
    where a call is nearly all fixed cost: with the constrained toy's own
    0-d constants, the lifted ``hvp_vv_g`` at a batch of two took 0.96 µs
    against 1.40 µs through a ``*args`` wrapper onto Python-float
    operands (one 2-vCPU host).
    """
    if oracle.dim_c < 1:
        raise ContractViolationError("slackify needs at least one constraint")
    U, C = oracle.dim_u, oracle.dim_c
    base = oracle

    def lift(fn):
        """fn(p) at (u[..., :U], v)."""
        def lifted(p):
            return fn(Point(p.u[..., :U], p.v))
        return lifted

    def lift_q(fn):
        """fn(p, q) at (u[..., :U], v)."""
        def lifted(p, q):
            return fn(Point(p.u[..., :U], p.v), q)
        return lifted

    def pad(out):
        """A u-gradient with C zero slack coordinates appended."""
        return np.concatenate([out, np.zeros(out.shape[:-1] + (C,))],
                              axis=-1)

    grad_u_f, jvp_uv_g = base.grad_u_f, base.jvp_uv_g
    h, jtvp_h = base.eval_h, base.jtvp_u_h

    def lifted_grad_u_f(p):
        return pad(grad_u_f(Point(p.u[..., :U], p.v)))

    def lifted_jvp_uv_g(p, q):
        return pad(jvp_uv_g(Point(p.u[..., :U], p.v), q))

    def eval_h(p):
        s = p.u[..., U:]
        return h(Point(p.u[..., :U], p.v)) + s * s

    def jtvp_u_h(p, mu):
        return np.concatenate([jtvp_h(Point(p.u[..., :U], p.v), mu),
                               _TWO * p.u[..., U:] * mu], axis=-1)

    return ProblemOracle(
        name=base.name + "+slack", dim_u=U + C, dim_v=base.dim_v, dim_c=C,
        eval_f=lift(base.eval_f), eval_g=lift(base.eval_g),
        grad_u_f=lifted_grad_u_f, grad_v_f=lift(base.grad_v_f),
        grad_v_g=lift(base.grad_v_g), hvp_vv_g=lift_q(base.hvp_vv_g),
        jvp_uv_g=lifted_jvp_uv_g, eval_h=eval_h, jtvp_u_h=jtvp_u_h,
        jtvp_v_h=lift_q(base.jtvp_v_h))


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


FD_EPS = 1e-5  # central-difference step of the fd checks


def central_diff(fun, x, eps):
    """Central differences of fun at x, one row per coordinate:
    row i is (fun(x + eps e_i) - fun(x - eps e_i)) / (2 eps). For a scalar
    fun this is the gradient; for fun(x) = A @ x it is A.T."""
    rows = []
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = eps
        rows.append((fun(x + step) - fun(x - step)) / (2.0 * eps))
    return np.array(rows)


def fd_check_oracle(oracle: ProblemOracle, p: Point) -> FdCheckReport:
    """Check analytic callbacks against central finite differences of
    step FD_EPS.

    Report-only: returns per-callback max relative error (denominator
    max(1, ||exact||)), never raises on mismatch. Second-order and
    constraint products are probed along two random unit directions from
    a fixed stream: hvp_vv_g by differences of grad_v_g along the
    direction, jvp_uv_g by the mixed-derivative matrix (``central_diff``
    of grad_v_g over u, built once) times the direction.
    """
    oracle.check_point(p)
    rng = make_rng(0, 0xFD)
    u, v = np.asarray(p.u, float), np.asarray(p.v, float)
    errors = {}

    errors["grad_u_f"] = rel_err(
        central_diff(lambda x: oracle.eval_f(Point(x, v)), u, FD_EPS),
        oracle.grad_u_f(p))
    errors["grad_v_f"] = rel_err(
        central_diff(lambda x: oracle.eval_f(Point(u, x)), v, FD_EPS),
        oracle.grad_v_f(p))
    errors["grad_v_g"] = rel_err(
        central_diff(lambda x: oracle.eval_g(Point(u, x)), v, FD_EPS),
        oracle.grad_v_g(p))

    mixed = central_diff(lambda x: oracle.grad_v_g(Point(x, v)), u, FD_EPS)
    hvp_err = 0.0
    jvp_err = 0.0
    for _ in range(2):
        q = rng.standard_normal(oracle.dim_v)
        q /= np.linalg.norm(q)
        fd_hvp = (oracle.grad_v_g(Point(u, v + FD_EPS * q))
                  - oracle.grad_v_g(Point(u, v - FD_EPS * q))) / (2.0 * FD_EPS)
        hvp_err = max(hvp_err, rel_err(fd_hvp, oracle.hvp_vv_g(p, q)))
        jvp_err = max(jvp_err, rel_err(mixed @ q, oracle.jvp_uv_g(p, q)))
    errors["hvp_vv_g"] = hvp_err
    errors["jvp_uv_g"] = jvp_err

    if oracle.has_constraints:
        ju_err = 0.0
        jv_err = 0.0
        for _ in range(2):
            mu = rng.standard_normal(oracle.dim_c)
            mu /= np.linalg.norm(mu)
            fd_u = central_diff(
                lambda x: np.dot(oracle.eval_h(Point(x, v)), mu), u, FD_EPS)
            ju_err = max(ju_err, rel_err(fd_u, oracle.jtvp_u_h(p, mu)))
            fd_v = central_diff(
                lambda x: np.dot(oracle.eval_h(Point(u, x)), mu), v, FD_EPS)
            jv_err = max(jv_err, rel_err(fd_v, oracle.jtvp_v_h(p, mu)))
        errors["jtvp_u_h"] = ju_err
        errors["jtvp_v_h"] = jv_err

    return FdCheckReport(errors)
