"""Benchmark problem factories with analytic first/second-order callbacks.

Every factory takes the seed first and returns a :class:`ProblemInstance`
whose oracle passes the finite-difference self-checks. The synthetic
quadratics and the constrained toy also take a list of seeds, which gives
one stacked problem per seed, so a whole trial set can run in lockstep on
a single core.

``PROBLEMS`` registers each factory by name; a spec's ``defaults`` (the
``[problem]`` keys of a run config) are the factory's keyword defaults.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import BoxBounds, derive_seed, gaussian_matrix, make_rng
from .errors import ContractViolationError
from .oracle import Point, ProblemOracle, sample_in_box, sqnorm

LOGISTIC_REG = 0.05  # ridge coefficient on lower-level classifier weights


@dataclass
class ProblemInstance:
    """An oracle plus the metadata the bench harness needs.

    ``metric`` maps a Point to distance-from-solution (None if no solution
    is known). ``init_sampler`` maps a seed (or a list of seeds, giving a
    stacked batch) to an initial Point.
    """

    name: str
    oracle: ProblemOracle
    metric: Optional[Callable[[Point], np.ndarray]]
    init_sampler: Callable
    box: Optional[BoxBounds] = None
    expects_singular: bool = False
    info: dict = field(default_factory=dict)


def _mat_vec(A, x):
    return np.einsum("...ij,...j->...i", A, x)


def _mat_t_vec(A, y):
    return np.einsum("...ij,...i->...j", A, y)


def _memo(fn):
    """One-slot memo of ``fn(a)`` or ``fn(a, b)`` for a term two callbacks
    share.

    The key is each argument's shape, dtype and bytes, in one flat tuple,
    so equal values hit whatever array holds them, and a point changed in
    place misses. The result (an array or a tuple of them) is stored
    read-only: a hit hands out the very arrays of the miss, which no
    caller may alter.
    """
    key = out = None

    def store(k, res):
        nonlocal key, out
        for x in res if isinstance(res, tuple) else (res,):
            if isinstance(x, np.ndarray):
                x.setflags(write=False)
        key, out = k, res
        return res

    arity = fn.__code__.co_argcount
    if arity == 1:
        def memo(a):
            k = (a.shape, a.dtype, a.tobytes())
            return out if k == key else store(k, fn(a))
    elif arity == 2:
        def memo(a, b):
            k = (a.shape, a.dtype, a.tobytes(), b.shape, b.dtype, b.tobytes())
            return out if k == key else store(k, fn(a, b))
    else:
        raise ContractViolationError(f"_memo takes 1 or 2 arguments, "
                                     f"not {arity}")
    return memo


# ---------------------------------------------------------------------------
# Synthetic quadratic examples
# ---------------------------------------------------------------------------

SYNTHETIC_BOX = BoxBounds(-5.0, 5.0)


def _row_space_projector(A):
    """P = A^T (A A^T)^-1 A, orthogonal projector onto the row space."""
    AAT = A @ np.swapaxes(A, -1, -2)
    return np.swapaxes(A, -1, -2) @ np.linalg.solve(AAT, A)


def _synthetic_oracle(sid: int, dim: int, A) -> ProblemOracle:
    ones = 1.0

    if sid == 1:
        # f = |u|^2 + |v|^2, g = |1 - u - v|^2
        return ProblemOracle(
            name="example1", dim_u=dim, dim_v=dim, dim_c=0,
            eval_f=lambda p: sqnorm(p.u) + sqnorm(p.v),
            eval_g=lambda p: sqnorm(ones - p.u - p.v),
            grad_u_f=lambda p: 2.0 * p.u,
            grad_v_f=lambda p: 2.0 * p.v,
            grad_v_g=lambda p: 2.0 * (p.u + p.v - ones),
            hvp_vv_g=lambda p, q: 2.0 * q,
            jvp_uv_g=lambda p, q: 2.0 * q,
            hess_vv_g=lambda p: 2.0 * np.eye(dim),
            jac_uv_g=lambda p: 2.0 * np.eye(dim))

    if sid == 2:
        # f = |v|^2 - |u - v|^2, g = |u - v|^2
        return ProblemOracle(
            name="example2", dim_u=dim, dim_v=dim, dim_c=0,
            eval_f=lambda p: sqnorm(p.v) - sqnorm(p.u - p.v),
            eval_g=lambda p: sqnorm(p.u - p.v),
            grad_u_f=lambda p: -2.0 * (p.u - p.v),
            grad_v_f=lambda p: 2.0 * p.v + 2.0 * (p.u - p.v),
            grad_v_g=lambda p: -2.0 * (p.u - p.v),
            hvp_vv_g=lambda p, q: 2.0 * q,
            jvp_uv_g=lambda p, q: -2.0 * q,
            hess_vv_g=lambda p: 2.0 * np.eye(dim),
            jac_uv_g=lambda p: -2.0 * np.eye(dim))

    if sid == 3:
        # f = |u|^2 + |v|^2, g = (1-u-v)^T A^T A (1-u-v), A^T A rank-deficient
        def g3(p):
            return sqnorm(_mat_vec(A, ones - p.u - p.v))

        def gvg3(p):
            return -2.0 * _mat_t_vec(A, _mat_vec(A, ones - p.u - p.v))

        return ProblemOracle(
            name="example3", dim_u=dim, dim_v=dim, dim_c=0,
            eval_f=lambda p: sqnorm(p.u) + sqnorm(p.v),
            eval_g=g3,
            grad_u_f=lambda p: 2.0 * p.u,
            grad_v_f=lambda p: 2.0 * p.v,
            grad_v_g=gvg3,
            hvp_vv_g=lambda p, q: 2.0 * _mat_t_vec(A, _mat_vec(A, q)),
            jvp_uv_g=lambda p, q: 2.0 * _mat_t_vec(A, _mat_vec(A, q)),
            hess_vv_g=lambda p: 2.0 * A.T @ A,
            jac_uv_g=lambda p: 2.0 * A.T @ A)

    if sid == 4:
        # f = |v|^2 - (u-v)^T A^T A (u-v), g = (u-v)^T A^T A (u-v);
        # the gradients share A^T A (u - v), computed once per point
        ATAd = _memo(lambda u, v: _mat_t_vec(A, _mat_vec(A, u - v)))

        return ProblemOracle(
            name="example4", dim_u=dim, dim_v=dim, dim_c=0,
            eval_f=lambda p: sqnorm(p.v) - sqnorm(_mat_vec(A, p.u - p.v)),
            eval_g=lambda p: sqnorm(_mat_vec(A, p.u - p.v)),
            grad_u_f=lambda p: -2.0 * ATAd(p.u, p.v),
            grad_v_f=lambda p: 2.0 * p.v + 2.0 * ATAd(p.u, p.v),
            grad_v_g=lambda p: -2.0 * ATAd(p.u, p.v),
            hvp_vv_g=lambda p, q: 2.0 * _mat_t_vec(A, _mat_vec(A, q)),
            jvp_uv_g=lambda p, q: -2.0 * _mat_t_vec(A, _mat_vec(A, q)),
            hess_vv_g=lambda p: 2.0 * A.T @ A,
            jac_uv_g=lambda p: -2.0 * A.T @ A)

    raise ContractViolationError(f"synthetic id must be 1..4, got {sid}")


def _synthetic_metric(sid: int, A):
    if sid == 1:
        return lambda p: np.sqrt(sqnorm(p.u - 0.5) + sqnorm(p.v - 0.5))
    if sid == 2:
        return lambda p: np.sqrt(sqnorm(p.u) + sqnorm(p.v))
    P = _row_space_projector(A)
    if sid == 3:
        return lambda p: np.sqrt(sqnorm(_mat_vec(P, p.u - 0.5))
                                 + sqnorm(_mat_vec(P, p.v - 0.5)))
    return lambda p: np.sqrt(sqnorm(_mat_vec(P, p.u)) + sqnorm(p.v))


def make_synthetic(sid: int, dim: int = 10, seed=0) -> ProblemInstance:
    """Examples 1-4: quadratic bilevel problems on the box |x_i| <= 5.

    ids 3-4 use a (dim/2) x dim Gaussian matrix A (rank-deficient A^T A)
    drawn from ``seed``; their solution sets are affine, so the metric
    projects onto the row space of A. A list of seeds gives the stacked
    instance, one independent trial per seed run in lockstep: ids 3-4
    stack one A per seed along the leading axis, and the dense callbacks,
    which are single-point only, are left out.
    """
    if dim < 1:
        raise ContractViolationError("dim must be >= 1")
    stacked = not isinstance(seed, (int, np.integer))
    A = None
    if sid in (3, 4):
        if dim % 2:
            raise ContractViolationError("ids 3-4 need an even dim")
        A = (np.stack([_synthetic_a(dim, s) for s in seed]) if stacked
             else _synthetic_a(dim, seed))
    oracle = _synthetic_oracle(sid, dim, A)
    if stacked:
        oracle.hess_vv_g = oracle.jac_uv_g = None
    return ProblemInstance(
        name=oracle.name, oracle=oracle, metric=_synthetic_metric(sid, A),
        init_sampler=lambda s: sample_in_box(dim, dim, SYNTHETIC_BOX, s),
        box=SYNTHETIC_BOX, expects_singular=sid in (3, 4), info={"A": A})


def _synthetic_a(dim: int, seed: int) -> np.ndarray:
    return gaussian_matrix(dim // 2, dim, derive_seed(seed, 0xA))


# ---------------------------------------------------------------------------
# Random well-conditioned quadratic (cross-oracle agreement target)
# ---------------------------------------------------------------------------

def make_quadratic(seed: int = 0, dim_u: int = 5,
                   dim_v: int = 5) -> ProblemInstance:
    """g = v'Hv/2 + u'Mv + c'v with H well-conditioned SPD;
    f = |u - a|^2/2 + |v - b|^2/2."""
    if dim_u < 1 or dim_v < 1:
        raise ContractViolationError("dim_u and dim_v must be >= 1")
    rng = make_rng(seed, 0x40AD)
    Q, _ = np.linalg.qr(rng.standard_normal((dim_v, dim_v)))
    H = Q @ np.diag(rng.uniform(1.0, 3.0, dim_v)) @ Q.T
    H = 0.5 * (H + H.T)
    M = rng.standard_normal((dim_u, dim_v)) / np.sqrt(dim_v)
    c = rng.standard_normal(dim_v)
    a = rng.standard_normal(dim_u)
    b = rng.standard_normal(dim_v)

    def gvg(p):
        return (np.einsum("ij,...j->...i", H, p.v)
                + np.einsum("ij,...i->...j", M, p.u) + c)

    oracle = ProblemOracle(
        name="quadratic", dim_u=dim_u, dim_v=dim_v, dim_c=0,
        eval_f=lambda p: 0.5 * sqnorm(p.u - a) + 0.5 * sqnorm(p.v - b),
        eval_g=lambda p: (0.5 * np.sum(p.v * np.einsum("ij,...j->...i", H, p.v), -1)
                          + np.sum(p.u * np.einsum("ij,...j->...i", M, p.v), -1)
                          + np.sum(c * p.v, -1)),
        grad_u_f=lambda p: p.u - a,
        grad_v_f=lambda p: p.v - b,
        grad_v_g=gvg,
        hvp_vv_g=lambda p, q: np.einsum("ij,...j->...i", H, q),
        jvp_uv_g=lambda p, q: np.einsum("ij,...j->...i", M, q),
        hess_vv_g=lambda p: H,
        jac_uv_g=lambda p: M)

    def sample(seed_):
        r = make_rng(seed_, 0x1A17)
        return Point(r.standard_normal(dim_u), r.standard_normal(dim_v))

    return ProblemInstance(name="quadratic", oracle=oracle, metric=None,
                           init_sampler=sample, box=None,
                           info={"H": H, "M": M, "c": c, "a": a, "b": b})


# ---------------------------------------------------------------------------
# Constrained toy (inequality constraint, exercised through slackify)
# ---------------------------------------------------------------------------

def make_constrained_toy(seed: int = 0) -> ProblemInstance:
    """f = u^2 + v^2, g = (v-u)^2, subject to 1 - u - v <= 0.

    On the lower-level solution v = u the constraint binds at u = 0.5;
    the optimum is (0.5, 0.5) with f = 0.5. The seed only draws initial
    points, and every callback broadcasts over a leading batch axis, so
    a list of seeds gives the stacked instance.
    """
    oracle = ProblemOracle(
        name="constrained_toy", dim_u=1, dim_v=1, dim_c=1,
        eval_f=lambda p: sqnorm(p.u) + sqnorm(p.v),
        eval_g=lambda p: sqnorm(p.v - p.u),
        grad_u_f=lambda p: 2.0 * p.u,
        grad_v_f=lambda p: 2.0 * p.v,
        grad_v_g=lambda p: 2.0 * (p.v - p.u),
        hvp_vv_g=lambda p, q: 2.0 * q,
        jvp_uv_g=lambda p, q: -2.0 * q,
        eval_h=lambda p: 1.0 - p.u - p.v,
        jtvp_u_h=lambda p, mu: -mu,
        jtvp_v_h=lambda p, mu: -mu,
        hess_vv_g=lambda p: 2.0 * np.eye(1),
        jac_uv_g=lambda p: -2.0 * np.eye(1))

    def metric(p):
        return np.sqrt(sqnorm(p.u[..., :1] - 0.5) + sqnorm(p.v - 0.5))

    return ProblemInstance(
        name="constrained_toy", oracle=oracle, metric=metric,
        init_sampler=lambda s: sample_in_box(1, 1, SYNTHETIC_BOX, s),
        box=SYNTHETIC_BOX)


def constrained_toy_grid_optimum(step: float = 1e-3):
    """Brute-force solution oracle: scan u on [-5, 5] with v = u, keep
    feasible points (1 - u - v <= 0), return the f-minimizing (u, f)."""
    us = np.arange(-5.0, 5.0 + step, step)
    feasible = 1.0 - 2.0 * us <= 0.0
    f = 2.0 * us * us
    f[~feasible] = np.inf
    i = int(np.argmin(f))
    return float(us[i]), float(f[i])


# ---------------------------------------------------------------------------
# Logistic-regression toys
# ---------------------------------------------------------------------------

def _augment(X):
    return np.concatenate([X, np.ones(X.shape[:-1] + (1,))], axis=-1)


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _ce_slope(z):
    """d/dz of the cross-entropy log(1 + exp(-z))."""
    return -_sigmoid(-z)


def _margin(Xb, y, w):
    """z_i = y_i * (w . x_i) for w possibly batched: (..., N)."""
    return y * np.einsum("nd,...d->...n", Xb, w)


def _margin_terms(z):
    """(z, sigma(-z)), the form in which a margin is shared: the
    cross-entropy slope is -sigma(-z), as _ce_slope computes it, and the
    curvature is _curvature of the pair."""
    return z, _sigmoid(-z)


def _curvature(terms):
    """d2/dz2 of the cross-entropy log(1 + exp(-z)), sigma(z) sigma(-z),
    from a (z, sigma(-z)) pair."""
    z, s = terms
    return _sigmoid(z) * s


def logistic_losses(Xb, y, w):
    """Per-example cross-entropy log(1 + exp(-z)), stable."""
    return np.logaddexp(0.0, -_margin(Xb, y, w))


def fit_logistic(X, y, sample_weight=None,
                 reg: float = LOGISTIC_REG) -> np.ndarray:
    """Newton fit of l2-regularized logistic regression (labels +-1).

    Minimizes sum(w_i * l_i) / sum(w_i) + reg * |w|^2 (bias included in
    the parameter vector and in the penalty), in at most 60 steps.
    """
    Xb = _augment(np.asarray(X, float))
    y = np.asarray(y, float)
    if sample_weight is None:
        sample_weight = np.ones(len(y))
    wts = np.asarray(sample_weight, float) / np.sum(sample_weight)
    w = np.zeros(Xb.shape[1])
    eye = np.eye(Xb.shape[1])
    for _ in range(60):
        terms = _margin_terms(_margin(Xb, y, w))
        a = -terms[1] * y                          # dl/dw coefficient
        r = _curvature(terms)                      # d2l/dz2
        grad = Xb.T @ (wts * a) + 2.0 * reg * w
        hess = (Xb * (wts * r)[:, None]).T @ Xb + 2.0 * reg * eye
        step = np.linalg.solve(hess, grad)
        w = w - step
        if np.linalg.norm(grad) < 1e-12:
            break
    return w


def accuracy(w, X, y) -> float:
    z = np.einsum("nd,d->n", _augment(np.asarray(X, float)), w)
    return float(np.mean(np.sign(z) == np.sign(y)))


@dataclass
class DatasetSplit:
    """Train/val/test features and +-1 labels (train labels may be noisy)."""

    X_train: np.ndarray
    y_train: np.ndarray
    X_val: np.ndarray
    y_val: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray

    @property
    def n_train(self):
        return len(self.y_train)

    @property
    def n_val(self):
        return len(self.y_val)



def make_blobs(seed: int, n_train: int, n_val: int, n_test: int = 2000,
               sep: float = 1.5) -> DatasetSplit:
    """Two isotropic Gaussian classes with means (+-sep, 0), balanced."""
    rng = make_rng(seed, 0xB10B)

    def draw(n):
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        X = rng.standard_normal((n, 2))
        X[:, 0] += sep * y
        perm = rng.permutation(n)
        return X[perm], y[perm]

    Xtr, ytr = draw(n_train)
    Xv, yv = draw(n_val)
    Xte, yte = draw(n_test)
    return DatasetSplit(Xtr, ytr, Xv, yv, Xte, yte)


def _val_upper(Xb_val, y_val, sign=1.0):
    """Mean validation CE as the upper cost (sign=-1 for attackers)."""
    n_val = len(y_val)

    def eval_f(p):
        return sign * np.mean(logistic_losses(Xb_val, y_val, p.v), axis=-1)

    def grad_v_f(p):
        a = _ce_slope(_margin(Xb_val, y_val, p.v)) * y_val
        return sign * np.einsum("...n,nd->...d", a, Xb_val) / n_val

    return eval_f, grad_v_f


def make_importance_toy(seed: int = 0, n_train: int = 200, n_val: int = 50,
                        noise_frac: float = 0.25) -> ProblemInstance:
    """Per-example importance learning on 2-D Gaussian blobs.

    Upper variable u (one entry per training point) is squashed to
    importances u' = 0.5 (tanh(u) + 1); the lower level minimizes the
    importance-weighted mean training CE (normalized by sum u', which is
    differentiated through) plus 0.05 |w|^2. noise_frac of the training
    labels are flipped; the flip mask is recorded in ``info``.
    """
    if n_train < 1 or n_val < 1:
        raise ContractViolationError("n_train and n_val must be >= 1")
    if not 0.0 <= noise_frac < 1.0:
        raise ContractViolationError("noise_frac must be in [0, 1)")
    split = make_blobs(seed, n_train, n_val)
    rng = make_rng(seed, 0xF11)
    # one-sided corruption (positive class relabeled negative): biased
    # noise actually moves the fitted boundary, unlike symmetric flips
    # which a regularized linear model mostly shrugs off
    n_flip = int(round(noise_frac * n_train))
    pos = np.flatnonzero(split.y_train > 0)
    if n_flip > pos.size:
        raise ContractViolationError("noise_frac too large for one class")
    flip_idx = rng.choice(pos, size=n_flip, replace=False)
    flip_mask = np.zeros(n_train, dtype=bool)
    flip_mask[flip_idx] = True
    y_noisy = np.where(flip_mask, -split.y_train, split.y_train)
    split = DatasetSplit(split.X_train, y_noisy, split.X_val, split.y_val,
                         split.X_test, split.y_test)

    Xb = _augment(split.X_train)
    y = split.y_train
    Xb_val = _augment(split.X_val)
    reg = LOGISTIC_REG
    eval_f, grad_v_f = _val_upper(Xb_val, split.y_val)

    # terms the callbacks share at one point, each computed once per
    # value: the importances W and their sum S on u, the margin terms on
    # v, the weighted mean gradient m on (u, v)
    @_memo
    def weights(u):
        W = importance_values(u)
        return W, np.sum(W, axis=-1)

    margin = _memo(lambda v: _margin_terms(_margin(Xb, y, v)))

    def d_weights(u):
        return 0.5 / np.cosh(u) ** 2

    def slope(v):
        return -margin(v)[1] * y

    @_memo
    def mean_grad(u, v):
        W, S = weights(u)
        return np.einsum("...n,nd->...d", W * slope(v), Xb) / S[..., None]

    def eval_g(p):
        W, S = weights(p.u)
        l = np.logaddexp(0.0, -margin(p.v)[0])
        return np.sum(W * l, axis=-1) / S + reg * sqnorm(p.v)

    def grad_v_g(p):
        return mean_grad(p.u, p.v) + 2.0 * reg * p.v

    def hvp(p, q):
        W, S = weights(p.u)
        t = np.einsum("nd,...d->...n", Xb, q)
        return (np.einsum("...n,nd->...d", W * _curvature(margin(p.v)) * t,
                          Xb) / S[..., None] + 2.0 * reg * q)

    def jvp(p, q):
        # row i of the mixed matrix: (dW_i/du_i)(grad l_i - m)/S
        S = weights(p.u)[1]
        a = slope(p.v)
        xq = np.einsum("nd,...d->...n", Xb, q)
        mq = np.sum(mean_grad(p.u, p.v) * q, axis=-1)
        return d_weights(p.u) * (a * xq - mq[..., None]) / S[..., None]

    def hess(p):
        W, S = weights(p.u)
        return ((Xb * (W * _curvature(margin(p.v)))[:, None]).T @ Xb / S
                + 2.0 * reg * np.eye(3))

    def jac(p):
        S = weights(p.u)[1]
        a = slope(p.v)
        m = mean_grad(p.u, p.v)
        return (d_weights(p.u) / S)[:, None] * (a[:, None] * Xb - m[None, :])

    oracle = ProblemOracle(
        name="importance_toy", dim_u=n_train, dim_v=3, dim_c=0,
        eval_f=eval_f, eval_g=eval_g,
        grad_u_f=lambda p: np.zeros_like(p.u),
        grad_v_f=grad_v_f, grad_v_g=grad_v_g,
        hvp_vv_g=hvp, jvp_uv_g=jvp, hess_vv_g=hess, jac_uv_g=jac)

    def sample(seed_):
        # u = 0 gives uniform importances 0.5; w warm-started on validation
        w0 = fit_logistic(split.X_val, split.y_val, reg=reg)
        return Point(np.zeros(n_train), w0)

    return ProblemInstance(
        name="importance_toy", oracle=oracle, metric=None,
        init_sampler=sample, box=None,
        info={"split": split, "flip_mask": flip_mask, "reg": reg})


def importance_values(u):
    return 0.5 * (np.tanh(u) + 1.0)


def make_poison_toy(seed: int = 0, n_train: int = 100, n_val: int = 100,
                    n_poison: int = 10) -> ProblemInstance:
    """Untargeted poisoning: learn poison features that maximize the
    validation loss of the retrained classifier.

    The upper variable is the flattened n_poison x 2 feature block with
    fixed flipped labels, initialized from training points; the lower
    level is 0.05-regularized logistic regression on clean + poison. The
    upper objective is the negated validation CE (maximization written
    as minimization). Poison features live in the [-5, 5] box.
    """
    if not n_train >= n_poison >= 1:
        raise ContractViolationError("need n_train >= n_poison >= 1")
    if n_val < 1:
        raise ContractViolationError("n_val must be >= 1")
    split = make_blobs(seed, n_train, n_val)
    rng = make_rng(seed, 0x9015)
    pick = rng.choice(n_train, size=n_poison, replace=False)
    init_features = split.X_train[pick].copy()
    y_poison = -split.y_train[pick]

    Xb_clean = _augment(split.X_train)
    y_clean = split.y_train
    Xb_val = _augment(split.X_val)
    n_total = n_train + n_poison
    reg = LOGISTIC_REG
    eval_f, grad_v_f = _val_upper(Xb_val, split.y_val, sign=-1.0)

    # terms the callbacks share at one point, each computed once per
    # value: the augmented poison block on u, the clean margin terms on
    # v, the poison margin terms on (u, v)
    @_memo
    def poison_block(u):
        X = u.reshape(u.shape[:-1] + (n_poison, 2))
        return np.concatenate([X, np.ones(X.shape[:-1] + (1,))], axis=-1)

    clean_margin = _memo(
        lambda v: _margin_terms(_margin(Xb_clean, y_clean, v)))
    poison_margin = _memo(lambda u, v: _margin_terms(
        y_poison * np.einsum("...nd,...d->...n", poison_block(u), v)))

    def eval_g(p):
        lc = np.logaddexp(0.0, -clean_margin(p.v)[0])
        lp = np.logaddexp(0.0, -poison_margin(p.u, p.v)[0])
        return ((np.sum(lc, axis=-1) + np.sum(lp, axis=-1)) / n_total
                + reg * sqnorm(p.v))

    def grad_v_g(p):
        Xbp = poison_block(p.u)
        sc = -clean_margin(p.v)[1]
        sp = -poison_margin(p.u, p.v)[1]
        out = np.einsum("...n,nd->...d", sc * y_clean, Xb_clean)
        out = out + np.einsum("...n,...nd->...d", sp * y_poison, Xbp)
        return out / n_total + 2.0 * reg * p.v

    def hvp(p, q):
        Xbp = poison_block(p.u)
        rc = _curvature(clean_margin(p.v))
        rp = _curvature(poison_margin(p.u, p.v))
        tc = np.einsum("nd,...d->...n", Xb_clean, q)
        tp = np.einsum("...nd,...d->...n", Xbp, q)
        out = np.einsum("...n,nd->...d", rc * tc, Xb_clean)
        out = out + np.einsum("...n,...nd->...d", rp * tp, Xbp)
        return out / n_total + 2.0 * reg * q

    def jvp(p, q):
        # d(grad_w l_j)/dx_j = r_j w_f xb_j^T + a_j E; rows (j,b) dot q
        Xbp = poison_block(p.u)
        terms = poison_margin(p.u, p.v)
        a = -terms[1] * y_poison
        xq = np.einsum("...nd,...d->...n", Xbp, q)
        wf = p.v[..., None, :2]
        out = ((_curvature(terms) * xq)[..., None] * wf
               + a[..., None] * q[..., None, :2])
        return out.reshape(p.u.shape) / n_total

    def hess(p):
        Xbp = poison_block(p.u)
        rc = _curvature(clean_margin(p.v))
        rp = _curvature(poison_margin(p.u, p.v))
        H = (Xb_clean * rc[:, None]).T @ Xb_clean
        H = H + (Xbp * rp[:, None]).T @ Xbp
        return H / n_total + 2.0 * reg * np.eye(3)

    def jac(p):
        # block (j, b, c) = r_j w_b x_jc + a_j [b == c]
        Xbp = poison_block(p.u)
        terms = poison_margin(p.u, p.v)
        a = -terms[1] * y_poison
        r = _curvature(terms)
        blocks = (r[:, None] * p.v[None, :2])[:, :, None] * Xbp[:, None, :]
        eye = np.zeros((2, 3))
        eye[0, 0] = eye[1, 1] = 1.0
        blocks = blocks + a[:, None, None] * eye[None]
        return blocks.reshape(2 * n_poison, 3) / n_total

    oracle = ProblemOracle(
        name="poison_toy", dim_u=2 * n_poison, dim_v=3, dim_c=0,
        eval_f=eval_f, eval_g=eval_g,
        grad_u_f=lambda p: np.zeros_like(p.u),
        grad_v_f=grad_v_f, grad_v_g=grad_v_g,
        hvp_vv_g=hvp, jvp_uv_g=jvp, hess_vv_g=hess, jac_uv_g=jac)

    def retrain(features) -> np.ndarray:
        """Classifier fit on clean data plus the given poison block."""
        X = np.concatenate([split.X_train, features.reshape(n_poison, 2)])
        yy = np.concatenate([y_clean, y_poison])
        return fit_logistic(X, yy, reg=reg)

    def sample(seed_):
        u0 = init_features.ravel().copy()
        return Point(u0, retrain(u0))

    return ProblemInstance(
        name="poison_toy", oracle=oracle, metric=None, init_sampler=sample,
        box=SYNTHETIC_BOX,
        info={"split": split, "y_poison": y_poison, "retrain": retrain,
              "init_features": init_features, "n_poison": n_poison,
              "reg": reg})


# ---------------------------------------------------------------------------
# Ridge hyperparameter toy
# ---------------------------------------------------------------------------

RIDGE_GRID = np.linspace(-6.0, 2.0, 1000)


def ridge_closed_form(X, y, log_reg):
    """w*(u) = (X'X/N + e^u I)^-1 X'y / N."""
    n, d = X.shape
    M = X.T @ X / n + np.exp(log_reg) * np.eye(d)
    return np.linalg.solve(M, X.T @ y / n)


def ridge_grid_optimum(X_tr, y_tr, X_val, y_val) -> float:
    """Solution oracle: validation-MSE-minimizing u over RIDGE_GRID, using
    the closed-form ridge solution at every grid point."""
    best_u, best = 0.0, np.inf
    for u in RIDGE_GRID:
        w = ridge_closed_form(X_tr, y_tr, u)
        mse = np.mean((X_val @ w - y_val) ** 2)
        if mse < best:
            best, best_u = mse, float(u)
    return best_u


def make_hyperparam_ridge(seed: int = 0, n: int = 80, d: int = 6,
                          reg_true: float = 2.0) -> ProblemInstance:
    """Scalar log-regularizer tuning for ridge regression.

    Lower level: |X_tr w - y_tr|^2 / N + e^u |w|^2; upper level:
    validation MSE. reg_true sets the observation-noise variance, which
    controls how much shrinkage the validation set prefers. The train
    split is kept small relative to d (and the validation split large) so
    the preferred regularizer is interior to the search grid. The metric
    is |u - u*| against the grid-search solution oracle.
    """
    if not n >= d >= 1:
        raise ContractViolationError("need n >= d >= 1")
    rng = make_rng(seed, 0x61D)
    w0 = rng.standard_normal(d)
    X = rng.standard_normal((n, d))
    y = X @ w0 + np.sqrt(reg_true) * rng.standard_normal(n)
    n_tr = max(d + 2, int(0.15 * n))
    n_val = int(0.6 * n)
    if n_tr + n_val >= n:
        raise ContractViolationError("n too small for a train/val/test split")
    X_tr, y_tr = X[:n_tr], y[:n_tr]
    X_val, y_val = X[n_tr:n_tr + n_val], y[n_tr:n_tr + n_val]
    X_te, y_te = X[n_tr + n_val:], y[n_tr + n_val:]
    split = DatasetSplit(X_tr, y_tr, X_val, y_val, X_te, y_te)

    def res_tr(w):
        return np.einsum("nd,...d->...n", X_tr, w) - y_tr

    def res_val(w):
        return np.einsum("nd,...d->...n", X_val, w) - y_val

    def e_u(p):
        return np.exp(p.u[..., 0])

    oracle = ProblemOracle(
        name="ridge", dim_u=1, dim_v=d, dim_c=0,
        eval_f=lambda p: np.mean(res_val(p.v) ** 2, axis=-1),
        eval_g=lambda p: (np.mean(res_tr(p.v) ** 2, axis=-1)
                          + e_u(p) * sqnorm(p.v)),
        grad_u_f=lambda p: np.zeros_like(p.u),
        grad_v_f=lambda p: 2.0 * np.einsum("nd,...n->...d", X_val,
                                           res_val(p.v)) / len(y_val),
        grad_v_g=lambda p: (2.0 * np.einsum("nd,...n->...d", X_tr,
                                            res_tr(p.v)) / n_tr
                            + 2.0 * e_u(p)[..., None] * p.v),
        hvp_vv_g=lambda p, q: (2.0 * np.einsum(
            "nd,...n->...d", X_tr,
            np.einsum("nd,...d->...n", X_tr, q)) / n_tr
            + 2.0 * e_u(p)[..., None] * q),
        jvp_uv_g=lambda p, q: 2.0 * e_u(p)[..., None]
        * np.sum(p.v * q, axis=-1, keepdims=True),
        hess_vv_g=lambda p: (2.0 * X_tr.T @ X_tr / n_tr
                             + 2.0 * e_u(p) * np.eye(d)),
        jac_uv_g=lambda p: (2.0 * e_u(p) * p.v)[None, :])

    u_star = ridge_grid_optimum(X_tr, y_tr, X_val, y_val)

    def metric(p):
        return np.abs(p.u[..., 0] - u_star)

    def sample(seed_):
        return Point(np.zeros(1), ridge_closed_form(X_tr, y_tr, 0.0))

    return ProblemInstance(
        name="ridge", oracle=oracle, metric=metric, init_sampler=sample,
        box=None, info={"split": split, "u_star": u_star, "w0": w0})


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    factory: Callable
    batch_factory: Optional[Callable]
    defaults: dict


def _spec(factory, batch_factory=None) -> ProblemSpec:
    """Spec whose defaults are the factory's keyword defaults after the
    seed, so the [problem] keys follow the factory signature."""
    params = list(inspect.signature(factory).parameters.values())[1:]
    return ProblemSpec(factory, batch_factory,
                       {p.name: p.default for p in params})


def _example(sid: int) -> ProblemSpec:
    def factory(seed, dim=10):
        return make_synthetic(sid, dim, seed)
    return _spec(factory, batch_factory=factory)


PROBLEMS = {
    **{f"example{sid}": _example(sid) for sid in range(1, 5)},
    "quadratic": _spec(make_quadratic),
    "constrained_toy": _spec(make_constrained_toy,
                             batch_factory=make_constrained_toy),
    "ridge": _spec(make_hyperparam_ridge),
    "importance_toy": _spec(make_importance_toy),
    "poison_toy": _spec(make_poison_toy),
}


def get_problem(name: str) -> ProblemSpec:
    if name not in PROBLEMS:
        raise ContractViolationError(
            f"unknown problem {name!r}; known: {sorted(PROBLEMS)}")
    return PROBLEMS[name]
