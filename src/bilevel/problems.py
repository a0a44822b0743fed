"""Benchmark problem factories with analytic first/second-order callbacks.

Every factory returns a :class:`ProblemInstance` whose oracle passes the
finite-difference self-checks. Synthetic quadratics also come in a batched
flavor (one stacked problem per trial seed) so a whole trial set can run
in lockstep on a single core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .core import BoxBounds, make_rng, gaussian_matrix, uniform_in_box
from .errors import ContractViolationError
from .oracle import Point, ProblemOracle, sqnorm

LOGISTIC_REG = 0.05  # ridge coefficient on lower-level classifier weights


@dataclass
class ProblemInstance:
    """An oracle plus the metadata the bench harness needs.

    ``metric`` maps a Point to distance-from-solution (None if no solution
    is known). ``init_sampler`` maps a seed (or list of seeds for batched
    instances) to an initial Point.
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
        # f = |v|^2 - (u-v)^T A^T A (u-v), g = (u-v)^T A^T A (u-v)
        def ATAd(p):
            return _mat_t_vec(A, _mat_vec(A, p.u - p.v))

        return ProblemOracle(
            name="example4", dim_u=dim, dim_v=dim, dim_c=0,
            eval_f=lambda p: sqnorm(p.v) - sqnorm(_mat_vec(A, p.u - p.v)),
            eval_g=lambda p: sqnorm(_mat_vec(A, p.u - p.v)),
            grad_u_f=lambda p: -2.0 * ATAd(p),
            grad_v_f=lambda p: 2.0 * p.v + 2.0 * ATAd(p),
            grad_v_g=lambda p: -2.0 * ATAd(p),
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


def _synthetic_init(dim):
    def sample(seed):
        rng = make_rng(seed, 0x1A17)
        return Point(uniform_in_box(rng, dim, SYNTHETIC_BOX),
                     uniform_in_box(rng, dim, SYNTHETIC_BOX))
    return sample


def make_synthetic(sid: int, dim: int = 10, seed: int = 0) -> ProblemInstance:
    """Examples 1-4: quadratic bilevel problems on the box |x_i| <= 5.

    ids 3-4 use a (dim/2) x dim Gaussian matrix A (rank-deficient A^T A)
    drawn from ``seed``; their solution sets are affine, so the metric
    projects onto the row space of A.
    """
    if dim < 1:
        raise ContractViolationError("dim must be >= 1")
    A = None
    if sid in (3, 4):
        if dim % 2:
            raise ContractViolationError("ids 3-4 need an even dim")
        A = gaussian_matrix(dim // 2, dim, derive_a_seed(seed))
    oracle = _synthetic_oracle(sid, dim, A)
    sample = _synthetic_init(dim)
    return ProblemInstance(
        name=oracle.name, oracle=oracle, metric=_synthetic_metric(sid, A),
        init_sampler=sample, box=SYNTHETIC_BOX,
        expects_singular=sid in (3, 4), info={"A": A})


def derive_a_seed(seed: int) -> int:
    from .core import derive_seed
    return derive_seed(seed, 0xA)


def make_synthetic_batch(sid: int, dim: int, seeds) -> ProblemInstance:
    """Stacked instance: one independent trial per seed, run in lockstep.

    For ids 3-4 each trial gets its own A (stacked along the leading
    axis); for ids 1-2 the problem is seed-free and only the initial
    points differ.
    """
    if dim < 1:
        raise ContractViolationError("dim must be >= 1")
    seeds = list(seeds)
    A = None
    if sid in (3, 4):
        if dim % 2:
            raise ContractViolationError("ids 3-4 need an even dim")
        A = np.stack([gaussian_matrix(dim // 2, dim, derive_a_seed(s))
                      for s in seeds])
    oracle = _synthetic_oracle(sid, dim, A)
    # dense capability is single-point only; drop it on batched instances
    oracle.hess_vv_g = None
    oracle.jac_uv_g = None
    single = _synthetic_init(dim)

    def sample(seed_list):
        pts = [single(s) for s in seed_list]
        return Point(np.stack([p.u for p in pts]),
                     np.stack([p.v for p in pts]))

    return ProblemInstance(
        name=oracle.name, oracle=oracle, metric=_synthetic_metric(sid, A),
        init_sampler=sample, box=SYNTHETIC_BOX,
        expects_singular=sid in (3, 4), info={"A": A})


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
    the optimum is (0.5, 0.5) with f = 0.5.
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

    def sample(seed_):
        rng = make_rng(seed_, 0x1A17)
        return Point(uniform_in_box(rng, 1, SYNTHETIC_BOX),
                     uniform_in_box(rng, 1, SYNTHETIC_BOX))

    return ProblemInstance(name="constrained_toy", oracle=oracle,
                           metric=metric, init_sampler=sample,
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


def _margin(Xb, y, w):
    """z_i = y_i * (w . x_i) for w possibly batched: (..., N)."""
    return y * np.einsum("nd,...d->...n", Xb, w)


def logistic_losses(Xb, y, w):
    """Per-example cross-entropy log(1 + exp(-z)), stable."""
    return np.logaddexp(0.0, -_margin(Xb, y, w))


def fit_logistic(X, y, sample_weight=None, reg: float = LOGISTIC_REG,
                 n_iter: int = 60) -> np.ndarray:
    """Newton fit of l2-regularized logistic regression (labels +-1).

    Minimizes sum(w_i * l_i) / sum(w_i) + reg * |w|^2 (bias included in
    the parameter vector and in the penalty).
    """
    Xb = _augment(np.asarray(X, float))
    y = np.asarray(y, float)
    if sample_weight is None:
        sample_weight = np.ones(len(y))
    wts = np.asarray(sample_weight, float) / np.sum(sample_weight)
    w = np.zeros(Xb.shape[1])
    eye = np.eye(Xb.shape[1])
    for _ in range(n_iter):
        z = _margin(Xb, y, w)
        a = -_sigmoid(-z) * y                      # dl/dw coefficient
        r = _sigmoid(z) * _sigmoid(-z)             # d2l/dz2
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

    @property
    def n_test(self):
        return len(self.y_test)

    def dump_csv(self, outdir, flipped=None):
        """One CSV per split with header x1,x2,label[,flipped]."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        for tag, X, y in (("train", self.X_train, self.y_train),
                          ("val", self.X_val, self.y_val),
                          ("test", self.X_test, self.y_test)):
            cols = [X[:, 0], X[:, 1], (y > 0).astype(int)]
            header = "x1,x2,label"
            if tag == "train" and flipped is not None:
                cols.append(flipped.astype(int))
                header += ",flipped"
            data = np.column_stack(cols)
            np.savetxt(outdir / f"{tag}.csv", data, delimiter=",",
                       header=header, comments="", fmt="%.17g")


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
        z = _margin(Xb_val, y_val, p.v)
        a = -_sigmoid(-z) * y_val
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

    def weights(u):
        W = 0.5 * (np.tanh(u) + 1.0)
        dW = 0.5 / np.cosh(u) ** 2
        return W, dW, np.sum(W, axis=-1)

    def terms(p):
        W, dW, S = weights(p.u)
        z = _margin(Xb, y, p.v)
        a = -_sigmoid(-z) * y
        r = _sigmoid(z) * _sigmoid(-z)
        return W, dW, S, z, a, r

    def eval_g(p):
        W, _, S = weights(p.u)
        l = logistic_losses(Xb, y, p.v)
        return np.sum(W * l, axis=-1) / S + reg * sqnorm(p.v)

    def grad_v_g(p):
        W, _, S, _, a, _ = terms(p)
        return (np.einsum("...n,nd->...d", W * a, Xb) / S[..., None]
                + 2.0 * reg * p.v)

    def hvp(p, q):
        W, _, S, _, _, r = terms(p)
        t = np.einsum("nd,...d->...n", Xb, q)
        return (np.einsum("...n,nd->...d", W * r * t, Xb) / S[..., None]
                + 2.0 * reg * q)

    def mean_grad(W, S, a):
        return np.einsum("...n,nd->...d", W * a, Xb) / S[..., None]

    def jvp(p, q):
        # row i of the mixed matrix: (dW_i/du_i)(grad l_i - m)/S
        W, dW, S, _, a, _ = terms(p)
        m = mean_grad(W, S, a)
        xq = np.einsum("nd,...d->...n", Xb, q)
        mq = np.sum(m * q, axis=-1)
        return dW * (a * xq - mq[..., None]) / S[..., None]

    def hess(p):
        W, _, S, _, _, r = terms(p)
        return (Xb * (W * r)[:, None]).T @ Xb / S + 2.0 * reg * np.eye(3)

    def jac(p):
        W, dW, S, _, a, _ = terms(p)
        m = mean_grad(W, S, a)
        return (dW / S)[:, None] * (a[:, None] * Xb - m[None, :])

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

    def poison_block(p):
        X = p.u.reshape(p.u.shape[:-1] + (n_poison, 2))
        return np.concatenate([X, np.ones(X.shape[:-1] + (1,))], axis=-1)

    def poison_margin(Xbp, w):
        return y_poison * np.einsum("...nd,...d->...n", Xbp, w)

    def eval_g(p):
        Xbp = poison_block(p)
        lc = logistic_losses(Xb_clean, y_clean, p.v)
        lp = np.logaddexp(0.0, -poison_margin(Xbp, p.v))
        return ((np.sum(lc, axis=-1) + np.sum(lp, axis=-1)) / n_total
                + reg * sqnorm(p.v))

    def _coeffs(z):
        return -_sigmoid(-z), _sigmoid(z) * _sigmoid(-z)

    def grad_v_g(p):
        Xbp = poison_block(p)
        sc, _ = _coeffs(_margin(Xb_clean, y_clean, p.v))
        sp, _ = _coeffs(poison_margin(Xbp, p.v))
        out = np.einsum("...n,nd->...d", sc * y_clean, Xb_clean)
        out = out + np.einsum("...n,...nd->...d", sp * y_poison, Xbp)
        return out / n_total + 2.0 * reg * p.v

    def hvp(p, q):
        Xbp = poison_block(p)
        _, rc = _coeffs(_margin(Xb_clean, y_clean, p.v))
        _, rp = _coeffs(poison_margin(Xbp, p.v))
        tc = np.einsum("nd,...d->...n", Xb_clean, q)
        tp = np.einsum("...nd,...d->...n", Xbp, q)
        out = np.einsum("...n,nd->...d", rc * tc, Xb_clean)
        out = out + np.einsum("...n,...nd->...d", rp * tp, Xbp)
        return out / n_total + 2.0 * reg * q

    def jvp(p, q):
        # d(grad_w l_j)/dx_j = r_j w_f xb_j^T + a_j E; rows (j,b) dot q
        Xbp = poison_block(p)
        z = poison_margin(Xbp, p.v)
        a, r = _coeffs(z)
        a = a * y_poison
        xq = np.einsum("...nd,...d->...n", Xbp, q)
        wf = p.v[..., None, :2]
        out = (r * xq)[..., None] * wf + a[..., None] * q[..., None, :2]
        return out.reshape(p.u.shape) / n_total

    def hess(p):
        Xbp = poison_block(p)
        _, rc = _coeffs(_margin(Xb_clean, y_clean, p.v))
        _, rp = _coeffs(poison_margin(Xbp, p.v))
        H = (Xb_clean * rc[:, None]).T @ Xb_clean
        H = H + (Xbp * rp[:, None]).T @ Xbp
        return H / n_total + 2.0 * reg * np.eye(3)

    def jac(p):
        # block (j, b, c) = r_j w_b x_jc + a_j [b == c]
        Xbp = poison_block(p)
        z = poison_margin(Xbp, p.v)
        a, r = _coeffs(z)
        a = a * y_poison
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


def ridge_grid_optimum(X_tr, y_tr, X_val, y_val, grid=RIDGE_GRID) -> float:
    """Solution oracle: validation-MSE-minimizing u over the grid, using
    the closed-form ridge solution at every grid point."""
    best_u, best = 0.0, np.inf
    for u in grid:
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


PROBLEMS = {
    "example1": ProblemSpec(
        lambda seed, dim=10: make_synthetic(1, dim, seed),
        lambda seeds, dim=10: make_synthetic_batch(1, dim, seeds),
        {"dim": 10}),
    "example2": ProblemSpec(
        lambda seed, dim=10: make_synthetic(2, dim, seed),
        lambda seeds, dim=10: make_synthetic_batch(2, dim, seeds),
        {"dim": 10}),
    "example3": ProblemSpec(
        lambda seed, dim=10: make_synthetic(3, dim, seed),
        lambda seeds, dim=10: make_synthetic_batch(3, dim, seeds),
        {"dim": 10}),
    "example4": ProblemSpec(
        lambda seed, dim=10: make_synthetic(4, dim, seed),
        lambda seeds, dim=10: make_synthetic_batch(4, dim, seeds),
        {"dim": 10}),
    "quadratic": ProblemSpec(
        lambda seed, dim_u=5, dim_v=5: make_quadratic(seed, dim_u, dim_v),
        None, {"dim_u": 5, "dim_v": 5}),
    "constrained_toy": ProblemSpec(
        lambda seed: make_constrained_toy(seed), None, {}),
    "ridge": ProblemSpec(
        lambda seed, n=80, d=6, reg_true=2.0:
            make_hyperparam_ridge(seed, n, d, reg_true),
        None, {"n": 80, "d": 6, "reg_true": 2.0}),
    "importance_toy": ProblemSpec(
        lambda seed, n_train=200, n_val=50, noise_frac=0.25:
            make_importance_toy(seed, n_train, n_val, noise_frac),
        None, {"n_train": 200, "n_val": 50, "noise_frac": 0.25}),
    "poison_toy": ProblemSpec(
        lambda seed, n_train=100, n_val=100, n_poison=10:
            make_poison_toy(seed, n_train, n_val, n_poison),
        None, {"n_train": 100, "n_val": 100, "n_poison": 10}),
}


def get_problem(name: str) -> ProblemSpec:
    if name not in PROBLEMS:
        raise ContractViolationError(
            f"unknown problem {name!r}; known: {sorted(PROBLEMS)}")
    return PROBLEMS[name]
