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

from .core import (_INTS, BoxBounds, derive_seed, gaussian_matrix,
                   make_rng)
from .errors import ContractViolationError
from .oracle import (_HALF, _NEG_TWO, _ONE, _TWO, _ZERO, Point,
                     ProblemOracle, sample_in_box, spread, sqnorm)

LOGISTIC_REG = 0.05  # ridge coefficient on lower-level classifier weights

# numpy's C einsum core: np.einsum(..., optimize=False) hands its operands
# to it unchanged, so the results are the same bytes, without about 1.5 µs
# of Python dispatch per call
try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    try:
        from numpy.core.multiarray import c_einsum as _einsum
    except ImportError:
        _einsum = np.einsum


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
    return _einsum("...ij,...j->...i", A, x)


def _mat_t_vec(A, y):
    return _einsum("...ij,...i->...j", A, y)


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
    """P = A^T (A A^T)^-1 A, orthogonal projector onto the row space.

    A stacked A (one matrix per trial) is projected one trial at a time
    into slices of one preallocated P, so the build holds P and A plus
    one trial's A A^T and solve, not a batch of each. The bytes are those
    of the batched expression: numpy's stacked matmul and solve make the
    same per-matrix BLAS and LAPACK calls as the per-trial ones. A 2-D A
    takes the same path, as a stack of one.
    """
    P = np.empty(A.shape[:-2] + (A.shape[-1],) * 2)
    for a, out in zip(A.reshape((-1,) + A.shape[-2:]),
                      P.reshape((-1,) + P.shape[-2:])):
        np.matmul(a.T, np.linalg.solve(a @ a.T, a), out=out)
    return P


def _synthetic_oracle(sid: int, dim: int, A) -> ProblemOracle:
    if sid == 1:
        # f = |u|^2 + |v|^2, g = |1 - u - v|^2
        return ProblemOracle(
            name="example1", dim_u=dim, dim_v=dim, dim_c=0,
            eval_f=lambda p: sqnorm(p.u) + sqnorm(p.v),
            eval_g=lambda p: sqnorm(_ONE - p.u - p.v),
            grad_u_f=lambda p: _TWO * p.u,
            grad_v_f=lambda p: _TWO * p.v,
            grad_v_g=lambda p: _TWO * (p.u + p.v - _ONE),
            hvp_vv_g=lambda p, q: _TWO * q,
            jvp_uv_g=lambda p, q: _TWO * q)

    if sid == 2:
        # f = |v|^2 - |u - v|^2, g = |u - v|^2
        return ProblemOracle(
            name="example2", dim_u=dim, dim_v=dim, dim_c=0,
            eval_f=lambda p: sqnorm(p.v) - sqnorm(p.u - p.v),
            eval_g=lambda p: sqnorm(p.u - p.v),
            grad_u_f=lambda p: _NEG_TWO * (p.u - p.v),
            grad_v_f=lambda p: _TWO * p.v + _TWO * (p.u - p.v),
            grad_v_g=lambda p: _NEG_TWO * (p.u - p.v),
            hvp_vv_g=lambda p, q: _TWO * q,
            jvp_uv_g=lambda p, q: _NEG_TWO * q)

    if sid == 3:
        # f = |u|^2 + |v|^2, g = (1-u-v)^T A^T A (1-u-v), A^T A rank-deficient
        def g3(p):
            return sqnorm(_mat_vec(A, _ONE - p.u - p.v))

        def gvg3(p):
            return _NEG_TWO * _mat_t_vec(A, _mat_vec(A, _ONE - p.u - p.v))

        return ProblemOracle(
            name="example3", dim_u=dim, dim_v=dim, dim_c=0,
            eval_f=lambda p: sqnorm(p.u) + sqnorm(p.v),
            eval_g=g3,
            grad_u_f=lambda p: _TWO * p.u,
            grad_v_f=lambda p: _TWO * p.v,
            grad_v_g=gvg3,
            hvp_vv_g=lambda p, q: _TWO * _mat_t_vec(A, _mat_vec(A, q)),
            jvp_uv_g=lambda p, q: _TWO * _mat_t_vec(A, _mat_vec(A, q)))

    if sid == 4:
        # f = |v|^2 - (u-v)^T A^T A (u-v), g = (u-v)^T A^T A (u-v);
        # the gradients share A^T A (u - v), computed once per point
        ATAd = _memo(lambda u, v: _mat_t_vec(A, _mat_vec(A, u - v)))

        return ProblemOracle(
            name="example4", dim_u=dim, dim_v=dim, dim_c=0,
            eval_f=lambda p: sqnorm(p.v) - sqnorm(_mat_vec(A, p.u - p.v)),
            eval_g=lambda p: sqnorm(_mat_vec(A, p.u - p.v)),
            grad_u_f=lambda p: _NEG_TWO * ATAd(p.u, p.v),
            grad_v_f=lambda p: _TWO * p.v + _TWO * ATAd(p.u, p.v),
            grad_v_g=lambda p: _NEG_TWO * ATAd(p.u, p.v),
            hvp_vv_g=lambda p, q: _TWO * _mat_t_vec(A, _mat_vec(A, q)),
            jvp_uv_g=lambda p, q: _NEG_TWO * _mat_t_vec(A, _mat_vec(A, q)))

    raise ContractViolationError(f"synthetic id must be 1..4, got {sid}")


def _synthetic_metric(sid: int, A):
    if sid == 1:
        return lambda p: np.sqrt(sqnorm(p.u - _HALF) + sqnorm(p.v - _HALF))
    if sid == 2:
        return lambda p: np.sqrt(sqnorm(p.u) + sqnorm(p.v))
    P = _row_space_projector(A)
    if sid == 3:
        return lambda p: np.sqrt(sqnorm(_mat_vec(P, p.u - _HALF))
                                 + sqnorm(_mat_vec(P, p.v - _HALF)))
    return lambda p: np.sqrt(sqnorm(_mat_vec(P, p.u)) + sqnorm(p.v))


def make_synthetic(sid: int, dim: int = 10, seed=0) -> ProblemInstance:
    """Examples 1-4: quadratic bilevel problems on the box |x_i| <= 5.

    ids 3-4 use a (dim/2) x dim Gaussian matrix A (rank-deficient A^T A)
    drawn from ``seed``; their solution sets are affine, so the metric
    projects onto the row space of A. A list of seeds gives the stacked
    instance, one independent trial per seed run in lockstep: ids 3-4
    stack one A per seed along the leading axis, each drawn in place into
    its slice of the stack, so a build holds what it keeps (A and the
    metric's projector) plus one trial's transients; the dim-512 build
    sets the oracle_bound benchmark's ``peak_rss_mb``. ``dim`` is an
    integer >= 1 (a bool is not). The callbacks scale and
    shift by 0-d float64 constants (``_TWO``, ``_NEG_TWO``, ``_ONE``, and
    ``_HALF`` in the metric), the same bits as the Python floats 2.0,
    -2.0, 1.0 and 0.5 for less per call, and return float64 arrays.
    """
    if isinstance(dim, bool) or not isinstance(dim, _INTS):
        raise ContractViolationError(f"dim must be an integer, got {dim!r}")
    if dim < 1:
        raise ContractViolationError("dim must be >= 1")
    A = None
    if sid in (3, 4):
        if dim % 2:
            raise ContractViolationError("ids 3-4 need an even dim")
        if isinstance(seed, _INTS):
            A = _synthetic_a(dim, seed)
        else:
            seeds = list(seed)
            A = np.empty((len(seeds), dim // 2, dim))
            for a, s in zip(A, seeds):
                _synthetic_a(dim, s, out=a)
    oracle = _synthetic_oracle(sid, dim, A)
    return ProblemInstance(
        name=oracle.name, oracle=oracle, metric=_synthetic_metric(sid, A),
        init_sampler=lambda s: sample_in_box(dim, dim, SYNTHETIC_BOX, s),
        box=SYNTHETIC_BOX, expects_singular=sid in (3, 4), info={"A": A})


def _synthetic_a(dim: int, seed: int, out=None) -> np.ndarray:
    return gaussian_matrix(dim // 2, dim, derive_seed(seed, 0xA), out=out)


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
        return (_einsum("ij,...j->...i", H, p.v)
                + _einsum("ij,...i->...j", M, p.u) + c)

    oracle = ProblemOracle(
        name="quadratic", dim_u=dim_u, dim_v=dim_v, dim_c=0,
        eval_f=lambda p: 0.5 * sqnorm(p.u - a) + 0.5 * sqnorm(p.v - b),
        eval_g=lambda p: (0.5 * np.sum(p.v * _einsum("ij,...j->...i", H, p.v), -1)
                          + np.sum(p.u * _einsum("ij,...j->...i", M, p.v), -1)
                          + np.sum(c * p.v, -1)),
        grad_u_f=lambda p: p.u - a,
        grad_v_f=lambda p: p.v - b,
        grad_v_g=gvg,
        hvp_vv_g=lambda p, q: _einsum("ij,...j->...i", H, q),
        jvp_uv_g=lambda p, q: _einsum("ij,...j->...i", M, q))

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
    a list of seeds gives the stacked instance. Like the synthetic
    examples, the callbacks and the metric scale and shift by the 0-d
    float64 constants ``_TWO``, ``_NEG_TWO``, ``_ONE`` and ``_HALF``: at
    its usual batch of one or two trials a call is nearly all fixed cost,
    and a Python float operand adds a conversion to each ufunc call for
    the same bits.
    """
    oracle = ProblemOracle(
        name="constrained_toy", dim_u=1, dim_v=1, dim_c=1,
        eval_f=lambda p: sqnorm(p.u) + sqnorm(p.v),
        eval_g=lambda p: sqnorm(p.v - p.u),
        grad_u_f=lambda p: _TWO * p.u,
        grad_v_f=lambda p: _TWO * p.v,
        grad_v_g=lambda p: _TWO * (p.v - p.u),
        hvp_vv_g=lambda p, q: _TWO * q,
        jvp_uv_g=lambda p, q: _NEG_TWO * q,
        eval_h=lambda p: _ONE - p.u - p.v,
        jtvp_u_h=lambda p, mu: -mu,
        jtvp_v_h=lambda p, mu: -mu)

    def metric(p):
        return np.sqrt(sqnorm(p.u[..., :1] - _HALF) + sqnorm(p.v - _HALF))

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
    return _HALF * (_ONE + np.tanh(_HALF * z))


# The logistic callbacks take every float operand as a 0-d float64 array
# (0.5, 1.0, the ridge terms reg and 2 reg, the counts n_val and n_total,
# the upper cost's sign), the same bits as the Python numbers for less
# per call: importance_toy and poison_toy step one trial at a time.
#
# The logistic terms are written on signed data: NXy, the rows -(y_i x_i)
# of a data block, turns every margin z_i = y_i (w . x_i) into its
# negation -z = NXy w in one contraction, and every slope contraction
# sum_i -sigma(-z_i) y_i x_i into sigma(-z) NXy. With labels exactly +-1
# these are the same bits as the y-scaled forms, since IEEE rounding is
# symmetric in sign; the one signed-zero case, a margin exactly 0, meets
# sigma and logaddexp, which map +-0 to the same value.

def _signed(Xb, y):
    """NXy = -(y_i x_i), one row per example; Xb may carry batch axes."""
    return -(y[:, None] * Xb)


def _neg_margin(NXy, w):
    """-z_i = -y_i (w . x_i) for w possibly batched: (..., N)."""
    return _einsum("nd,...d->...n", NXy, w)


def _margin_terms(nz):
    """(-z, sigma(-z), t) with t = tanh(-z / 2), the form in which a
    margin is shared: the cross-entropy log(1 + exp(-z)) is
    logaddexp(0, -z), its slope contraction sigma(-z) NXy, and its
    curvature _curvature of the triple. sigma(-z) is 0.5 (1 + t), the
    bytes of _sigmoid(-z)."""
    t = np.tanh(_HALF * nz)
    return nz, _HALF * (_ONE + t), t


def _curvature(terms):
    """d2/dz2 of the cross-entropy, sigma(z) sigma(-z), from a
    (-z, sigma(-z), t) triple, with no second tanh: sigma(z) is
    0.5 (1 - t). That is _sigmoid(z) to the bit: -0.5 (-z) is
    -(0.5 (-z)) exactly, numpy's float64 tanh is odd to the bit, so
    tanh(0.5 z) is -t, and 1 + (-t) is 1 - t."""
    _, s, t = terms
    return _HALF * (_ONE - t) * s


def fit_logistic(X, y, sample_weight=None) -> np.ndarray:
    """Newton fit of l2-regularized logistic regression (labels +-1).

    Minimizes sum(w_i * l_i) / sum(w_i) + LOGISTIC_REG * |w|^2 (bias
    included in the parameter vector and in the penalty), in at most 60
    steps.
    """
    Xb = _augment(np.asarray(X, float))
    y = np.asarray(y, float)
    NXy = _signed(Xb, y)
    if sample_weight is None:
        sample_weight = np.ones(len(y))
    wts = np.asarray(sample_weight, float) / np.sum(sample_weight)
    w = np.zeros(Xb.shape[1])
    eye = np.eye(Xb.shape[1])
    for _ in range(60):
        terms = _margin_terms(_neg_margin(NXy, w))
        r = _curvature(terms)                      # d2l/dz2
        grad = NXy.T @ (wts * terms[1]) + 2.0 * LOGISTIC_REG * w
        hess = (Xb * (wts * r)[:, None]).T @ Xb + 2.0 * LOGISTIC_REG * eye
        step = np.linalg.solve(hess, grad)
        w = w - step
        if np.linalg.norm(grad) < 1e-12:
            break
    return w


def accuracy(w, X, y) -> float:
    z = _einsum("nd,d->n", _augment(np.asarray(X, float)), w)
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



def make_blobs(seed: int, n_train: int, n_val: int) -> DatasetSplit:
    """Two isotropic Gaussian classes with means (+-1.5, 0), balanced;
    the test split holds 2000 points."""
    rng = make_rng(seed, 0xB10B)

    def draw(n):
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        X = rng.standard_normal((n, 2))
        X[:, 0] += 1.5 * y
        perm = rng.permutation(n)
        return X[perm], y[perm]

    Xtr, ytr = draw(n_train)
    Xv, yv = draw(n_val)
    Xte, yte = draw(2000)
    return DatasetSplit(Xtr, ytr, Xv, yv, Xte, yte)


def _val_upper(Xb_val, y_val, sign=1.0):
    """Mean validation CE as the upper cost (sign=-1 for attackers)."""
    n_val = np.array(float(len(y_val)))
    sign = np.array(sign)
    NXy = _signed(Xb_val, y_val)

    def eval_f(p):
        return sign * np.mean(np.logaddexp(_ZERO, _neg_margin(NXy, p.v)),
                              axis=-1)

    def grad_v_f(p):
        s = _sigmoid(_neg_margin(NXy, p.v))
        return sign * _einsum("...n,nd->...d", s, NXy) / n_val

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
    NXy = _signed(Xb, split.y_train)
    Xb_val = _augment(split.X_val)
    reg = LOGISTIC_REG
    reg_c, two_reg = np.array(reg), np.array(2.0 * reg)
    eval_f, grad_v_f = _val_upper(Xb_val, split.y_val)

    # terms the callbacks share at one point, each computed once per
    # value: the importances W, their sum S and S at v's shape (a
    # same-shape divide is cheaper than a broadcast one) on u, the margin
    # terms on v, the weighted mean gradient m on (u, v)
    @_memo
    def weights(u):
        W = importance_values(u)
        S = np.sum(W, axis=-1)
        return W, S, spread(S[..., None], S.shape + (3,))

    margin = _memo(lambda v: _margin_terms(_neg_margin(NXy, v)))

    def d_weights(u):
        return _HALF / np.cosh(u) ** 2

    @_memo
    def mean_grad(u, v):
        W, _, S_v = weights(u)
        return _einsum("...n,nd->...d", W * margin(v)[1], NXy) / S_v

    def eval_g(p):
        W, S, _ = weights(p.u)
        l = np.logaddexp(_ZERO, margin(p.v)[0])
        return np.sum(W * l, axis=-1) / S + reg_c * sqnorm(p.v)

    def grad_v_g(p):
        return mean_grad(p.u, p.v) + two_reg * p.v

    def hvp(p, q):
        W, _, S_v = weights(p.u)
        t = _einsum("nd,...d->...n", Xb, q)
        return (_einsum("...n,nd->...d", W * _curvature(margin(p.v)) * t,
                        Xb) / S_v + two_reg * q)

    def jvp(p, q):
        # row i of the mixed matrix: (dW_i/du_i)(grad l_i - m)/S
        S = weights(p.u)[1]
        s = margin(p.v)[1]
        xq = _einsum("nd,...d->...n", NXy, q)
        mq = np.sum(mean_grad(p.u, p.v) * q, axis=-1)
        return d_weights(p.u) * (s * xq - mq[..., None]) / S[..., None]

    oracle = ProblemOracle(
        name="importance_toy", dim_u=n_train, dim_v=3, dim_c=0,
        eval_f=eval_f, eval_g=eval_g,
        grad_u_f=lambda p: np.zeros_like(p.u),
        grad_v_f=grad_v_f, grad_v_g=grad_v_g,
        hvp_vv_g=hvp, jvp_uv_g=jvp)

    def sample(seed_):
        # u = 0 gives uniform importances 0.5; w warm-started on validation
        w0 = fit_logistic(split.X_val, split.y_val)
        return Point(np.zeros(n_train), w0)

    return ProblemInstance(
        name="importance_toy", oracle=oracle, metric=None,
        init_sampler=sample, box=None,
        info={"split": split, "flip_mask": flip_mask, "reg": reg})


def importance_values(u):
    return _HALF * (np.tanh(u) + _ONE)


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
    NXy_clean = _signed(Xb_clean, y_clean)
    ny_poison = -y_poison
    Xb_val = _augment(split.X_val)
    n_total = np.array(float(n_train + n_poison))
    reg = LOGISTIC_REG
    reg_c, two_reg = np.array(reg), np.array(2.0 * reg)
    eval_f, grad_v_f = _val_upper(Xb_val, split.y_val, sign=-1.0)

    # terms the callbacks share at one point, each computed once per
    # value: the augmented poison block and its signed rows on u, the
    # clean margin terms on v, the poison margin terms on (u, v)
    @_memo
    def poison_block(u):
        Xbp = _augment(u.reshape(u.shape[:-1] + (n_poison, 2)))
        return Xbp, _signed(Xbp, y_poison)

    clean_margin = _memo(
        lambda v: _margin_terms(_neg_margin(NXy_clean, v)))
    poison_margin = _memo(lambda u, v: _margin_terms(
        _einsum("...nd,...d->...n", poison_block(u)[1], v)))

    def eval_g(p):
        lc = np.logaddexp(_ZERO, clean_margin(p.v)[0])
        lp = np.logaddexp(_ZERO, poison_margin(p.u, p.v)[0])
        return ((np.sum(lc, axis=-1) + np.sum(lp, axis=-1)) / n_total
                + reg_c * sqnorm(p.v))

    def grad_v_g(p):
        NXyp = poison_block(p.u)[1]
        sc = clean_margin(p.v)[1]
        sp = poison_margin(p.u, p.v)[1]
        out = _einsum("...n,nd->...d", sc, NXy_clean)
        out = out + _einsum("...n,...nd->...d", sp, NXyp)
        return out / n_total + two_reg * p.v

    def hvp(p, q):
        Xbp = poison_block(p.u)[0]
        rc = _curvature(clean_margin(p.v))
        rp = _curvature(poison_margin(p.u, p.v))
        tc = _einsum("nd,...d->...n", Xb_clean, q)
        tp = _einsum("...nd,...d->...n", Xbp, q)
        out = _einsum("...n,nd->...d", rc * tc, Xb_clean)
        out = out + _einsum("...n,...nd->...d", rp * tp, Xbp)
        return out / n_total + two_reg * q

    def jvp(p, q):
        # d(grad_w l_j)/dx_j = r_j w_f xb_j^T + a_j E; rows (j,b) dot q
        Xbp = poison_block(p.u)[0]
        terms = poison_margin(p.u, p.v)
        a = terms[1] * ny_poison
        xq = _einsum("...nd,...d->...n", Xbp, q)
        wf = p.v[..., None, :2]
        out = ((_curvature(terms) * xq)[..., None] * wf
               + a[..., None] * q[..., None, :2])
        return out.reshape(p.u.shape) / n_total

    oracle = ProblemOracle(
        name="poison_toy", dim_u=2 * n_poison, dim_v=3, dim_c=0,
        eval_f=eval_f, eval_g=eval_g,
        grad_u_f=lambda p: np.zeros_like(p.u),
        grad_v_f=grad_v_f, grad_v_g=grad_v_g,
        hvp_vv_g=hvp, jvp_uv_g=jvp)

    def retrain(features) -> np.ndarray:
        """Classifier fit on clean data plus the given poison block."""
        X = np.concatenate([split.X_train, features.reshape(n_poison, 2)])
        yy = np.concatenate([y_clean, y_poison])
        return fit_logistic(X, yy)

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
    if not 0.0 <= reg_true < np.inf:
        raise ContractViolationError("reg_true must be finite and >= 0")
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
        return _einsum("nd,...d->...n", X_tr, w) - y_tr

    def res_val(w):
        return _einsum("nd,...d->...n", X_val, w) - y_val

    def e_u(p):
        return np.exp(p.u[..., 0])

    oracle = ProblemOracle(
        name="ridge", dim_u=1, dim_v=d, dim_c=0,
        eval_f=lambda p: np.mean(res_val(p.v) ** 2, axis=-1),
        eval_g=lambda p: (np.mean(res_tr(p.v) ** 2, axis=-1)
                          + e_u(p) * sqnorm(p.v)),
        grad_u_f=lambda p: np.zeros_like(p.u),
        grad_v_f=lambda p: 2.0 * _einsum("nd,...n->...d", X_val,
                                         res_val(p.v)) / len(y_val),
        grad_v_g=lambda p: (2.0 * _einsum("nd,...n->...d", X_tr,
                                          res_tr(p.v)) / n_tr
                            + 2.0 * e_u(p)[..., None] * p.v),
        hvp_vv_g=lambda p, q: (2.0 * _einsum(
            "nd,...n->...d", X_tr,
            _einsum("nd,...d->...n", X_tr, q)) / n_tr
            + 2.0 * e_u(p)[..., None] * q),
        jvp_uv_g=lambda p, q: 2.0 * e_u(p)[..., None]
        * np.sum(p.v * q, axis=-1, keepdims=True))

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
