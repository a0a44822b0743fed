"""Deterministic numerical primitives: steppers, box projection, seeded RNG.

Vectors are plain 1-D float64 numpy arrays (``RealVec``). Every operation
broadcasts over leading batch axes, so the same code path serves a single
vector of shape ``(d,)`` and a lockstep batch of shape ``(B, d)``.

A stepper keeps Adam's two moments in one ``(2, *shape)`` buffer and
updates both halves with one ufunc call per operation, because at desk
scale each numpy call costs more than its arithmetic. It also owns
scratch buffers for the moment increment, the corrected moments and the
step, which every Adam update writes with ``out=``; only the returned
point is a fresh array, never ``params`` itself. The update keeps the
textbook operation order element for element, so traces are
bit-identical to separate per-moment arrays and freshly allocated
temporaries. ``project_box(x, box, out=x)`` then clamps that fresh point
in place.

Every step checks the parameter and gradient shapes and that the
gradient is finite. The rate is checked (positive, not NaN, broadcasting
to the parameters) on its first use; a stepper skips that check only
when it is handed the very rate object it last accepted and that object
cannot change: a Python int or float, or a read-only array that owns its
data. Any other rate, a writable array say, is checked on every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, NumericError

# 1-D float64 array; batched call sites use (B, d) with identical semantics
# per row.
RealVec = np.ndarray

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def make_rng(*keys) -> np.random.Generator:
    """Deterministic generator from integer keys (splittable streams).

    Distinct key tuples give statistically independent streams; the same
    tuple always reproduces the same stream.
    """
    flat = [int(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(flat))


def derive_seed(*keys) -> int:
    """Stable 64-bit child seed from integer keys."""
    flat = [int(k) for k in keys]
    return int(np.random.SeedSequence(flat).generate_state(1, np.uint64)[0])


def gaussian_matrix(rows: int, cols: int, seed) -> np.ndarray:
    """rows x cols matrix of i.i.d. standard normals, deterministic in seed."""
    if rows < 1 or cols < 1:
        raise ContractViolationError("gaussian_matrix needs rows, cols >= 1")
    return make_rng(seed, 0x6D61).standard_normal((rows, cols))


@dataclass(frozen=True)
class BoxBounds:
    """Uniform per-coordinate box [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ContractViolationError("box requires lo < hi")


def project_box(params: RealVec, box: BoxBounds, out=None) -> RealVec:
    """Coordinatewise clamp to the box. Idempotent.

    Bitwise equal to ``np.clip(params, box.lo, box.hi)``, NaN and signed
    zeros included: the bound is the first operand, so a tie between
    -0.0 and +0.0 returns the bound, as np.clip does. The clamp is
    written to ``out`` when given (``out=params`` clamps in place), else
    to a new array.
    """
    out = np.maximum(box.lo, params, out=out)
    return np.minimum(box.hi, out, out=out)


@dataclass
class StepperState:
    """State for one optimized variable (kind 'adam' or 'plain-gd').

    The first and second moments share one ``(2, *shape)`` buffer,
    ``moments``, so a single ufunc call updates both; ``m`` and
    ``s`` are writable views of its two halves. ``step_count`` advances
    by exactly one per step. Plain-gd keeps the moments at zero. The
    betas and eps_hat are read into coefficient arrays of the moments'
    full shape at construction (at desk scale a same-shape ufunc call is
    cheaper than a broadcast one), next to the scratch an Adam step
    writes and the last rate accepted (see the module docstring).
    """

    kind: str
    moments: np.ndarray
    step_count: int = 0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps_hat: float = ADAM_EPS
    m: np.ndarray = field(init=False, repr=False, compare=False)
    s: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.m = self.moments[0, ...]
        self.s = self.moments[1, ...]
        col = (2,) + (1,) * (self.moments.ndim - 1)

        def per_half(first, second):
            return np.broadcast_to(np.array((first, second)).reshape(col),
                                   self.moments.shape).copy()

        self._decay = per_half(self.beta1, self.beta2)
        self._gain = per_half(1.0 - self.beta1, 1.0 - self.beta2)
        self._eps = np.full(self.m.shape, self.eps_hat)
        # bias corrections, rewritten every step; _corr_col is a view
        self._corr = np.ones(2)
        self._corr_col = self._corr.reshape(col)
        # scratch: moment increment, corrected moments, step; the views
        # of their halves are taken once here
        self._inc = np.empty_like(self.moments)
        self._inc_s = self._inc[1, ...]
        self._hat = np.empty_like(self.moments)
        self._hat_m = self._hat[0, ...]
        self._hat_s = self._hat[1, ...]
        self._step = np.empty_like(self.m)
        # the last rate accepted that cannot change, else None
        self._rate = None


def make_stepper(kind: str, shape, beta1=ADAM_BETA1, beta2=ADAM_BETA2,
                 eps_hat=ADAM_EPS) -> StepperState:
    if kind not in ("adam", "plain-gd"):
        raise ContractViolationError(f"unknown stepper kind {kind!r}")
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    moments = np.zeros((2,) + shape, dtype=np.float64)
    return StepperState(kind, moments, 0, beta1, beta2, eps_hat)


def _check_rate(state: StepperState, shape, lr):
    if isinstance(lr, (int, float)):
        lr_ok = lr > 0
        frozen = True
    else:
        arr = np.asarray(lr)
        # a NaN rate propagates through the minimum and fails the test
        lr_ok = arr.size == 0 or np.minimum.reduce(arr, axis=None) > 0
        try:
            fits = np.broadcast_shapes(arr.shape, shape) == shape
        except ValueError:
            fits = False
        if not fits:
            raise ContractViolationError(
                f"lr shape {arr.shape} does not broadcast to params {shape}")
        frozen = (isinstance(lr, np.ndarray) and lr.base is None
                  and not lr.flags.writeable)
    if not lr_ok:
        raise ContractViolationError("lr must be positive")
    state._rate = lr if frozen else None


def _check_step_args(state, params, grad, lr):
    if params.shape != grad.shape:
        raise ContractViolationError(
            f"params shape {params.shape} != grad shape {grad.shape}")
    if lr is not state._rate:
        _check_rate(state, params.shape, lr)
    if not np.logical_and.reduce(np.isfinite(grad), axis=None):
        raise NumericError("non-finite gradient passed to stepper")


def adam_step(state: StepperState, params: RealVec, grad: RealVec,
              lr: float) -> RealVec:
    """One Adam update with bias correction; advances ``state`` in place.

    Per element, with t the advanced step count and g = grad:
    m = b1*m + (1-b1)*g, s = b2*s + ((1-b2)*g)*g, and the returned new
    array is params - lr*(m/(1-b1**t)) / (sqrt(s/(1-b2**t)) + eps_hat).
    Every intermediate lives in the state's scratch; ``params`` is only
    read.
    """
    if state.m.shape != params.shape:
        raise ContractViolationError(
            f"stepper state shape {state.m.shape} != params {params.shape}")
    _check_step_args(state, params, grad, lr)
    state.step_count += 1
    t = state.step_count
    mom = state.moments
    mom *= state._decay
    inc = np.multiply(state._gain, grad, out=state._inc)
    state._inc_s *= grad
    mom += inc
    # Python float pow: numpy's vector pow may differ in the last ulp
    state._corr[0] = 1.0 - state.beta1**t
    state._corr[1] = 1.0 - state.beta2**t
    np.divide(mom, state._corr_col, out=state._hat)
    den = state._hat_s
    np.sqrt(den, out=den)
    den += state._eps
    step = np.multiply(lr, state._hat_m, out=state._step)
    step /= den
    return params - step


def stepper_step(state: StepperState, params: RealVec, grad: RealVec,
                 lr: float) -> RealVec:
    """Dispatch on state.kind; plain-gd still advances step_count."""
    if state.kind == "adam":
        return adam_step(state, params, grad, lr)
    _check_step_args(state, params, grad, lr)
    state.step_count += 1
    return params - lr * grad
