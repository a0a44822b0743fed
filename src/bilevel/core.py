"""Deterministic numerical primitives: steppers, box projection, seeded RNG.

Vectors are plain 1-D float64 numpy arrays (``RealVec``). Every operation
broadcasts over leading batch axes, so the same code path serves a single
vector of shape ``(d,)`` and a lockstep batch of shape ``(B, d)``.

A stepper keeps Adam's two moments in one ``(2, *shape)`` buffer and
updates both halves with one broadcast ufunc call per operation, because
at desk scale each numpy call costs more than its arithmetic. The update
keeps the textbook operation order element for element, so traces are
bit-identical to separate per-moment arrays.
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


def project_box(params: RealVec, box: BoxBounds) -> RealVec:
    """Coordinatewise clamp to the box. Idempotent.

    Bitwise equal to ``np.clip(params, box.lo, box.hi)``, NaN and signed
    zeros included: the bound is the first operand, so a tie between
    -0.0 and +0.0 returns the bound, as np.clip does.
    """
    out = np.maximum(box.lo, params)
    return np.minimum(box.hi, out, out=out)


@dataclass
class StepperState:
    """State for one optimized variable (kind 'adam' or 'plain-gd').

    The first and second moments share one ``(2, *shape)`` buffer,
    ``moments``, so a single broadcast ufunc call updates both; ``m`` and
    ``s`` are writable views of its two halves. ``step_count`` advances
    by exactly one per step. Plain-gd keeps the moments at zero. The
    betas are read into per-half coefficient arrays at construction.
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
        self._decay = np.array((self.beta1, self.beta2)).reshape(col)
        self._gain = np.array((1.0 - self.beta1,
                               1.0 - self.beta2)).reshape(col)
        # bias corrections, rewritten every step; _corr_col is a view
        self._corr = np.ones(2)
        self._corr_col = self._corr.reshape(col)


def make_stepper(kind: str, shape, beta1=ADAM_BETA1, beta2=ADAM_BETA2,
                 eps_hat=ADAM_EPS) -> StepperState:
    if kind not in ("adam", "plain-gd"):
        raise ContractViolationError(f"unknown stepper kind {kind!r}")
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    moments = np.zeros((2,) + shape, dtype=np.float64)
    return StepperState(kind, moments, 0, beta1, beta2, eps_hat)


def _check_step_args(params, grad, lr):
    if params.shape != grad.shape:
        raise ContractViolationError(
            f"params shape {params.shape} != grad shape {grad.shape}")
    if isinstance(lr, (int, float)):
        lr_ok = lr > 0
    else:
        lr = np.asarray(lr)
        # a NaN rate propagates through the minimum and fails the test
        lr_ok = lr.size == 0 or np.minimum.reduce(lr, axis=None) > 0
    if not lr_ok:
        raise ContractViolationError("lr must be positive")
    if not np.logical_and.reduce(np.isfinite(grad), axis=None):
        raise NumericError("non-finite gradient passed to stepper")


def adam_step(state: StepperState, params: RealVec, grad: RealVec,
              lr: float) -> RealVec:
    """One Adam update with bias correction; advances ``state`` in place.

    Per element, with t the advanced step count and g = grad:
    m = b1*m + (1-b1)*g, s = b2*s + ((1-b2)*g)*g, and the returned new
    array is params - lr*(m/(1-b1**t)) / (sqrt(s/(1-b2**t)) + eps_hat).
    """
    _check_step_args(params, grad, lr)
    if state.m.shape != params.shape:
        raise ContractViolationError(
            f"stepper state shape {state.m.shape} != params {params.shape}")
    state.step_count += 1
    t = state.step_count
    mom = state.moments
    mom *= state._decay
    inc = state._gain * grad
    sq = inc[1, ...]
    sq *= grad
    mom += inc
    # Python float pow: numpy's vector pow may differ in the last ulp
    state._corr[0] = 1.0 - state.beta1**t
    state._corr[1] = 1.0 - state.beta2**t
    hat = mom / state._corr_col
    den = hat[1, ...]
    np.sqrt(den, out=den)
    den += state.eps_hat
    step = lr * hat[0, ...]
    step /= den
    return params - step


def stepper_step(state: StepperState, params: RealVec, grad: RealVec,
                 lr: float) -> RealVec:
    """Dispatch on state.kind; plain-gd still advances step_count."""
    if state.kind == "adam":
        return adam_step(state, params, grad, lr)
    _check_step_args(params, grad, lr)
    state.step_count += 1
    return params - lr * grad


def uniform_in_box(rng: np.random.Generator, dim: int,
                   box: BoxBounds) -> RealVec:
    return rng.uniform(box.lo, box.hi, size=dim)
