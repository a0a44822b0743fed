"""Deterministic numerical primitives: steppers, box projection, seeded RNG.

Vectors are plain 1-D float64 numpy arrays (``RealVec``). Every operation
broadcasts over leading batch axes, so the same code path serves a single
vector of shape ``(d,)`` and a lockstep batch of shape ``(B, d)``.

At desk scale a numpy call costs more than its arithmetic, and what it
costs depends on its operands. Measured per ufunc call at shape (10, 10)
on one 2-vCPU host: a same-shape or 0-d float64 array operand takes
about 0.45 µs, a Python float or NumPy scalar 0.6-0.8 µs (it is
converted on every call), and a ``(2, 1, 1)`` or ``(B, 1)`` broadcast
1.0-1.4 µs. So every elementwise call on the step path takes a
same-shape array or a 0-d float64 array: the Adam constants, a frozen
Python-number rate and the box bounds are each converted once. The
Python layer costs too: ``np.vdot`` passes through its
``__array_function__`` dispatcher (0.63 µs against 0.47 µs for the C
function under it), so the finite test calls the C function, and the
box clamp is one call of numpy's ``clip`` ufunc (0.50 µs, against 0.98
µs for a ``maximum`` and a ``minimum``).

A stepper keeps Adam's two moments in one ``(2, *shape)`` buffer, so
the decay and the increment update both halves in one call. It also
owns scratch buffers for the moment increment, the corrected moments
and the step, which every Adam update writes with ``out=``; only the
returned point is a fresh array, never ``params`` itself. The update
keeps the textbook operation order element for element, so traces are
bit-identical to separate per-moment arrays and freshly allocated
temporaries. Once the first moment's bias correction ``1 - 0.9**t``
rounds to exactly 1.0 (from t = 356), its divide is skipped and the
step uses m itself: x / 1.0 == x bit for bit, so this too leaves every
trace unchanged.
``project_box(x, box, out=x)`` then clamps that fresh point in place.

Every step checks the parameter and gradient shapes against the
state's and that the gradient is finite, before it changes any state.
The finite test is one call, ``vdot(grad, zeros) == 0.0`` (about 0.47
µs, against 1.3-1.6 µs for ``isfinite`` plus a reduce), and it is exact:
x * 0 is ±0 for every finite x, subnormals and the largest double
included, and NaN for ±inf or NaN; a sum of ±0 is ±0 and a sum with a
NaN is NaN, so no term can overflow and none can hide another. The
rate is checked (positive, not NaN, broadcasting to the parameters) on
its first use; a stepper skips that check only when it is handed the
very rate object it last accepted and that object cannot change: a
Python int or float (NumPy float64 scalars included), whose 0-d float64
copy the step then multiplies by, or a read-only array that owns its
data. Any other rate, a writable array say, is checked on every step. A
rate may be any shape that broadcasts to the parameters, but one of
their full shape keeps the rate multiply a same-shape call; the penalty
solvers build each schedule phase's v-rate that way.
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

# numpy's C clip ufunc and C vdot, without the Python dispatch of
# np.clip and np.vdot; the same bytes (see the module docstring)
try:
    from numpy._core._multiarray_umath import clip as _clip, vdot as _vdot
except ImportError:
    from numpy.core._multiarray_umath import clip as _clip, vdot as _vdot

# the first step count at which 1 - ADAM_BETA1**t rounds to exactly 1.0
# (it stays 1.0 after, as the power only shrinks); from here on Adam
# skips the first moment's bias divide
ADAM_SPENT_M = 356


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
    """Uniform per-coordinate box [lo, hi].

    The bounds are also kept as 0-d float64 arrays, the operands of
    ``project_box``'s one ``clip`` call.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ContractViolationError("box requires lo < hi")
        object.__setattr__(self, "_lo", np.array(self.lo, dtype=np.float64))
        object.__setattr__(self, "_hi", np.array(self.hi, dtype=np.float64))


def project_box(params: RealVec, box: BoxBounds, out=None) -> RealVec:
    """Coordinatewise clamp to the box. Idempotent.

    One call of the ufunc under ``np.clip``, so bitwise equal to
    ``np.clip(params, box.lo, box.hi)``, NaN and signed zeros included,
    and to ``np.minimum(hi, np.maximum(lo, params))``. The clamp is
    written to ``out`` when given (``out=params`` clamps in place), else
    to a new array.
    """
    return _clip(params, box._lo, box._hi, out=out)


@dataclass
class StepperState:
    """State for one optimized variable (kind 'adam' or 'plain-gd').

    The first and second moments share one ``(2, *shape)`` buffer,
    ``moments``, so a single ufunc call updates both; ``m`` and
    ``s`` are writable views of its two halves. ``step_count`` advances
    by exactly one per step. Plain-gd keeps the moments at zero. The
    Adam constants are read once at construction into operands of the
    moments' full shape (the decays, eps) or 0-d float64 arrays (1-b1,
    1-b2, the bias corrections), never a broadcast one (see the module
    docstring for the per-call costs). Next to them sit the zeros of the
    finite test, the scratch an Adam step writes, and the last rate
    accepted with its 0-d copy when it is a Python number.
    """

    kind: str
    moments: np.ndarray
    step_count: int = 0
    m: np.ndarray = field(init=False, repr=False, compare=False)
    s: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.m = self.moments[0, ...]
        self.s = self.moments[1, ...]
        self._shape = self.m.shape
        self._zeros = np.zeros(self._shape)
        col = (2,) + (1,) * (self.moments.ndim - 1)
        self._decay = np.broadcast_to(
            np.array((ADAM_BETA1, ADAM_BETA2)).reshape(col),
            self.moments.shape).copy()
        self._gain_m = np.array(1.0 - ADAM_BETA1)
        self._gain_s = np.array(1.0 - ADAM_BETA2)
        self._eps = np.full(self._shape, ADAM_EPS)
        # bias corrections, rewritten every step (m's until it is spent)
        self._corr_m = np.ones(())
        self._corr_s = np.ones(())
        # scratch: moment increment, corrected moments, step; the views
        # of their halves are taken once here
        self._inc = np.empty_like(self.moments)
        self._inc_m = self._inc[0, ...]
        self._inc_s = self._inc[1, ...]
        self._hat = np.empty_like(self.moments)
        self._hat_m = self._hat[0, ...]
        self._hat_s = self._hat[1, ...]
        self._step = np.empty_like(self.m)
        # the last rate accepted that cannot change, else None, and the
        # operand a step multiplies by for it
        self._rate = None
        self._rate_op = None


def make_stepper(kind: str, shape) -> StepperState:
    if kind not in ("adam", "plain-gd"):
        raise ContractViolationError(f"unknown stepper kind {kind!r}")
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    moments = np.zeros((2,) + shape, dtype=np.float64)
    return StepperState(kind, moments)


def _check_rate(state: StepperState, shape, lr):
    """Check a rate not accepted before; return the operand a step
    multiplies by."""
    if isinstance(lr, (int, float)):
        lr_ok = lr > 0
        frozen = True
        op = np.array(lr, dtype=np.float64)
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
        op = lr
    if not lr_ok:
        raise ContractViolationError("lr must be positive")
    state._rate, state._rate_op = (lr, op) if frozen else (None, None)
    return op


def _check_step_args(state, params, grad, lr):
    """Every check of a step, made before any state changes; returns the
    rate operand."""
    shape = state._shape
    if params.shape != shape:
        raise ContractViolationError(
            f"stepper state shape {shape} != params {params.shape}")
    if grad.shape != shape:
        raise ContractViolationError(
            f"params shape {params.shape} != grad shape {grad.shape}")
    op = (state._rate_op if lr is state._rate
          else _check_rate(state, shape, lr))
    # exact: every finite x gives x * 0 == ±0, inf and NaN give NaN
    if not _vdot(grad, state._zeros) == 0.0:
        raise NumericError("non-finite gradient passed to stepper")
    return op


def adam_step(state: StepperState, params: RealVec, grad: RealVec,
              lr: float) -> RealVec:
    """One Adam update with bias correction; advances ``state`` in place.

    Per element, with t the advanced step count, g = grad, b1 =
    ADAM_BETA1, b2 = ADAM_BETA2 and eps = ADAM_EPS:
    m = b1*m + (1-b1)*g, s = b2*s + ((1-b2)*g)*g, and the returned new
    array is params - lr*(m/(1-b1**t)) / (sqrt(s/(1-b2**t)) + eps).
    From t = ADAM_SPENT_M, where 1-b1**t is exactly 1.0, the m divide
    is skipped, which gives the same bits.
    Every intermediate lives in the state's scratch; ``params`` is only
    read.
    """
    lr = _check_step_args(state, params, grad, lr)
    state.step_count += 1
    t = state.step_count
    mom = state.moments
    mom *= state._decay
    np.multiply(state._gain_m, grad, out=state._inc_m)
    inc_s = np.multiply(state._gain_s, grad, out=state._inc_s)
    inc_s *= grad
    mom += state._inc
    # Python float pow: numpy's vector pow may differ in the last ulp
    m = state.m
    if t < ADAM_SPENT_M:
        state._corr_m[()] = 1.0 - ADAM_BETA1**t
        m = np.divide(m, state._corr_m, out=state._hat_m)
    state._corr_s[()] = 1.0 - ADAM_BETA2**t
    den = np.divide(state.s, state._corr_s, out=state._hat_s)
    np.sqrt(den, out=den)
    den += state._eps
    step = np.multiply(lr, m, out=state._step)
    step /= den
    return params - step


def stepper_step(state: StepperState, params: RealVec, grad: RealVec,
                 lr: float) -> RealVec:
    """Dispatch on state.kind; plain-gd still advances step_count."""
    if state.kind == "adam":
        return adam_step(state, params, grad, lr)
    lr = _check_step_args(state, params, grad, lr)
    state.step_count += 1
    return params - lr * grad
