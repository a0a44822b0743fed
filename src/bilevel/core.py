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
the decay and the increment update both halves in one call. Its update
is built once, with the state, as a closure (``StepperState.step``)
over the moments, scratch buffers for the moment increment, the
corrected moments and the step, the kind's constants and the numpy
ufuncs it calls, bound to local names; every ufunc call passes ``out``
positionally. ``stepper_step`` calls that closure, so a step runs in
two Python frames, and the update itself loads no attribute and parses
no keyword. Measured at (10, 10) on one 2-vCPU host, best of 25
alternating runs in one process: an Adam step 5.15 to 4.71 µs, a
plain-gd step 1.50 to 1.46 µs. The closure holds no reference to its
state, only cells the state shares (see ``StepperState``). Only the
returned point is a fresh array, never ``params`` itself. The update
keeps the textbook operation order element for element, so traces are
bit-identical to separate per-moment arrays and freshly allocated
temporaries. Once the first moment's bias correction ``1 - 0.9**t``
rounds to exactly 1.0 (from t = 356), its divide is skipped and the
step uses m itself: x / 1.0 == x bit for bit, so this too leaves every
trace unchanged.
``project_box(x, box, out=x)`` then clamps that fresh point in place.

Every step checks, before it changes any state and in this order, the
parameter and gradient shapes against the state's, the rate (through
this module's ``_check_rate``, looked up at call time) and that the
gradient is finite. The finite test is one call, ``vdot(grad, zeros)
== 0.0`` (about 0.47 µs, against 1.3-1.6 µs for ``isfinite`` plus a
reduce), and it is exact: x * 0 is ±0 for every finite x, subnormals
and the largest double included, and NaN for ±inf or NaN; a sum of ±0
is ±0 and a sum with a NaN is NaN, so no term can overflow and none can
hide another. The rate is checked by ``_check_rate`` (every entry
positive and finite, not a bool, broadcasting to the parameters) on its
first use; a stepper skips that check only when it is handed the very
rate object it last accepted and that object cannot change: a Python
int or float (NumPy float64 scalars included), whose 0-d float64 copy
the step then multiplies by, or a read-only array that owns its data.
Any other rate, a writable array say, is checked on every step. A rate
may be any shape that broadcasts to the parameters, but one of their
full shape keeps the rate multiply a same-shape call; the penalty
solvers build each schedule phase's v-rate that way.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, ContractViolationError, NumericError

# 1-D float64 array; batched call sites use (B, d) with identical semantics
# per row.
RealVec = np.ndarray

# the number types the package's checks accept (bool aside), as concrete
# classes: an isinstance test against numbers.Real costs about three
# times as much
_INTS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)

# number rules for check_number: (integer?, range test, range wording).
# A real is tested as the Python float it runs as; NaN fails every test
AT_LEAST_0 = (True, lambda x: x >= 0, ">= 0")
AT_LEAST_1 = (True, lambda x: x >= 1, ">= 1")
# a count sizes a range or an array axis, so it must fit an index too
COUNT = (True, lambda x: 1 <= x <= sys.maxsize,
         lambda x: ">= 1" if x < 1 else f"<= sys.maxsize ({sys.maxsize})")
POSITIVE = (False, lambda x: 0 < x < math.inf, "positive and finite")
NON_NEGATIVE = (False, lambda x: 0 <= x < math.inf, "finite and >= 0")
FINITE = (False, math.isfinite, "finite")

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


def check_number(name: str, value, rule):
    """Raise ContractViolationError unless value is a number of the rule's
    kind (an integer, or any real; NumPy numbers count, a bool does not)
    that passes its range test. A rule whose range has two ends may word
    it as a function of the value refused."""
    integer, in_range, wording = rule
    if isinstance(value, bool) or not isinstance(
            value, _INTS if integer else _REALS):
        kind = "an integer" if integer else "a real number"
        raise ContractViolationError(f"{name} must be {kind}, got {value!r}")
    try:
        ok = in_range(value if integer else float(value))
    except OverflowError:             # an int beyond the float range
        ok = False
    if not ok:
        if callable(wording):
            wording = wording(value)
        raise ContractViolationError(
            f"{name} must be {wording}, got {value!r}")


def allocate(what: str, *shapes) -> list:
    """One unfilled float64 array per shape, or, when numpy refuses them
    (``ValueError`` "array is too big", or ``MemoryError``), the one
    CapabilityError "{what} cannot be allocated ({n} bytes): {reason}"."""
    try:
        return [np.empty(shape) for shape in shapes]
    except (ValueError, MemoryError) as exc:
        nbytes = 8 * sum(math.prod(shape) for shape in shapes)
        raise CapabilityError(f"{what} cannot be allocated ({nbytes} "
                              f"bytes): {exc}") from None


def gaussian_matrix(rows: int, cols: int, seed, out=None) -> np.ndarray:
    """rows x cols matrix of i.i.d. standard normals, deterministic in seed.

    Drawn into ``out`` when given (a C-contiguous float64 rows x cols
    array), with the same bytes as a fresh draw.
    """
    if rows < 1 or cols < 1:
        raise ContractViolationError("gaussian_matrix needs rows, cols >= 1")
    return make_rng(seed, 0x6D61).standard_normal((rows, cols), out=out)


@dataclass(frozen=True)
class BoxBounds:
    """Uniform per-coordinate box [lo, hi].

    The bounds are also kept as 0-d float64 arrays, the operands of
    ``project_box``'s one ``clip`` call.
    """

    lo: float
    hi: float

    def __post_init__(self):
        for bound in (self.lo, self.hi):
            if isinstance(bound, bool) or not isinstance(bound, _REALS):
                raise ContractViolationError(
                    f"box bounds must be real numbers, got {bound!r}")
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


class StepperState:
    """State for one optimized variable (kind 'adam' or 'plain-gd').

    The first and second moments share one ``(2, *shape)`` buffer,
    ``moments``, so a single ufunc call updates both; ``m`` and ``s``
    are writable views of its two halves. Plain-gd keeps the moments at
    zero. ``step_count`` advances by exactly one per step and may be
    written; it lives in a one-element list that the state shares with
    ``step``.

    ``step(params, grad, lr)`` is the state's bound step function, built
    once here (see the module docstring): a closure over the moments,
    the scratch, the kind's constants, the step-count cell and the
    rate cell (the last rate accepted that cannot change, and the
    operand a step multiplies by for it). It holds no reference to the
    state. A closure that did would form a state-closure cycle, which
    only the cyclic garbage collector frees: a prototype that kept one
    raised oracle_bound's ``peak_rss_mb`` from 102.4 to 105.8 MB. As it
    is, a state is freed by reference counting when its last name goes.
    """

    def __init__(self, kind: str, moments: np.ndarray):
        self.kind = kind
        self.moments = moments
        self.m = moments[0, ...]
        self.s = moments[1, ...]
        self._count = [0]
        self.step = _STEP_BUILDERS[kind](moments, self._count,
                                         [_NO_RATE, None])

    @property
    def step_count(self) -> int:
        return self._count[0]

    @step_count.setter
    def step_count(self, value: int):
        self._count[0] = value


def make_stepper(kind: str, shape) -> StepperState:
    """A fresh state of the kind, for parameters of the shape.

    An Adam step, per element, with t the advanced step count, g = grad,
    b1 = ADAM_BETA1, b2 = ADAM_BETA2 and eps = ADAM_EPS:
    m = b1*m + (1-b1)*g, s = b2*s + ((1-b2)*g)*g, and the returned new
    array is params - lr*(m/(1-b1**t)) / (sqrt(s/(1-b2**t)) + eps).
    From t = ADAM_SPENT_M, where 1-b1**t is exactly 1.0, the m divide
    is skipped, which gives the same bits. Every intermediate lives in
    the state's scratch; ``params`` is only read.
    """
    if kind not in _STEP_BUILDERS:
        raise ContractViolationError(f"unknown stepper kind {kind!r}")
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    for n in shape:
        if isinstance(n, bool) or not isinstance(n, _INTS) or n < 0:
            raise ContractViolationError(
                f"stepper shape must be integers >= 0, got {shape!r}")
    moments = np.zeros((2,) + shape, dtype=np.float64)
    return StepperState(kind, moments)


# the rate cell's first entry before any rate is accepted; no caller's
# rate is this object
_NO_RATE = object()


def _check_rate(cache, shape, lr):
    """Check a rate not accepted before; return the operand a step
    multiplies by.

    ``cache`` is the stepper's ``[rate, operand]`` cell. A rate that
    cannot change is kept there, so its next use skips this check; any
    other rate empties the cell.
    """
    if isinstance(lr, (int, float)) and not isinstance(lr, bool):
        # NaN fails both comparisons; an int beyond the float range fails
        # the conversion
        try:
            op = np.array(lr, dtype=np.float64)
        except OverflowError:
            op = None
        lr_ok = op is not None and 0 < lr < math.inf
        frozen = True
    else:
        arr = np.asarray(lr)
        # a NaN entry propagates through both reductions and fails both
        # tests; a bool array is not a rate
        lr_ok = arr.dtype.kind != "b" and (
            arr.size == 0
            or (np.minimum.reduce(arr, axis=None) > 0
                and np.maximum.reduce(arr, axis=None) < math.inf))
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
        raise ContractViolationError("lr must be positive and finite")
    cache[0], cache[1] = (lr, op) if frozen else (_NO_RATE, None)
    return op


def _adam_step_fn(moments, count, cache):
    """The bound step function of an Adam state (see ``make_stepper``)."""
    m, s = moments[0, ...], moments[1, ...]
    shape = m.shape
    zeros = np.zeros(shape)
    col = (2,) + (1,) * (moments.ndim - 1)
    decay = np.broadcast_to(np.array((ADAM_BETA1, ADAM_BETA2)).reshape(col),
                            moments.shape).copy()
    gain_m = np.array(1.0 - ADAM_BETA1)
    gain_s = np.array(1.0 - ADAM_BETA2)
    eps = np.full(shape, ADAM_EPS)
    # bias corrections, rewritten every step (m's until it is spent)
    corr_m = np.ones(())
    corr_s = np.ones(())
    # scratch: moment increment, corrected moments, step
    inc = np.empty_like(moments)
    inc_m, inc_s = inc[0, ...], inc[1, ...]
    hat = np.empty_like(moments)
    hat_m, hat_s = hat[0, ...], hat[1, ...]
    out = np.empty(shape)
    b1, b2, spent = ADAM_BETA1, ADAM_BETA2, ADAM_SPENT_M
    add, subtract, multiply = np.add, np.subtract, np.multiply
    divide, sqrt, vdot = np.divide, np.sqrt, _vdot

    def step(params, grad, lr):
        if params.shape != shape:
            raise ContractViolationError(
                f"stepper state shape {shape} != params {params.shape}")
        if grad.shape != shape:
            raise ContractViolationError(
                f"params shape {params.shape} != grad shape {grad.shape}")
        op = cache[1] if lr is cache[0] else _check_rate(cache, shape, lr)
        # exact: every finite x gives x * 0 == ±0, inf and NaN give NaN
        if not vdot(grad, zeros) == 0.0:
            raise NumericError("non-finite gradient passed to stepper")
        t = count[0] + 1
        count[0] = t
        multiply(moments, decay, moments)
        multiply(gain_m, grad, inc_m)
        multiply(gain_s, grad, inc_s)
        multiply(inc_s, grad, inc_s)
        add(moments, inc, moments)
        # Python float pow: numpy's vector pow may differ in the last ulp
        mt = m
        if t < spent:
            corr_m[()] = 1.0 - b1**t
            mt = divide(m, corr_m, hat_m)
        corr_s[()] = 1.0 - b2**t
        divide(s, corr_s, hat_s)
        sqrt(hat_s, hat_s)
        add(hat_s, eps, hat_s)
        multiply(op, mt, out)
        divide(out, hat_s, out)
        return subtract(params, out)

    return step


def _gd_step_fn(moments, count, cache):
    """The bound step function of a plain-gd state: params - lr * grad.

    Its checks repeat Adam's inline: a shared helper would cost the
    Python frame that binding the step saves.
    """
    shape = moments.shape[1:]
    zeros = np.zeros(shape)
    out = np.empty(shape)
    subtract, multiply, vdot = np.subtract, np.multiply, _vdot

    def step(params, grad, lr):
        if params.shape != shape:
            raise ContractViolationError(
                f"stepper state shape {shape} != params {params.shape}")
        if grad.shape != shape:
            raise ContractViolationError(
                f"params shape {params.shape} != grad shape {grad.shape}")
        op = cache[1] if lr is cache[0] else _check_rate(cache, shape, lr)
        if not vdot(grad, zeros) == 0.0:
            raise NumericError("non-finite gradient passed to stepper")
        count[0] += 1
        multiply(op, grad, out)
        return subtract(params, out)

    return step


_STEP_BUILDERS = {"adam": _adam_step_fn, "plain-gd": _gd_step_fn}


def stepper_step(state: StepperState, params: RealVec, grad: RealVec,
                 lr: float) -> RealVec:
    """One step of the state's kind (plain-gd: params - lr*grad, into a
    fresh array); either kind advances step_count by one."""
    return state.step(params, grad, lr)
