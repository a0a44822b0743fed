import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bilevel.core import (ADAM_SPENT_M, BoxBounds, adam_step,
                          gaussian_matrix, make_rng, make_stepper,
                          project_box, stepper_step)
from bilevel.errors import ContractViolationError, NumericError


def reference_adam(x0, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Straightforward textbook Adam, kept independent of the library."""
    x = float(x0)
    m = v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        x = x - lr * mhat / (np.sqrt(vhat) + eps)
        out.append(x)
    return x, out


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        st_ = make_stepper("adam", 3)
        params = np.array([1.0, -2.0, 0.5])
        out = adam_step(st_, params, np.zeros(3), lr=0.1)
        np.testing.assert_array_equal(out, params)
        assert st_.step_count == 1

    @pytest.mark.parametrize("g", [1e-3, 1.0, 1e3, -7.0])
    def test_first_step_magnitude_is_lr(self, g):
        st_ = make_stepper("adam", 1)
        out = adam_step(st_, np.zeros(1), np.array([g]), lr=0.1)
        expect = 0.1 * abs(g) / (abs(g) + 1e-8)
        assert abs(abs(out[0]) - expect) < 1e-12
        assert abs(abs(out[0]) - 0.1) < 1e-6

    def test_quadratic_descent_matches_reference(self):
        st_ = make_stepper("adam", 1)
        x = np.array([1.0])
        ref_x = 1.0
        ref_m = ref_v = 0.0
        for t in range(1, 1001):
            g = 2.0 * x
            x = adam_step(st_, x, g, lr=0.01)
            gr = 2.0 * ref_x
            ref_m = 0.9 * ref_m + 0.1 * gr
            ref_v = 0.999 * ref_v + 0.001 * gr * gr
            ref_x -= 0.01 * (ref_m / (1 - 0.9**t)) / (
                np.sqrt(ref_v / (1 - 0.999**t)) + 1e-8)
        assert abs(x[0] - ref_x) < 1e-12
        assert abs(x[0]) < 0.05

    def test_deterministic(self):
        outs = []
        for _ in range(2):
            st_ = make_stepper("adam", 2)
            p = np.array([0.3, -0.7])
            for _ in range(5):
                p = adam_step(st_, p, 2 * p, lr=0.01)
            outs.append(p)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_dimension_mismatch(self):
        st_ = make_stepper("adam", 3)
        with pytest.raises(ContractViolationError):
            adam_step(st_, np.zeros(3), np.zeros(2), lr=0.1)

    def test_non_finite_gradient(self):
        st_ = make_stepper("adam", 2)
        with pytest.raises(NumericError):
            adam_step(st_, np.zeros(2), np.array([1.0, np.nan]), lr=0.1)

    def test_bad_lr(self):
        st_ = make_stepper("adam", 1)
        with pytest.raises(ContractViolationError):
            adam_step(st_, np.zeros(1), np.ones(1), lr=0.0)

    def test_plain_gd_dispatch(self):
        st_ = make_stepper("plain-gd", 2)
        out = stepper_step(st_, np.array([1.0, 1.0]),
                           np.array([2.0, -2.0]), 0.5)
        np.testing.assert_array_equal(out, [0.0, 2.0])
        assert st_.step_count == 1

    def test_unknown_kind(self):
        with pytest.raises(ContractViolationError):
            make_stepper("rmsprop", 2)

    @pytest.mark.parametrize("shape", [-1, 2.5, (2, -1), (2, True), "a"],
                             ids=["negative", "float", "negative-axis",
                                  "bool-axis", "str"])
    def test_bad_shape_rejected(self, shape):
        # before, -1 raised numpy's ValueError and 2.5 a TypeError
        with pytest.raises(ContractViolationError,
                           match="^stepper shape must be integers >= 0"):
            make_stepper("adam", shape)


def formula_adam(params, grads, lr, b1, b2, eps):
    """Adam written out per element, in the library's operation order."""
    m = np.zeros_like(params)
    s = np.zeros_like(params)
    outs = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1.0 - b1) * g
        s = b2 * s + ((1.0 - b2) * g) * g
        mhat = m / (1.0 - b1**t)
        shat = s / (1.0 - b2**t)
        params = params - (lr * mhat) / (np.sqrt(shat) + eps)
        outs.append(params)
    return outs, m, s


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def adam_cases(draw):
    batch = draw(st.integers(1, 4))
    dim = draw(st.integers(1, 5))
    steps = draw(st.integers(1, 6))
    arr = hnp.arrays(np.float64, (batch, dim), elements=finite)
    params = draw(arr)
    grads = [draw(arr) for _ in range(steps)]
    if draw(st.booleans()):
        lr = draw(st.floats(1e-6, 1.0))
    else:
        lr = draw(hnp.arrays(np.float64, (batch, 1),
                             elements=st.floats(1e-6, 1.0)))
    return params, grads, lr


class TestAdamBitIdentity:
    @given(adam_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_formula_bitwise(self, case):
        params, grads, lr = case
        state = make_stepper("adam", params.shape)
        want, m, s = formula_adam(params, grads, lr, 0.9, 0.999, 1e-8)
        p = params
        for g, expect in zip(grads, want):
            out = adam_step(state, p, g, lr)
            assert out is not p
            assert out.tobytes() == expect.tobytes()
            p = out
        assert state.m.tobytes() == m.tobytes()
        assert state.s.tobytes() == s.tobytes()
        assert state.step_count == len(grads)

    def test_long_run_matches_formula_bitwise(self):
        # numpy's vector pow rounds b**t differently from the scalar pow
        # for some t (b1 = 0.9: t = 12, 23, ...; b2 = 0.999: t = 7, 23, ...)
        rng = make_rng(3, 4)
        params = rng.standard_normal((3, 4))
        grads = list(rng.standard_normal((100, 3, 4)))
        lr = np.array([[1e-3], [0.1], [1.0]])
        want, _, _ = formula_adam(params, grads, lr, 0.9, 0.999, 1e-8)
        state = make_stepper("adam", params.shape)
        for g, expect in zip(grads, want):
            params = adam_step(state, params, g, lr)
            assert params.tobytes() == expect.tobytes()

    def test_moments_are_views_of_one_buffer(self):
        state = make_stepper("adam", (3, 2))
        assert state.moments.shape == (2, 3, 2)
        assert np.shares_memory(state.m, state.moments)
        assert np.shares_memory(state.s, state.moments)
        adam_step(state, np.zeros((3, 2)), np.ones((3, 2)), 0.1)
        np.testing.assert_array_equal(state.moments[0], state.m)
        np.testing.assert_array_equal(state.moments[1], state.s)
        assert state.m.min() > 0 and state.s.min() > 0

    def test_params_not_mutated(self):
        state = make_stepper("adam", 3)
        params = np.array([1.0, -2.0, 0.5])
        before = params.copy()
        adam_step(state, params, np.ones(3), 0.1)
        np.testing.assert_array_equal(params, before)

    @pytest.mark.parametrize("lr", [np.array([[0.1], [-0.1]]),
                                    np.array([[0.1], [np.nan]]), np.nan,
                                    -1.0, 0])
    def test_rejects_non_positive_lr(self, lr):
        st_ = make_stepper("adam", (2, 2))
        with pytest.raises(ContractViolationError):
            adam_step(st_, np.zeros((2, 2)), np.ones((2, 2)), lr)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_batched_grad(self, bad):
        st_ = make_stepper("adam", (2, 3))
        grad = np.ones((2, 3))
        grad[1, 2] = bad
        with pytest.raises(NumericError):
            stepper_step(st_, np.zeros((2, 3)), grad, np.full((2, 1), 0.1))


def frozen(x):
    x = np.array(x, dtype=np.float64)
    x.setflags(write=False)
    return x


class TestRateRule:
    # a rate is checked on first use; a stepper skips the check only for
    # the very object it last accepted, when that object cannot change

    @pytest.mark.parametrize("kind", ["adam", "plain-gd"])
    @pytest.mark.parametrize("lr", [0.0, -1.0, np.nan, np.inf,
                                    frozen([[0.1], [-0.1]]),
                                    frozen([[np.nan], [0.1]]),
                                    frozen([[0.1], [np.inf]]), True,
                                    np.True_, np.ones((2, 1), dtype=bool),
                                    10**400],
                             ids=["zero", "negative", "nan", "inf",
                                  "neg-frozen", "nan-frozen", "inf-frozen",
                                  "bool", "np-bool", "bool-array",
                                  "int-beyond-float"])
    def test_bad_rate_rejected_on_first_use(self, kind, lr):
        # before, an inf rate stepped to -inf, True stepped at 1.0 and
        # 10**400 raised OverflowError
        st_ = make_stepper(kind, (2, 2))
        moments = st_.moments.tobytes()
        with pytest.raises(ContractViolationError,
                           match="^lr must be positive and finite$"):
            stepper_step(st_, np.zeros((2, 2)), np.ones((2, 2)), lr)
        assert st_.step_count == 0
        assert st_.moments.tobytes() == moments

    @pytest.mark.parametrize("kind", ["adam", "plain-gd"])
    @pytest.mark.parametrize("good, bad", [
        (0.1, -0.1), (frozen([[0.1], [0.2]]), frozen([[0.1], [-0.2]]))],
        ids=["float", "frozen"])
    def test_new_rate_object_checked_again(self, kind, good, bad):
        st_ = make_stepper(kind, (2, 2))
        p = stepper_step(st_, np.zeros((2, 2)), np.ones((2, 2)), good)
        p = stepper_step(st_, p, np.ones((2, 2)), good)
        with pytest.raises(ContractViolationError, match="lr"):
            stepper_step(st_, p, np.ones((2, 2)), bad)

    @pytest.mark.parametrize("kind", ["adam", "plain-gd"])
    def test_writable_rate_checked_on_every_call(self, kind):
        st_ = make_stepper(kind, (2, 2))
        lr = np.full((2, 1), 0.1)
        p = stepper_step(st_, np.zeros((2, 2)), np.ones((2, 2)), lr)
        lr[1] = -0.1
        with pytest.raises(ContractViolationError, match="lr"):
            stepper_step(st_, p, np.ones((2, 2)), lr)
        for bad in (np.nan, np.inf):
            lr[1] = bad
            with pytest.raises(ContractViolationError, match="lr"):
                stepper_step(st_, p, np.ones((2, 2)), lr)
        assert st_.step_count == 1

    def test_read_only_view_of_writable_rate_checked_on_every_call(self):
        # the view cannot be written, but its base can
        st_ = make_stepper("adam", (2, 2))
        base = np.full((2, 1), 0.1)
        lr = base[...]
        lr.setflags(write=False)
        p = stepper_step(st_, np.zeros((2, 2)), np.ones((2, 2)), lr)
        base[0] = -0.1
        with pytest.raises(ContractViolationError, match="lr"):
            stepper_step(st_, p, np.ones((2, 2)), lr)

    def test_rate_must_broadcast_to_params(self):
        st_ = make_stepper("adam", (2, 2))
        with pytest.raises(ContractViolationError, match="broadcast"):
            stepper_step(st_, np.zeros((2, 2)), np.ones((2, 2)),
                         np.full((3, 1), 0.1))

    def test_schedule_rate_is_read_only(self):
        from bilevel.solvers import PenaltyConfig, _schedule_weights
        _, rho_k = _schedule_weights(PenaltyConfig(), np.array([1.0, 2.0]),
                                     0.0, None, None, (2, 3))
        assert rho_k.shape == (2, 3) and not rho_k.flags.writeable
        assert rho_k.base is None
        with pytest.raises(ValueError):
            rho_k[0] = -1.0
        with pytest.raises(ValueError):
            rho_k *= -1.0
        np.testing.assert_array_equal(rho_k, [[1e-4] * 3, [5e-5] * 3])

    def test_schedule_weights_have_v_shape(self):
        # the v-side weights and the rate at v's (B, V) shape; the factor
        # on the (B, C) constraint term stays a column
        from bilevel.oracle import PenaltyParams
        from bilevel.solvers import PenaltyConfig, _schedule_weights
        gamma, lam = np.array([1.0, 2.0]), np.array([0.5, 0.25])
        params, rho_k = _schedule_weights(
            PenaltyConfig(), gamma, lam, np.zeros((2, 3)), np.zeros((2, 1)),
            (2, 3))
        for x, col in ((params.gamma_v, gamma), (params.lam_v, lam),
                       (rho_k, 1e-4 / gamma)):
            assert x.shape == (2, 3)
            np.testing.assert_array_equal(x, np.repeat(col[:, None], 3, 1))
        assert params.gamma_col.shape == (2, 1)
        # without a v shape the weights stay columns, and a zero lam drops
        # the lam term
        params = PenaltyParams(gamma=gamma)
        assert params.gamma_v.shape == (2, 1) and params.lam_v is None

    def test_checks_kept_with_an_accepted_rate(self):
        # shape and gradient finiteness are checked on every step
        st_ = make_stepper("adam", (2, 2))
        lr = frozen([[0.1], [0.1]])
        p = stepper_step(st_, np.zeros((2, 2)), np.ones((2, 2)), lr)
        with pytest.raises(NumericError):
            stepper_step(st_, p, np.array([[1.0, np.inf], [1.0, 1.0]]), lr)
        with pytest.raises(ContractViolationError):
            stepper_step(st_, p, np.ones((2, 3)), lr)
        with pytest.raises(ContractViolationError):
            stepper_step(st_, np.zeros((2, 3)), np.ones((2, 3)), lr)

    def test_outputs_survive_later_steps(self):
        # the scratch is reused, the returned points are not
        st_ = make_stepper("adam", (3, 2))
        p = np.zeros((3, 2))
        outs = []
        for g in (1.0, -2.0, 3.0):
            p = stepper_step(st_, p, np.full((3, 2), g), 0.1)
            outs.append((p, p.tobytes()))
        for out, before in outs:
            assert out.tobytes() == before
        assert not np.shares_memory(outs[0][0], outs[1][0])


@pytest.mark.parametrize("kind", ["adam", "plain-gd"])
def test_state_freed_without_the_cyclic_collector(kind):
    # the bound step function closes over the state's buffers and cells,
    # never over the state: with the cyclic collector off, the state and
    # its step function go when the last name does
    gc.disable()
    try:
        st_ = make_stepper(kind, (2, 3))
        stepper_step(st_, np.zeros((2, 3)), np.ones((2, 3)),
                     frozen(np.full((2, 3), 0.1)))
        refs = weakref.ref(st_), weakref.ref(st_.step)
        del st_
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ["adam", "plain-gd"])
def test_step_count_is_shared_with_the_step_function(kind):
    # step_count may be written; the next step counts on from the value
    # written, and Adam's bias corrections use it
    st_ = make_stepper(kind, 3)
    g = np.array([1.0, -2.0, 0.5])
    p = stepper_step(st_, np.zeros(3), g, 0.1)
    st_.step_count = 9
    out = stepper_step(st_, p, g, 0.1)
    assert st_.step_count == 10
    if kind == "adam":
        m = 0.9 * ((1.0 - 0.9) * g) + (1.0 - 0.9) * g
        s = 0.999 * (((1.0 - 0.999) * g) * g) + ((1.0 - 0.999) * g) * g
        want = p - (0.1 * (m / (1.0 - 0.9**10))) / (
            np.sqrt(s / (1.0 - 0.999**10)) + 1e-8)
        assert out.tobytes() == want.tobytes()


def test_adam_step_needs_an_adam_state():
    st_ = make_stepper("plain-gd", 2)
    with pytest.raises(ContractViolationError, match="adam"):
        adam_step(st_, np.zeros(2), np.ones(2), 0.1)
    assert st_.step_count == 0


def gradient_views(g):
    """g itself and three non-contiguous arrays equal to it: negative
    strides, a transposed (F-ordered) copy and every other element of a
    larger buffer."""
    reversed_ = g[(slice(None, None, -1),) * g.ndim].copy()
    reversed_ = reversed_[(slice(None, None, -1),) * g.ndim]
    transposed = np.ascontiguousarray(g.T).T
    wide = np.zeros(g.shape[:-1] + (2 * g.shape[-1],))
    wide[..., ::2] = g
    return g, reversed_, transposed, wide[..., ::2]


@pytest.mark.parametrize("shape", [(5,), (3, 4)])
@pytest.mark.parametrize("kind", ["adam", "plain-gd"])
class TestFiniteTest:
    # the one-call test np.vdot(grad, zeros) == 0.0 is exact: any inf or
    # NaN anywhere raises before the state moves, and no finite value does

    def test_any_non_finite_entry_raises_before_any_state_change(self, kind,
                                                                  shape):
        rng = make_rng(17, len(shape))
        st_ = make_stepper(kind, shape)
        p = stepper_step(st_, np.zeros(shape), rng.standard_normal(shape),
                         0.1)
        before = (st_.step_count, st_.moments.tobytes())
        base = rng.standard_normal(shape)
        for bad in (np.inf, -np.inf, np.nan):
            for i in range(base.size):
                g = base.copy()
                g.flat[i] = bad
                for grad in gradient_views(g):
                    assert grad.shape == shape
                    with pytest.raises(NumericError, match="non-finite"):
                        stepper_step(st_, p, grad, 0.1)
                    assert (st_.step_count, st_.moments.tobytes()) == before

    @pytest.mark.parametrize("value", [1.7976931348623157e308,
                                       -1.7976931348623157e308, 5e-324,
                                       -5e-324, -0.0])
    def test_extreme_finite_entries_step(self, kind, shape, value):
        mixed = np.resize(np.array([1.7976931348623157e308, 5e-324, -0.0,
                                    -1.7976931348623157e308, -5e-324]),
                          shape)
        for g in (np.full(shape, value), mixed):
            st_ = make_stepper(kind, shape)
            for grad in gradient_views(g):
                # Adam's moments overflow on the largest double
                with np.errstate(all="ignore"):
                    stepper_step(st_, np.zeros(shape), grad, 0.1)
            assert st_.step_count == 4


@pytest.mark.parametrize("lr", [1, 0.1, np.float64(0.1), frozen(0.1),
                                frozen(np.full((3, 4), 0.1))],
                         ids=["int", "float", "np-float64", "frozen-0d",
                              "frozen-full"])
def test_rate_operands_match_formula_bitwise(lr):
    # a Python number is stepped through its 0-d float64 copy, a frozen
    # array as itself; every form gives the formula's bytes, also past
    # t = ADAM_SPENT_M, from where the m divide is skipped
    rng = make_rng(5, 6)
    params = rng.standard_normal((3, 4))
    grads = list(rng.standard_normal((420, 3, 4)))
    want, m, s = formula_adam(params, grads, lr, 0.9, 0.999, 1e-8)
    adam, gd = make_stepper("adam", (3, 4)), make_stepper("plain-gd", (3, 4))
    p = q = params
    for g, expect in zip(grads, want):
        p = adam_step(adam, p, g, lr)
        assert p.tobytes() == expect.tobytes()
        q_next = stepper_step(gd, q, g, lr)
        assert q_next.tobytes() == (q - lr * g).tobytes()
        q = q_next
    assert adam.step_count == 420 > ADAM_SPENT_M
    assert adam.m.tobytes() == m.tobytes()
    assert adam.s.tobytes() == s.tobytes()


def test_spent_bias_correction_pinned():
    # the first step count whose m bias correction rounds to exactly 1.0,
    # from where Adam skips the m divide; it stays 1.0 after
    assert ADAM_SPENT_M == 356
    assert 1.0 - 0.9**(ADAM_SPENT_M - 1) < 1.0
    assert all(1.0 - 0.9**t == 1.0
               for t in range(ADAM_SPENT_M, ADAM_SPENT_M + 100_000))


class TestProjectBox:
    def test_clamp(self):
        out = project_box(np.array([6.0, -7.0, 0.0]), BoxBounds(-5, 5))
        np.testing.assert_array_equal(out, [5.0, -5.0, 0.0])

    def test_inside_unchanged(self):
        p = np.array([-4.9, 0.0, 4.9])
        np.testing.assert_array_equal(project_box(p, BoxBounds(-5, 5)), p)

    def test_boundary(self):
        out = project_box(np.array([5.0001]), BoxBounds(-5, 5))
        np.testing.assert_array_equal(out, [5.0])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, xs):
        box = BoxBounds(-5.0, 5.0)
        once = project_box(np.array(xs), box)
        np.testing.assert_array_equal(project_box(once, box), once)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 3),
                                            st.integers(1, 40)),
                      elements=st.sampled_from(
                          [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
                           -5e-324, 1.0, -1.0, 3.0, -7.0])
                      | st.floats(-10, 10)),
           st.sampled_from([(-5.0, 5.0), (-0.0, 1.0), (0.0, 2.0),
                            (-1.0, -0.0), (0.0, 1.0), (-3.0, 0.0),
                            (-np.inf, 0.0), (0.0, np.inf),
                            (-np.inf, np.inf)]))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_clip(self, x, bounds):
        # into a fresh array and in place, equal to np.clip and to a
        # maximum then a minimum with the bound first
        box = BoxBounds(*bounds)
        lo, hi = bounds
        for arr in (x, x[0], x.T):
            want = np.clip(arr, box.lo, box.hi)
            assert want.tobytes() == np.minimum(
                hi, np.maximum(lo, arr)).tobytes()
            assert project_box(arr, box).tobytes() == want.tobytes()
            inplace = arr.copy()
            assert project_box(inplace, box, out=inplace) is inplace
            assert inplace.tobytes() == want.tobytes()

    def test_out_clamps_in_place(self):
        x = np.array([[6.0, -7.0], [0.5, -0.0]])
        want = np.clip(x, -5.0, 5.0)
        kept = x.copy()
        fresh = project_box(x, BoxBounds(-5, 5))
        assert fresh is not x and x.tobytes() == kept.tobytes()
        assert project_box(x, BoxBounds(-5, 5), out=x) is x
        assert x.tobytes() == want.tobytes() == fresh.tobytes()

    def test_integer_bounds_clip_as_float64(self):
        # the bounds are stored as 0-d float64 arrays; the int fields stay
        box = BoxBounds(-5, 5)
        assert (box.lo, box.hi) == (-5, 5)
        x = np.array([[6.0, -7.0, np.nan, np.inf], [-np.inf, -0.0, 0.0,
                                                     4.5]])
        for arr in gradient_views(x):
            got = project_box(arr, box)
            assert got.dtype == np.float64
            assert got.tobytes() == np.clip(arr, -5, 5).tobytes()

    def test_invalid_box(self):
        with pytest.raises(ContractViolationError):
            BoxBounds(2.0, 2.0)

    @pytest.mark.parametrize("lo, hi", [("a", "b"), (None, 1.0),
                                        (False, True)],
                             ids=["str", "none", "bool"])
    def test_non_number_box_rejected(self, lo, hi):
        # before, ("a", "b") passed lo < hi and raised numpy's ValueError
        with pytest.raises(ContractViolationError,
                           match="^box bounds must be real numbers"):
            BoxBounds(lo, hi)


class TestRandomness:
    def test_gaussian_matrix_deterministic(self):
        a = gaussian_matrix(7, 4, seed=42)
        b = gaussian_matrix(7, 4, seed=42)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, gaussian_matrix(7, 4, seed=43))

    def test_rank_deficient_gram(self):
        A = gaussian_matrix(5, 10, seed=0)
        assert np.linalg.matrix_rank(A.T @ A) == 5

    def test_sample_mean(self):
        A = gaussian_matrix(1000, 1000, seed=7)
        assert abs(A.mean()) < 0.01

    def test_bad_shape(self):
        with pytest.raises(ContractViolationError):
            gaussian_matrix(0, 3, seed=0)

    def test_draw_into_out_is_a_fresh_draw(self):
        out = np.empty((7, 4))
        assert gaussian_matrix(7, 4, seed=42, out=out) is out
        assert out.tobytes() == gaussian_matrix(7, 4, seed=42).tobytes()

    def test_make_rng_streams(self):
        a = make_rng(1, 2).standard_normal(4)
        b = make_rng(1, 2).standard_normal(4)
        c = make_rng(1, 3).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
