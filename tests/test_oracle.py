import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bilevel.core import make_rng
from bilevel.errors import ContractViolationError, NumericError
from bilevel.oracle import (PenaltyParams, Point, ProblemOracle,
                            central_diff, fd_check_oracle, initial_slacks,
                            penalty_grad_u,
                            penalty_grad_v, penalty_value, slackify)
from bilevel.problems import (PROBLEMS, make_constrained_toy, make_quadratic,
                              make_synthetic)
from helpers import with_zero_f


@pytest.fixture
def ex1_1d():
    return make_synthetic(1, dim=1).oracle


def point(u, v):
    return Point(np.atleast_1d(np.asarray(u, float)),
                 np.atleast_1d(np.asarray(v, float)))


class TestPenaltyValue:
    def test_feasible_point(self, ex1_1d):
        val = penalty_value(ex1_1d, point(0.5, 0.5), PenaltyParams(gamma=1.0))
        assert val == pytest.approx(0.5, abs=1e-15)

    def test_hand_arithmetic(self, ex1_1d):
        val = penalty_value(ex1_1d, point(0.5, 0.3), PenaltyParams(gamma=1.0))
        assert val == pytest.approx(0.42, abs=1e-12)

    def test_gamma_zero_is_f(self, ex1_1d):
        rng = make_rng(0, 1)
        for _ in range(5):
            p = point(rng.uniform(-5, 5), rng.uniform(-5, 5))
            assert penalty_value(ex1_1d, p, PenaltyParams(gamma=0.0)) \
                == ex1_1d.eval_f(p)

    def test_constrained_includes_h(self):
        o = make_constrained_toy().oracle
        p = point(0.2, 0.2)
        val = penalty_value(o, p, PenaltyParams(gamma=2.0))
        f = 0.2**2 + 0.2**2
        h = 1 - 0.4
        assert val == pytest.approx(f + 1.0 * (h * h + 0.0), abs=1e-12)


class TestPenaltyGrads:
    def test_grad_v_hand(self, ex1_1d):
        g = penalty_grad_v(ex1_1d, point(0.5, 0.3), PenaltyParams(gamma=1.0))
        assert g[0] == pytest.approx(-0.2, abs=1e-12)

    def test_grad_v_at_lower_optimum(self, ex1_1d):
        p = point(0.3, 0.7)
        g = penalty_grad_v(ex1_1d, p, PenaltyParams(gamma=123.0))
        np.testing.assert_allclose(g, ex1_1d.grad_v_f(p), atol=1e-12)

    def test_grad_v_lam_only(self, ex1_1d):
        g = penalty_grad_v(ex1_1d, point(0.5, 0.3),
                           PenaltyParams(gamma=0.0, lam=10.0))
        assert g[0] == pytest.approx(-3.4, abs=1e-12)

    def test_grad_u_hand(self, ex1_1d):
        g = penalty_grad_u(ex1_1d, point(0.5, 0.3), PenaltyParams(gamma=1.0))
        assert g[0] == pytest.approx(0.2, abs=1e-12)

    def test_grad_u_at_lower_optimum(self, ex1_1d):
        p = point(0.3, 0.7)
        g = penalty_grad_u(ex1_1d, p, PenaltyParams(gamma=9.0))
        np.testing.assert_allclose(g, ex1_1d.grad_u_f(p), atol=1e-12)

    def test_grad_u_gamma_scaling(self, ex1_1d):
        g = penalty_grad_u(ex1_1d, point(0.5, 0.3), PenaltyParams(gamma=2.0))
        assert g[0] == pytest.approx(-0.6, abs=1e-12)

    def test_nu_term_uses_single_hvp(self, ex1_1d):
        calls = {"hvp": 0}
        base = ex1_1d

        def counting_hvp(p, q):
            calls["hvp"] += 1
            return base.hvp_vv_g(p, q)

        from dataclasses import replace
        o = replace(base, hvp_vv_g=counting_hvp)
        params = PenaltyParams(gamma=3.0, lam=2.0, nu=np.array([0.7]))
        penalty_grad_v(o, point(0.1, 0.2), params)
        assert calls["hvp"] == 1


class TestPenaltyParamsRejects:
    # a NaN or infinite weight would turn every penalty gradient into NaN
    # or inf; it is refused at construction, naming the field
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    @pytest.mark.parametrize("field", ["gamma", "lam"])
    def test_scalar(self, field, bad):
        kw = {"gamma": 1.0, field: bad}
        with pytest.raises(ContractViolationError,
                           match=f"^{field} must be finite and >= 0"):
            PenaltyParams(**kw)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["gamma", "lam"])
    def test_one_batch_entry(self, field, bad):
        kw = {"gamma": np.ones(3), "lam": np.zeros(3), "v_shape": (3, 2)}
        kw[field] = np.array([1.0, bad, 2.0])
        with pytest.raises(ContractViolationError, match=f"^{field} must"):
            PenaltyParams(**kw)

    def test_bounds_accepted(self):
        # zero and the schedule's largest weight are finite and >= 0
        for w in (0.0, 1e100, np.array([0.0, 1e100])):
            PenaltyParams(gamma=w, lam=w)

    @pytest.mark.parametrize("shape", [(2, 5), (3, 4), (4, 2), (2, 2, 4)])
    def test_mis_shaped_nu(self, shape):
        # once a broadcast ValueError in every penalty_grad_v call
        with pytest.raises(ContractViolationError, match=r"^nu of shape"):
            PenaltyParams(gamma=np.ones(2), nu=np.zeros(shape),
                          v_shape=(2, 4))

    @pytest.mark.parametrize("shape", [(2, 4), (4,), (2, 1), (1, 4)])
    def test_nu_that_broadcasts_to_v_accepted(self, shape):
        PenaltyParams(gamma=np.ones(2), nu=np.zeros(shape), v_shape=(2, 4))


def _fd(fun, x, eps=1e-6):
    out = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = eps
        out[i] = (fun(x + step) - fun(x - step)) / (2 * eps)
    return out


FD_PROBLEMS = ["example1", "example2", "example3", "example4", "quadratic",
               "constrained_toy", "ridge"]


@pytest.mark.parametrize("name", FD_PROBLEMS)
@pytest.mark.parametrize("gamma", [0.01, 1.0, 100.0])
def test_penalty_grads_match_fd(name, gamma):
    inst = PROBLEMS[name].factory(2)
    o = inst.oracle
    rng = make_rng(2, 99)
    p0 = inst.init_sampler(2)
    p = Point(p0.u + 0.3 * rng.standard_normal(o.dim_u),
              p0.v + 0.3 * rng.standard_normal(o.dim_v))
    params = PenaltyParams(gamma=gamma)
    gv = penalty_grad_v(o, p, params)
    gu = penalty_grad_u(o, p, params)
    fd_v = _fd(lambda v: penalty_value(o, Point(p.u, v), params), p.v)
    fd_u = _fd(lambda u: penalty_value(o, Point(u, p.v), params), p.u)
    scale = max(1.0, np.linalg.norm(fd_v), np.linalg.norm(fd_u))
    assert np.linalg.norm(gv - fd_v) / scale < 1e-5
    assert np.linalg.norm(gu - fd_u) / scale < 1e-5


def penalty_value_full(oracle, p, params):
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
    if params.lam_v is not None:
        out = out + np.asarray(params.lam) * oracle.eval_g(p)
    return out


def test_augmented_grads_match_fd():
    inst = PROBLEMS["constrained_toy"].factory(0)
    o = slackify(inst.oracle)
    rng = make_rng(5, 5)
    p = Point(rng.uniform(-2, 2, o.dim_u), rng.uniform(-2, 2, o.dim_v))
    nu = rng.standard_normal(o.dim_v)
    nu_h = rng.standard_normal(o.dim_c)
    params = PenaltyParams(gamma=3.0, lam=0.7, nu=nu, nu_h=nu_h)
    params_u = PenaltyParams(gamma=3.0, lam=0.0, nu=nu, nu_h=nu_h)
    gv = penalty_grad_v(o, p, params)
    gu = penalty_grad_u(o, p, params_u)
    fd_v = _fd(lambda v: penalty_value_full(o, Point(p.u, v), params), p.v)
    fd_u = _fd(lambda u: penalty_value_full(o, Point(u, p.v), params_u), p.u)
    np.testing.assert_allclose(gv, fd_v, rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(gu, fd_u, rtol=1e-6, atol=1e-7)


def formula_penalty_grads(o, p, gamma, lam, nu, nu_h):
    """Penalized v- and u-gradients written out term by term, in the
    library's operation order; no term is skipped for being zero."""
    g_col = np.asarray(gamma, dtype=np.float64)[..., None]
    gvg = o.grad_v_g(p)
    w = g_col * gvg
    if nu is not None:
        w = w + nu
    gv = o.grad_v_f(p) + o.hvp_vv_g(p, w)
    if not (np.ndim(lam) == 0 and lam == 0.0):
        gv = gv + np.asarray(lam, dtype=np.float64)[..., None] * gvg
    gu = o.grad_u_f(p) + o.jvp_uv_g(p, w)
    if o.has_constraints:
        mu = g_col * o.eval_h(p)
        if nu_h is not None:
            mu = mu + nu_h
        gv = gv + o.jtvp_v_h(p, mu)
        gu = gu + o.jtvp_u_h(p, mu)
    return gv, gu


GRAD_ORACLES = {"quadratic": make_quadratic(1, dim_u=3, dim_v=4).oracle,
                "slack_toy": slackify(make_constrained_toy(0).oracle)}
signed = (st.sampled_from([-0.0, 0.0]) | st.floats(-5, 5))
weight = st.sampled_from([0.0, 1.0]) | st.floats(0, 100)


@st.composite
def penalty_cases(draw):
    name = draw(st.sampled_from(sorted(GRAD_ORACLES)))
    o = GRAD_ORACLES[name]
    batch = draw(st.integers(1, 3))
    # single point or batch; slackify pads single points only to (U,)
    single = name == "quadratic" and draw(st.booleans())
    lead = () if single else (batch,)
    p = Point(draw(hnp.arrays(np.float64, lead + (o.dim_u,), elements=signed)),
              draw(hnp.arrays(np.float64, lead + (o.dim_v,), elements=signed)))

    def scalar_or_batch(elements):
        if draw(st.booleans()):
            return draw(elements)
        return draw(hnp.arrays(np.float64, (batch,), elements=elements))

    gamma = scalar_or_batch(weight)
    lam = scalar_or_batch(weight)
    nu = nu_h = None
    if draw(st.booleans()):
        nu = draw(hnp.arrays(np.float64, (batch, o.dim_v), elements=signed))
    if o.has_constraints and draw(st.booleans()):
        nu_h = draw(hnp.arrays(np.float64, (batch, o.dim_c),
                               elements=signed))
    return o, p, gamma, lam, nu, nu_h


class TestPenaltyGradBitIdentity:
    @given(penalty_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_formula_bitwise(self, case):
        o, p, gamma, lam, nu, nu_h = case
        params = PenaltyParams(gamma=gamma, lam=lam, nu=nu, nu_h=nu_h)
        want_v, want_u = formula_penalty_grads(o, p, gamma, lam, nu, nu_h)
        gv = penalty_grad_v(o, p, params)
        gu = penalty_grad_u(o, p, params)
        assert gv.shape == want_v.shape and gu.shape == want_u.shape
        assert gv.tobytes() == want_v.tobytes()
        assert gu.tobytes() == want_u.tobytes()

    def test_zero_multipliers_still_added(self):
        # at u = s = 0, v = -0.0 and gamma = 0 the weighted stationarity
        # vector is -0.0; adding the zero nu turns it into +0.0, and that
        # sign reaches the v-gradient
        o = GRAD_ORACLES["slack_toy"]
        p = Point(np.zeros((1, 2)), np.full((1, 1), -0.0))
        gamma, nu, nu_h = np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1))
        params = PenaltyParams(gamma=gamma, nu=nu, nu_h=nu_h)
        want_v, _ = formula_penalty_grads(o, p, gamma, 0.0, nu, nu_h)
        gv = penalty_grad_v(o, p, params)
        assert gv.tobytes() == want_v.tobytes()
        assert gv[0, 0] == 0.0 and not np.signbit(gv[0, 0])

    def test_single_point_batched_weights(self):
        # w = gamma * grad_v g broadcasts a (V,) point gradient to (B, V)
        o = GRAD_ORACLES["quadratic"]
        p = Point(np.full(o.dim_u, -0.0), np.full(o.dim_v, -0.0))
        gamma = np.array([0.0, 2.0, 5.0])
        nu = np.zeros((3, o.dim_v))
        lam = np.array([0.0, 0.5, 1.0])
        params = PenaltyParams(gamma=gamma, lam=lam, nu=nu)
        want_v, want_u = formula_penalty_grads(o, p, gamma, lam, nu, None)
        gv = penalty_grad_v(o, p, params)
        gu = penalty_grad_u(o, p, params)
        assert gv.shape == (3, o.dim_v) and gu.shape == (3, o.dim_u)
        assert gv.tobytes() == want_v.tobytes()
        assert gu.tobytes() == want_u.tobytes()
        # p was not written through
        assert np.signbit(p.u).all() and np.signbit(p.v).all()


class TestHvpProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_symmetric_bilinear_form(self, seed):
        o = make_synthetic(3, dim=10, seed=1).oracle
        rng = make_rng(seed, 0)
        p = Point(rng.uniform(-5, 5, 10), rng.uniform(-5, 5, 10))
        q1 = rng.standard_normal(10)
        q2 = rng.standard_normal(10)
        a = np.dot(q1, o.hvp_vv_g(p, q2))
        b = np.dot(q2, o.hvp_vv_g(p, q1))
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a))

    @given(st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_linear_in_q(self, a, b):
        o = make_quadratic(3).oracle
        rng = make_rng(7, 7)
        p = Point(rng.standard_normal(5), rng.standard_normal(5))
        q1 = rng.standard_normal(5)
        q2 = rng.standard_normal(5)
        lhs = o.hvp_vv_g(p, a * q1 + b * q2)
        rhs = a * o.hvp_vv_g(p, q1) + b * o.hvp_vv_g(p, q2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_constant_for_quadratic_g(self):
        o = make_synthetic(1, dim=10).oracle
        rng = make_rng(0, 3)
        q = rng.standard_normal(10)
        p1 = Point(rng.uniform(-5, 5, 10), rng.uniform(-5, 5, 10))
        p2 = Point(rng.uniform(-5, 5, 10), rng.uniform(-5, 5, 10))
        diff = o.hvp_vv_g(p1, q) - o.hvp_vv_g(p2, q)
        assert np.linalg.norm(diff) < 1e-12


def linear_constraint_oracle():
    """Scalar toy with h(u, v) = u + v - 1 for slack arithmetic checks."""
    base = make_constrained_toy().oracle
    from dataclasses import replace
    return replace(
        base,
        eval_h=lambda p: p.u + p.v - 1.0,
        jtvp_u_h=lambda p, mu: mu.copy(),
        jtvp_v_h=lambda p, mu: mu.copy())


class TestSlackify:
    def test_constraint_value(self):
        o = slackify(linear_constraint_oracle())
        p = point([0.2, 0.7071], 0.3)
        h = o.eval_h(p)
        assert h[0] == pytest.approx(-0.5 + 0.7071**2, abs=1e-12)
        assert abs(h[0]) < 1e-4

    def test_zero_slack_is_identity(self):
        o = slackify(linear_constraint_oracle())
        p = point([0.2, 0.0], 0.3)
        assert o.eval_h(p)[0] == pytest.approx(-0.5, abs=1e-15)

    def test_slack_gradient_chain_rule(self):
        # d/ds |h + s^2|^2 = 2 (h + s^2) * 2s = -0.5 at h = -0.5, s = 0.5
        o = slackify(linear_constraint_oracle())
        p = point([0.2, 0.5], 0.3)
        h_tilde = o.eval_h(p)
        grad_u = o.jtvp_u_h(p, 2.0 * h_tilde)
        assert grad_u[-1] == pytest.approx(-0.5, abs=1e-12)

    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_costs_ignore_slack(self, u, v, s):
        base = make_constrained_toy().oracle
        o = slackify(base)
        p_ext = point([u, s], v)
        p_base = point(u, v)
        assert o.eval_f(p_ext) == base.eval_f(p_base)
        assert o.eval_g(p_ext) == base.eval_g(p_base)

    def test_requires_constraints(self):
        with pytest.raises(ContractViolationError):
            slackify(make_synthetic(1, dim=2).oracle)

    def test_fd_check_on_slackified(self):
        o = slackify(make_constrained_toy().oracle)
        p = point([0.4, 0.8], -0.2)
        assert fd_check_oracle(o, p).max_error < 1e-4

    @given(st.integers(0, 2**16), st.floats(0.1, 3.0), st.floats(0.05, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_fd_check_at_random_points(self, seed, scale, s):
        # random (u, v) on the constrained toy with a positive slack s
        o = slackify(make_constrained_toy(seed).oracle)
        rng = make_rng(seed, 0x51AC)
        p = point([rng.uniform(-scale, scale), s],
                  rng.uniform(-scale, scale))
        rep = fd_check_oracle(o, p)
        assert rep.max_error < 1e-4, str(rep)

    def test_single_point_batched_gamma(self):
        # a (B,) gamma on a single point gives (B, U + C) u-gradients,
        # row i equal to the call with gamma[i] alone
        o = slackify(make_constrained_toy().oracle)
        p = point([0.4, 0.8], -0.2)
        gamma = np.array([0.0, 1.0, 2.5, 1e3])
        got = penalty_grad_u(o, p, PenaltyParams(gamma=gamma))
        want = np.stack([penalty_grad_u(o, p, PenaltyParams(gamma=g))
                         for g in gamma])
        assert got.shape == (4, 2)
        assert got.tobytes() == want.tobytes()

    def test_initial_slacks(self):
        base = make_constrained_toy().oracle
        p = point(-1.0, 0.0)     # h = 1 - u - v = 2 > 0: infeasible start
        s = initial_slacks(base, p)
        np.testing.assert_allclose(s, np.sqrt(1e-3))
        p2 = point(2.0, 0.0)     # h = -1: feasible, s^2 = 1
        np.testing.assert_allclose(initial_slacks(base, p2), 1.0)


class TestFdCheck:
    def test_quadratic_tight(self):
        o = make_quadratic(1).oracle
        rng = make_rng(1, 4)
        p = Point(rng.standard_normal(5), rng.standard_normal(5))
        assert fd_check_oracle(o, p).max_error < 1e-6

    def test_logistic_loose(self):
        inst = PROBLEMS["importance_toy"].factory(1)
        p = inst.init_sampler(1)
        assert fd_check_oracle(inst.oracle, p).max_error < 1e-4

    def test_detects_corrupted_hvp(self):
        from dataclasses import replace
        o = make_quadratic(1).oracle
        bad = replace(o, hvp_vv_g=lambda p, q: 2.0 * o.hvp_vv_g(p, q))
        rng = make_rng(1, 4)
        p = Point(rng.standard_normal(5), rng.standard_normal(5))
        rep = fd_check_oracle(bad, p)
        assert rep.errors["hvp_vv_g"] > 0.5


def test_zero_f_wrapper():
    o = with_zero_f(make_synthetic(1, dim=3).oracle)
    p = Point(np.ones(3), np.ones(3))
    assert o.eval_f(p) == 0.0
    np.testing.assert_array_equal(o.grad_u_f(p), np.zeros(3))
    assert o.eval_g(p) != 0.0


def test_non_finite_cost_names_callback():
    from dataclasses import replace
    o = make_synthetic(1, dim=2).oracle
    bad = replace(o, eval_f=lambda p: np.nan)
    with pytest.raises(NumericError, match="eval_f"):
        penalty_value(bad, Point(np.zeros(2), np.zeros(2)),
                      PenaltyParams(gamma=1.0))


class TestCentralDiff:
    def test_linear_map_gives_transpose(self):
        # row i differences along x_i, so x -> A @ x gives A.T
        A = make_rng(3, 1).standard_normal((3, 5))
        x = make_rng(3, 2).standard_normal(5)
        got = central_diff(lambda y: A @ y, x, 1e-5)
        assert got.shape == (5, 3)
        np.testing.assert_allclose(got, A.T, rtol=0, atol=1e-9)

    def test_scalar_function_gives_gradient(self):
        x = np.array([0.5, -1.0, 2.0])
        got = central_diff(lambda y: float(y @ y), x, 1e-6)
        assert got.shape == (3,)
        np.testing.assert_allclose(got, 2.0 * x, rtol=0, atol=1e-9)

    def test_fd_check_detects_corrupted_jvp(self):
        from dataclasses import replace
        o = make_quadratic(1).oracle
        bad = replace(o, jvp_uv_g=lambda p, q: 2.0 * o.jvp_uv_g(p, q))
        rng = make_rng(1, 4)
        p = Point(rng.standard_normal(5), rng.standard_normal(5))
        assert fd_check_oracle(o, p).errors["jvp_uv_g"] < 1e-6
        assert fd_check_oracle(bad, p).errors["jvp_uv_g"] > 0.4


# slackify callbacks that ignore the slacks: (name, extra-argument size
# ("v", "c" or None), whether the output gains zero slack coordinates)
SLACK_FREE = [("eval_f", None, False), ("eval_g", None, False),
              ("grad_u_f", None, True), ("grad_v_f", None, False),
              ("grad_v_g", None, False), ("hvp_vv_g", "v", False),
              ("jvp_uv_g", "v", True), ("jtvp_v_h", "c", False)]


class TestSlackLift:
    base = make_constrained_toy().oracle
    lifted = slackify(base)

    def points(self, batch):
        rng = make_rng(11, batch or 0)
        shape = () if batch is None else (batch,)
        u = rng.uniform(-3, 3, shape + (1,))
        s = rng.uniform(0.1, 2, shape + (1,))
        v = rng.uniform(-3, 3, shape + (1,))
        arg = {"v": rng.standard_normal(shape + (1,)),
               "c": rng.standard_normal(shape + (1,))}
        return Point(np.concatenate([u, s], axis=-1), v), Point(u, v), s, arg

    @pytest.mark.parametrize("batch", [None, 4])
    @pytest.mark.parametrize("name, extra, pad", SLACK_FREE)
    def test_slack_free_callbacks_are_the_base(self, batch, name, extra,
                                               pad):
        p, q, _, arg = self.points(batch)
        args = () if extra is None else (arg[extra],)
        got = getattr(self.lifted, name)(p, *args)
        want = getattr(self.base, name)(q, *args)
        if pad:
            assert got.shape == want.shape[:-1] + (2,)
            assert not got[..., 1:].any()
            got = got[..., :1]
        assert got.shape == np.shape(want)
        assert got.tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("batch", [None, 4])
    def test_constraint_callbacks(self, batch):
        p, q, s, arg = self.points(batch)
        mu = arg["c"]
        assert (self.lifted.eval_h(p).tobytes()
                == (self.base.eval_h(q) + s * s).tobytes())
        got = self.lifted.jtvp_u_h(p, mu)
        assert got[..., :1].tobytes() == self.base.jtvp_u_h(q, mu).tobytes()
        assert got[..., 1:].tobytes() == (2.0 * s * mu).tobytes()

    def test_dense_pair(self):
        p, q, _, _ = self.points(None)
        assert (self.lifted.hess_vv_g(p).tobytes()
                == self.base.hess_vv_g(q).tobytes())
        jac = self.lifted.jac_uv_g(p)
        assert jac.shape == (2, 1)
        assert jac[:1].tobytes() == self.base.jac_uv_g(q).tobytes()
        assert not jac[1:].any()
