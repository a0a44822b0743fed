import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevel.core import make_rng
from bilevel.errors import ContractViolationError
from bilevel.oracle import Point, fd_check_oracle
from bilevel.problems import (PROBLEMS, accuracy, constrained_toy_grid_optimum,
                              fit_logistic, importance_values, make_blobs,
                              make_constrained_toy, make_hyperparam_ridge,
                              make_importance_toy, make_poison_toy,
                              make_synthetic, ridge_closed_form,
                              logistic_losses, _augment, _memo)
from bilevel.hypergrad import exact_hypergrad, solve_lower_level


def test_registry_defaults_are_the_config_keys():
    # read from the factory signatures; an edit there changes the
    # [problem] keys a run config accepts
    assert {name: spec.defaults for name, spec in PROBLEMS.items()} == {
        "example1": {"dim": 10}, "example2": {"dim": 10},
        "example3": {"dim": 10}, "example4": {"dim": 10},
        "quadratic": {"dim_u": 5, "dim_v": 5},
        "constrained_toy": {},
        "ridge": {"n": 80, "d": 6, "reg_true": 2.0},
        "importance_toy": {"n_train": 200, "n_val": 50, "noise_frac": 0.25},
        "poison_toy": {"n_train": 100, "n_val": 100, "n_poison": 10},
    }
    for spec in PROBLEMS.values():
        for value in spec.defaults.values():
            assert type(value) in (int, float)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_every_oracle_passes_fd_check(name):
    inst = PROBLEMS[name].factory(3)
    o = inst.oracle
    rng = make_rng(3, 0xFD)
    p0 = inst.init_sampler(3)
    p = Point(p0.u + 0.1 * rng.standard_normal(o.dim_u),
              p0.v + 0.1 * rng.standard_normal(o.dim_v))
    rep = fd_check_oracle(o, p)
    assert rep.max_error < 1e-4, str(rep)


class TestSynthetics:
    def test_example1_metric_zero_at_solution(self):
        inst = make_synthetic(1, dim=10)
        assert inst.metric(Point(np.full(10, 0.5), np.full(10, 0.5))) == 0.0

    def test_example2_constant_second_order(self):
        o = make_synthetic(2, dim=6).oracle
        rng = make_rng(0, 1)
        p = Point(rng.uniform(-5, 5, 6), rng.uniform(-5, 5, 6))
        q = rng.standard_normal(6)
        np.testing.assert_allclose(o.hvp_vv_g(p, q), 2 * q, atol=1e-14)
        np.testing.assert_allclose(o.jvp_uv_g(p, q), -2 * q, atol=1e-14)

    def test_example3_metric_ignores_null_space(self):
        inst = make_synthetic(3, dim=10, seed=5)
        A = inst.info["A"]
        _, _, vt = np.linalg.svd(A)
        null_vec = vt[-1]                     # A @ null_vec == 0
        assert np.linalg.norm(A @ null_vec) < 1e-10
        p = Point(0.5 + 2.3 * null_vec, 0.5 - 1.7 * null_vec)
        assert inst.metric(p) < 1e-10

    def test_example4_metric(self):
        inst = make_synthetic(4, dim=10, seed=5)
        A = inst.info["A"]
        _, _, vt = np.linalg.svd(A)
        assert inst.metric(Point(4.0 * vt[-1], np.zeros(10))) < 1e-10
        assert inst.metric(Point(np.zeros(10), np.ones(10))) > 1.0

    def test_projector_idempotent_and_symmetric(self):
        A = make_synthetic(3, dim=10, seed=2).info["A"]
        P = A.T @ np.linalg.solve(A @ A.T, A)
        assert np.linalg.norm(P @ P - P) < 1e-10
        assert np.linalg.norm(P - P.T) < 1e-10

    def test_odd_dim_rejected(self):
        with pytest.raises(ContractViolationError):
            make_synthetic(3, dim=9)

    def test_bad_id(self):
        with pytest.raises(ContractViolationError):
            make_synthetic(5, dim=4)

    @pytest.mark.parametrize("sid", [1, 3])
    @pytest.mark.parametrize("dim", [0, -3])
    def test_nonpositive_dim_rejected(self, sid, dim):
        with pytest.raises(ContractViolationError, match="dim"):
            make_synthetic(sid, dim=dim)
        with pytest.raises(ContractViolationError, match="dim"):
            make_synthetic(sid, dim, [1, 2])

    @pytest.mark.parametrize("sid", [1, 2, 3, 4])
    def test_batch_matches_single(self, sid):
        seeds = [11, 12, 13]
        binst = make_synthetic(sid, 10, seeds)
        assert not binst.oracle.has_dense
        p = binst.init_sampler(seeds)
        for i, s in enumerate(seeds):
            sinst = make_synthetic(sid, dim=10, seed=s)
            ps = sinst.init_sampler(s)
            np.testing.assert_array_equal(p.u[i], ps.u)
            pt = Point(p.u, p.v)
            np.testing.assert_allclose(
                binst.oracle.eval_g(pt)[i], sinst.oracle.eval_g(ps),
                rtol=1e-12)
            np.testing.assert_allclose(
                binst.oracle.grad_v_g(pt)[i], sinst.oracle.grad_v_g(ps),
                rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(binst.metric(pt)[i], sinst.metric(ps),
                                       rtol=1e-12, atol=1e-12)

    def test_batch_init_is_per_seed(self):
        binst = make_synthetic(1, 10, [1, 2])
        p = binst.init_sampler([1, 2])
        assert not np.array_equal(p.u[0], p.u[1])


class TestConstrainedToy:
    def test_grid_oracle(self):
        u_star, f_star = constrained_toy_grid_optimum()
        assert u_star == pytest.approx(0.5, abs=1e-3)
        assert f_star == pytest.approx(0.5, abs=2e-3)

    def test_constraint_active_at_solution(self):
        o = make_constrained_toy().oracle
        h = o.eval_h(Point(np.array([0.5]), np.array([0.5])))
        assert h[0] == pytest.approx(0.0, abs=1e-15)

    def test_unconstrained_version_optimum_at_origin(self):
        o = make_constrained_toy().oracle
        p = Point(np.zeros(1), np.zeros(1))
        assert o.eval_f(p) == 0.0
        np.testing.assert_allclose(exact_hypergrad(o, p), [0.0], atol=1e-14)


class TestRidge:
    def test_infinite_regularization_limit(self):
        inst = make_hyperparam_ridge(1)
        o = inst.oracle
        split = inst.info["split"]
        u = np.array([40.0])
        w = solve_lower_level(o, u, np.zeros(o.dim_v), tol=1e-12)
        assert np.linalg.norm(w) < 1e-10
        f = o.eval_f(Point(u, w))
        assert f == pytest.approx(np.mean(split.y_val**2), rel=1e-6)

    def test_grid_optimum_interior_and_metric(self):
        inst = make_hyperparam_ridge(1)
        u_star = inst.info["u_star"]
        assert -6.0 < u_star < 2.0
        assert inst.metric(Point(np.array([u_star]), np.zeros(6))) == 0.0

    def test_exact_hypergrad_matches_grid_objective_fd(self):
        inst = make_hyperparam_ridge(4)
        o = inst.oracle
        split = inst.info["split"]

        def grid_objective(u):
            w = ridge_closed_form(split.X_train, split.y_train, u)
            return np.mean((split.X_val @ w - split.y_val) ** 2)

        for u0 in (-2.0, -0.5, 0.5):
            w_star = solve_lower_level(o, np.array([u0]), np.zeros(o.dim_v),
                                       tol=1e-12)
            hg = exact_hypergrad(o, Point(np.array([u0]), w_star))
            fd = (grid_objective(u0 + 1e-6) - grid_objective(u0 - 1e-6)) / 2e-6
            assert abs(hg[0] - fd) / max(1.0, abs(fd)) < 1e-4

    def test_too_small_n(self):
        with pytest.raises(ContractViolationError):
            make_hyperparam_ridge(0, n=8, d=6)


class TestImportanceToy:
    def test_uniform_weights_equal_unweighted_loss(self):
        inst = make_importance_toy(2)
        o = inst.oracle
        split = inst.info["split"]
        w = make_rng(0, 0).standard_normal(3)
        # saturate all importances to 1
        p = Point(np.full(split.n_train, 37.0), w)
        expect = np.mean(logistic_losses(_augment(split.X_train),
                                         split.y_train, w)) \
            + 0.05 * np.dot(w, w)
        assert o.eval_g(p) == pytest.approx(expect, rel=1e-12)
        # equal weights anywhere on the sigmoid give the same mean loss
        p2 = Point(np.zeros(split.n_train), w)
        assert o.eval_g(p2) == pytest.approx(expect, rel=1e-12)

    def test_flip_mask_recorded(self):
        inst = make_importance_toy(5, n_train=200, noise_frac=0.25)
        mask = inst.info["flip_mask"]
        assert mask.sum() == 50
        split = inst.info["split"]
        # flipped labels are all negative (one-sided corruption)
        assert np.all(split.y_train[mask] == -1.0)

    def test_noise_frac_bounds(self):
        with pytest.raises(ContractViolationError):
            make_importance_toy(0, noise_frac=1.0)

    def test_importance_values_squash(self):
        u = np.array([-40.0, 0.0, 40.0])
        np.testing.assert_allclose(importance_values(u), [0.0, 0.5, 1.0],
                                   atol=1e-12)


class TestPoisonToy:
    def test_requires_poison_points(self):
        with pytest.raises(ContractViolationError):
            make_poison_toy(0, n_poison=0)

    def test_init_objective_equals_label_flip_baseline(self):
        inst = make_poison_toy(3)
        o = inst.oracle
        split = inst.info["split"]
        p0 = inst.init_sampler(3)
        w_base = inst.info["retrain"](p0.u)
        val_loss = np.mean(logistic_losses(_augment(split.X_val),
                                           split.y_val, w_base))
        assert o.eval_f(p0) == pytest.approx(-val_loss, rel=1e-9)

    def test_labels_are_flipped_training_labels(self):
        inst = make_poison_toy(3, n_poison=7)
        assert inst.info["y_poison"].shape == (7,)
        assert set(np.unique(inst.info["y_poison"])) <= {-1.0, 1.0}


def _sig(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def importance_formulas(inst):
    """importance_toy's v-gradient and second-order callbacks written out,
    every term computed in one pass, in the library's operation order."""
    split = inst.info["split"]
    Xb, y, reg = _augment(split.X_train), split.y_train, inst.info["reg"]

    def terms(p):
        W = 0.5 * (np.tanh(p.u) + 1.0)
        dW = 0.5 / np.cosh(p.u) ** 2
        z = y * np.einsum("nd,...d->...n", Xb, p.v)
        a = -_sig(-z) * y
        r = _sig(z) * _sig(-z)
        return W, dW, np.sum(W, axis=-1), a, r

    def mean_grad(W, S, a):
        return np.einsum("...n,nd->...d", W * a, Xb) / S[..., None]

    def grad_v_g(p):
        W, _, S, a, _ = terms(p)
        return mean_grad(W, S, a) + 2.0 * reg * p.v

    def hvp(p, q):
        W, _, S, _, r = terms(p)
        t = np.einsum("nd,...d->...n", Xb, q)
        return (np.einsum("...n,nd->...d", W * r * t, Xb) / S[..., None]
                + 2.0 * reg * q)

    def jvp(p, q):
        W, dW, S, a, _ = terms(p)
        mq = np.sum(mean_grad(W, S, a) * q, axis=-1)
        xq = np.einsum("nd,...d->...n", Xb, q)
        return dW * (a * xq - mq[..., None]) / S[..., None]

    def hess(p):
        W, _, S, _, r = terms(p)
        return (Xb * (W * r)[:, None]).T @ Xb / S + 2.0 * reg * np.eye(3)

    def jac(p):
        W, dW, S, a, _ = terms(p)
        m = mean_grad(W, S, a)
        return (dW / S)[:, None] * (a[:, None] * Xb - m[None, :])

    return grad_v_g, hvp, jvp, hess, jac


def poison_formulas(inst):
    """poison_toy's v-gradient and second-order callbacks written out,
    both logistic coefficients from one pass, in the library's order."""
    split, y_p = inst.info["split"], inst.info["y_poison"]
    n_poison, reg = inst.info["n_poison"], inst.info["reg"]
    Xb_c, y_c = _augment(split.X_train), split.y_train
    n_total = split.n_train + n_poison

    def block(p):
        return _augment(p.u.reshape(p.u.shape[:-1] + (n_poison, 2)))

    def coeffs(p):
        # (a, r) on the clean set, then on the poison block
        Xbp = block(p)
        zc = y_c * np.einsum("nd,...d->...n", Xb_c, p.v)
        zp = y_p * np.einsum("...nd,...d->...n", Xbp, p.v)
        return (Xbp, -_sig(-zc), _sig(zc) * _sig(-zc),
                -_sig(-zp), _sig(zp) * _sig(-zp))

    def grad_v_g(p):
        Xbp, ac, _, ap, _ = coeffs(p)
        out = np.einsum("...n,nd->...d", ac * y_c, Xb_c)
        out = out + np.einsum("...n,...nd->...d", ap * y_p, Xbp)
        return out / n_total + 2.0 * reg * p.v

    def hvp(p, q):
        Xbp, _, rc, _, rp = coeffs(p)
        tc = np.einsum("nd,...d->...n", Xb_c, q)
        tp = np.einsum("...nd,...d->...n", Xbp, q)
        out = np.einsum("...n,nd->...d", rc * tc, Xb_c)
        out = out + np.einsum("...n,...nd->...d", rp * tp, Xbp)
        return out / n_total + 2.0 * reg * q

    def jvp(p, q):
        Xbp, _, _, ap, rp = coeffs(p)
        xq = np.einsum("...nd,...d->...n", Xbp, q)
        out = ((rp * xq)[..., None] * p.v[..., None, :2]
               + (ap * y_p)[..., None] * q[..., None, :2])
        return out.reshape(p.u.shape) / n_total

    def hess(p):
        Xbp, _, rc, _, rp = coeffs(p)
        H = (Xb_c * rc[:, None]).T @ Xb_c + (Xbp * rp[:, None]).T @ Xbp
        return H / n_total + 2.0 * reg * np.eye(3)

    def jac(p):
        Xbp, _, _, ap, rp = coeffs(p)
        blocks = (rp[:, None] * p.v[None, :2])[:, :, None] * Xbp[:, None, :]
        eye = np.zeros((2, 3))
        eye[0, 0] = eye[1, 1] = 1.0
        blocks = blocks + (ap * y_p)[:, None, None] * eye[None]
        return blocks.reshape(2 * n_poison, 3) / n_total

    return grad_v_g, hvp, jvp, hess, jac


TOY_FORMULAS = {
    "importance_toy": (lambda s: make_importance_toy(s, n_train=30, n_val=10),
                       importance_formulas),
    "poison_toy": (lambda s: make_poison_toy(s, n_train=20, n_val=10,
                                             n_poison=4),
                   poison_formulas),
}


@pytest.mark.parametrize("name", sorted(TOY_FORMULAS))
@pytest.mark.parametrize("seed", [0, 7])
def test_toy_callbacks_equal_formulas_bitwise(name, seed):
    make, formulas = TOY_FORMULAS[name]
    inst = make(seed)
    o = inst.oracle
    grad_v_g, hvp, jvp, hess, jac = formulas(inst)
    rng = make_rng(seed, 0x7E57)

    def draw(*batch):
        return (rng.uniform(-3.0, 3.0, batch + (o.dim_u,)),
                rng.standard_normal(batch + (o.dim_v,)))

    for _ in range(3):
        p = Point(*draw())
        q = rng.standard_normal(o.dim_v)
        assert o.grad_v_g(p).tobytes() == grad_v_g(p).tobytes()
        assert o.hvp_vv_g(p, q).tobytes() == hvp(p, q).tobytes()
        assert o.jvp_uv_g(p, q).tobytes() == jvp(p, q).tobytes()
        assert o.hess_vv_g(p).tobytes() == hess(p).tobytes()
        assert o.jac_uv_g(p).tobytes() == jac(p).tobytes()
    # the first-order and matrix-free callbacks broadcast over a batch
    p = Point(*draw(4))
    q = rng.standard_normal((4, o.dim_v))
    assert o.grad_v_g(p).tobytes() == grad_v_g(p).tobytes()
    assert o.hvp_vv_g(p, q).tobytes() == hvp(p, q).tobytes()
    assert o.jvp_uv_g(p, q).tobytes() == jvp(p, q).tobytes()


class TestLogisticHelpers:
    def test_fit_separable(self):
        X = np.array([[2.0, 0.0], [-2.0, 0.0], [2.5, 1.0], [-2.5, -1.0]])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        w = fit_logistic(X, y, reg=0.05)
        assert accuracy(w, X, y) == 1.0

    def test_weighted_fit_ignores_zero_weight_points(self):
        rng = make_rng(9, 9)
        X = rng.standard_normal((40, 2))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        X_junk = rng.standard_normal((10, 2)) + 10.0
        y_junk = -np.ones(10)
        Xa = np.concatenate([X, X_junk])
        ya = np.concatenate([y, y_junk])
        wts = np.concatenate([np.ones(40), 1e-12 * np.ones(10)])
        w_clean = fit_logistic(X, y)
        w_masked = fit_logistic(Xa, ya, sample_weight=wts)
        np.testing.assert_allclose(w_clean, w_masked, atol=1e-6)

    def test_blobs_balanced(self):
        split = make_blobs(0, 100, 50)
        assert abs(split.y_train.sum()) <= 1
        assert split.n_train == 100 and split.n_val == 50



# small instances of the problems whose callbacks share per-point terms
MEMO_PROBLEMS = {
    "importance_toy": lambda: make_importance_toy(4, n_train=30, n_val=10),
    "poison_toy": lambda: make_poison_toy(4, n_train=20, n_val=10,
                                          n_poison=4),
    "example4": lambda: make_synthetic(4, dim=6, seed=4),
}
BATCH_CALLBACKS = ("eval_f", "eval_g", "grad_u_f", "grad_v_f", "grad_v_g",
                   "hvp_vv_g", "jvp_uv_g")
DENSE_CALLBACKS = ("hess_vv_g", "jac_uv_g")


@pytest.mark.parametrize("name", sorted(MEMO_PROBLEMS))
def test_shared_terms_match_a_fresh_instance_bitwise(name):
    # one long-lived instance against a fresh one per call: repeated and
    # alternating points, in-place changes to p.v, and a (1, V) batch
    # holding the bytes of a single point
    make = MEMO_PROBLEMS[name]
    o = make().oracle
    rng = make_rng(11, 0x3E30)

    def draw():
        return Point(rng.uniform(-3.0, 3.0, o.dim_u),
                     rng.standard_normal(o.dim_v))

    p, prev = draw(), draw()
    for _ in range(150):
        move = rng.integers(5)          # 4: call again at the same point
        if move == 0:
            p, prev = draw(), p
        elif move == 1:
            p, prev = prev, p
        elif move == 2:
            p.v[..., rng.integers(o.dim_v)] += rng.standard_normal()
        elif move == 3:
            p = (Point(p.u[None], p.v[None]) if p.u.ndim == 1
                 else Point(p.u[0], p.v[0]))
        names = BATCH_CALLBACKS + (DENSE_CALLBACKS if p.u.ndim == 1 else ())
        cb = names[rng.integers(len(names))]
        args = (p,)
        if cb in ("hvp_vv_g", "jvp_uv_g"):
            args = (p, rng.standard_normal(p.v.shape))
        got = np.asarray(getattr(o, cb)(*args))
        want = np.asarray(getattr(make().oracle, cb)(*args))
        assert got.shape == want.shape, cb
        assert got.tobytes() == want.tobytes(), cb


@pytest.mark.parametrize("name", sorted(MEMO_PROBLEMS))
def test_callback_outputs_do_not_alias_shared_terms(name):
    # a caller may write into what a callback returns; the next call at
    # the same point must not see it
    o = MEMO_PROBLEMS[name]().oracle
    rng = make_rng(5, 0xA11A)
    p = Point(rng.uniform(-3.0, 3.0, o.dim_u), rng.standard_normal(o.dim_v))
    q = rng.standard_normal(o.dim_v)
    for cb, args in (("grad_u_f", (p,)), ("grad_v_f", (p,)),
                     ("grad_v_g", (p,)), ("hvp_vv_g", (p, q)),
                     ("jvp_uv_g", (p, q)), ("hess_vv_g", (p,)),
                     ("jac_uv_g", (p,))):
        first = getattr(o, cb)(*args)
        want = first.tobytes()
        first[...] = np.nan
        assert getattr(o, cb)(*args).tobytes() == want, cb


def test_memo_keys_on_value_and_stores_read_only():
    calls = []

    def terms(u, v):
        calls.append(1)
        return u + v, u * v

    memo = _memo(terms)
    u, v = np.arange(3.0), np.ones(3)
    first = memo(u, v)
    assert memo(u.copy(), v.copy()) is first and len(calls) == 1
    for x in first:
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[...] = 0.0
    v[0] = 2.0                          # changed in place: a miss
    assert memo(u, v)[0][0] == 2.0 and len(calls) == 2
    memo(u[None], v[None])              # same bytes, new shape: a miss
    memo(u.astype(np.float32), v)       # new dtype: a miss
    assert len(calls) == 4
    memo(u, v)                          # one slot: the old key is gone
    assert len(calls) == 5


def test_memo_single_argument_and_arity():
    calls = []

    def half(v):
        calls.append(1)
        return 0.5 * v

    memo = _memo(half)
    v = np.arange(4.0)
    first = memo(v)
    assert memo(v.copy()) is first and len(calls) == 1
    assert not first.flags.writeable
    memo(v.reshape(2, 2))               # same bytes, new shape: a miss
    assert len(calls) == 2
    with pytest.raises(ContractViolationError):
        _memo(lambda a, b, c: a)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), scale=st.floats(0.1, 3.0))
def test_fd_check_at_random_points(name, seed, scale):
    inst = PROBLEMS[name].factory(seed)
    o = inst.oracle
    rng = make_rng(seed, 0xFD)
    p = Point(rng.uniform(-scale, scale, o.dim_u),
              rng.uniform(-scale, scale, o.dim_v))
    rep = fd_check_oracle(o, p)
    assert rep.max_error < 1e-4, str(rep)
