import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevel import bench, problems
from bilevel.bench import run_trials
from bilevel.core import make_rng
from bilevel.errors import (CapabilityError, ContractViolationError,
                            ConvergenceError)
from bilevel.oracle import (Point, ProblemOracle, dense_matrix,
                            fd_check_oracle, slackify, sqnorm)
from bilevel.problems import (PROBLEMS, accuracy, constrained_toy_grid_optimum,
                              fit_logistic, importance_values, make_blobs,
                              make_constrained_toy, make_hyperparam_ridge,
                              make_importance_toy, make_poison_toy,
                              make_synthetic, ridge_closed_form,
                              _augment, _curvature, _margin_terms, _mat_vec,
                              _memo, _neg_margin, _row_space_projector,
                              _signed, _synthetic_a)
from bilevel.hypergrad import exact_hypergrad, solve_lower_level
from bilevel.solvers import (OracleCounters, PenaltyConfig, penalty_aug_solve,
                             penalty_solve)
from helpers import assert_reads_match


def logistic_losses(Xb, y, w):
    """Per-example cross-entropy log(1 + exp(-z)), stable."""
    return np.logaddexp(0.0, _neg_margin(_signed(Xb, y), w))


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


@pytest.mark.parametrize("name", sorted(PROBLEMS) + ["constrained_toy+slack"])
def test_dense_pair_applies_as_the_products(name):
    # the derived matrices times q are the products at q
    inst = PROBLEMS[name.removesuffix("+slack")].factory(3)
    o = slackify(inst.oracle) if name.endswith("+slack") else inst.oracle
    rng = make_rng(3, 0xDE5)
    p = Point(rng.uniform(-2.0, 2.0, o.dim_u), rng.uniform(-2.0, 2.0, o.dim_v))
    H, J = o.hess_vv_g(p), o.jac_uv_g(p)
    assert H.shape == (o.dim_v, o.dim_v) and J.shape == (o.dim_u, o.dim_v)
    for _ in range(3):
        q = rng.standard_normal(o.dim_v)
        for got, want in ((H @ q, o.hvp_vv_g(p, q)), (J @ q, o.jvp_uv_g(p, q))):
            assert got.shape == want.shape
            assert (np.linalg.norm(got - want)
                    <= 1e-13 * np.linalg.norm(want)), name


@pytest.mark.parametrize(
    "name", sorted(n for n, s in PROBLEMS.items() if s.batch_factory))
def test_stacked_dense_pair_is_each_trials_pair_bitwise(name):
    spec = PROBLEMS[name]
    seeds = [11, 12, 13]
    binst = spec.batch_factory(seeds)
    o, p = binst.oracle, binst.init_sampler(seeds)
    H, J = o.hess_vv_g(p), o.jac_uv_g(p)
    assert H.shape == (3, o.dim_v, o.dim_v)
    assert J.shape == (3, o.dim_u, o.dim_v)
    for i, s in enumerate(seeds):
        single = spec.factory(s).oracle
        ps = Point(p.u[i], p.v[i])
        assert H[i].tobytes() == single.hess_vv_g(ps).tobytes()
        assert J[i].tobytes() == single.jac_uv_g(ps).tobytes()


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

    @pytest.mark.parametrize("sid", [1, 3])
    @pytest.mark.parametrize("dim", [2.5, 4.0, True, "4"])
    def test_non_integer_dim_rejected(self, sid, dim):
        # before, 2.5 and True raised a raw TypeError from the dense
        # pair's identity, which is now built on first use
        for seed in (1, [1, 2]):
            with pytest.raises(ContractViolationError,
                               match="^dim must be an integer"):
                make_synthetic(sid, dim, seed)

    def test_numpy_integer_dim_accepted(self):
        inst = make_synthetic(3, np.int64(4), [1, 2])
        assert inst.info["A"].shape == (2, 2, 4)

    @pytest.mark.parametrize("sid", [3, 4])
    @pytest.mark.parametrize("dim", [2, 10, 64, 256])
    @pytest.mark.parametrize("seed", [7, [7, 8, 9]], ids=["one", "three"])
    def test_a_and_projector_equal_the_batched_build_bitwise(self, sid, dim,
                                                             seed):
        # A is drawn into its stack and P built one trial at a time; both
        # are the bytes of stacking fresh draws and of the batched solve
        A = make_synthetic(sid, dim, seed).info["A"]
        if isinstance(seed, list):
            want = np.stack([_synthetic_a(dim, s) for s in seed])
        else:
            want = _synthetic_a(dim, seed)
        assert A.shape == want.shape and A.tobytes() == want.tobytes()
        AT = np.swapaxes(want, -1, -2)
        batched = AT @ np.linalg.solve(want @ AT, want)
        P = _row_space_projector(A)
        assert P.shape == batched.shape
        assert P.tobytes() == batched.tobytes()

    def test_stacked_build_holds_what_it_keeps_plus_one_trial(self):
        # A and the metric's projector P stay; the rest of the build may
        # hold one trial's worth at a time (the batched build reached
        # about 1.6 times A + P)
        dim, seeds = 256, list(range(10))
        a_bytes = dim // 2 * dim * 8
        p_bytes = dim * dim * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            inst = make_synthetic(3, dim, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.info["A"].nbytes == len(seeds) * a_bytes
        assert peak <= (len(seeds) + 1) * (a_bytes + p_bytes)

    @pytest.mark.parametrize("sid", [3, 4])
    @pytest.mark.parametrize("dim", [2, 10, 64])
    @pytest.mark.parametrize("seed", [7, [7, 8, 9]], ids=["one", "three"])
    def test_build_makes_no_projector(self, monkeypatch, sid, dim, seed):
        # the projector's solve once ran in every build, scored or not
        calls = []
        monkeypatch.setattr(problems, "_row_space_projector",
                            lambda *a, **k: calls.append("projector"))
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *a, **k: calls.append("solve"))
        make_synthetic(sid, dim, seed)
        assert calls == []

    @pytest.mark.parametrize("sid", [3, 4])
    def test_first_distance_fills_the_projector_once(self, monkeypatch,
                                                     sid):
        fills = projector_spy(monkeypatch)
        inst = make_synthetic(sid, 10, [7, 8])
        p = inst.init_sampler([7, 8])
        assert fills == []
        first = inst.metric(p)
        assert [inst.metric(p).tobytes() for _ in range(3)] == \
            [first.tobytes()] * 3
        assert len(fills) == 1 and fills[0] is inst.info["A"]

    @pytest.mark.parametrize("sid", [3, 4])
    def test_slot_reuse_fills_the_projector_once(self, monkeypatch, sid):
        monkeypatch.delenv("BILEVEL_THREADS", raising=False)
        monkeypatch.setattr(bench, "_slot", None)
        fills = projector_spy(monkeypatch)
        kw = dict(pparams={"dim": 8}, cfg=dict(K=3, T=1), trials=2,
                  record_every=1)
        first = run_trials(f"example{sid}", "gd", **kw)
        assert len(fills) == 1
        slot = bench._slot
        again = run_trials(f"example{sid}", "gd", **kw)
        assert bench._slot is slot and len(fills) == 1
        assert [r.trace.column("distance").tobytes() for r in again] == \
            [r.trace.column("distance").tobytes() for r in first]

    @pytest.mark.parametrize("sid", [3, 4])
    @pytest.mark.parametrize("seed", [7, [7, 8, 9]], ids=["one", "three"])
    def test_distances_equal_an_eager_projector_bitwise(self, sid, seed):
        inst = make_synthetic(sid, 64, seed)
        P = _row_space_projector(inst.info["A"])
        rng = make_rng(3, 1)
        shape = (64,) if isinstance(seed, int) else (3, 64)
        for _ in range(4):
            p = Point(rng.uniform(-5, 5, shape), rng.uniform(-5, 5, shape))
            if sid == 3:
                want = np.sqrt(sqnorm(_mat_vec(P, p.u - 0.5))
                               + sqnorm(_mat_vec(P, p.v - 0.5)))
            else:
                want = np.sqrt(sqnorm(_mat_vec(P, p.u)) + sqnorm(p.v))
            got = inst.metric(p)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sid", [3, 4])
    @pytest.mark.parametrize("seed", [7, [7, 8]], ids=["one", "two"])
    def test_a_is_read_only(self, sid, seed):
        # the metric fills its projector from this A on first use, and
        # the instance slot shares it across run_trials calls
        A = make_synthetic(sid, 4, seed).info["A"]
        with pytest.raises(ValueError, match="read-only"):
            A[..., 0, 0] = 1.0


def projector_spy(monkeypatch):
    """The A of each _row_space_projector call, which still runs."""
    fills = []
    real = problems._row_space_projector

    def spy(A, out=None):
        fills.append(A)
        return real(A, out=out)

    monkeypatch.setattr(problems, "_row_space_projector", spy)
    return fills


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


def assert_same_result(got, expect, shape, what):
    """Same type, float64, same bytes; a vector result is an ndarray of
    the given shape, never a NumPy scalar."""
    assert type(got) is type(expect), what
    assert got.dtype == np.float64, what
    assert got.tobytes() == expect.tobytes(), what
    if shape is not None:
        assert isinstance(got, np.ndarray), what
        assert got.shape == shape, what


def val_formulas(inst, sign):
    """The validation cross-entropy upper cost and its v-gradient of a
    logistic toy, with the margin z = y (w . x) and the slope
    -sigma(-z) y, in the order the toys first computed them."""
    split = inst.info["split"]
    Xb_val, y_val = _augment(split.X_val), split.y_val

    def margin(p):
        return y_val * np.einsum("nd,...d->...n", Xb_val, p.v)

    def eval_f(p):
        return sign * np.mean(np.logaddexp(0.0, -margin(p)), axis=-1)

    def grad_v_f(p):
        a = -_sig(-margin(p)) * y_val
        return sign * np.einsum("...n,nd->...d", a, Xb_val) / len(y_val)

    return eval_f, grad_v_f


def importance_formulas(inst):
    """importance_toy's callbacks written out, every term computed in one
    pass, in the order the library first computed them."""
    split = inst.info["split"]
    Xb, y, reg = _augment(split.X_train), split.y_train, inst.info["reg"]

    def terms(p):
        W = 0.5 * (np.tanh(p.u) + 1.0)
        dW = 0.5 / np.cosh(p.u) ** 2
        z = y * np.einsum("nd,...d->...n", Xb, p.v)
        a = -_sig(-z) * y
        r = _sig(z) * _sig(-z)
        return W, dW, np.sum(W, axis=-1), a, r, z

    def mean_grad(W, S, a):
        return np.einsum("...n,nd->...d", W * a, Xb) / S[..., None]

    def eval_g(p):
        W, _, S, _, _, z = terms(p)
        l = np.logaddexp(0.0, -z)
        return np.sum(W * l, axis=-1) / S + reg * np.sum(p.v * p.v, axis=-1)

    def grad_v_g(p):
        W, _, S, a, _, _ = terms(p)
        return mean_grad(W, S, a) + 2.0 * reg * p.v

    def hvp(p, q):
        W, _, S, _, r, _ = terms(p)
        t = np.einsum("nd,...d->...n", Xb, q)
        return (np.einsum("...n,nd->...d", W * r * t, Xb) / S[..., None]
                + 2.0 * reg * q)

    def jvp(p, q):
        W, dW, S, a, _, _ = terms(p)
        mq = np.sum(mean_grad(W, S, a) * q, axis=-1)
        xq = np.einsum("nd,...d->...n", Xb, q)
        return dW * (a * xq - mq[..., None]) / S[..., None]

    eval_f, grad_v_f = val_formulas(inst, 1.0)
    return dict(eval_f=eval_f, grad_u_f=lambda p: np.zeros_like(p.u),
                grad_v_f=grad_v_f, eval_g=eval_g, grad_v_g=grad_v_g,
                hvp_vv_g=hvp, jvp_uv_g=jvp)


def poison_formulas(inst):
    """poison_toy's callbacks written out, both logistic coefficients from
    one pass, in the order the library first computed them."""
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
                -_sig(-zp), _sig(zp) * _sig(-zp), zc, zp)

    def eval_g(p):
        zc, zp = coeffs(p)[5:]
        lc = np.logaddexp(0.0, -zc)
        lp = np.logaddexp(0.0, -zp)
        return ((np.sum(lc, axis=-1) + np.sum(lp, axis=-1)) / n_total
                + reg * np.sum(p.v * p.v, axis=-1))

    def grad_v_g(p):
        Xbp, ac, _, ap, _ = coeffs(p)[:5]
        out = np.einsum("...n,nd->...d", ac * y_c, Xb_c)
        out = out + np.einsum("...n,...nd->...d", ap * y_p, Xbp)
        return out / n_total + 2.0 * reg * p.v

    def hvp(p, q):
        Xbp, _, rc, _, rp = coeffs(p)[:5]
        tc = np.einsum("nd,...d->...n", Xb_c, q)
        tp = np.einsum("...nd,...d->...n", Xbp, q)
        out = np.einsum("...n,nd->...d", rc * tc, Xb_c)
        out = out + np.einsum("...n,...nd->...d", rp * tp, Xbp)
        return out / n_total + 2.0 * reg * q

    def jvp(p, q):
        Xbp, _, _, ap, rp = coeffs(p)[:5]
        xq = np.einsum("...nd,...d->...n", Xbp, q)
        out = ((rp * xq)[..., None] * p.v[..., None, :2]
               + (ap * y_p)[..., None] * q[..., None, :2])
        return out.reshape(p.u.shape) / n_total

    eval_f, grad_v_f = val_formulas(inst, -1.0)
    return dict(eval_f=eval_f, grad_u_f=lambda p: np.zeros_like(p.u),
                grad_v_f=grad_v_f, eval_g=eval_g, grad_v_g=grad_v_g,
                hvp_vv_g=hvp, jvp_uv_g=jvp)


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
    # at random points, on a batch of 4, and at v = 0, where every margin
    # is exactly zero
    make, formulas = TOY_FORMULAS[name]
    inst = make(seed)
    o = inst.oracle
    want = formulas(inst)
    rng = make_rng(seed, 0x7E57)

    def draw(*batch):
        return (rng.uniform(-3.0, 3.0, batch + (o.dim_u,)),
                rng.standard_normal(batch + (o.dim_v,)))

    def check(p, q):
        # same type and bytes as the Python-float formulas; the vector
        # callbacks return float64 arrays of the point's shape
        batch = p.v.shape[:-1]
        for cb in ("eval_f", "eval_g"):
            assert_same_result(getattr(o, cb)(p), want[cb](p), None, cb)
        for cb, dim in (("grad_u_f", o.dim_u), ("grad_v_f", o.dim_v),
                        ("grad_v_g", o.dim_v)):
            assert_same_result(getattr(o, cb)(p), want[cb](p),
                               batch + (dim,), cb)
        for cb, dim in (("hvp_vv_g", o.dim_v), ("jvp_uv_g", o.dim_u)):
            assert_same_result(getattr(o, cb)(p, q), want[cb](p, q),
                               batch + (dim,), cb)

    for batch in [()] * 3 + [(4,)]:
        u, v = draw(*batch)
        q = rng.standard_normal(batch + (o.dim_v,))
        check(Point(u, v), q)
        check(Point(u, np.zeros_like(v)), q)


# the curves benchmark's toy runs, K cut to 30
TOY_RUNS = {
    "poison_toy": (make_poison_toy, poison_formulas, penalty_aug_solve,
                   dict(K=30, T=20, sigma0=0.1, rho0=0.01, gamma0=10.0,
                        eps0=1.0, lambda0=1.0)),
    "importance_toy": (make_importance_toy, importance_formulas,
                       penalty_solve,
                       dict(K=30, T=20, sigma0=0.05, rho0=0.01, gamma0=300.0,
                            eps0=1.0)),
}


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("name", sorted(TOY_RUNS))
def test_toy_run_equals_formula_oracle_run_bitwise(name, trials):
    # the shared terms live across callbacks, in the order a solver calls
    # them: a whole run, every row recorded, must be the run of an oracle
    # that shares nothing. Trial 0 starts at the toy's p0, the others
    # near it
    make, formulas, solve, kw = TOY_RUNS[name]
    inst = make(0)
    o = inst.oracle
    ref = ProblemOracle(name=o.name, dim_u=o.dim_u, dim_v=o.dim_v, dim_c=0,
                        **formulas(inst))
    p0 = inst.init_sampler(0)
    rng = make_rng(0, 0xB1A5)
    jitter = np.zeros((trials, 1))
    jitter[1:] = 0.1
    pts = Point(p0.u + jitter * rng.standard_normal((trials, o.dim_u)),
                p0.v + jitter * rng.standard_normal((trials, o.dim_v)))
    cfg = PenaltyConfig(box=inst.box, **kw)
    runs = []
    for oracle in (o, ref):
        counters = OracleCounters()
        p = Point(pts.u.copy(), pts.v.copy())
        runs.append(solve(oracle, cfg, p, record_every=1, counters=counters)
                    + (counters,))
    (end, traces, counters), (want_end, want_traces, want_counters) = runs
    assert end.u.tobytes() == want_end.u.tobytes()
    assert end.v.tobytes() == want_end.v.tobytes()
    assert vars(counters) == vars(want_counters)
    assert len(traces) == trials
    for got, want in zip(traces, want_traces):
        assert len(got) == kw["K"]
        assert_reads_match(got, want)


def synthetic_formulas(sid, A):
    """Examples 1-4 written with Python-float constants and np.einsum."""
    def sq(x):
        return np.sum(x * x, axis=-1)

    def ax(x):
        return np.einsum("...ij,...j->...i", A, x)

    def ata(q):
        return np.einsum("...ij,...i->...j", A, ax(q))

    if sid == 1:
        return dict(eval_f=lambda p: sq(p.u) + sq(p.v),
                    eval_g=lambda p: sq(1.0 - p.u - p.v),
                    grad_u_f=lambda p: 2.0 * p.u,
                    grad_v_f=lambda p: 2.0 * p.v,
                    grad_v_g=lambda p: 2.0 * (p.u + p.v - 1.0),
                    hvp_vv_g=lambda p, q: 2.0 * q,
                    jvp_uv_g=lambda p, q: 2.0 * q)
    if sid == 2:
        return dict(eval_f=lambda p: sq(p.v) - sq(p.u - p.v),
                    eval_g=lambda p: sq(p.u - p.v),
                    grad_u_f=lambda p: -2.0 * (p.u - p.v),
                    grad_v_f=lambda p: 2.0 * p.v + 2.0 * (p.u - p.v),
                    grad_v_g=lambda p: -2.0 * (p.u - p.v),
                    hvp_vv_g=lambda p, q: 2.0 * q,
                    jvp_uv_g=lambda p, q: -2.0 * q)
    if sid == 3:
        return dict(eval_f=lambda p: sq(p.u) + sq(p.v),
                    eval_g=lambda p: sq(ax(1.0 - p.u - p.v)),
                    grad_u_f=lambda p: 2.0 * p.u,
                    grad_v_f=lambda p: 2.0 * p.v,
                    grad_v_g=lambda p: -2.0 * ata(1.0 - p.u - p.v),
                    hvp_vv_g=lambda p, q: 2.0 * ata(q),
                    jvp_uv_g=lambda p, q: 2.0 * ata(q))
    return dict(eval_f=lambda p: sq(p.v) - sq(ax(p.u - p.v)),
                eval_g=lambda p: sq(ax(p.u - p.v)),
                grad_u_f=lambda p: -2.0 * ata(p.u - p.v),
                grad_v_f=lambda p: 2.0 * p.v + 2.0 * ata(p.u - p.v),
                grad_v_g=lambda p: -2.0 * ata(p.u - p.v),
                hvp_vv_g=lambda p, q: 2.0 * ata(q),
                jvp_uv_g=lambda p, q: -2.0 * ata(q))


@pytest.mark.parametrize("sid", [1, 2, 3, 4])
@pytest.mark.parametrize("dim", [10, 64])
def test_synthetic_callbacks_equal_python_float_formulas_bitwise(sid, dim):
    # the 0-d constants give the Python floats' bytes, on a single point
    # and on a stacked batch of 3; the vector callbacks return float64
    # arrays of the point's shape, never NumPy scalars
    rng = make_rng(sid, dim, 0xF10A7)
    for seed, batch in ((3, ()), ([3, 4, 5], (3,))):
        inst = make_synthetic(sid, dim, seed)
        want = synthetic_formulas(sid, inst.info["A"])
        o = inst.oracle
        for _ in range(3):
            p = Point(rng.uniform(-5.0, 5.0, batch + (dim,)),
                      rng.uniform(-5.0, 5.0, batch + (dim,)))
            q = rng.standard_normal(batch + (dim,))
            for cb, f in want.items():
                args = (p, q) if cb in ("hvp_vv_g", "jvp_uv_g") else (p,)
                got, expect = getattr(o, cb)(*args), f(*args)
                assert type(got) is type(expect), cb
                assert got.dtype == np.float64, cb
                assert got.tobytes() == expect.tobytes(), cb
                if cb not in ("eval_f", "eval_g"):
                    assert isinstance(got, np.ndarray), cb
                    assert got.shape == batch + (dim,), cb


def textbook_fit_logistic(X, y, reg):
    """fit_logistic's Newton loop with the margin z = y (w . x), in the
    order the library first computed it."""
    Xb = _augment(np.asarray(X, float))
    y = np.asarray(y, float)
    wts = np.ones(len(y)) / np.sum(np.ones(len(y)))
    w = np.zeros(Xb.shape[1])
    eye = np.eye(Xb.shape[1])
    for _ in range(60):
        z = y * np.einsum("nd,...d->...n", Xb, w)
        s = _sig(-z)
        a = -s * y
        r = _sig(z) * s
        grad = Xb.T @ (wts * a) + 2.0 * reg * w
        hess = (Xb * (wts * r)[:, None]).T @ Xb + 2.0 * reg * eye
        w = w - np.linalg.solve(hess, grad)
        if np.linalg.norm(grad) < 1e-12:
            break
    return w


@pytest.mark.parametrize("seed", [0, 7])
def test_toy_warm_starts_equal_textbook_fit_bitwise(seed):
    imp = make_importance_toy(seed)
    split = imp.info["split"]
    want = textbook_fit_logistic(split.X_val, split.y_val, imp.info["reg"])
    assert imp.init_sampler(seed).v.tobytes() == want.tobytes()
    poi = make_poison_toy(seed)
    split = poi.info["split"]
    X = np.concatenate([split.X_train, poi.info["init_features"]])
    y = np.concatenate([split.y_train, poi.info["y_poison"]])
    want = textbook_fit_logistic(X, y, poi.info["reg"])
    assert poi.init_sampler(seed).v.tobytes() == want.tobytes()


def test_einsum_entry_point_matches_numpy_bitwise():
    # every subscript string problems.py contracts with, single and with
    # a batch axis where it has one
    import inspect
    import re
    from bilevel import problems
    source = inspect.getsource(problems)
    assert not re.search(r'np\.einsum\(\s*"', source)
    subs = sorted(set(re.findall(r'_einsum\(\s*"([^"]+)"', source)))
    assert {"nd,...d->...n", "...n,nd->...d", "...nd,...d->...n",
            "...ij,...j->...i"} <= set(subs)
    sizes = dict(zip("dijn", (3, 4, 5, 7)))
    rng = make_rng(0, 0xE1)
    for sub in subs:
        for batch in ((), (4,)):
            ops = [rng.standard_normal(
                (batch if term.startswith("...") else ())
                + tuple(sizes[c] for c in term.replace("...", "")))
                for term in sub.split("->")[0].split(",")]
            got = problems._einsum(sub, *ops)
            assert got.tobytes() == np.einsum(sub, *ops).tobytes(), sub


class TestLogisticHelpers:
    def test_fit_separable(self):
        X = np.array([[2.0, 0.0], [-2.0, 0.0], [2.5, 1.0], [-2.5, -1.0]])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        w = fit_logistic(X, y)
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

    def test_fit_that_does_not_converge_raises(self):
        # a NaN feature leaves every Newton step a NaN; the fit once
        # returned it quietly after 60 steps
        X = np.array([[2.0, 0.0], [-2.0, np.nan]])
        with pytest.raises(ConvergenceError, match="^logistic fit: "):
            fit_logistic(X, np.array([1.0, -1.0]))

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
                   "hvp_vv_g", "jvp_uv_g", "hess_vv_g", "jac_uv_g")


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
        cb = BATCH_CALLBACKS[rng.integers(len(BATCH_CALLBACKS))]
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


def constrained_formulas():
    """constrained_toy's callbacks, metric and slack lift written with
    Python-float constants."""
    def sq(x):
        return np.sum(x * x, axis=-1)

    def base_u(p):
        return p.u[..., :1]

    return dict(
        eval_f=lambda p: sq(p.u) + sq(p.v),
        eval_g=lambda p: sq(p.v - p.u),
        grad_u_f=lambda p: 2.0 * p.u,
        grad_v_f=lambda p: 2.0 * p.v,
        grad_v_g=lambda p: 2.0 * (p.v - p.u),
        hvp_vv_g=lambda p, q: 2.0 * q,
        jvp_uv_g=lambda p, q: -2.0 * q,
        eval_h=lambda p: 1.0 - p.u - p.v,
        jtvp_u_h=lambda p, mu: -mu,
        jtvp_v_h=lambda p, mu: -mu,
        metric=lambda p: np.sqrt(sq(p.u[..., :1] - 0.5) + sq(p.v - 0.5)),
        # the slack lift, on (u, s) with the slack s last
        slack_eval_h=lambda p: ((1.0 - base_u(p) - p.v)
                                + p.u[..., 1:] * p.u[..., 1:]),
        slack_jtvp_u_h=lambda p, mu: np.concatenate(
            [-mu, 2.0 * p.u[..., 1:] * mu], axis=-1))


def test_constrained_toy_equals_python_float_formulas_bitwise():
    # the 0-d constants give the Python floats' bytes, on a single point
    # and on a stacked batch of 3, for the toy, its metric and its lift
    rng = make_rng(0xC0, 0xF10A7)
    want = constrained_formulas()
    for seed, batch in ((3, ()), ([3, 4, 5], (3,))):
        inst = make_constrained_toy(seed)
        o, lifted = inst.oracle, slackify(inst.oracle)
        for _ in range(20):
            p = Point(rng.uniform(-5.0, 5.0, batch + (1,)),
                      rng.uniform(-5.0, 5.0, batch + (1,)))
            ps = Point(np.concatenate(
                [p.u, rng.uniform(0.0, 2.0, batch + (1,))], axis=-1), p.v)
            q = rng.standard_normal(batch + (1,))
            for cb in ("eval_f", "eval_g"):
                assert_same_result(getattr(o, cb)(p), want[cb](p), None, cb)
            for cb in ("grad_u_f", "grad_v_f", "grad_v_g", "eval_h"):
                assert_same_result(getattr(o, cb)(p), want[cb](p),
                                   batch + (1,), cb)
            for cb in ("hvp_vv_g", "jvp_uv_g", "jtvp_u_h", "jtvp_v_h"):
                assert_same_result(getattr(o, cb)(p, q), want[cb](p, q),
                                   batch + (1,), cb)
            assert_same_result(inst.metric(ps), want["metric"](ps), None,
                               "metric")
            assert_same_result(lifted.eval_h(ps), want["slack_eval_h"](ps),
                               batch + (1,), "slack eval_h")
            assert_same_result(lifted.jtvp_u_h(ps, q),
                               want["slack_jtvp_u_h"](ps, q), batch + (2,),
                               "slack jtvp_u_h")


def margin_grid():
    """±0, subnormals, ±1e-300 to ±700 on a log scale, and 10^5 random
    margins over the same range."""
    tiny = np.array([0.0, 5e-324, 1e-320, 2.2250738585072e-308 / 3,
                     2.2250738585072014e-308])
    logs = np.geomspace(1e-300, 700.0, 20_000)
    rng = make_rng(0, 0x7A4)
    rand = (rng.standard_normal(100_000)
            * np.exp(rng.uniform(np.log(1e-12), np.log(700.0), 100_000)))
    half = np.concatenate([tiny, logs, np.abs(rand)])
    return np.concatenate([half, -half])


def test_margin_terms_equal_two_tanh_forms_bitwise():
    # the logistic terms take one tanh per margin: sigma(z) = 0.5 (1 - t)
    # from t = tanh(0.5 (-z)) equals 0.5 (1 + tanh(-0.5 (-z))) only
    # because tanh is odd to the bit, which this pins; checked on the
    # whole grid and in rows of 5, so short inner loops are covered too
    grid = margin_grid()
    for nz in (grid, grid[:grid.size // 5 * 5].reshape(-1, 5)):
        assert np.tanh(-nz).tobytes() == (-np.tanh(nz)).tobytes()
        two_tanh_s = 0.5 * (1.0 + np.tanh(0.5 * nz))
        two_tanh_r = 0.5 * (1.0 + np.tanh(-0.5 * nz)) * two_tanh_s
        terms = _margin_terms(nz)
        assert terms[0] is nz
        assert terms[1].tobytes() == two_tanh_s.tobytes()
        assert _curvature(terms).tobytes() == two_tanh_r.tobytes()
    # the signed zeros: -0.5 * -0.0 and -(0.5 * -0.0) are both +0.0
    z = np.array([0.0, -0.0])
    assert (-0.5 * z).tobytes() == (-(0.5 * z)).tobytes()


def fresh_dense(prod, dim_v, p):
    """The dense matrix of prod at p, from buffers made for this call
    alone: the reference a slot-keeping closure must match."""
    u = np.empty((dim_v,) + np.shape(p.u))
    u[...] = p.u
    v = np.empty((dim_v,) + np.shape(p.v))
    v[...] = p.v
    q = np.empty(v.shape)
    q[...] = np.eye(dim_v).reshape((dim_v,) + (1,) * (v.ndim - 2) + (dim_v,))
    out = prod(Point(u, v), q)
    return np.ascontiguousarray(
        out.transpose(tuple(range(1, out.ndim)) + (0,)))


def slot_arrays(dense):
    """Every array the closure of a dense callback holds."""
    found = []
    for cell in dense.__closure__:
        x = cell.cell_contents
        for y in x if isinstance(x, tuple) else (x,):
            if isinstance(y, Point):
                found += [y.u, y.v]
            elif isinstance(y, np.ndarray):
                found.append(y)
    return found


# (instance, batch shape of a single point): the stacked examples 3-4
# carry one A per trial, so their single point is a (1, ·) row that
# broadcasts against both
DENSE_CASES = {
    **{f"example{sid}": (lambda sid=sid: make_synthetic(sid, 6, 3), ())
       for sid in (1, 2, 3, 4)},
    **{f"example{sid}_stacked":
       (lambda sid=sid: make_synthetic(sid, 6, [3, 4]), (1,))
       for sid in (3, 4)},
    "constrained_toy+slack": (lambda: make_constrained_toy(3), ()),
    "importance_toy": (lambda: make_importance_toy(3, n_train=30, n_val=10),
                       ()),
    "poison_toy": (lambda: make_poison_toy(3, n_train=20, n_val=10,
                                           n_poison=4), ()),
}


@pytest.mark.parametrize("name", sorted(DENSE_CASES))
def test_dense_slot_results_equal_a_fresh_build(name):
    # single point, batch of 2, single point again: each result equals a
    # build with fresh buffers, is a fresh writable C-contiguous array,
    # shares memory with no buffer of the closure (the identity stack
    # included) nor with an earlier result, and writing into it leaves
    # the next result unchanged
    make, single = DENSE_CASES[name]
    o = make().oracle
    if name.endswith("+slack"):
        o = slackify(o)
    rng = make_rng(3, 0xDE57)
    results = []
    for batch in (single, (2,), single, (2,), single):
        p = Point(rng.uniform(-2.0, 2.0, batch + (o.dim_u,)),
                  rng.uniform(-2.0, 2.0, batch + (o.dim_v,)))
        for cb, prod in (("hess_vv_g", o.hvp_vv_g), ("jac_uv_g", o.jvp_uv_g)):
            dense = getattr(o, cb)
            got = dense(p)
            want = fresh_dense(prod, o.dim_v, p)
            assert got.shape == want.shape, cb
            assert got.tobytes() == want.tobytes(), cb
            assert got.flags.writeable and got.flags.c_contiguous, cb
            assert got.flags.owndata and got.base is None, cb
            for held in slot_arrays(dense) + results:
                assert not np.shares_memory(got, held), cb
            got[...] = np.nan
            again = dense(p)
            assert again.tobytes() == want.tobytes(), cb
            results += [got, again]


def test_dense_slot_never_returns_the_identity_stack():
    # a product that hands back its q: the matrix is the identity, as a
    # fresh array each call, and the stack stays read-only and intact
    dense = dense_matrix(lambda p, q: q, 3)
    p = Point(np.zeros(2), np.zeros(3))
    first = dense(p)
    assert first.tobytes() == np.eye(3).tobytes()
    first[...] = 7.0
    second = dense(p)
    assert second.tobytes() == np.eye(3).tobytes()
    assert not np.shares_memory(first, second)
    stacks = [x for x in slot_arrays(dense) if x.shape == (3, 3)
              and not x.flags.writeable]
    assert len(stacks) == 1
    for held in slot_arrays(dense):
        assert not np.shares_memory(second, held)
    pb = Point(np.zeros((2, 2)), np.zeros((2, 3)))
    assert dense(pb).tobytes() == np.broadcast_to(np.eye(3),
                                                  (2, 3, 3)).tobytes()


def test_dense_pair_holds_no_array_before_its_first_call():
    # at dim 10**6 an eager identity would need 8 TB; the oracle builds
    # and its dense callbacks allocate only when called
    o = make_synthetic(2, 10**6, 0).oracle
    for dense in (o.hess_vv_g, o.jac_uv_g):
        assert slot_arrays(dense) == []
    dense = dense_matrix(lambda p, q: q, 3)
    assert slot_arrays(dense) == []
    dense(Point(np.zeros(2), np.zeros(3)))
    assert slot_arrays(dense) != []


@pytest.mark.parametrize("cb", ["hess_vv_g", "jac_uv_g"])
def test_dense_buffers_numpy_refuses_are_a_capability_error(cb):
    # V copies of a V-vector at V = 2**32 take 2**64 entries, so numpy
    # refuses them before allocating anything; the point's zero-stride
    # views take no memory. This once raised numpy's raw error
    dim = 2**32
    z = np.broadcast_to(np.zeros(1), (dim,))
    with pytest.raises(CapabilityError,
                       match=r"^the copy buffers of a dense matrix cannot "
                             rf"be allocated \({8 * 3 * dim * dim} bytes\): "):
        getattr(make_synthetic(1, dim).oracle, cb)(Point(z, z))


def test_dense_slot_follows_the_shape_of_u_too():
    # a (1, U) u broadcast against a (2, V) v, then a (2, U) u: the u
    # copies are rebuilt for the new shape of u alone
    o = make_synthetic(2, 4, 0).oracle
    rng = make_rng(4, 0xDE58)
    for ub in ((1,), (2,), (1,)):
        p = Point(rng.uniform(-2.0, 2.0, ub + (4,)),
                  rng.uniform(-2.0, 2.0, (2, 4)))
        for cb, prod in (("hess_vv_g", o.hvp_vv_g), ("jac_uv_g", o.jvp_uv_g)):
            assert (getattr(o, cb)(p).tobytes()
                    == fresh_dense(prod, o.dim_v, p).tobytes()), cb
