import time

import numpy as np
import pytest

from bilevel import solvers
from bilevel.core import BoxBounds, make_rng
from bilevel.errors import (CapabilityError, ContractViolationError,
                            NumericError)
from bilevel.oracle import (Point, ProblemOracle, slackify, sqnorm,
                            with_zero_f)
from bilevel.problems import (make_constrained_toy, make_quadratic,
                              make_synthetic)
from bilevel.solvers import (OracleCounters, PenaltyConfig, SolverTrace,
                             TraceRow, approxgrad_hypergrad, attach_counters,
                             fmd_hypergrad, gd_alternating, outer_loop,
                             penalty_aug_solve, penalty_solve, rmd_hypergrad,
                             traces_equal)


def ex1(dim=10, seed=0):
    return make_synthetic(1, dim=dim, seed=seed)


def decoupled_oracle(dim=4):
    """f = |u|^2 + |v|^2, g = |v|^2: GD's fixed point is the solution."""
    return ProblemOracle(
        name="decoupled", dim_u=dim, dim_v=dim, dim_c=0,
        eval_f=lambda p: sqnorm(p.u) + sqnorm(p.v),
        eval_g=lambda p: sqnorm(p.v),
        grad_u_f=lambda p: 2.0 * p.u,
        grad_v_f=lambda p: 2.0 * p.v,
        grad_v_g=lambda p: 2.0 * p.v,
        hvp_vv_g=lambda p, q: 2.0 * q,
        jvp_uv_g=lambda p, q: np.zeros_like(p.u),
        hess_vv_g=lambda p: 2.0 * np.eye(dim),
        jac_uv_g=lambda p: np.zeros((dim, dim)))


class TestPenaltyConfig:
    def test_defaults_valid(self):
        PenaltyConfig()

    @pytest.mark.parametrize("kw", [
        dict(K=0), dict(T=0), dict(gamma0=0.0), dict(eps0=-1.0),
        dict(c_gamma=0.9), dict(c_eps=0.0), dict(c_eps=1.5),
        dict(c_lambda=0.0), dict(while_cap=0), dict(stepper="sgd"),
        dict(lambda0=-1.0),
    ])
    def test_invalid(self, kw):
        with pytest.raises(ContractViolationError):
            PenaltyConfig(**kw)


class TestPenaltySolve:
    def test_deterministic(self):
        inst = ex1()
        cfg = PenaltyConfig(K=60, T=3, box=inst.box, seed=5)
        p1, t1 = penalty_solve(inst.oracle, cfg, metric=inst.metric)
        p2, t2 = penalty_solve(inst.oracle, cfg, metric=inst.metric)
        np.testing.assert_array_equal(p1.u, p2.u)
        np.testing.assert_array_equal(p1.v, p2.v)
        assert traces_equal(t1, t2)

    def test_aug_degenerates_to_plain(self):
        inst = ex1()
        cfg = PenaltyConfig(K=50, T=4, lambda0=0.0, nu0=0.0, c_lambda=1.0,
                            box=inst.box, seed=2)
        p1, t1 = penalty_solve(inst.oracle, cfg)
        p2, t2 = penalty_aug_solve(inst.oracle, cfg)
        np.testing.assert_array_equal(p1.u, p2.u)
        np.testing.assert_array_equal(p1.v, p2.v)

    def test_multiplier_single_update_arithmetic(self):
        # one u-cycle with while_cap=1 forces one schedule advance:
        # nu_1 must equal nu_0 + gamma_0 * grad_v_g at the cycle-exit point
        inst = ex1(dim=1)
        o = inst.oracle
        cfg = PenaltyConfig(K=1, T=1, sigma0=0.1, rho0=0.1, gamma0=2.0,
                            eps0=1e-12, lambda0=0.5, nu0=0.25, while_cap=1,
                            stepper="plain-gd")
        p0 = Point(np.array([1.0]), np.array([0.0]))
        pt, trace = penalty_aug_solve(o, cfg, p0)
        # replicate by hand: grad_v = 2v + (gamma*2+lam)*gvg(u,v) + 2*nu
        u, v, nu, gamma, lam = 1.0, 0.0, 0.25, 2.0, 0.5
        gvg = 2 * (u + v - 1)
        gv = 2 * v + (gamma * 2) * gvg + 2 * nu + lam * gvg
        v1 = v - 0.1 * gv
        gvg1 = 2 * (u + v1 - 1)
        gu = 2 * u + 2 * (gamma * gvg1 + nu)
        u1 = u - 0.1 * gu
        nu1 = nu + gamma * 2 * (u1 + v1 - 1)
        np.testing.assert_allclose(pt.u, [u1], rtol=1e-14)
        np.testing.assert_allclose(pt.v, [v1], rtol=1e-14)
        # the nu update is visible through the next run step; check the
        # schedule advanced
        assert trace.final.gamma == pytest.approx(2.0 * 1.1)
        assert trace.final.lam == pytest.approx(0.5 * 0.9)

    def test_schedule_exact_float_recurrence(self):
        inst = ex1()
        cfg = PenaltyConfig(K=25, T=1, while_cap=1, box=inst.box, seed=0)
        _, trace = penalty_solve(inst.oracle, cfg, record_every=1)
        gamma, eps = 1.0, 1.0
        for row in trace.rows:
            gamma *= 1.1
            eps *= 0.9
            assert row.gamma == gamma    # bitwise: same float recurrence
            assert row.eps == eps

    def test_huge_gamma_drives_feasibility(self):
        inst = ex1()
        oracle = with_zero_f(inst.oracle)
        cfg = PenaltyConfig(K=20000, T=10, sigma0=1e-3, rho0=1e-4,
                            gamma0=1e8, eps0=1.0, box=inst.box, seed=1)
        pt, trace = penalty_solve(oracle, cfg, record_every=10**9)
        gvg = inst.oracle.grad_v_g(Point(pt.u, pt.v))
        assert np.linalg.norm(gvg) < 1e-3

    def test_numeric_abort_carries_trace(self):
        from dataclasses import replace
        inst = ex1(dim=2)
        o = inst.oracle

        calls = {"n": 0}

        def poisoned(p):
            calls["n"] += 1
            out = o.grad_v_g(p)
            if calls["n"] > 30:
                out = out * np.nan
            return out

        bad = replace(o, grad_v_g=poisoned)
        cfg = PenaltyConfig(K=100, T=2, box=inst.box, seed=0)
        with pytest.raises(NumericError) as err:
            penalty_solve(bad, cfg)
        assert hasattr(err.value, "traces")

    def test_needs_p0_or_box(self):
        o = make_quadratic(0).oracle
        with pytest.raises(ContractViolationError):
            penalty_solve(o, PenaltyConfig(K=5))

    def test_trace_rows_and_record_every(self):
        inst = ex1()
        cfg = PenaltyConfig(K=100, T=1, box=inst.box, seed=0)
        _, trace = penalty_solve(inst.oracle, cfg, record_every=100)
        assert len(trace) == 1 and trace.final.k == 99
        _, trace = penalty_solve(inst.oracle, cfg, record_every=30)
        ks = trace.column("k").tolist()
        assert ks == [29, 59, 89, 99]
        assert all(b > a for a, b in zip(ks, ks[1:]))

    def test_batched_matches_sequential(self):
        inst = ex1()
        cfg = PenaltyConfig(K=40, T=3, box=inst.box, seed=0)
        singles = []
        for seed in (4, 5, 6):
            p0 = inst.init_sampler(seed)
            pt, _ = penalty_aug_solve(inst.oracle, cfg, p0)
            singles.append(pt)
        p0s = [inst.init_sampler(s) for s in (4, 5, 6)]
        batch = Point(np.stack([p.u for p in p0s]),
                      np.stack([p.v for p in p0s]))
        pt_b, traces = penalty_aug_solve(inst.oracle, cfg, batch)
        assert len(traces) == 3
        for i, single in enumerate(singles):
            np.testing.assert_array_equal(pt_b.u[i], single.u)
            np.testing.assert_array_equal(pt_b.v[i], single.v)


class TestGdAlternating:
    def test_decoupled_problem_converges(self):
        o = decoupled_oracle()
        cfg = PenaltyConfig(K=4000, T=5, sigma0=5e-3, rho0=5e-3,
                            box=BoxBounds(-5, 5), seed=3)
        pt, trace = gd_alternating(o, cfg)
        assert np.sqrt(sqnorm(pt.u) + sqnorm(pt.v)) < 1e-3

    def test_example2_converges_to_non_solution(self):
        inst = make_synthetic(2, dim=10)
        cfg = PenaltyConfig(K=3000, T=10, sigma0=1e-3, rho0=1e-4,
                            box=inst.box, seed=1)
        pt, trace = gd_alternating(inst.oracle, cfg, metric=inst.metric)
        assert trace.final.distance > 1e-1

    def test_counters(self):
        inst = ex1()
        counters = OracleCounters()
        cfg = PenaltyConfig(K=17, T=4, box=inst.box, seed=0)
        gd_alternating(inst.oracle, cfg, counters=counters,
                       record_every=10**9)
        assert counters.n_grad_v_g == 17 * 4
        assert counters.n_hvp == 0 and counters.n_jvp == 0
        assert counters.peak_stored_vecs == 1


class TestRmd:
    def test_hand_trace(self):
        o = make_synthetic(1, dim=1).oracle
        hg, vT = rmd_hypergrad(o, np.array([0.0]), np.array([0.0]),
                               T=1, rho=0.1)
        assert hg[0] == pytest.approx(-0.08, abs=1e-15)
        assert vT[0] == pytest.approx(0.2, abs=1e-15)

    def test_counters_and_storage(self):
        o = make_synthetic(1, dim=5).oracle
        counters = OracleCounters()
        rmd_hypergrad(o, np.zeros(5), np.zeros(5), T=7, rho=0.01,
                      counters=counters)
        assert counters.n_hvp == 7
        assert counters.n_jvp == 7
        assert counters.peak_stored_vecs == 8

    def test_converges_to_exact_hypergrad(self):
        from bilevel.hypergrad import exact_hypergrad
        inst = make_quadratic(3)
        o = inst.oracle
        rng = make_rng(3, 1)
        u = rng.standard_normal(5)
        v0 = rng.standard_normal(5)
        H = o.hess_vv_g(Point(u, v0))
        rho = 1.0 / np.max(np.linalg.eigvalsh(H))
        hg, vT = rmd_hypergrad(o, u, v0, T=500, rho=rho)
        exact = exact_hypergrad(o, Point(u, vT))
        assert np.linalg.norm(hg - exact) / max(
            1.0, np.linalg.norm(exact)) < 1e-4

    def test_t_zero_rejected(self):
        o = make_synthetic(1, dim=2).oracle
        with pytest.raises(ContractViolationError):
            rmd_hypergrad(o, np.zeros(2), np.zeros(2), T=0, rho=0.1)


class TestFmd:
    def test_hand_trace_matches_rmd(self):
        o = make_synthetic(1, dim=1).oracle
        hg, vT = fmd_hypergrad(o, np.array([0.0]), np.array([0.0]),
                               T=1, rho=0.1)
        assert hg[0] == pytest.approx(-0.08, abs=1e-15)
        assert vT[0] == pytest.approx(0.2, abs=1e-15)

    def test_agrees_with_rmd_any_horizon(self):
        o = make_quadratic(8).oracle
        rng = make_rng(8, 2)
        u = rng.standard_normal(5)
        v0 = rng.standard_normal(5)
        for T in (1, 3, 17):
            r, _ = rmd_hypergrad(o, u, v0, T=T, rho=0.2)
            f, _ = fmd_hypergrad(o, u, v0, T=T, rho=0.2)
            np.testing.assert_allclose(f, r, atol=1e-10)

    def test_decoupled_lower_level(self):
        o = decoupled_oracle()
        rng = make_rng(1, 1)
        u = rng.standard_normal(4)
        hg, _ = fmd_hypergrad(o, u, rng.standard_normal(4), T=5, rho=0.1)
        np.testing.assert_allclose(hg, 2.0 * u, atol=1e-12)

    def test_requires_dense(self):
        from dataclasses import replace
        o = replace(make_quadratic(0).oracle, hess_vv_g=None, jac_uv_g=None)
        with pytest.raises(CapabilityError):
            fmd_hypergrad(o, np.zeros(5), np.zeros(5), T=2, rho=0.1)

    def test_counters_and_storage(self):
        o = make_quadratic(0).oracle
        counters = OracleCounters()
        fmd_hypergrad(o, np.zeros(5), np.zeros(5), T=6, rho=0.1,
                      counters=counters)
        assert counters.n_dense_hess == 6
        assert counters.n_dense_jac == 6
        assert counters.peak_stored_vecs == 5 + 1


class TestApproxGrad:
    def test_exact_lower_solution_closed_form(self):
        o = make_synthetic(1, dim=1).oracle
        hg, vT, q = approxgrad_hypergrad(o, np.array([0.5]), np.array([0.5]),
                                         T_v=1, T_lin=1, rho=0.1,
                                         lin_solver="dense")
        assert q[0] == pytest.approx(0.5, abs=1e-14)
        assert hg[0] == pytest.approx(0.0, abs=1e-14)

    def test_counters_default_solver(self):
        o = make_synthetic(1, dim=5).oracle
        counters = OracleCounters()
        approxgrad_hypergrad(o, np.zeros(5), np.zeros(5), T_v=3, T_lin=9,
                             rho=0.01, counters=counters)
        assert counters.n_hvp == 2 * 9
        assert counters.n_jvp == 1
        assert counters.peak_stored_vecs == 2

    def test_singular_system_residual_stagnates(self):
        # rank-deficient lower-level Hessian: the unregularized residual
        # cannot drop below the least-squares floor, which exceeds 1e-3
        inst = make_synthetic(3, dim=10, seed=4)
        o = inst.oracle
        rng = make_rng(4, 2)
        u = rng.uniform(-5, 5, 10)
        v = rng.uniform(-5, 5, 10)
        pt = Point(u, v)
        H = o.hess_vv_g(pt)
        b = o.grad_v_f(pt)
        _, lstsq_res, _, _ = np.linalg.lstsq(H, b, rcond=None)
        floor = np.linalg.norm(H @ np.linalg.lstsq(H, b, rcond=None)[0] - b)
        assert floor > 1e-3
        _, _, q = approxgrad_hypergrad(o, u, v, T_v=1, T_lin=200, rho=1e-2,
                                       reg_lambda=1e-4)
        assert np.linalg.norm(H @ q - b) >= floor * (1 - 1e-9)
        assert np.linalg.norm(H @ q - b) > 1e-3

    def test_contract_checks(self):
        o = make_synthetic(1, dim=2).oracle
        with pytest.raises(ContractViolationError):
            approxgrad_hypergrad(o, np.zeros(2), np.zeros(2), T_v=0,
                                 T_lin=1, rho=0.1)
        with pytest.raises(ContractViolationError):
            approxgrad_hypergrad(o, np.zeros(2), np.zeros(2), T_v=1,
                                 T_lin=1, rho=0.1, reg_lambda=-1.0)


class TestOuterLoop:
    def test_fmd_without_dense_fails_before_iterating(self):
        from dataclasses import replace
        inst = ex1()
        o = replace(inst.oracle, hess_vv_g=None, jac_uv_g=None)
        counters = OracleCounters()
        cfg = PenaltyConfig(K=10, T=2, box=inst.box, seed=0)
        with pytest.raises(CapabilityError):
            outer_loop(o, "fmd", cfg, counters=counters)
        assert counters.n_f == 0 and counters.n_hvp == 0

    def test_unknown_estimator(self):
        inst = ex1()
        with pytest.raises(ContractViolationError):
            outer_loop(inst.oracle, "newton", PenaltyConfig(box=inst.box))

    def test_rmd_example2_small_horizon_fails(self):
        inst = make_synthetic(2, dim=10)
        cfg = PenaltyConfig(K=3000, T=1, sigma0=1e-3, rho0=1e-4,
                            box=inst.box, seed=1)
        _, trace = outer_loop(inst.oracle, "rmd", cfg, metric=inst.metric)
        assert trace.final.distance > 1e-1

    def test_estimator_counters_per_run(self):
        inst = ex1()
        K, T = 11, 4
        cfg = PenaltyConfig(K=K, T=T, box=inst.box, seed=0)
        c_rmd = OracleCounters()
        outer_loop(inst.oracle, "rmd", cfg, counters=c_rmd,
                   record_every=10**9)
        assert (c_rmd.n_hvp, c_rmd.n_jvp) == (K * T, K * T)
        assert c_rmd.peak_stored_vecs == T + 1
        c_ag = OracleCounters()
        outer_loop(inst.oracle, "approxgrad", cfg, counters=c_ag,
                   record_every=10**9)
        assert (c_ag.n_hvp, c_ag.n_jvp) == (2 * K * T, K)
        assert c_ag.peak_stored_vecs == 2

    def test_penalty_counters_per_run(self):
        inst = ex1()
        K, T = 9, 5
        counters = OracleCounters()
        cfg = PenaltyConfig(K=K, T=T, box=inst.box, seed=0)
        penalty_solve(inst.oracle, cfg, counters=counters,
                      record_every=10**9)
        assert (counters.n_hvp, counters.n_jvp) == (K * T, K)
        assert counters.peak_stored_vecs == 1

    def test_constrained_rejected(self):
        from bilevel.problems import make_constrained_toy
        inst = make_constrained_toy()
        with pytest.raises(ContractViolationError):
            outer_loop(inst.oracle, "rmd",
                       PenaltyConfig(K=2, box=inst.box),
                       Point(np.zeros(1), np.zeros(1)))


def test_attach_counters_counts_every_surface():
    o = make_quadratic(0).oracle
    counters = OracleCounters()
    co = attach_counters(o, counters)
    p = Point(np.zeros(5), np.zeros(5))
    co.eval_f(p)
    co.eval_g(p)
    co.grad_u_f(p)
    co.grad_v_f(p)
    co.grad_v_g(p)
    co.hvp_vv_g(p, np.ones(5))
    co.jvp_uv_g(p, np.ones(5))
    co.hess_vv_g(p)
    co.jac_uv_g(p)
    snap = counters.snapshot()
    for key in ("n_f", "n_g", "n_grad_u_f", "n_grad_v_f", "n_grad_v_g",
                "n_hvp", "n_jvp", "n_dense_hess", "n_dense_jac"):
        assert snap[key] == 1, key


# ---------------------------------------------------------------------------
# Columnar recorder against the row-by-row recorder it replaced
# ---------------------------------------------------------------------------

class RowRecorder:
    """Reference: builds one TraceRow per trial at every recorded k."""

    def __init__(self, oracle, metric, counters, batch, record_every, total):
        self.oracle = oracle
        self.metric = metric
        self.counters = counters
        self.batch = batch
        self.every = max(1, record_every)
        self.total = total
        self.rows = [[] for _ in range(batch)]
        self.t0 = time.perf_counter()

    def due(self, k):
        return (k + 1) % self.every == 0 or k == self.total - 1

    def record(self, k, pt, gu_sq, gv_sq, gamma, eps, lam):
        if not self.due(k) or (self.rows[0] and self.rows[0][-1].k == k):
            return
        o = self.oracle
        f = np.broadcast_to(o.eval_f(pt), (self.batch,))
        g = np.broadcast_to(o.eval_g(pt), (self.batch,))
        gvg = o.grad_v_g(pt)
        feas_sq = sqnorm(gvg)
        if o.has_constraints:
            feas_sq = feas_sq + sqnorm(o.eval_h(pt))
        feas = np.sqrt(np.broadcast_to(feas_sq, (self.batch,)))
        dist = (np.broadcast_to(self.metric(pt), (self.batch,))
                if self.metric else np.full(self.batch, np.nan))
        wall = (time.perf_counter() - self.t0) / self.batch
        snap = self.counters
        gamma = np.broadcast_to(gamma, (self.batch,))
        eps = np.broadcast_to(eps, (self.batch,))
        lam = np.broadcast_to(lam, (self.batch,))
        gun = np.sqrt(np.broadcast_to(gu_sq, (self.batch,)))
        gvn = np.sqrt(np.broadcast_to(gv_sq, (self.batch,)))
        for i in range(self.batch):
            self.rows[i].append(TraceRow(
                k=k, gamma=float(gamma[i]), eps=float(eps[i]),
                lam=float(lam[i]), f=float(f[i]), g=float(g[i]),
                grad_u_norm=float(gun[i]), grad_v_norm=float(gvn[i]),
                feas_norm=float(feas[i]), distance=float(dist[i]),
                wall_seconds=wall,
                n_hvp=snap.n_hvp, n_jvp=snap.n_jvp,
                peak_stored_vecs=snap.peak_stored_vecs))

    def traces(self):
        return [SolverTrace(r) for r in self.rows]


RECORDED_SOLVERS = {
    "penalty": penalty_aug_solve,
    "penalty_plain": penalty_solve,
    "gd": gd_alternating,
    "rmd": lambda o, cfg, p0, **kw: outer_loop(o, "rmd", cfg, p0, **kw),
    "approxgrad": lambda o, cfg, p0, **kw: outer_loop(o, "approxgrad", cfg,
                                                      p0, **kw),
    "fmd": lambda o, cfg, p0, **kw: outer_loop(o, "fmd", cfg, p0, **kw),
}


def stacked_points(inst, seeds):
    p0s = [inst.init_sampler(s) for s in seeds]
    return Point(np.stack([p.u for p in p0s]), np.stack([p.v for p in p0s]))


def row_reprs(trace):
    """What the trace digests hash: repr of every field but the wall time."""
    return [tuple(repr(getattr(row, name)) for name in row.__dataclass_fields__
                  if name != "wall_seconds") for row in trace.rows]


def assert_same_traces(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert traces_equal(a, b)
        assert row_reprs(a) == row_reprs(b)
        for row in a.rows:
            assert type(row.k) is int and type(row.wall_seconds) is float
            assert type(row.n_hvp) is int and type(row.f) is float


def run_with_row_recorder(monkeypatch, fn):
    with monkeypatch.context() as m:
        m.setattr(solvers, "_Recorder", RowRecorder)
        return fn()


class TestColumnarRecorder:
    # K = 7 and record_every = 3 make K - 1 a multiple of record_every;
    # K = 9 makes the last k due on both counts
    @pytest.mark.parametrize("K, every", [(7, 1), (7, 3), (7, 7), (9, 3)])
    @pytest.mark.parametrize("solver", list(RECORDED_SOLVERS))
    def test_matches_row_recorder(self, monkeypatch, solver, K, every):
        inst = ex1(dim=4)
        # fmd runs unbatched; every other solver gets a batch of three
        p0 = (inst.init_sampler(3) if solver == "fmd"
              else stacked_points(inst, (3, 4, 5)))
        cfg = PenaltyConfig(K=K, T=2, box=inst.box, seed=0)

        def run():
            _, traces = RECORDED_SOLVERS[solver](
                inst.oracle, cfg, p0, metric=inst.metric, record_every=every)
            return [traces] if solver == "fmd" else traces

        want = run_with_row_recorder(monkeypatch, run)
        got = run()
        assert_same_traces(got, want)
        ks = [row.k for row in got[0].rows]
        assert ks == sorted(set(k for k in range(K)
                                if (k + 1) % every == 0 or k == K - 1))

    @pytest.mark.parametrize("solver", ["penalty", "penalty_plain"])
    def test_constrained_and_metric_free(self, monkeypatch, solver):
        # slack-extended oracle (feasibility includes h) and no metric
        # (distance NaN), on a single point
        base = make_constrained_toy().oracle
        o = slackify(base)
        p0 = Point(np.array([0.3, 0.2]), np.array([-0.4]))
        cfg = PenaltyConfig(K=8, T=3, rho0=1e-3, lambda0=0.0)

        def run():
            return [RECORDED_SOLVERS[solver](o, cfg, p0, record_every=3)[1]]

        want = run_with_row_recorder(monkeypatch, run)
        got = run()
        assert_same_traces(got, want)
        assert np.isnan(got[0].final.distance)

    @pytest.mark.parametrize("every", [1, 3])
    @pytest.mark.parametrize("solver", ["penalty", "penalty_plain", "gd",
                                        "rmd", "approxgrad"])
    def test_partial_traces_on_abort(self, monkeypatch, solver, every):
        # plain GD at step 10 diverges on the quadratic within 60 steps
        inst = make_quadratic(0)
        p0 = inst.init_sampler(0)
        p0 = Point(np.stack([p0.u, 0.5 * p0.u]), np.stack([p0.v, 2 * p0.v]))
        cfg = PenaltyConfig(K=200, T=2, stepper="plain-gd", rho0=10.0,
                            sigma0=10.0)

        def run():
            with np.errstate(all="ignore"), \
                    pytest.raises(NumericError) as err:
                RECORDED_SOLVERS[solver](inst.oracle, cfg, p0,
                                         metric=inst.metric,
                                         record_every=every)
            return err.value.traces

        want = run_with_row_recorder(monkeypatch, run)
        got = run()
        assert len(got[0]) > 0
        assert_same_traces(got, want)

    def test_repeated_k_recorded_once(self):
        # a second record call at the same k keeps the first row
        inst = ex1(dim=3)
        pt = stacked_points(inst, (1, 2))
        traces = []
        for recorder in (solvers._Recorder, RowRecorder):
            rec = recorder(inst.oracle, inst.metric, OracleCounters(), 2,
                           3, 7)
            for k, scale in ((2, 1.0), (2, 2.0), (4, 1.0), (6, 1.0),
                             (6, 3.0)):
                rec.record(k, pt, np.full(2, scale), np.ones(2), 1.0,
                           np.full(2, -scale), 0.0)
            traces.append(rec.traces())
        assert [row.k for row in traces[0][1].rows] == [2, 6]
        assert [row.eps for row in traces[0][0].rows] == [-1.0, -1.0]
        assert_same_traces(*traces)


@pytest.mark.parametrize("solver", ["penalty", "penalty_plain", "gd", "rmd",
                                    "approxgrad"])
def test_abort_names_k_and_trials(solver):
    # trial 1's u-gradient is finite, but its squared norm overflows
    from dataclasses import replace
    inst = ex1(dim=3)

    def grad_u_f(p):
        out = inst.oracle.grad_u_f(p)
        out[1] = 1e200
        return out

    o = replace(inst.oracle, grad_u_f=grad_u_f)
    cfg = PenaltyConfig(K=5, T=2, box=inst.box)
    with np.errstate(all="ignore"), \
            pytest.raises(NumericError) as err:
        RECORDED_SOLVERS[solver](o, cfg, stacked_points(inst, (1, 2)),
                                 metric=inst.metric)
    assert "u-iteration 0" in str(err.value)
    assert "trial(s) [1]" in str(err.value)
    assert [len(trace) for trace in err.value.traces] == [0, 0]


@pytest.mark.parametrize("solver", ["penalty", "gd"])
def test_infinite_inner_gradient_aborts_under_plain_gd_with_box(solver):
    # one +inf v-gradient at the second of three v-steps of u-iteration 3:
    # plain GD turns v infinite and the box clamps it back to the bound,
    # so only the stepper's own finiteness check can catch it
    inst = ex1(dim=3)
    state = {"rows": 0, "armed": None}

    def metric(p):
        state["rows"] += 1
        if state["rows"] == 3:
            state["armed"] = 2      # the 2nd grad_v_g call after row k=2
        return inst.metric(p)

    def grad_v_g(p):
        out = inst.oracle.grad_v_g(p)
        if state["armed"] is not None:
            state["armed"] -= 1
            if state["armed"] == 0:
                out = np.full_like(out, np.inf)
                state["armed"] = None
        return out

    from dataclasses import replace
    o = replace(inst.oracle, grad_v_g=grad_v_g)
    cfg = PenaltyConfig(K=10, T=3, stepper="plain-gd", box=inst.box)
    with np.errstate(all="ignore"), pytest.raises(NumericError) as err:
        RECORDED_SOLVERS[solver](o, cfg, stacked_points(inst, (1, 2)),
                                 metric=metric)
    assert "non-finite gradient passed to stepper" in str(err.value)
    assert "(u-iteration 3)" in str(err.value)
    assert [[row.k for row in trace.rows] for trace in err.value.traces] \
        == [[0, 1, 2]] * 2


def textbook_stepper_step(state, params, grad, lr):
    """The allocating stepper: the textbook update, each temporary a new
    array, the rate and the gradient checked on every step."""
    if params.shape != grad.shape:
        raise ContractViolationError("shape")
    if not np.all(np.asarray(lr) > 0):
        raise ContractViolationError("lr must be positive")
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient passed to stepper")
    state.step_count += 1
    if state.kind == "plain-gd":
        return params - lr * grad
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    m = b1 * state.m + (1.0 - b1) * grad
    s = b2 * state.s + ((1.0 - b2) * grad) * grad
    state.m[...] = m
    state.s[...] = s
    mhat = m / (1.0 - b1**t)
    shat = s / (1.0 - b2**t)
    return params - (lr * mhat) / (np.sqrt(shat) + state.eps_hat)


def textbook_project_box(params, box, out=None):
    return np.clip(params, box.lo, box.hi)


def textbook_penalty_grad_v(oracle, p, params):
    gvf = oracle.grad_v_f(p)
    gvg = oracle.grad_v_g(p)
    w = params.gamma_col * gvg
    if params.nu is not None:
        w = w + params.nu
    out = gvf + oracle.hvp_vv_g(p, w)
    if params.lam_col is not None:
        out = out + params.lam_col * gvg
    if oracle.has_constraints:
        mu = params.gamma_col * oracle.eval_h(p)
        if params.nu_h is not None:
            mu = mu + params.nu_h
        out = out + oracle.jtvp_v_h(p, mu)
    return out


@pytest.mark.parametrize("sid", [1, 4])
@pytest.mark.parametrize("boxed", [True, False], ids=["box", "nobox"])
@pytest.mark.parametrize("stepper", ["adam", "plain-gd"])
@pytest.mark.parametrize("solver", ["penalty", "penalty_plain", "gd", "rmd",
                                    "approxgrad"])
def test_lean_path_matches_textbook_formulas(monkeypatch, solver, stepper,
                                             boxed, sid):
    # the scratch stepper, the in-place box and the in-place penalty
    # assembly against allocating versions of the same formulas; the box
    # is tight enough to clamp, and while_cap = 4 advances the penalty
    # schedule, so the v-stepper meets several rate objects
    inst = make_synthetic(sid, dim=4, seed=2)
    box = BoxBounds(-1.0, 1.0) if boxed else None
    cfg = PenaltyConfig(K=60, T=3, stepper=stepper, box=box, while_cap=4,
                        nu0=0.5)
    p0 = stacked_points(inst, (3, 4, 5))

    def run():
        counters = OracleCounters()
        point, traces = RECORDED_SOLVERS[solver](
            inst.oracle, cfg, p0, metric=inst.metric, record_every=1,
            counters=counters)
        return point, traces, counters

    lean = run()
    with monkeypatch.context() as m:
        m.setattr(solvers, "stepper_step", textbook_stepper_step)
        m.setattr(solvers, "project_box", textbook_project_box)
        m.setattr(solvers, "penalty_grad_v", textbook_penalty_grad_v)
        ref = run()
    assert lean[2] == ref[2]
    for got, want in zip(lean[1], ref[1]):
        assert traces_equal(got, want)
    assert np.isfinite(lean[0].u).all() and np.isfinite(lean[0].v).all()
    assert lean[0].u.tobytes() == ref[0].u.tobytes()
    assert lean[0].v.tobytes() == ref[0].v.tobytes()
