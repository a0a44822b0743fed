import math
import time

import numpy as np
import pytest

from bilevel import solvers
from bilevel.core import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, BoxBounds,
                          make_rng, make_stepper)
from bilevel.errors import (CapabilityError, ContractViolationError,
                            NumericError)
from bilevel.oracle import (Point, ProblemOracle, sample_in_box, slackify,
                            sqnorm)
from bilevel.problems import (make_constrained_toy, make_quadratic,
                              make_synthetic)
from bilevel.solvers import (OracleCounters, PenaltyConfig, SolverTrace,
                             TraceRow, approxgrad_hypergrad, attach_counters,
                             fmd_hypergrad, gd_alternating, outer_loop,
                             penalty_aug_solve, penalty_solve, rmd_hypergrad,
                             stored_vecs)
from helpers import traces_equal, with_zero_f


def ex1(dim=10, seed=0):
    return make_synthetic(1, dim=dim, seed=seed)


def drawn(oracle, box, seed):
    """The batch of one that a box and a seed draw."""
    return sample_in_box(oracle.dim_u, oracle.dim_v, box, [seed])


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
        jvp_uv_g=lambda p, q: np.zeros_like(p.u))


class TestPenaltyConfig:
    def test_defaults_valid(self):
        PenaltyConfig()

    @pytest.mark.parametrize("kw", [
        dict(K=0), dict(T=0), dict(gamma0=0.0), dict(eps0=-1.0),
        dict(c_gamma=0.9), dict(c_eps=0.0), dict(c_eps=1.5),
        dict(c_lambda=0.0), dict(approx_reg=-1.0), dict(stepper="sgd"),
        dict(lambda0=-1.0),
        # before, a tuple box was accepted and the run died in the first
        # projection with an AttributeError
        dict(box=(-1, 1)),
    ])
    def test_invalid(self, kw):
        with pytest.raises(ContractViolationError):
            PenaltyConfig(**kw)

    def test_no_while_cap(self):
        # the tolerance test is the schedule's only advance rule
        with pytest.raises(TypeError):
            PenaltyConfig(while_cap=5)


class TestPenaltySolve:
    def test_deterministic(self):
        inst = ex1()
        cfg = PenaltyConfig(K=60, T=3, box=inst.box)
        p0 = drawn(inst.oracle, inst.box, 5)
        p1, (t1,) = penalty_solve(inst.oracle, cfg, p0, metric=inst.metric)
        p2, (t2,) = penalty_solve(inst.oracle, cfg, p0, metric=inst.metric)
        np.testing.assert_array_equal(p1.u, p2.u)
        np.testing.assert_array_equal(p1.v, p2.v)
        assert traces_equal(t1, t2)

    def test_aug_degenerates_to_plain(self):
        inst = ex1()
        cfg = PenaltyConfig(K=50, T=4, lambda0=0.0, nu0=0.0, c_lambda=1.0,
                            box=inst.box)
        p0 = drawn(inst.oracle, inst.box, 2)
        p1, (t1,) = penalty_solve(inst.oracle, cfg, p0)
        p2, (t2,) = penalty_aug_solve(inst.oracle, cfg, p0)
        # the claim holds only before the first schedule advance (its
        # nu += gamma grad_v g moves the two apart), so no row may show one
        assert {row.gamma for t in (t1, t2) for row in t.rows} == {cfg.gamma0}
        np.testing.assert_array_equal(p1.u, p2.u)
        np.testing.assert_array_equal(p1.v, p2.v)

    def test_multiplier_single_update_arithmetic(self):
        # eps0 far above |grad| makes the one u-cycle advance the
        # schedule: nu_1 must equal nu_0 + gamma_0 * grad_v_g at the
        # cycle-exit point
        inst = ex1(dim=1)
        o = inst.oracle
        cfg = PenaltyConfig(K=1, T=1, sigma0=0.1, rho0=0.1, gamma0=2.0,
                            eps0=1e6, lambda0=0.5, nu0=0.25,
                            stepper="plain-gd")
        p0 = Point(np.array([[1.0]]), np.array([[0.0]]))
        pt, (trace,) = penalty_aug_solve(o, cfg, p0)
        # replicate by hand: grad_v = 2v + (gamma*2+lam)*gvg(u,v) + 2*nu
        u, v, nu, gamma, lam = 1.0, 0.0, 0.25, 2.0, 0.5
        gvg = 2 * (u + v - 1)
        gv = 2 * v + (gamma * 2) * gvg + 2 * nu + lam * gvg
        v1 = v - 0.1 * gv
        gvg1 = 2 * (u + v1 - 1)
        gu = 2 * u + 2 * (gamma * gvg1 + nu)
        u1 = u - 0.1 * gu
        nu1 = nu + gamma * 2 * (u1 + v1 - 1)
        np.testing.assert_allclose(pt.u, [[u1]], rtol=1e-14)
        np.testing.assert_allclose(pt.v, [[v1]], rtol=1e-14)
        # the nu update is visible through the next run step; check the
        # schedule advanced
        assert trace.final.gamma == pytest.approx(2.0 * 1.1)
        assert trace.final.lam == pytest.approx(0.5 * 0.9)

    def test_schedule_exact_float_recurrence(self):
        inst = ex1()
        # eps0 far above |grad| advances the schedule on every u-step
        cfg = PenaltyConfig(K=25, T=1, eps0=1e6, box=inst.box)
        _, (trace,) = penalty_solve(inst.oracle, cfg,
                                    drawn(inst.oracle, inst.box, 0),
                                    record_every=1)
        gamma, eps = 1.0, 1e6
        for row in trace.rows:
            gamma *= 1.1
            eps *= 0.9
            assert row.gamma == gamma    # bitwise: same float recurrence
            assert row.eps == eps

    def test_huge_gamma_drives_feasibility(self):
        inst = ex1()
        oracle = with_zero_f(inst.oracle)
        cfg = PenaltyConfig(K=20000, T=10, sigma0=1e-3, rho0=1e-4,
                            gamma0=1e8, eps0=1.0, box=inst.box)
        pt, _ = penalty_solve(oracle, cfg, drawn(oracle, inst.box, 1),
                              record_every=10**9)
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
        cfg = PenaltyConfig(K=100, T=2, box=inst.box)
        with pytest.raises(NumericError) as err:
            penalty_solve(bad, cfg, drawn(o, inst.box, 0))
        assert hasattr(err.value, "traces")

    def test_trace_rows_and_record_every(self):
        inst = ex1()
        cfg = PenaltyConfig(K=100, T=1, box=inst.box)
        p0 = drawn(inst.oracle, inst.box, 0)
        _, (trace,) = penalty_solve(inst.oracle, cfg, p0, record_every=100)
        assert len(trace) == 1 and trace.final.k == 99
        _, (trace,) = penalty_solve(inst.oracle, cfg, p0, record_every=30)
        ks = trace.column("k").tolist()
        assert ks == [29, 59, 89, 99]
        assert all(b > a for a, b in zip(ks, ks[1:]))

    def test_batched_matches_sequential(self):
        inst = ex1()
        cfg = PenaltyConfig(K=40, T=3, box=inst.box)
        singles = []
        for seed in (4, 5, 6):
            pt, _ = penalty_aug_solve(inst.oracle, cfg,
                                      stacked_points(inst, (seed,)))
            singles.append(pt)
        batch = stacked_points(inst, (4, 5, 6))
        pt_b, traces = penalty_aug_solve(inst.oracle, cfg, batch)
        assert len(traces) == 3
        for i, single in enumerate(singles):
            np.testing.assert_array_equal(pt_b.u[i], single.u[0])
            np.testing.assert_array_equal(pt_b.v[i], single.v[0])


class TestGdAlternating:
    def test_decoupled_problem_converges(self):
        o = decoupled_oracle()
        cfg = PenaltyConfig(K=4000, T=5, sigma0=5e-3, rho0=5e-3,
                            box=BoxBounds(-5, 5))
        pt, _ = gd_alternating(o, cfg, drawn(o, cfg.box, 3))
        assert np.sqrt(sqnorm(pt.u) + sqnorm(pt.v)) < 1e-3

    def test_example2_converges_to_non_solution(self):
        inst = make_synthetic(2, dim=10)
        cfg = PenaltyConfig(K=3000, T=10, sigma0=1e-3, rho0=1e-4,
                            box=inst.box)
        _, (trace,) = gd_alternating(inst.oracle, cfg,
                                     drawn(inst.oracle, inst.box, 1),
                                     metric=inst.metric)
        assert trace.final.distance > 1e-1

    def test_counters(self):
        inst = ex1()
        counters = OracleCounters()
        cfg = PenaltyConfig(K=17, T=4, box=inst.box)
        gd_alternating(inst.oracle, cfg, drawn(inst.oracle, inst.box, 0),
                       counters=counters, record_every=10**9)
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
        rmd_hypergrad(attach_counters(o, counters), np.zeros(5), np.zeros(5),
                      T=7, rho=0.01)
        assert counters.n_hvp == 7
        assert counters.n_jvp == 7
        assert stored_vecs("rmd", 7, o.dim_u) == 8

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

    @pytest.mark.parametrize("dim", [10, 64])
    @pytest.mark.parametrize("sid", [1, 2, 3, 4])
    def test_batch_equals_single_points_bitwise(self, sid, dim):
        seeds = list(range(20))
        inst = make_synthetic(sid, dim, seeds)
        p = inst.init_sampler(seeds)
        hg, vT = fmd_hypergrad(inst.oracle, p.u, p.v, T=4, rho=0.01)
        assert hg.shape == vT.shape == (20, dim)
        for i, s in enumerate(seeds):
            o = make_synthetic(sid, dim, s).oracle
            hg_i, vT_i = fmd_hypergrad(o, p.u[i], p.v[i], T=4, rho=0.01)
            assert hg[i].tobytes() == hg_i.tobytes()
            assert vT[i].tobytes() == vT_i.tobytes()

    def test_size_gate_counts_the_batch(self):
        # U V = 10^4 per trial: 100 trials fill the 10^6 entries of the
        # gate, 101 exceed it before any oracle call
        o = make_synthetic(1, dim=100).oracle
        counters = OracleCounters()
        co = attach_counters(o, counters)
        fmd_hypergrad(co, np.zeros((100, 100)), np.zeros((100, 100)), T=1,
                      rho=0.1)
        before = counters.snapshot()
        with pytest.raises(CapabilityError):
            fmd_hypergrad(co, np.zeros((101, 100)), np.zeros((101, 100)),
                          T=1, rho=0.1)
        assert counters.snapshot() == before

    def test_counters_and_storage(self):
        o = make_quadratic(0).oracle
        counters = OracleCounters()
        fmd_hypergrad(attach_counters(o, counters), np.zeros(5), np.zeros(5),
                      T=6, rho=0.1)
        assert counters.n_dense_hess == 6
        assert counters.n_dense_jac == 6
        assert stored_vecs("fmd", 6, o.dim_u) == 5 + 1


class TestApproxGrad:
    def test_exact_lower_solution_closed_form(self):
        # H = 2 and grad_v f = 1 at v = 0.5, so one step at rho = 0.25 from
        # q = 0 lands on q = H^-1 grad_v f = 0.5
        o = make_synthetic(1, dim=1).oracle
        hg, vT, q = approxgrad_hypergrad(o, np.array([0.5]), np.array([0.5]),
                                         T=1, rho=0.25)
        assert q[0] == pytest.approx(0.5, abs=1e-14)
        assert hg[0] == pytest.approx(0.0, abs=1e-14)

    def test_counters_default_solver(self):
        o = make_synthetic(1, dim=5).oracle
        counters = OracleCounters()
        approxgrad_hypergrad(attach_counters(o, counters), np.zeros(5),
                             np.zeros(5), T=9, rho=0.01)
        assert counters.n_hvp == 2 * 9
        assert counters.n_jvp == 1
        assert stored_vecs("approxgrad", 9, o.dim_u) == 2

    def test_singular_system_residual_stagnates(self):
        # rank-deficient lower-level Hessian: the unregularized residual
        # cannot drop below the least-squares floor, which exceeds 1e-3.
        # rho = 5e-4 is below 2 / lambda_max(H)^2 = 7.0e-4, so q converges
        # (no overflow is raised) and stalls at the floor.
        inst = make_synthetic(3, dim=10, seed=4)
        o = inst.oracle
        rng = make_rng(4, 2)
        u = rng.uniform(-5, 5, 10)
        v = rng.uniform(-5, 5, 10)
        with np.errstate(all="raise"):
            _, vT, q = approxgrad_hypergrad(o, u, v, T=2000, rho=5e-4,
                                            reg_lambda=1e-4)
        pt = Point(u, vT)
        H = o.hess_vv_g(pt)
        b = o.grad_v_f(pt)
        floor = np.linalg.norm(H @ np.linalg.lstsq(H, b, rcond=None)[0] - b)
        assert floor > 1e-3
        residual = np.linalg.norm(H @ q - b)
        assert floor * (1 - 1e-9) <= residual <= floor * (1 + 1e-3)

    def test_contract_checks(self):
        o = make_synthetic(1, dim=2).oracle
        with pytest.raises(ContractViolationError):
            approxgrad_hypergrad(o, np.zeros(2), np.zeros(2), T=0, rho=0.1)
        with pytest.raises(ContractViolationError):
            approxgrad_hypergrad(o, np.zeros(2), np.zeros(2), T=1, rho=0.1,
                                 reg_lambda=-1.0)


class TestOuterLoop:
    def test_fmd_batch_equals_single_runs(self):
        inst = ex1(dim=6)
        cfg = PenaltyConfig(K=25, T=3, box=inst.box)
        seeds = [3, 4, 5]
        pt, traces = outer_loop(
            inst.oracle, "fmd", cfg,
            sample_in_box(6, 6, inst.box, seeds), metric=inst.metric)
        for i, s in enumerate(seeds):
            pt_i, (trace_i,) = outer_loop(
                inst.oracle, "fmd", cfg, drawn(inst.oracle, inst.box, s),
                metric=inst.metric)
            assert traces_equal(traces[i], trace_i)
            assert pt.u[i].tobytes() == pt_i.u[0].tobytes()
            assert pt.v[i].tobytes() == pt_i.v[0].tobytes()

    def test_unknown_estimator(self):
        inst = ex1()
        with pytest.raises(ContractViolationError):
            outer_loop(inst.oracle, "newton", PenaltyConfig(box=inst.box),
                       drawn(inst.oracle, inst.box, 0))

    def test_rmd_example2_small_horizon_fails(self):
        inst = make_synthetic(2, dim=10)
        cfg = PenaltyConfig(K=3000, T=1, sigma0=1e-3, rho0=1e-4,
                            box=inst.box)
        _, (trace,) = outer_loop(inst.oracle, "rmd", cfg,
                                 drawn(inst.oracle, inst.box, 1),
                                 metric=inst.metric)
        assert trace.final.distance > 1e-1

    def test_estimator_counters_per_run(self):
        inst = ex1()
        K, T = 11, 4
        cfg = PenaltyConfig(K=K, T=T, box=inst.box)
        p0 = drawn(inst.oracle, inst.box, 0)
        c_rmd = OracleCounters()
        outer_loop(inst.oracle, "rmd", cfg, p0, counters=c_rmd,
                   record_every=10**9)
        assert (c_rmd.n_hvp, c_rmd.n_jvp) == (K * T, K * T)
        assert c_rmd.peak_stored_vecs == T + 1
        c_ag = OracleCounters()
        outer_loop(inst.oracle, "approxgrad", cfg, p0, counters=c_ag,
                   record_every=10**9)
        assert (c_ag.n_hvp, c_ag.n_jvp) == (2 * K * T, K)
        assert c_ag.peak_stored_vecs == 2

    def test_penalty_counters_per_run(self):
        inst = ex1()
        K, T = 9, 5
        counters = OracleCounters()
        cfg = PenaltyConfig(K=K, T=T, box=inst.box)
        penalty_solve(inst.oracle, cfg, drawn(inst.oracle, inst.box, 0),
                      counters=counters, record_every=10**9)
        assert (counters.n_hvp, counters.n_jvp) == (K * T, K)
        assert counters.peak_stored_vecs == 1

    def test_constrained_rejected(self):
        from bilevel.problems import make_constrained_toy
        inst = make_constrained_toy()
        with pytest.raises(ContractViolationError):
            outer_loop(inst.oracle, "rmd",
                       PenaltyConfig(K=2, box=inst.box),
                       Point(np.zeros((1, 1)), np.zeros((1, 1))))


def test_attach_counters_counts_every_surface():
    o = make_quadratic(0).oracle
    counters = OracleCounters()
    co = attach_counters(o, counters)
    p = Point(np.zeros(5), np.zeros(5))
    co.hess_vv_g(p)
    co.jac_uv_g(p)
    # the derived pair calls the raw products, which the view leaves
    # uncounted
    assert counters.n_hvp == counters.n_jvp == 0
    co.eval_f(p)
    co.eval_g(p)
    co.grad_u_f(p)
    co.grad_v_f(p)
    co.grad_v_g(p)
    co.hvp_vv_g(p, np.ones(5))
    co.jvp_uv_g(p, np.ones(5))
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
        self.every = record_every
        self.total = total
        self.rows = [[] for _ in range(batch)]
        self.t0 = time.perf_counter()

    def due(self, k):
        return (k + 1) % self.every == 0 or k == self.total - 1

    def record(self, k, pt, gu_sq, gv_sq, gamma, eps, lam):
        o = self.oracle
        f = np.broadcast_to(o.eval_f(pt), (self.batch,))
        g = np.broadcast_to(o.eval_g(pt), (self.batch,))
        gvg = o.grad_v_g(pt)
        feas_sq = sqnorm(gvg)
        if gv_sq is None:
            gv_sq = feas_sq
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
        p0 = stacked_points(inst, (3, 4, 5))
        cfg = PenaltyConfig(K=K, T=2, box=inst.box)

        def run():
            return RECORDED_SOLVERS[solver](
                inst.oracle, cfg, p0, metric=inst.metric,
                record_every=every)[1]

        want = run_with_row_recorder(monkeypatch, run)
        got = run()
        assert_same_traces(got, want)
        ks = [row.k for row in got[0].rows]
        assert ks == sorted(set(k for k in range(K)
                                if (k + 1) % every == 0 or k == K - 1))

    @pytest.mark.parametrize("solver", ["penalty", "penalty_plain"])
    def test_constrained_and_metric_free(self, monkeypatch, solver):
        # slack-extended oracle (feasibility includes h) and no metric
        # (distance NaN), on a batch of one
        base = make_constrained_toy().oracle
        o = slackify(base)
        p0 = Point(np.array([[0.3, 0.2]]), np.array([[-0.4]]))
        cfg = PenaltyConfig(K=8, T=3, rho0=1e-3, lambda0=0.0)

        def run():
            return RECORDED_SOLVERS[solver](o, cfg, p0, record_every=3)[1]

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


@pytest.mark.parametrize("shape", ["1-D", "batch sizes differ"])
@pytest.mark.parametrize("solver", list(RECORDED_SOLVERS))
def test_p0_must_be_a_batch(solver, shape):
    # a 1-D p0 passes check_point, since its last axis is U, so only the
    # batch check stands between it and a wrong run
    inst = ex1(dim=4)
    p = inst.init_sampler(3)
    p0 = p if shape == "1-D" else Point(np.stack([p.u, p.u]), p.v[None, :])
    cfg = PenaltyConfig(K=2, T=1, box=inst.box)
    with pytest.raises(ContractViolationError, match="p0 must be"):
        RECORDED_SOLVERS[solver](inst.oracle, cfg, p0)


@pytest.mark.parametrize("every", [0, -5])
@pytest.mark.parametrize("solver", list(RECORDED_SOLVERS))
def test_record_every_below_one_rejected(solver, every):
    inst = ex1(dim=4)
    cfg = PenaltyConfig(K=2, T=1, box=inst.box)
    with pytest.raises(ContractViolationError, match="record_every"):
        RECORDED_SOLVERS[solver](inst.oracle, cfg, stacked_points(inst, (3,)),
                                 record_every=every)


@pytest.mark.parametrize("solver", ["penalty", "penalty_plain", "gd", "rmd",
                                    "approxgrad"])
def test_abort_names_k_and_trials(solver):
    # the u-gradients of trials 0 and 2 of three are finite, but their
    # squared norms overflow; the abort names both
    from dataclasses import replace
    inst = ex1(dim=3)

    def grad_u_f(p):
        out = inst.oracle.grad_u_f(p)
        out[0] = 1e200
        out[2, 1] = -1e200
        return out

    o = replace(inst.oracle, grad_u_f=grad_u_f)
    cfg = PenaltyConfig(K=5, T=2, box=inst.box)
    with np.errstate(all="ignore"), \
            pytest.raises(NumericError) as err:
        RECORDED_SOLVERS[solver](o, cfg, stacked_points(inst, (1, 2, 3)),
                                 metric=inst.metric)
    assert "u-iteration 0, trial(s) [0, 2]" in str(err.value)
    assert [len(trace) for trace in err.value.traces] == [0, 0, 0]


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
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m = b1 * state.m + (1.0 - b1) * grad
    s = b2 * state.s + ((1.0 - b2) * grad) * grad
    state.m[...] = m
    state.s[...] = s
    mhat = m / (1.0 - b1**t)
    shat = s / (1.0 - b2**t)
    return params - (lr * mhat) / (np.sqrt(shat) + ADAM_EPS)


def textbook_project_box(params, box, out=None):
    return np.clip(params, box.lo, box.hi)


def textbook_penalty_grad_v(oracle, p, params):
    # the weights as (B, 1) columns, broadcast against each term
    gamma_col = np.asarray(params.gamma, dtype=float)[..., None]
    gvf = oracle.grad_v_f(p)
    gvg = oracle.grad_v_g(p)
    w = gamma_col * gvg
    if params.nu is not None:
        w = w + params.nu
    out = gvf + oracle.hvp_vv_g(p, w)
    if np.ndim(params.lam) or params.lam != 0.0:
        out = out + np.asarray(params.lam, dtype=float)[..., None] * gvg
    if oracle.has_constraints:
        mu = gamma_col * oracle.eval_h(p)
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
    # is tight enough to clamp, and eps0 = 1e3 advances the penalty
    # schedule 5 to 43 times per trial, so the v-stepper meets several
    # rate objects
    inst = make_synthetic(sid, dim=4, seed=2)
    box = BoxBounds(-1.0, 1.0) if boxed else None
    cfg = PenaltyConfig(K=60, T=3, stepper=stepper, box=box, eps0=1e3,
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
    if solver.startswith("penalty"):
        assert all(len(set(t.column("gamma"))) >= 5 for t in lean[1])


@pytest.mark.parametrize("solve", [penalty_solve, penalty_aug_solve])
def test_penalty_run_checks_the_v_rate_once_per_phase(monkeypatch, solve):
    # every schedule phase builds one read-only (B, V) rate, and the
    # v-stepper checks that object once; the u-rate, a float, once a run
    from bilevel import core
    checked, built = [], []
    check_rate, schedule_weights = core._check_rate, solvers._schedule_weights

    def spy_check(state, shape, lr):
        checked.append(lr)
        return check_rate(state, shape, lr)

    def spy_weights(*args):
        out = schedule_weights(*args)
        built.append(out[1])
        return out

    monkeypatch.setattr(core, "_check_rate", spy_check)
    monkeypatch.setattr(solvers, "_schedule_weights", spy_weights)
    inst = make_synthetic(1, dim=4, seed=2)
    # at eps0 = 1e3 the trials advance on some u-steps and hold on others;
    # a new phase starts on each u-step where any trial advanced
    cfg = PenaltyConfig(K=42, T=3, eps0=1e3)
    _, traces = solve(inst.oracle, cfg, stacked_points(inst, (3, 4, 5)))
    gammas = np.array([t.column("gamma") for t in traces])
    advanced = np.diff(gammas, prepend=cfg.gamma0).any(axis=0)
    assert 1 < advanced.sum() < cfg.K
    v_rates = [lr for lr in checked if isinstance(lr, np.ndarray)]
    assert len(built) == 1 + advanced.sum()
    assert len(v_rates) == len(built)
    assert all(a is b for a, b in zip(v_rates, built))
    assert all(lr.shape == (3, 4) for lr in built)
    assert [lr for lr in checked if not isinstance(lr, np.ndarray)] == [
        cfg.sigma0]


@pytest.mark.parametrize("solve", [penalty_solve, penalty_aug_solve])
def test_tolerance_test_is_the_only_advance_rule_per_trial(solve):
    # in a lockstep batch, trial i advances gamma and eps on the u-step
    # where its own |grad_u|^2 + |grad_v|^2 <= eps^2, and holds them on
    # every other one
    inst = make_synthetic(1, dim=4, seed=2)
    cfg = PenaltyConfig(K=42, T=3, eps0=1e3)
    _, traces = solve(inst.oracle, cfg, stacked_points(inst, (3, 4, 5)))
    masks = []
    for trace in traces:
        gamma, eps = cfg.gamma0, cfg.eps0
        advances = []
        for row in trace.rows:
            tol_sq = row.grad_u_norm ** 2 + row.grad_v_norm ** 2
            # the trace holds the norms, not their squares
            if abs(tol_sq - eps * eps) > 1e-9 * eps * eps:
                advance = tol_sq <= eps * eps
                assert row.gamma == (gamma * cfg.c_gamma if advance
                                     else gamma), row.k
                assert row.eps == (eps * cfg.c_eps if advance else eps), row.k
                advances.append(advance)
            gamma, eps = row.gamma, row.eps
        assert any(advances) and not all(advances)
        masks.append(advances)
    assert len({tuple(m) for m in masks}) > 1


@pytest.mark.parametrize("rho", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("estimator", ["rmd", "fmd", "approxgrad"])
def test_estimators_reject_bad_rho(estimator, rho):
    o = make_synthetic(1, dim=2).oracle
    call = {"rmd": lambda: rmd_hypergrad(o, np.zeros(2), np.ones(2), 3, rho),
            "fmd": lambda: fmd_hypergrad(o, np.zeros(2), np.ones(2), 3, rho),
            "approxgrad": lambda: approxgrad_hypergrad(
                o, np.zeros(2), np.ones(2), 3, rho=rho)}[estimator]
    with pytest.raises(ContractViolationError, match="rho must be positive"):
        call()


ESTIMATOR_CALLS = {
    "rmd": lambda o, T, rho: rmd_hypergrad(o, np.zeros(2), np.ones(2), T,
                                           rho),
    "fmd": lambda o, T, rho: fmd_hypergrad(o, np.zeros(2), np.ones(2), T,
                                           rho),
    "approxgrad": lambda o, T, rho, **kw: approxgrad_hypergrad(
        o, np.zeros(2), np.ones(2), T, rho=rho, **kw)}


UNUSABLE_ARGS = [(dict(T=2.5), "T"), (dict(T=2.0), "T"), (dict(T=True), "T"),
                 (dict(T="3"), "T"), (dict(rho=True), "rho"),
                 (dict(rho="0.1"), "rho"), (dict(rho=float("inf")), "rho"),
                 (dict(rho=float("nan")), "rho")]
UNUSABLE_RIDGES = [(dict(reg_lambda=float("nan")), "reg_lambda"),
                   (dict(reg_lambda=float("inf")), "reg_lambda"),
                   (dict(reg_lambda=True), "reg_lambda"),
                   (dict(reg_lambda="0"), "reg_lambda")]


@pytest.mark.parametrize("estimator, kw, key", [
    pytest.param(est, kw, key, id=f"{est}-{key}={kw[key]!r}")
    for est, cases in (("rmd", UNUSABLE_ARGS), ("fmd", UNUSABLE_ARGS),
                       ("approxgrad", UNUSABLE_ARGS + UNUSABLE_RIDGES))
    for kw, key in cases])
def test_estimators_reject_unusable_arguments_before_any_call(estimator, kw,
                                                              key):
    # before, T=2.5 died with a raw TypeError, T=True ran one step, and an
    # inf rho or a NaN/inf ridge ended in a NumericError after warnings
    counters = OracleCounters()
    o = attach_counters(make_synthetic(1, dim=2).oracle, counters)
    args = dict(T=3, rho=0.1) | kw
    with pytest.raises(ContractViolationError, match=f"^{key} must be"):
        ESTIMATOR_CALLS[estimator](o, **args)
    assert counters == OracleCounters()


@pytest.mark.parametrize("estimator", ["rmd", "fmd", "approxgrad"])
def test_estimators_accept_numpy_integer_horizons(estimator):
    o = make_synthetic(1, dim=2).oracle
    got = ESTIMATOR_CALLS[estimator](o, np.int64(3), np.float64(0.1))
    want = ESTIMATOR_CALLS[estimator](o, 3, 0.1)
    for a, w in zip(got, want):
        assert a.tobytes() == w.tobytes()


def test_approxgrad_rho_is_keyword_only():
    # the old (T_v, T_lin, rho) positional form would bind rho to a horizon
    o = make_synthetic(1, dim=2).oracle
    with pytest.raises(TypeError):
        approxgrad_hypergrad(o, np.zeros(2), np.ones(2), 3, 3, 0.1)


def test_approxgrad_default_steppers_are_plain_gd():
    # no stepper given: every v- and q-step is x - rho * grad, bitwise
    o = make_synthetic(2, dim=4).oracle
    rng = make_rng(8, 1)
    u, v0 = rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, (3, 4))
    q0 = rng.standard_normal((3, 4))
    rho, reg = 0.05, 1e-3
    v = v0
    for _ in range(4):
        v = v - rho * o.grad_v_g(Point(u, v))
    pt = Point(u, v)
    b = o.grad_v_f(pt)
    q = q0
    for _ in range(4):
        r = o.hvp_vv_g(pt, q) + reg * q - b
        q = q - rho * (o.hvp_vv_g(pt, r) + reg * r)
    hg = o.grad_u_f(pt) - o.jvp_uv_g(pt, q)
    got = approxgrad_hypergrad(o, u, v0, 4, rho=rho, reg_lambda=reg, q0=q0)
    for a, w in zip(got, (hg, v, q)):
        assert a.tobytes() == w.tobytes()



@pytest.mark.parametrize("reg", [0.0, 1e-4])
def test_estimators_match_python_float_loops_bitwise(reg):
    # rho, -rho and reg enter the estimators as 0-d arrays; the textbook
    # loops below multiply by the Python floats
    inst = make_synthetic(3, dim=10, seed=4)
    o = inst.oracle
    p0 = stacked_points(inst, (6, 7))
    u, v0 = p0.u, p0.v
    rho, T = 1e-4, 6
    v = v0
    traj = [v]
    for _ in range(T):
        v = v - rho * o.grad_v_g(Point(u, v))
        traj.append(v)
    q = o.grad_v_f(Point(u, v))
    p = o.grad_u_f(Point(u, v))
    for t in range(T - 1, -1, -1):
        pt = Point(u, traj[t])
        p = p - rho * o.jvp_uv_g(pt, q)
        q = q - rho * o.hvp_vv_g(pt, q)
    got = rmd_hypergrad(o, u, v0, T, rho)
    assert got[0].tobytes() == p.tobytes()
    assert got[1].tobytes() == v.tobytes()

    v = v0
    P = np.zeros((2, o.dim_u, o.dim_v))
    for _ in range(T):
        pt = Point(u, v)
        A = np.eye(o.dim_v) - rho * o.hess_vv_g(pt)
        P = P @ A + -rho * o.jac_uv_g(pt)
        v = v - rho * o.grad_v_g(pt)
    pt = Point(u, v)
    hg = o.grad_u_f(pt) + (P @ o.grad_v_f(pt)[..., None])[..., 0]
    got = fmd_hypergrad(o, u, v0, T, rho)
    assert got[0].tobytes() == hg.tobytes()
    assert got[1].tobytes() == v.tobytes()

    v = v0
    for _ in range(T):
        v = v - rho * o.grad_v_g(Point(u, v))
    pt = Point(u, v)
    b = o.grad_v_f(pt)
    q = np.zeros_like(v)
    for _ in range(T):
        r = o.hvp_vv_g(pt, q) + reg * q - b
        q = q - rho * (o.hvp_vv_g(pt, r) + reg * r)
    hg = o.grad_u_f(pt) - o.jvp_uv_g(pt, q)
    got = approxgrad_hypergrad(o, u, v0, T, rho=rho, reg_lambda=reg)
    for a, w in zip(got, (hg, v, q)):
        assert a.tobytes() == w.tobytes()


def zero_sign_oracle(b):
    """An elementwise oracle whose hvp_vv_g(p, q) is -q, so hvp(+0) is
    -0, and whose grad_v_f is the constant b."""
    return ProblemOracle(
        name="zero_sign", dim_u=b.shape[-1], dim_v=b.shape[-1], dim_c=0,
        eval_f=lambda p: sqnorm(p.v), eval_g=lambda p: sqnorm(p.v),
        grad_u_f=lambda p: 0.5 * p.u, grad_v_f=lambda p: b.copy(),
        grad_v_g=lambda p: 0.5 * p.v, hvp_vv_g=lambda p, q: -q,
        jvp_uv_g=lambda p, q: 0.25 * q)


def python_float_step(kind, rho):
    """One element's stepper in Python floats, in the library's order."""
    m = s = 0.0
    t = 0

    def step(x, g):
        nonlocal m, s, t
        t += 1
        if kind == "plain-gd":
            return x - rho * g
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        s = ADAM_BETA2 * s + ((1.0 - ADAM_BETA2) * g) * g
        mhat = m / (1.0 - ADAM_BETA1**t)
        shat = s / (1.0 - ADAM_BETA2**t)
        return x - (rho * mhat) / (math.sqrt(shat) + ADAM_EPS)
    return step


@pytest.mark.parametrize("kind", ["plain-gd", "adam"])
@pytest.mark.parametrize("reg", [0.0, -0.0], ids=["+0", "-0"])
def test_approxgrad_zero_ridge_equals_the_ridge_kept_bitwise(kind, reg):
    # with no ridge the q-loop skips + reg * q and + reg * r, which can
    # only flip the sign of an exact-zero entry of r and gq. Here
    # hvp(+0) is -0 and b has +0 entries, so with reg = +0.0 r does flip
    # (-0 - 0 is -0, -0 + 0*0 - 0 is +0); v, q and the hypergradient must
    # still equal, byte for byte, an element-by-element Python-float loop
    # that keeps the ridge terms
    b = np.array([[0.0, 1.5, 0.0, -2.0], [0.0, 0.0, 0.25, 0.0]])
    u = np.array([[1.0, -2.0, 0.5, 3.0], [0.0, 4.0, -1.0, 2.5]])
    v0 = np.array([[0.5, -1.0, 2.0, 0.0], [3.0, -0.25, 1.0, -4.0]])
    T, rho = 6, 0.1
    got = approxgrad_hypergrad(zero_sign_oracle(b), u, v0, T, rho=rho,
                               reg_lambda=reg,
                               v_stepper=make_stepper(kind, v0.shape),
                               q_stepper=make_stepper(kind, v0.shape))
    hg, v, q = (np.empty_like(v0) for _ in range(3))
    flips = 0
    for i in np.ndindex(v0.shape):
        step_v, step_q = python_float_step(kind, rho), python_float_step(
            kind, rho)
        x = float(v0[i])
        for _ in range(T):
            x = step_v(x, 0.5 * x)
        y = 0.0
        for _ in range(T):
            r = -y + reg * y - float(b[i])
            flips += math.copysign(1.0, r) != math.copysign(1.0,
                                                           -y - float(b[i]))
            y = step_q(y, -r + reg * r)
        v[i], q[i], hg[i] = x, y, 0.5 * float(u[i]) - 0.25 * y
    assert (flips > 0) == (math.copysign(1.0, reg) > 0)
    for a, w in zip(got, (hg, v, q)):
        assert a.dtype == np.float64 and a.shape == w.shape
        assert a.tobytes() == w.tobytes()
