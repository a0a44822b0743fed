import numpy as np
import pytest

from bilevel.bench import hypergrad_estimates
from bilevel.core import make_rng
from bilevel.errors import (ContractViolationError, ConvergenceError,
                            SingularHessianError)
from bilevel.hypergrad import (exact_hypergrad, fd_hypergrad, kkt_residual,
                               minimize_penalty_v, newton_root,
                               solve_lower_level, verify_lemma3)
from bilevel.oracle import (PenaltyParams, Point, penalty_grad_u, rel_err,
                            slackify)
from bilevel.problems import (make_constrained_toy, make_hyperparam_ridge,
                              make_quadratic, make_synthetic,
                              ridge_closed_form)
from bilevel.solvers import (OracleCounters, approxgrad_hypergrad,
                             attach_counters, fmd_hypergrad, rmd_hypergrad)
from test_solvers import decoupled_oracle


class TestExactHypergrad:
    def test_closed_form_at_solution(self):
        o = make_synthetic(1, dim=1).oracle
        hg = exact_hypergrad(o, Point(np.array([0.5]), np.array([0.5])))
        assert hg[0] == pytest.approx(0.0, abs=1e-14)

    def test_closed_form_off_solution(self):
        o = make_synthetic(1, dim=1).oracle
        hg = exact_hypergrad(o, Point(np.array([0.3]), np.array([0.7])))
        assert hg[0] == pytest.approx(-0.8, abs=1e-14)
        # matches d/du [u^2 + (1-u)^2] = 4u - 2
        assert hg[0] == pytest.approx(4 * 0.3 - 2, abs=1e-14)

    def test_singular_hessian_raises(self):
        o = make_synthetic(3, dim=10, seed=1).oracle
        with pytest.raises(SingularHessianError) as err:
            exact_hypergrad(o, Point(np.zeros(10), np.zeros(10)))
        assert err.value.cond > 1e12


class TestFdHypergrad:
    def test_matches_exact_on_quadratic(self):
        inst = make_synthetic(1, dim=10)
        o = inst.oracle
        u = np.full(10, 0.3)
        v_star = solve_lower_level(o, u, np.zeros(10), tol=1e-10)
        fd = fd_hypergrad(o, u, np.zeros(10))
        exact = exact_hypergrad(o, Point(u, v_star))
        assert rel_err(fd, exact) < 1e-4

    def test_decoupled_is_plain_fd_of_f(self):
        o = decoupled_oracle()
        rng = make_rng(2, 2)
        u = rng.standard_normal(4)
        fd = fd_hypergrad(o, u, np.ones(4))
        np.testing.assert_allclose(fd, 2.0 * u, atol=1e-8)

    def test_ridge_matches_closed_form(self):
        inst = make_hyperparam_ridge(7)
        o = inst.oracle
        split = inst.info["split"]
        u0 = -1.5
        fd = fd_hypergrad(o, np.array([u0]), np.zeros(o.dim_v))

        # independent closed-form derivative of the reduced objective
        def reduced(u):
            w = ridge_closed_form(split.X_train, split.y_train, u)
            return np.mean((split.X_val @ w - split.y_val) ** 2)

        closed_fd = (reduced(u0 + 1e-6) - reduced(u0 - 1e-6)) / 2e-6
        assert abs(fd[0] - closed_fd) / max(1.0, abs(closed_fd)) < 1e-4


class TestInnerGradIdentity:
    def test_example1_small_error(self):
        inst = make_synthetic(1, dim=10)
        rng = make_rng(0, 10)
        u = rng.uniform(-5, 5, 10)
        err = verify_lemma3(inst.oracle, u, gamma=10.0)
        assert err < 1e-6

    def test_gamma_invariance(self):
        inst = make_synthetic(1, dim=10)
        rng = make_rng(1, 10)
        u = rng.uniform(-5, 5, 10)
        errs = [verify_lemma3(inst.oracle, u, gamma=g)
                for g in (0.1, 1000.0)]
        assert all(e < 1e-6 for e in errs)
        assert abs(errs[0] - errs[1]) < 1e-6

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    def test_non_finite_gamma_refused(self, gamma):
        # refused when the penalty weights are built, before the inner
        # solve, which would otherwise stall on a NaN residual
        inst = make_synthetic(1, dim=10)
        with pytest.raises(ContractViolationError, match="^gamma must"):
            verify_lemma3(inst.oracle, np.zeros(10), gamma=gamma)

    def test_requires_unconstrained(self):
        inst = make_constrained_toy()
        with pytest.raises(ContractViolationError):
            verify_lemma3(inst.oracle, np.array([0.3]), gamma=1.0)

    def test_solver_realizes_identity(self):
        # tightly minimizing the penalized objective over v makes the
        # penalized u-gradient equal the dense hypergradient, any gamma
        o = make_quadratic(11).oracle
        rng = make_rng(11, 0)
        u = rng.standard_normal(5)
        for gamma in (0.5, 50.0):
            params = PenaltyParams(gamma=gamma)
            v_hat = minimize_penalty_v(o, u, np.zeros(5), params)
            gu = penalty_grad_u(o, Point(u, v_hat), params)
            exact = exact_hypergrad(o, Point(u, v_hat))
            assert rel_err(gu, exact) < 1e-6


class TestKkt:
    def test_example1_optimum(self):
        o = make_synthetic(1, dim=10).oracle
        rep = kkt_residual(o, Point(np.full(10, 0.5), np.full(10, 0.5)))
        assert rep.feasibility == pytest.approx(0.0, abs=1e-14)
        assert rep.stationarity == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(rep.multiplier, 0.5, atol=1e-12)

    def test_random_point_not_stationary(self):
        o = make_synthetic(1, dim=10).oracle
        rng = make_rng(4, 4)
        p = Point(rng.uniform(-5, 5, 10), rng.uniform(-5, 5, 10))
        rep = kkt_residual(o, p)
        assert rep.stationarity > 0.1

    def test_constrained_toy_optimum(self):
        o = slackify(make_constrained_toy().oracle)
        p = Point(np.array([0.5, 0.0]), np.array([0.5]))
        rep = kkt_residual(o, p)
        assert rep.feasibility < 1e-6
        assert rep.stationarity < 1e-3

    def test_rank_reported(self):
        o = make_synthetic(3, dim=10, seed=0).oracle
        rng = make_rng(0, 0)
        p = Point(rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10))
        rep = kkt_residual(o, p)
        assert rep.rank <= 5    # row space of A has rank 5


class TestCrossOracleAgreement:
    @pytest.mark.parametrize("factory,seed", [(make_quadratic, 13),
                                              (make_hyperparam_ridge, 13)])
    def test_all_estimators_agree(self, factory, seed):
        inst = factory(seed)
        p0 = inst.init_sampler(seed)
        results = hypergrad_estimates(inst.oracle, p0.u, p0.v)
        exact = results.pop("exact")
        for name, hg in results.items():
            assert rel_err(hg, exact) < 1e-4, name


class TestInnerSolvers:
    def test_newton_root_affine_one_step(self):
        A = np.array([[3.0, 1.0], [1.0, 2.0]])
        b = np.array([1.0, -1.0])
        x = newton_root(lambda x: A @ x - b, np.zeros(2), tol=1e-12,
                        jacobian=lambda x: A)
        np.testing.assert_allclose(A @ x, b, atol=1e-10)

    def test_newton_root_reports_failure(self):
        # residual with no root: |r| bounded below by 1
        with pytest.raises(ConvergenceError):
            newton_root(lambda x: np.array([np.cos(x[0]) + 2.0]),
                        np.zeros(1), tol=1e-10,
                        jacobian=lambda x: np.array([[-np.sin(x[0])]]))

    def test_solve_lower_level_logistic(self):
        from bilevel.problems import PROBLEMS
        inst = PROBLEMS["importance_toy"].factory(0)
        o = inst.oracle
        p0 = inst.init_sampler(0)
        v = solve_lower_level(o, p0.u, p0.v, tol=1e-10)
        assert np.linalg.norm(o.grad_v_g(Point(p0.u, v))) <= 1e-10


MIS_SHAPED_CALLS = {
    "rmd_hypergrad": lambda o, u, v: rmd_hypergrad(o, u, v, 3, 0.1),
    "fmd_hypergrad": lambda o, u, v: fmd_hypergrad(o, u, v, 3, 0.1),
    "approxgrad_hypergrad": lambda o, u, v: approxgrad_hypergrad(
        o, u, v, 3, rho=0.1),
    "solve_lower_level": solve_lower_level,
    "verify_lemma3": lambda o, u, v: verify_lemma3(o, u, gamma=10.0, v0=v),
    "fd_hypergrad": fd_hypergrad,
}


@pytest.mark.parametrize("name", sorted(MIS_SHAPED_CALLS))
def test_mis_shaped_point_refused_before_any_call(name):
    # before, a u of dim 2 on a dim-3 oracle raised a raw broadcast
    # ValueError from inside the first oracle callback
    counters = OracleCounters()
    o = attach_counters(make_synthetic(1, dim=3).oracle, counters)
    with pytest.raises(ContractViolationError, match="point dims"):
        MIS_SHAPED_CALLS[name](o, np.zeros(2), np.ones(3))
    assert counters == OracleCounters()
