"""Ground-truth hypergradient oracles and KKT verification.

These are the independent yardsticks the solvers are measured against:
the dense implicit-differentiation hypergradient, a finite-difference
hypergradient built on converged lower-level solves, the identity between
the penalized u-gradient at the inner minimizer and the hypergradient,
and the KKT residual of the single-level reformulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ContractViolationError, ConvergenceError,
                     SingularHessianError)
from .oracle import (PenaltyParams, Point, ProblemOracle, penalty_grad_u,
                     penalty_grad_v, rel_err)

COND_CAP = 1e12


def _solve_checked(H, b, what: str):
    cond = np.linalg.cond(H)
    if not np.isfinite(cond) or cond > COND_CAP:
        raise SingularHessianError(
            f"{what}: condition estimate {cond:.3e} exceeds {COND_CAP:.0e}",
            cond=cond)
    return np.linalg.solve(H, b)


def exact_hypergrad(oracle: ProblemOracle, p: Point) -> np.ndarray:
    """grad_u f - jac_uv_g . solve(hess_vv_g, grad_v f), dense.

    Raises SingularHessianError when the condition estimate of the
    lower-level Hessian exceeds 1e12 (never forms an explicit inverse).
    """
    oracle.require_dense("exact_hypergrad")
    oracle.check_point(p)
    H = oracle.hess_vv_g(p)
    q = _solve_checked(H, oracle.grad_v_f(p), "exact_hypergrad")
    return oracle.grad_u_f(p) - oracle.jac_uv_g(p) @ q


def _fd_jacobian(residual, x, eps=1e-6):
    n = x.size
    J = np.empty((n, n))
    for j in range(n):
        step = np.zeros_like(x)
        step[j] = eps
        J[:, j] = (residual(x + step) - residual(x - step)) / (2.0 * eps)
    return J


def newton_root(residual, x0, tol, max_iter=100, what="newton_root",
                jacobian=None):
    """Damped Newton on a smooth residual.

    The Jacobian comes from ``jacobian(x)`` when given, else from central
    differences of the residual. Exact on affine residuals in one step;
    backtracks when the full step does not reduce the residual norm.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    r = residual(x)
    for _ in range(max_iter):
        rn = np.linalg.norm(r)
        if rn <= tol:
            return x
        J = _fd_jacobian(residual, x) if jacobian is None else jacobian(x)
        try:
            step = np.linalg.solve(J, r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(J, r, rcond=None)
        alpha = 1.0
        while alpha > 2.0**-30:
            x_new = x - alpha * step
            r_new = residual(x_new)
            if np.linalg.norm(r_new) < rn:
                x, r = x_new, r_new
                break
            alpha *= 0.5
        else:
            raise ConvergenceError(f"{what}: stalled at residual {rn:.3e}")
    if np.linalg.norm(residual(x)) <= tol:
        return x
    raise ConvergenceError(
        f"{what}: residual {np.linalg.norm(residual(x)):.3e} > tol {tol:.1e}")


def solve_lower_level(oracle: ProblemOracle, u, v0, tol=1e-10,
                      max_iter=100) -> np.ndarray:
    """Minimize g over v to |grad_v g| <= tol by Newton.

    The Jacobian is the dense Hessian when the oracle has one, else
    central differences of grad_v g.
    """
    u = np.asarray(u, dtype=np.float64)
    hess = ((lambda v: oracle.hess_vv_g(Point(u, v)))
            if oracle.has_dense else None)
    return newton_root(lambda v: oracle.grad_v_g(Point(u, v)), v0, tol,
                       max_iter, what="lower-level solve", jacobian=hess)


def minimize_penalty_v(oracle: ProblemOracle, u, v0, params: PenaltyParams,
                       tol=1e-10, max_iter=100) -> np.ndarray:
    """Minimize the penalized objective over v to |grad_v| <= tol."""
    u = np.asarray(u, dtype=np.float64)
    return newton_root(
        lambda v: penalty_grad_v(oracle, Point(u, v), params), v0, tol,
        max_iter, what="penalized v-minimization")


def fd_hypergrad(oracle: ProblemOracle, u, v0, inner_tol: float = 1e-10,
                 fd_eps: float = 1e-5, max_iter: int = 100) -> np.ndarray:
    """Central-difference hypergradient through converged lower solves.

    Solves the lower level at u +- fd_eps e_i (warm-started from the
    unperturbed solution) and differences f(u, v*(u)). Independent of the
    implicit-differentiation path: uses only eval_f and lower solves.
    """
    u = np.asarray(u, dtype=np.float64)
    v_star = solve_lower_level(oracle, u, v0, inner_tol, max_iter)
    out = np.empty_like(u)
    for i in range(u.size):
        step = np.zeros_like(u)
        step[i] = fd_eps
        v_plus = solve_lower_level(oracle, u + step, v_star, inner_tol,
                                   max_iter)
        v_minus = solve_lower_level(oracle, u - step, v_star, inner_tol,
                                    max_iter)
        f_plus = oracle.eval_f(Point(u + step, v_plus))
        f_minus = oracle.eval_f(Point(u - step, v_minus))
        out[i] = (f_plus - f_minus) / (2.0 * fd_eps)
    return out


def verify_lemma3(oracle: ProblemOracle, u, gamma: float,
                  inner_tol: float = 1e-10, v0=None) -> float:
    """Relative gap between the penalized u-gradient at the inner
    minimizer of the penalized objective and the exact hypergradient.

    Requires an unconstrained problem. The gap is invariant to gamma
    (which cancels at the minimizer) and shrinks to rounding error once
    the inner minimization is tight.
    """
    if oracle.has_constraints:
        raise ContractViolationError(
            "inner-gradient identity requires an unconstrained problem")
    u = np.asarray(u, dtype=np.float64)
    if v0 is None:
        v0 = np.zeros(oracle.dim_v)
    params = PenaltyParams(gamma=gamma)
    v_hat = minimize_penalty_v(oracle, u, v0, params, tol=inner_tol)
    p = Point(u, v_hat)
    gu = penalty_grad_u(oracle, p, params)
    exact = exact_hypergrad(oracle, p)
    return rel_err(gu, exact)


@dataclass
class KKTReport:
    """Feasibility and stationarity of the single-level reformulation.

    feasibility = |(h; grad_v g)|; stationarity = |grad_w f - J^T mu|
    with the least-squares multiplier mu (w = (u, v)). multiplier_penalty
    is the penalty-implied candidate -gamma (h; grad_v g). rank is the
    numerical rank of the constraint Jacobian (LICQ diagnostic; reported,
    not enforced).
    """

    feasibility: float
    stationarity: float
    multiplier: np.ndarray
    multiplier_penalty: np.ndarray
    rank: int


def _constraint_jacobian(oracle: ProblemOracle, p: Point) -> np.ndarray:
    """J of (h; grad_v g) w.r.t. w = (u, v): shape (C + V, U + V)."""
    U, V, C = oracle.dim_u, oracle.dim_v, oracle.dim_c
    J = np.empty((C + V, U + V))
    if C:
        for j in range(C):
            e = np.zeros(C)
            e[j] = 1.0
            J[j, :U] = oracle.jtvp_u_h(p, e)
            J[j, U:] = oracle.jtvp_v_h(p, e)
    J[C:, :U] = oracle.jac_uv_g(p).T
    J[C:, U:] = oracle.hess_vv_g(p)
    return J


def kkt_residual(oracle: ProblemOracle, p: Point,
                 gamma: float = 1.0) -> KKTReport:
    """Report-only KKT residuals at a point (needs dense capability)."""
    oracle.require_dense("kkt_residual")
    oracle.check_point(p)
    gvg = oracle.grad_v_g(p)
    parts = [gvg]
    if oracle.has_constraints:
        parts.insert(0, oracle.eval_h(p))
    g_tilde = np.concatenate(parts)
    feasibility = float(np.linalg.norm(g_tilde))

    J = _constraint_jacobian(oracle, p)
    grad_w_f = np.concatenate([oracle.grad_u_f(p), oracle.grad_v_f(p)])
    mu, _, rank, _ = np.linalg.lstsq(J.T, grad_w_f, rcond=None)
    stationarity = float(np.linalg.norm(grad_w_f - J.T @ mu))
    return KKTReport(feasibility=feasibility, stationarity=stationarity,
                     multiplier=mu, multiplier_penalty=-gamma * g_tilde,
                     rank=int(rank))
