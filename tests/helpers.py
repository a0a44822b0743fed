"""Helpers several test modules share."""

from dataclasses import replace

import numpy as np

from bilevel.oracle import ProblemOracle
from bilevel.solvers import SolverTrace


def traces_equal(a: SolverTrace, b: SolverTrace) -> bool:
    """Bitwise equality of two traces, timing columns excluded."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a.rows, b.rows):
        for name in ra.__dataclass_fields__:
            if name == "wall_seconds":
                continue
            va, vb = getattr(ra, name), getattr(rb, name)
            if va != vb and not (np.isnan(va) and np.isnan(vb)):
                return False
    return True


def with_zero_f(oracle: ProblemOracle) -> ProblemOracle:
    """Same lower level, identically-zero upper cost (feasibility limit)."""
    zero = lambda p: np.zeros(p.u.shape[:-1])
    return replace(
        oracle, name=oracle.name + "+f0", eval_f=zero,
        grad_u_f=lambda p: np.zeros_like(p.u),
        grad_v_f=lambda p: np.zeros_like(p.v))
