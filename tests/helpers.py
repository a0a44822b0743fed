"""Helpers several test modules share."""

from dataclasses import fields, replace

import numpy as np

from bilevel.oracle import ProblemOracle
from bilevel.solvers import SolverTrace, TraceRow

FIELDS = [f.name for f in fields(TraceRow)]


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


def row_values(row):
    """(type, repr) of every field of a row but its wall time: equal
    exactly when the values are bitwise equal and of the same types."""
    return tuple((type(getattr(row, name)), repr(getattr(row, name)))
                 for name in FIELDS if name != "wall_seconds")


def assert_reads_match(got: SolverTrace, want: SolverTrace):
    """len, every column() and final of got, read before its rows, equal
    what want's rows give row by row, bit for bit (the wall time in type
    and shape only); then got's rows equal want's."""
    rows = want.rows
    assert len(got) == len(rows)
    for name in FIELDS:
        col = got.column(name)
        ref = np.array([getattr(r, name) for r in rows])
        assert (col.dtype, col.shape) == (ref.dtype, ref.shape), name
        if name != "wall_seconds":
            assert col.tobytes() == ref.tobytes(), name
    if rows:
        assert row_values(got.final) == row_values(rows[-1])
        assert type(got.final.wall_seconds) is float
    assert [row_values(r) for r in got.rows] == [row_values(r) for r in rows]


def with_zero_f(oracle: ProblemOracle) -> ProblemOracle:
    """Same lower level, identically-zero upper cost (feasibility limit)."""
    zero = lambda p: np.zeros(p.u.shape[:-1])
    return replace(
        oracle, name=oracle.name + "+f0", eval_f=zero,
        grad_u_f=lambda p: np.zeros_like(p.u),
        grad_v_f=lambda p: np.zeros_like(p.v))
