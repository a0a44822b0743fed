"""Output checks for one executed case.

The closed forms below are criterion 05's oracle-call tallies, written
out from K, T and the problem's dimension rather than read from the code
under test.
"""

from __future__ import annotations

import hashlib
import math

# solvers without a penalty schedule record gamma/eps/lambda as NaN
NO_SCHEDULE = ("gd", "rmd", "approxgrad", "fmd")
SCHEDULE_COLUMNS = ("gamma", "eps", "lam")


def expected_tallies(solver, K, T, dim_u):
    """(n_hvp, n_jvp, n_dense_hess, n_dense_jac, peak_stored_vecs)."""
    if solver in ("penalty", "penalty_plain"):
        return K * T, K, 0, 0, 1
    if solver == "rmd":
        return K * T, K * T, 0, 0, T + 1
    if solver == "approxgrad":
        return 2 * K * T, K, 0, 0, 2
    if solver == "gd":
        return 0, 0, 0, 0, 1
    if solver == "fmd":
        return 0, 0, K * T, K * T, dim_u + 1
    raise ValueError(f"no closed form for solver {solver!r}")


def distinct_counters(results):
    """OracleCounters objects of a run, once each (a batch shares one)."""
    seen = {}
    for r in results:
        seen.setdefault(id(r.counters), r.counters)
    return list(seen.values())


def check_case(case, results, dim_u):
    """List of failed-check messages; empty when the output is correct."""
    faults = []
    if [r.trial for r in results] != list(range(case.trials)):
        faults.append("trials missing or out of order")
    want = expected_tallies(case.solver, case.K, case.T, dim_u)
    for c in distinct_counters(results):
        got = (c.n_hvp, c.n_jvp, c.n_dense_hess, c.n_dense_jac,
               c.peak_stored_vecs)
        if got != want:
            faults.append(f"oracle tallies (hvp, jvp, dense_hess, "
                          f"dense_jac, peak) {got} != closed form {want}")
    for r in results:
        row = r.trace.final
        if row.k != case.K - 1:
            faults.append(f"trial {r.trial}: final row k={row.k}, "
                          f"expected {case.K - 1}")
        for name in row.__dataclass_fields__:
            if name == "distance":
                continue
            value = getattr(row, name)
            if case.solver in NO_SCHEDULE and name in SCHEDULE_COLUMNS:
                if not math.isnan(value):
                    faults.append(f"trial {r.trial}: {name}={value} on a "
                                  f"solver without a penalty schedule")
            elif not math.isfinite(value):
                faults.append(f"trial {r.trial}: final {name}={value}")
    return faults


def trace_digest(results):
    """sha256 over every trace row of every trial, wall_seconds excluded."""
    h = hashlib.sha256()
    for r in results:
        h.update(f"trial {r.trial}\n".encode())
        for row in r.trace.rows:
            values = [repr(getattr(row, name))
                      for name in row.__dataclass_fields__
                      if name != "wall_seconds"]
            h.update((",".join(values) + "\n").encode())
    return h.hexdigest()
