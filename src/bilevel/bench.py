"""Benchmark harness: run configs, trial execution, CSV output.

Config files are flat key=value text with [section] headers:

    [problem]
    name = example1
    dim = 10

    [solver]            ; or [solver.<label>] sections for `compare`
    name = penalty
    K = 40000

    [run]
    trials = 20
    record_every = 500
    seed = 0
    out = runs/example1_penalty.csv

    [sweep]             ; only for `sweep`
    axis = T
    values = 1, 5, 10

The [problem] keys are the problem factory's keyword parameters, the
[solver] keys the PenaltyConfig fields except box (the problem supplies
it), and [run] takes trials, record_every, seed and out.
Every value, [sweep] values included, must parse to its default's type
(an int may stand for a float) and is cast to that type; a float must
be finite. A [solver] section may set only the keys its solver reads
(SOLVER_KEYS), and the [sweep] axis must be read by every solver section.

Trials are independent (streams derived from seed and trial index) and
run in lockstep batches where the problem has a batch factory;
BILEVEL_THREADS > 1 splits the trials across processes, at most one per
trial and per CPU. CSV rows are buffered per trial and written in trial
order, so output is deterministic (timing columns aside) regardless of
scheduling.
"""

from __future__ import annotations

import configparser
import csv
import operator
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .core import _INTS, _REALS, derive_seed, make_rng
from .errors import (ConfigError, ContractViolationError, ConvergenceError,
                     NumericError)
from .hypergrad import (exact_hypergrad, fd_hypergrad, kkt_residual,
                        solve_lower_level, verify_lemma3)
from .oracle import (Point, fd_check_oracle, initial_slacks, rel_err,
                     slackify)
from .problems import ProblemInstance, get_problem
from .solvers import (OracleCounters, PenaltyConfig, SolverTrace,
                      approxgrad_hypergrad, fmd_hypergrad, gd_alternating,
                      outer_loop, penalty_aug_solve, penalty_solve,
                      rmd_hypergrad)

RUN_COLUMNS = ("trial", "k", "wall_seconds", "gamma", "eps", "lambda",
               "f", "g", "grad_u_norm", "grad_v_norm", "feas_norm",
               "distance", "n_hvp", "n_jvp", "peak_stored_vecs")

# every column but `trial`, as TraceRow fields; ints %d, floats %.17g,
# which for these values writes what _fmt does; CRLF as csv.writer ends rows
_row_values = operator.attrgetter(*(
    {"lambda": "lam"}.get(col, col) for col in RUN_COLUMNS[1:]))
_RUN_ROW = "%d,%d," + "%.17g," * 10 + "%d,%d,%d\r\n"

# [solver] keys and their defaults
_SOLVER_DEFAULTS = {f.name: f.default for f in fields(PenaltyConfig)
                    if f.name != "box"}

# the [solver] keys each solver reads; a config may set no other
_PENALTY_KEYS = frozenset(_SOLVER_DEFAULTS) - {"approx_reg"}
_OUTER_KEYS = frozenset(("K", "T", "sigma0", "rho0", "stepper"))
SOLVER_KEYS = {
    "penalty": _PENALTY_KEYS,
    "penalty_plain": _PENALTY_KEYS - {"lambda0", "nu0", "c_lambda"},
    "gd": _OUTER_KEYS,
    "rmd": _OUTER_KEYS,
    "fmd": _OUTER_KEYS,
    "approxgrad": _OUTER_KEYS | {"approx_reg"},
}
SOLVER_NAMES = tuple(SOLVER_KEYS)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


@dataclass
class SolverEntry:
    label: str
    name: str
    cfg: dict = field(default_factory=dict)


@dataclass
class RunSetup:
    problem: str
    problem_params: dict
    solvers: list
    trials: int = 1
    record_every: int = 1
    seed: int = 0
    out: Optional[str] = None
    sweep_axis: Optional[str] = None
    sweep_values: Optional[list] = None


@dataclass
class TrialResult:
    """One trial's trace and tallies.

    A trial cut short by a numeric abort keeps the rows recorded before
    the abort and has no final point (None) and a NaN wall time.
    """

    trial: int
    trace: SolverTrace
    final_point: Optional[Point]
    counters: OracleCounters
    wall_seconds: float


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

# the classes a value may have to stand for a default of each type
_KINDS = {int: _INTS, float: _REALS}


def _of_type(value, default) -> bool:
    """Whether value has the type of its default: an integer may stand
    for a float, and a NumPy number for a Python one; a bool is not a
    number."""
    want = type(default)
    return (not isinstance(value, bool)
            and isinstance(value, _KINDS.get(want, want)))


def _typed(section, key, raw: str, default):
    """Config value raw, cast to the type of its default.

    raw reads as an int, else a float, else text; it must then have the
    default's type (``_of_type``).
    """
    want = type(default)
    value = raw
    for cast in (int, float):
        try:
            value = cast(raw)
            break
        except ValueError:
            pass
    if not _of_type(value, default):
        raise ConfigError(f"[{section}] bad value for {key!r}: {raw!r} "
                          f"is not {want.__name__}")
    return want(value)


def _parse_solver_section(label, items) -> SolverEntry:
    d = dict(items)
    if "name" not in d:
        raise ConfigError(f"[{label}] is missing the 'name' key")
    name = d.pop("name")
    if name not in SOLVER_NAMES:
        raise ConfigError(f"[{label}] unknown solver {name!r}; "
                          f"known: {SOLVER_NAMES}")
    cfg = {}
    for key, val in d.items():
        if key not in _SOLVER_DEFAULTS:
            raise ConfigError(f"[{label}] unknown key {key!r}")
        cfg[key] = _typed(label, key, val, _SOLVER_DEFAULTS[key])
    unread = sorted(set(cfg) - SOLVER_KEYS[name])
    if unread:
        raise ConfigError(f"[{label}] solver {name!r} does not read "
                          f"key(s) {unread}")
    return SolverEntry(label=label.split(".", 1)[-1], name=name, cfg=cfg)


def load_run_setup(path, overrides=None) -> RunSetup:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.optionxform = str          # keys like K and T are case-sensitive
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}")

    if "problem" not in cp:
        raise ConfigError("config needs a [problem] section")
    prob = dict(cp["problem"])
    if "name" not in prob:
        raise ConfigError("[problem] is missing the 'name' key")
    pname = prob.pop("name")
    known = get_problem(pname).defaults  # raises on unknown names
    unknown = sorted(set(prob) - set(known))
    if unknown:
        raise ConfigError(f"[problem] unknown key(s) {unknown} for "
                          f"{pname!r}; known: {sorted(known)}")
    pparams = {key: _typed("problem", key, raw, known[key])
               for key, raw in prob.items()}

    solvers = []
    for sec in cp.sections():
        if sec == "solver" or sec.startswith("solver."):
            solvers.append(_parse_solver_section(sec, cp[sec].items()))
    if not solvers:
        raise ConfigError("config needs a [solver] section")

    setup = RunSetup(problem=pname, problem_params=pparams, solvers=solvers)
    if "run" in cp:
        run = dict(cp["run"])
        for key, val in run.items():
            if key in ("trials", "record_every", "seed"):
                setattr(setup, key,
                        _typed("run", key, val, getattr(setup, key)))
            elif key == "out":
                setup.out = val
            else:
                raise ConfigError(f"[run] unknown key {key!r}")
    if "sweep" in cp:
        sw = dict(cp["sweep"])
        axis = sw.pop("axis", None)
        values = sw.pop("values", None)
        if sw:
            raise ConfigError(f"[sweep] unknown keys {sorted(sw)}")
        if axis not in ("T", "gamma0", "lambda0", "eps0"):
            raise ConfigError(f"[sweep] axis must be one of "
                              f"T/gamma0/lambda0/eps0, got {axis!r}")
        if not values or not values.strip():
            raise ConfigError("[sweep] values must be a non-empty list")
        for entry in solvers:
            if axis not in SOLVER_KEYS[entry.name]:
                raise ConfigError(f"[sweep] axis {axis!r} is not read by "
                                  f"solver {entry.name!r} ([{entry.label}])")
        setup.sweep_values = [
            _typed("sweep", axis, v.strip(), _SOLVER_DEFAULTS[axis])
            for v in values.split(",")]
        setup.sweep_axis = axis

    for key, val in (overrides or {}).items():
        if val is not None:
            setattr(setup, key, val)

    if setup.trials < 1:
        raise ConfigError("trials must be >= 1")
    if setup.record_every < 1:
        raise ConfigError("record_every must be >= 1")
    for entry in setup.solvers:
        k_budget = entry.cfg.get("K", _SOLVER_DEFAULTS["K"])
        if setup.record_every > k_budget:
            raise ConfigError(
                f"record_every {setup.record_every} exceeds K {k_budget} "
                f"for solver {entry.label!r}")
        # every config a run will build, checked before any trial runs
        for value in setup.sweep_values or [None]:
            cfg = dict(entry.cfg)
            if value is not None:
                cfg[setup.sweep_axis] = value
            PenaltyConfig(**cfg)
    return setup


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------

def _prepare_instance(instance: ProblemInstance, solver: str, p0: Point):
    """Slack-extend inequality-constrained problems for penalty solvers."""
    if not instance.oracle.has_constraints:
        return instance.oracle, p0
    if solver not in ("penalty", "penalty_plain"):
        raise ContractViolationError(
            f"solver {solver!r} does not support constrained problems")
    oracle = slackify(instance.oracle)
    s0 = initial_slacks(instance.oracle, p0)
    return oracle, Point(np.concatenate([p0.u, s0], axis=-1), p0.v)


def _dispatch(solver, oracle, cfg, p0, metric, record_every, counters):
    kw = dict(metric=metric, record_every=record_every, counters=counters)
    if solver == "penalty":
        return penalty_aug_solve(oracle, cfg, p0, **kw)
    if solver == "penalty_plain":
        return penalty_solve(oracle, cfg, p0, **kw)
    if solver == "gd":
        return gd_alternating(oracle, cfg, p0, **kw)
    return outer_loop(oracle, solver, cfg, p0, **kw)


def trial_groups(problem, solver, seed, trial_ids):
    """The (trial ids, factory, seed or seeds) groups the trials run in.

    One lockstep group comes from the batch factory when there is one,
    there are two or more trials and the solver is not fmd; else there
    is one group per trial. Trial t's seed is derive_seed(seed, t).
    """
    spec = get_problem(problem)
    seeds = [derive_seed(seed, t) for t in trial_ids]
    if (spec.batch_factory is not None and len(trial_ids) > 1
            and solver != "fmd"):
        return [(trial_ids, spec.batch_factory, seeds)]
    return [([t], spec.factory, s) for t, s in zip(trial_ids, seeds)]


# (key, instance, p0) of the last group built; see _built
_slot = None


def _built(factory, gseed, pparams):
    """factory(gseed, **pparams) and its p0, reusing the last group's.

    Factories are deterministic and oracles pure, so a group with the
    same factory object, seed(s) and pparams (by type and value: 1 and
    1.0, or 0.0 and -0.0, are different keys) gets the instance and p0
    built last, whose arrays are read-only. A miss empties the slot
    before building, so it never holds more than the loop does.
    """
    global _slot
    key = (factory, pickle.dumps((gseed, sorted(pparams.items()))))
    if _slot is None or _slot[0] != key:
        _slot = None
        instance = factory(gseed, **pparams)
        p0 = instance.init_sampler(gseed)
        p0.u.setflags(write=False)
        p0.v.setflags(write=False)
        _slot = (key, instance, p0)
    return _slot[1], _slot[2]


def _run_chunk(problem, pparams, solver, cfgkw, seed, trial_ids,
               record_every):
    """Run the trials in their trial_groups, each group as one batch."""
    groups = trial_groups(problem, solver, seed, trial_ids)
    results = []
    try:
        for ids, factory, gseed in groups:
            instance, p0 = _built(factory, gseed, pparams)
            oracle, p0 = _prepare_instance(instance, solver, p0)
            # a lone trial runs as a batch of one
            p0 = Point(np.atleast_2d(p0.u), np.atleast_2d(p0.v))
            cfg = PenaltyConfig(box=instance.box, **cfgkw)
            counters = OracleCounters()
            t0 = time.perf_counter()
            point, traces = _dispatch(solver, oracle, cfg, p0, instance.metric,
                                      record_every, counters)
            wall = (time.perf_counter() - t0) / len(ids)
            results += [TrialResult(trial=t, trace=traces[i],
                                    final_point=Point(point.u[i], point.v[i]),
                                    counters=counters, wall_seconds=wall)
                        for i, t in enumerate(ids)]
    except NumericError as exc:
        # the aborted call's traces belong to the first trials not done
        pending = trial_ids[len(results):]
        exc.results = results + [
            TrialResult(trial=t, trace=trace, final_point=None,
                        counters=counters, wall_seconds=float("nan"))
            for t, trace in zip(pending, getattr(exc, "traces", []))]
        raise
    return results


def worker_count(trials: int) -> int:
    """Processes for `trials` trials: BILEVEL_THREADS (unset or empty
    means 1), capped at the trial count and the CPU count."""
    raw = os.environ.get("BILEVEL_THREADS") or "1"
    try:
        requested = int(raw)
    except ValueError:
        requested = 0
    if requested < 1:
        raise ConfigError(f"BILEVEL_THREADS must be an integer >= 1, "
                          f"got {raw!r}")
    return min(requested, trials, os.cpu_count() or 1)


def run_trials(problem, solver, *, pparams=None, cfg=None, trials=1,
               seed=0, record_every=1):
    """Run `trials` independent trials of one solver on one problem.

    Returns a list of TrialResult in trial order. cfg is a dict of the
    PenaltyConfig fields the solver reads (SOLVER_KEYS[solver]; the
    problem supplies box, and p0 is drawn per trial). trials and
    record_every must be >= 1, and seed >= 0. pparams holds keys of the
    problem's ``defaults``, each of its default's type (``_of_type``). A
    pparams or config that breaks these rules, or that PenaltyConfig
    rejects (a mistyped number, say), raises ConfigError before any
    instance is built.
    """
    pparams = dict(pparams or {})
    cfgkw = dict(cfg or {})
    if solver not in SOLVER_NAMES:
        raise ConfigError(f"unknown solver {solver!r}")
    unread = sorted(set(cfgkw) - SOLVER_KEYS[solver])
    if unread:
        raise ConfigError(f"solver {solver!r} does not read key(s) {unread}")
    for key, n, least in (("trials", trials, 1), ("seed", seed, 0),
                          ("record_every", record_every, 1)):
        if isinstance(n, bool) or not isinstance(n, _INTS):
            raise ConfigError(f"{key} must be an integer, got {n!r}")
        if n < least:
            raise ConfigError(f"{key} must be >= {least}, got {n!r}")
    try:
        PenaltyConfig(**cfgkw)
    except ContractViolationError as exc:
        raise ConfigError(str(exc)) from None
    known = get_problem(problem).defaults
    for key, value in pparams.items():
        if key not in known:
            raise ConfigError(f"unknown key {key!r} for problem {problem!r}; "
                              f"known: {sorted(known)}")
        if not _of_type(value, known[key]):
            raise ConfigError(f"{key} must be {type(known[key]).__name__}, "
                              f"got {value!r}")
    workers = worker_count(trials)
    trial_ids = list(range(trials))
    if workers == 1:
        return _run_chunk(problem, pparams, solver, cfgkw, seed, trial_ids,
                          record_every)
    chunks = [trial_ids[i::workers] for i in range(workers)]
    out = []
    abort = None
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_chunk, problem, pparams, solver, cfgkw,
                               seed, chunk, record_every)
                   for chunk in chunks]
        for fut in futures:
            try:
                out.extend(fut.result())
            except NumericError as exc:
                abort = abort or exc
                out.extend(exc.results)
    out.sort(key=lambda r: r.trial)
    if abort is not None:
        # every chunk's finished and partial trials, in trial order
        abort.results = out
        raise abort
    return out


def final_distances(results) -> np.ndarray:
    return np.array([r.trace.final.distance for r in results])


def total_second_order(results) -> int:
    return sum(r.counters.second_order_calls() for r in results)


def mean_wall(results) -> float:
    return float(np.mean([r.wall_seconds for r in results]))


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_run_csv(path, results):
    """One row per trace row, bytes as csv.writer with _fmt would write."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(RUN_COLUMNS) + "\r\n")
        for res in results:
            trial = (res.trial,)
            fh.writelines(_RUN_ROW % (trial + _row_values(row))
                          for row in res.trace.rows)
    return path


SUMMARY_COLUMNS = ("label", "solver", "value", "trials", "final_mean",
                   "final_sd", "final_median", "n_hvp_total", "n_jvp_total",
                   "second_order_total", "peak_stored_vecs",
                   "wall_mean_seconds")


def summarize(label, solver, results, value="") -> dict:
    finals = final_distances(results)
    finite = finals[np.isfinite(finals)]
    if finite.size == 0:
        finite = np.array([np.nan])
    return {
        "label": label,
        "solver": solver,
        "value": value,
        "trials": len(results),
        "final_mean": float(np.mean(finite)),
        "final_sd": float(np.std(finite)),
        "final_median": float(np.median(finite)),
        "n_hvp_total": sum(r.counters.n_hvp for r in results),
        "n_jvp_total": sum(r.counters.n_jvp for r in results),
        "second_order_total": total_second_order(results),
        "peak_stored_vecs": max(r.counters.peak_stored_vecs
                                for r in results),
        "wall_mean_seconds": mean_wall(results),
    }


def write_summary_csv(path, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SUMMARY_COLUMNS)
        for row in rows:
            w.writerow([row[c] if isinstance(row[c], str) else _fmt(row[c])
                        for c in SUMMARY_COLUMNS])
    return path


# ---------------------------------------------------------------------------
# Commands (return process exit codes)
# ---------------------------------------------------------------------------

def _run_to_csv(setup: RunSetup, entry: SolverEntry, cfg: dict, path):
    """run_trials, then the run CSV at `path` (None: no CSV).

    On a numeric abort the CSV still gets the rows recorded so far, and
    the NumericError propagates.
    """
    try:
        results = run_trials(setup.problem, entry.name,
                             pparams=setup.problem_params, cfg=cfg,
                             trials=setup.trials, seed=setup.seed,
                             record_every=setup.record_every)
    except NumericError as exc:
        if path:
            write_run_csv(path, exc.results)
        raise
    if path:
        write_run_csv(path, results)
    return results


def cmd_run(setup: RunSetup, quiet=False) -> int:
    if len(setup.solvers) != 1:
        raise ConfigError("run expects exactly one [solver] section")
    entry = setup.solvers[0]
    results = _run_to_csv(setup, entry, entry.cfg, setup.out)
    if not quiet:
        s = summarize(entry.label, entry.name, results)
        print(f"{setup.problem}/{entry.name}: trials={setup.trials} "
              f"final median={s['final_median']:.6g} "
              f"mean={s['final_mean']:.6g} wall={s['wall_mean_seconds']:.3f}s"
              + (f" -> {setup.out}" if setup.out else ""))
    return 0


def _derived_path(out, tag):
    base = Path(out)
    return base.with_name(f"{base.stem}_{tag}{base.suffix or '.csv'}")


def cmd_sweep(setup: RunSetup, quiet=False) -> int:
    if setup.sweep_axis is None:
        raise ConfigError("sweep needs a [sweep] section with axis/values")
    summary_rows = []
    for entry in setup.solvers:
        for value in setup.sweep_values:
            cfg = dict(entry.cfg)
            cfg[setup.sweep_axis] = value
            tag = f"{entry.label}_{setup.sweep_axis}={_fmt(value)}"
            results = _run_to_csv(
                setup, entry, cfg,
                setup.out and _derived_path(setup.out, tag))
            row = summarize(entry.label, entry.name, results, value=value)
            summary_rows.append(row)
            if not quiet:
                print(f"{setup.problem}/{entry.label} "
                      f"{setup.sweep_axis}={value}: "
                      f"final mean={row['final_mean']:.6g} "
                      f"sd={row['final_sd']:.3g} "
                      f"wall={row['wall_mean_seconds']:.3f}s")
    if setup.out:
        write_summary_csv(_derived_path(setup.out, "summary"), summary_rows)
    return 0


def cmd_compare(setup: RunSetup, quiet=False) -> int:
    if len(setup.solvers) < 2:
        raise ConfigError("compare expects at least two solver sections")
    rows = []
    for entry in setup.solvers:
        results = _run_to_csv(setup, entry, entry.cfg, None)
        row = summarize(entry.label, entry.name, results)
        rows.append(row)
        if not quiet:
            print(f"{setup.problem}/{entry.label}: "
                  f"final mean={row['final_mean']:.6g} "
                  f"sd={row['final_sd']:.3g} "
                  f"hvp={row['n_hvp_total']} jvp={row['n_jvp_total']} "
                  f"peak={row['peak_stored_vecs']} "
                  f"wall={row['wall_mean_seconds']:.3f}s")
    if setup.out:
        write_summary_csv(setup.out, rows)
    return 0


# ---------------------------------------------------------------------------
# Verification command
# ---------------------------------------------------------------------------

CHECK_LEVELS = ("oracle", "hypergrad", "lemma3", "kkt")

# run configs used by `check <problem> kkt`
_KKT_RUN = {
    "example1": dict(K=40000, T=10, sigma0=1e-3, rho0=1e-4, gamma0=1.0,
                     eps0=1.0, lambda0=10.0),
    "example2": dict(K=40000, T=10, sigma0=1e-3, rho0=1e-4, gamma0=1.0,
                     eps0=1.0, lambda0=10.0),
    "constrained_toy": dict(K=30000, T=10, sigma0=1e-3, rho0=1e-3,
                            gamma0=1.0, eps0=1.0, lambda0=0.0),
}


def hypergrad_estimates(oracle, u, v0) -> dict:
    """Every hypergradient estimate at (u, v*), v* solved from v0 to 1e-11.

    Keys in order: exact, fd, rmd and fmd (T=500 at rho = 1/lambda_max
    of H), approxgrad (T=1000 at rho = min(1/lambda_max, 1/lambda_max^2),
    where both its v-steps and its q-steps are stable).
    """
    v_star = solve_lower_level(oracle, u, v0, tol=1e-11)
    p = Point(u, v_star)
    rho = 1.0 / float(np.max(np.linalg.eigvalsh(oracle.hess_vv_g(p))))
    return {"exact": exact_hypergrad(oracle, p),
            "fd": fd_hypergrad(oracle, u, v_star),
            "rmd": rmd_hypergrad(oracle, u, v_star, T=500, rho=rho)[0],
            "fmd": fmd_hypergrad(oracle, u, v_star, T=500, rho=rho)[0],
            "approxgrad": approxgrad_hypergrad(
                oracle, u, v_star, 1000, rho=min(rho, rho ** 2))[0]}


def cmd_check(problem: str, level: str, seed: int = 0, quiet=False) -> int:
    """Run one check level; an inner solve that does not converge fails."""
    if level not in CHECK_LEVELS:
        raise ConfigError(f"unknown check level {level!r}; "
                          f"known: {CHECK_LEVELS}")
    say = (lambda *a: None) if quiet else print
    try:
        return _check(problem, level, seed, say)
    except ConvergenceError as exc:
        say(f"FAIL: {exc}")
        return 1


def _check(problem: str, level: str, seed: int, say) -> int:
    if isinstance(seed, bool) or not isinstance(seed, _INTS):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed!r}")
    instance = get_problem(problem).factory(seed)
    oracle = instance.oracle
    p0 = instance.init_sampler(seed)
    ok = True

    if oracle.has_constraints and level in ("hypergrad", "lemma3"):
        # both levels differentiate through v*(u) of an unconstrained
        # lower level
        raise ConfigError(f"the {level} check needs an unconstrained "
                          f"problem; {problem} has constraints h")
    if instance.expects_singular and level in ("hypergrad", "lemma3"):
        # both levels compare against the dense hypergradient, which a
        # singular lower-level Hessian leaves undefined
        try:
            v = solve_lower_level(oracle, p0.u, p0.v, tol=1e-8)
            exact_hypergrad(oracle, Point(p0.u, v))
        except Exception as exc:
            say(f"check {problem} {level}: singular by design "
                f"({type(exc).__name__}): pass")
            return 0
        say("FAIL: expected a singularity error")
        return 1

    if level == "oracle":
        rng = make_rng(seed, 0xC4EC)
        p = Point(p0.u + 0.1 * rng.standard_normal(oracle.dim_u),
                  p0.v + 0.1 * rng.standard_normal(oracle.dim_v))
        report = fd_check_oracle(oracle, p)
        say(f"check {problem} oracle: {report}")
        ok = report.max_error < 1e-4
        if not ok:
            say(f"FAIL: max fd error {report.max_error:.3e} >= 1e-4")

    elif level == "hypergrad":
        estimates = hypergrad_estimates(oracle, p0.u, p0.v)
        exact = estimates.pop("exact")
        errs = {k: rel_err(hg, exact) for k, hg in estimates.items()}
        say(f"check {problem} hypergrad: " +
            ", ".join(f"{k}={v:.3e}" for k, v in errs.items()))
        ok = max(errs.values()) < 1e-4
        if not ok:
            bad = max(errs, key=errs.get)
            say(f"FAIL: {bad} disagrees with the dense oracle: "
                f"{errs[bad]:.3e} >= 1e-4")

    elif level == "lemma3":
        rng = make_rng(seed, 0x1E3)
        worst = 0.0
        for _ in range(5):
            if instance.box is not None:
                u = rng.uniform(instance.box.lo, instance.box.hi,
                                oracle.dim_u)
            else:
                u = rng.standard_normal(oracle.dim_u)
            # the penalized minimizer lies near the lower-level solution
            v0 = solve_lower_level(oracle, u, p0.v, tol=1e-10)
            err = verify_lemma3(oracle, u, gamma=10.0, v0=v0)
            worst = max(worst, err)
        say(f"check {problem} lemma3: max relative error {worst:.3e}")
        ok = worst < 1e-6
        if not ok:
            say(f"FAIL: inner-gradient identity error {worst:.3e} >= 1e-6")

    elif level == "kkt":
        cfgkw = _KKT_RUN.get(problem, dict(K=20000, T=10))
        results = run_trials(problem, "penalty", pparams={}, cfg=cfgkw,
                             trials=1, seed=seed, record_every=10**9)
        final = results[0].final_point
        # the instance trial 0 solved, not the one built from `seed`: the
        # slot still holds it
        (_, factory, gseed), = trial_groups(problem, "penalty", seed, [0])
        solved = _built(factory, gseed, {})[0].oracle
        report = kkt_residual(
            slackify(solved) if solved.has_constraints else solved, final)
        say(f"check {problem} kkt: feasibility={report.feasibility:.3e} "
            f"stationarity={report.stationarity:.3e} rank={report.rank}")
        if instance.expects_singular:
            say("note: rank-deficient by construction; thresholds not "
                "asserted, rank reported above")
            return 0
        ok = report.feasibility <= 1e-3 and report.stationarity <= 1e-3
        if not ok:
            say("FAIL: KKT residuals exceed 1e-3")

    return 0 if ok else 1
