#!/usr/bin/env python3
"""Repository benchmark for the bilevel solvers.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --workload desk --record-reference

A run builds every case's inputs several times (timed as `setup_s`),
then repeats passes over the workload's cases for about `--seconds`
seconds. Each case's wall time is scaled to a fixed machine speed by a
calibration kernel timed around it (see calibration.py), and metrics
are medians over passes. `--trace 0` prints the end-to-end metrics;
`--trace 1` runs untraced passes, then traced passes with span wrappers
on every layer, and prints the per-layer metrics. Every case's output is
checked (closed-form oracle tallies, final-row finiteness, trace
digests); the last stdout line is the JSON result, and the full record,
raw timings included, goes to .perfbench_out/.

`--smoke` runs every workload at tiny K in child processes and checks
that every metric in BENCHMARK.json appears with its unit.
`--record-reference` stores the workload's trace digests at the default
seed in perfbench/reference.json.
"""

from __future__ import annotations

import os

# pinned before numpy is imported anywhere in this process
for _var in ("BILEVEL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibration import ScaledClock
from checks import check_case, distinct_counters, trace_digest
from tracing import Spans, traced
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT_DIR = Path(".perfbench_out")
DEFAULT_SEED = 0
TINY_K = 3
SMOKE_TIMEOUT_S = 170

SOLVERS = ("penalty", "rmd", "approxgrad", "gd")

# name -> (unit, better); must match BENCHMARK.json (checked by --smoke)
END_TO_END = {
    "uiters_per_s": ("1/s", "higher"),
    **{f"{s}_uiters_per_s": ("1/s", "higher") for s in SOLVERS},
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# layers reached on every workload; the others are diagnostics only
LAYERS = ("core.stepper_step", "core.project_box", "oracle.penalty_grad_v",
          "oracle.penalty_grad_u",
          *(f"problems.{cb}" for cb in ("eval_f", "eval_g", "grad_u_f",
                                        "grad_v_f", "grad_v_g", "hvp_vv_g",
                                        "jvp_uv_g")),
          "problems.factory", "solvers.attach_counters",
          "solvers.rmd_hypergrad", "solvers.approxgrad_hypergrad",
          "solvers.driver", "solvers.recorder", "bench.run_trials",
          "bench.write_run_csv")
PER_LAYER = {
    **{f"{layer}.{kind}": spec
       for layer in LAYERS for kind, spec in (("calls", ("count", "lower")),
                                              ("self_s", ("s", "lower")))},
    "problems.second_order.gb_per_s_computed": ("GB/s", "higher"),
    "bench.write_run_csv.bytes": ("B", "lower"),
    **{f"solvers.{s}.{k}": ("count", "lower")
       for s in SOLVERS for k in ("second_order_calls", "peak_stored_vecs")},
    "trace.overhead_ratio": ("ratio", "lower"),
}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Import bilevel from ./src of the checkout, never from elsewhere."""
    pkg = Path.cwd() / "src" / "bilevel"
    if not (pkg / "__init__.py").is_file():
        fail(f"no src/bilevel in {Path.cwd()}; run from the repository root")
    sys.path.insert(0, str(pkg.parent))
    import bilevel
    if Path(bilevel.__file__).resolve().parent != pkg.resolve():
        fail(f"imported bilevel from {bilevel.__file__}, not {pkg}")


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _cache_bytes(level):
    """L2/L3 size from glibc sysconf (cpuid based); None if unavailable."""
    names = {2: 191, 3: 194}    # _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    try:
        size = ctypes.CDLL(None).sysconf(names[level])
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not Path(".git").exists():
        return {"commit": "unknown (not a git checkout)", "dirty": None}
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                               capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": "unknown", "dirty": None}
    if head.returncode != 0:
        return {"commit": "unknown", "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(dirty.stdout.strip())}


def environment():
    import io
    from contextlib import redirect_stdout

    import numpy as np
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    with redirect_stdout(io.StringIO()):
        cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    simd = ",".join(sorted(k for k, v in __cpu_features__.items() if v))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "simd_sha1": hashlib.sha1(simd.encode()).hexdigest()[:12],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ[k] for k in
                    ("BILEVEL_THREADS", "OPENBLAS_NUM_THREADS",
                     "OMP_NUM_THREADS")},
        **_git_commit(),
    }


# the fields a bit-identical trace depends on
FINGERPRINT = ("machine", "cpu_model", "simd_sha1", "numpy", "openblas")


def fingerprint(env):
    return {k: env[k] for k in FINGERPRINT}


# ---------------------------------------------------------------------------
# Running cases
# ---------------------------------------------------------------------------

def build_inputs(case, seed):
    """Problem instances and initial points, built the way run_trials does.

    Returns the upper dimension the solver sees.
    """
    from bilevel.core import derive_seed
    from bilevel.oracle import initial_slacks, slackify
    from bilevel.problems import get_problem

    spec = get_problem(case.problem)
    seeds = [derive_seed(seed, t) for t in range(case.trials)]
    if (spec.batch_factory is not None and case.trials > 1
            and case.solver != "fmd"):
        built = [(spec.batch_factory(seeds, **case.pparams), seeds)]
    else:
        built = [(spec.factory(s, **case.pparams), s) for s in seeds]
    for inst, s in built:
        p0 = inst.init_sampler(s)
        oracle = inst.oracle
        if oracle.has_constraints:
            initial_slacks(oracle, p0)
            oracle = slackify(oracle)
    return oracle.dim_u


class CaseLog:
    """Per-case record across passes."""

    def __init__(self, case):
        self.case = case
        # traced flag -> seconds per pass, raw and at the calibration speed
        self.raw = {False: [], True: []}
        self.scaled = {False: [], True: []}
        self.failures = []
        self.csv_bytes = 0


class Runner:
    def __init__(self, workload, cases, seed, reference):
        self.clock = ScaledClock(workload.calibration)
        self.cases = cases
        self.seed = seed
        self.logs = [CaseLog(c) for c in cases]
        # case id -> digest every run of the case must reproduce; cases
        # without a reference digest are pinned by their first run
        self.expected = dict(reference)
        self.attempted = 0
        self.failed = 0
        self.dims = {}
        self.counts = {}            # solver -> [second-order calls, peak]
        self.csv_dir = OUT_DIR / "csv" / workload.name

    def measure_setup(self, min_reps, budget_s):
        """Raw and machine-speed-scaled seconds per set-up repetition."""
        raw, scaled = [], []
        self.clock.mark()
        while len(raw) < min_reps or (sum(raw) < budget_s and len(raw) < 100):
            t0 = time.perf_counter()
            for case in self.cases:
                self.dims[case.id] = build_inputs(case, self.seed)
            raw.append(time.perf_counter() - t0)
            scaled.append(raw[-1] * self.clock.scale())
        return raw, scaled

    def run_case(self, log, spans=None):
        """Run, time and check one case; oracle tallies or None."""
        from bilevel import bench

        case = log.case
        self.attempted += 1
        if spans is not None:
            spans.tag = case.id
        path = self.csv_dir / f"{case.id}.csv"
        try:
            t0 = time.perf_counter()
            results = bench.run_trials(
                case.problem, case.solver, pparams=case.pparams,
                cfg=case.cfg, trials=case.trials, seed=self.seed,
                record_every=case.record_every or case.K)
            bench.write_run_csv(path, results)
            wall = time.perf_counter() - t0
        except Exception:                       # the workload carries on
            self.failed += 1
            log.failures.append(traceback.format_exc(limit=3))
            self.clock.mark()
            return None
        in_trace = spans is not None
        log.raw[in_trace].append(wall)
        log.scaled[in_trace].append(wall * self.clock.scale())
        faults = check_case(case, results, self.dims[case.id])
        digest = trace_digest(results)
        want = self.expected.setdefault(case.id, digest)
        if digest != want:
            faults.append(f"trace digest {digest[:16]} != expected "
                            f"{want[:16]}")
        if faults:
            self.failed += 1
            log.failures.extend(faults)
        log.csv_bytes = path.stat().st_size
        counters = distinct_counters(results)
        return (sum(c.second_order_calls() for c in counters),
                max(c.peak_stored_vecs for c in counters))

    def timed_passes(self, budget_s, min_passes, spans=None):
        """Repeat passes over all cases while the next one fits the budget.

        Returns each pass's wall time.
        """
        passes = []
        start = time.perf_counter()
        while True:
            self.clock.mark()
            t0 = time.perf_counter()
            counts = {}
            for log in self.logs:
                tally = self.run_case(log, spans)
                if tally is not None:
                    acc = counts.setdefault(log.case.solver, [0, 0])
                    acc[0] += tally[0]
                    acc[1] = max(acc[1], tally[1])
            passes.append(time.perf_counter() - t0)
            self.counts = counts
            elapsed = time.perf_counter() - start
            if (len(passes) >= min_passes
                    and elapsed + statistics.median(passes) > budget_s):
                return passes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(runner, setup_times):
    """Throughput from each case's median scaled wall over the passes."""
    walls = {log.case.id: statistics.median(log.scaled[False])
             for log in runner.logs}
    groups = {"uiters_per_s": lambda c: True,
              **{f"{s}_uiters_per_s": (lambda c, s=s: c.solver == s)
                 for s in SOLVERS}}
    out = {}
    for name, member in groups.items():
        cases = [c for c in runner.cases if member(c)]
        out[name] = (sum(c.uiters for c in cases)
                     / sum(walls[c.id] for c in cases))
    out["setup_s"] = statistics.median(setup_times[1])
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    return out


def scaled_total(runner, in_trace):
    """Sum over cases of each case's median scaled wall."""
    return sum(statistics.median(log.scaled[in_trace]) for log in runner.logs)


def per_layer(runner, spans, traced_passes):
    npass = len(traced_passes)
    totals = spans.layer_totals()
    out = {}
    for layer in LAYERS:
        if layer not in totals:
            fail(f"traced pass never reached layer {layer}", code=3)
        calls, self_s = totals[layer]
        out[f"{layer}.calls"] = calls / npass
        out[f"{layer}.self_s"] = self_s / npass
    so_time = totals["problems.hvp_vv_g"][1] + totals["problems.jvp_uv_g"][1]
    out["problems.second_order.gb_per_s_computed"] = (
        sum(spans.bytes.values()) / so_time / 1e9)
    out["bench.write_run_csv.bytes"] = sum(log.csv_bytes
                                           for log in runner.logs)
    for s in SOLVERS:
        calls, peak = runner.counts.get(s, (0, 0))
        out[f"solvers.{s}.second_order_calls"] = calls
        out[f"solvers.{s}.peak_stored_vecs"] = peak
    out["trace.overhead_ratio"] = (scaled_total(runner, True)
                                   / scaled_total(runner, False))
    return out


def layer_splits(runner, spans, groups):
    """Each group's layer self time as a share of its traced case wall."""
    out = {}
    for gname, member in {"all": lambda c: True, **groups}.items():
        tags = {log.case.id for log in runner.logs if member(log.case)}
        wall = sum(sum(log.raw[True]) for log in runner.logs
                   if log.case.id in tags)
        totals = spans.layer_totals(tags)
        shares = {layer: s / wall for layer, (_, s) in totals.items()}
        shares["problems.*"] = sum(v for k, v in shares.items()
                                   if k.startswith("problems.")
                                   and k != "problems.factory")
        out[gname] = dict(sorted(shares.items(), key=lambda kv: -kv[1]))
    return out


def case_table(runner):
    rows = {}
    for log in runner.logs:
        if not log.raw[False]:
            continue
        wall = statistics.median(log.raw[False])
        rows[log.case.id] = {"median_wall_s": wall,
                             "raw_uiters_per_s": log.case.uiters / wall,
                             "median_scaled_wall_s":
                                 statistics.median(log.scaled[False])}
    return rows


def oracle_bound_diagnostics(runner, env):
    """Penalty and RMD wall per dim, crossover dim, working set vs caches.

    Walls are scaled seconds per u-iteration of a batch of trials.
    """
    walls = {}
    for log in runner.logs:
        dim = log.case.pparams.get("dim")
        if log.scaled[False] and log.case.solver in ("penalty", "rmd"):
            walls.setdefault(dim, {})[log.case.solver] = statistics.median(
                log.scaled[False]) / log.case.K
    dims = sorted(d for d in walls if len(walls[d]) == 2)
    crossover = next((d for d in dims
                      if walls[d]["penalty"] < walls[d]["rmd"]), None)
    trials = runner.cases[0].trials
    return {
        "scaled_wall_per_uiter_s": {str(d): walls[d] for d in dims},
        "crossover_dim": crossover,
        "working_set_mib": {str(d): trials * (d // 2) * d * 8 / 2**20
                            for d in dims},
        "l2_mib": (env["l2_bytes"] or 0) / 2**20,
        "l3_mib": (env["l3_bytes"] or 0) / 2**20,
    }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def load_reference(workload, seed, tiny, env, recording):
    """Reference digests that apply to this run, and why (not) applied."""
    if recording or tiny:
        return {}, "not applied (recording or tiny K)"
    if seed != DEFAULT_SEED:
        return {}, f"not applied (seed {seed} is not the recorded seed)"
    try:
        ref = json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return {}, "not applied (no reference.json)"
    if ref.get("fingerprint") != fingerprint(env):
        return {}, ("not applied (recorded on "
                    f"{ref.get('fingerprint')}, this is {fingerprint(env)})")
    digests = ref.get("digests", {}).get(workload)
    if not digests:
        return {}, f"not applied (no digests recorded for {workload})"
    return digests, "applied"


def record_reference(workload, runner, env):
    ref = (json.loads(REFERENCE.read_text()) if REFERENCE.exists()
           else {"digests": {}})
    if ref.get("fingerprint") not in (None, fingerprint(env)):
        ref["digests"] = {}
    ref["seed"] = DEFAULT_SEED
    ref["fingerprint"] = fingerprint(env)
    ref["digests"][workload] = {log.case.id: runner.expected[log.case.id]
                                for log in runner.logs}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def run(args):
    import_program()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    cases = [c.with_k_max(TINY_K) for c in wl.cases] if args.tiny else wl.cases
    env = environment()
    if args.record_reference and (args.seed != DEFAULT_SEED or args.tiny):
        fail(f"--record-reference needs the default seed {DEFAULT_SEED} "
             f"and full K")
    reference, ref_status = load_reference(wl.name, args.seed, args.tiny,
                                           env, args.record_reference)
    runner = Runner(wl, cases, args.seed, reference)
    min_passes = 1 if args.tiny else 3

    quick = args.tiny or args.trace         # setup_s is not reported then
    setup_times = runner.measure_setup(1 if quick else 5,
                                       0.0 if quick else 1.0)
    diagnostics = {"reference_digests": ref_status}
    if args.trace:
        runner.timed_passes(args.seconds / 2, min_passes)
        spans = Spans()
        with traced(spans):
            traced_passes = runner.timed_passes(args.seconds / 2, 1, spans)
        metrics = per_layer(runner, spans, traced_passes)
        diagnostics["layer_share_of_traced_wall"] = layer_splits(
            runner, spans, wl.groups)
        diagnostics["all_layers_per_pass"] = {
            layer: {"calls": n / len(traced_passes),
                    "self_s": s / len(traced_passes)}
            for layer, (n, s) in sorted(spans.layer_totals().items())}
        units = PER_LAYER
    else:
        passes = runner.timed_passes(args.seconds, min_passes)
        metrics = end_to_end(runner, setup_times)
        diagnostics["pass_walls_s"] = passes
        diagnostics["raw_uiters_per_s"] = (
            sum(c.uiters for c in runner.cases)
            / sum(statistics.median(log.raw[False]) for log in runner.logs))
        diagnostics["setup_raw_median_s"] = statistics.median(setup_times[0])
        diagnostics["setup_reps"] = len(setup_times[0])
        units = END_TO_END
    diagnostics["cases"] = case_table(runner)
    if wl.name == "oracle_bound":
        diagnostics["oracle_bound"] = oracle_bound_diagnostics(runner, env)

    if args.record_reference:
        if runner.failed:
            fail("not recording a reference from a run with failed cases",
                 code=1)
        record_reference(wl.name, runner, env)
        print(f"recorded {len(runner.logs)} digests for {wl.name} "
              f"in {REFERENCE}")

    failures = {log.case.id: log.failures[:3] for log in runner.logs
                if log.failures}
    for cid, msgs in failures.items():
        print(f"FAILED {cid}: {msgs[0].strip()}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }
    record = {"workload": wl.name, "why": wl.why,
              "stresses": wl.stresses, "bypasses": wl.bypasses,
              "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "environment": env,
              "result": result, "failures": failures,
              "diagnostics": diagnostics}
    OUT_DIR.mkdir(exist_ok=True)
    out = (OUT_DIR / f"{wl.name}_seed{args.seed}_trace{args.trace}"
           f"{'_tiny' if args.tiny else ''}.json")
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"{wl.name}: seed={args.seed} trace={args.trace} "
          f"reference digests {ref_status}; full record in {out}")
    print(json.dumps(result))


def smoke():
    """Every workload at tiny K, both modes, in fresh processes."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    errors = []
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if declared != table:
            errors.append(f"BENCHMARK.json {key} differs from run.py: "
                          f"{sorted(set(declared.items()) ^ set(table.items()))}")
    t_start = time.perf_counter()
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", wl, "--seed", str(DEFAULT_SEED),
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=SMOKE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                errors.append(f"{wl} trace={trace}: timed out")
                continue
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                errors.append(f"{wl} trace={trace}: exit {proc.returncode}: "
                              f"{proc.stderr.strip()[-500:]}")
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                errors.append(f"{wl} trace={trace}: {res['failed']} of "
                              f"{res['attempted']} case runs failed: "
                              f"{proc.stderr.strip()[-500:]}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = {k: v[0] for k, v in table.items()}
            if got != want:
                errors.append(f"{wl} trace={trace}: metrics differ: "
                              f"{sorted(set(got.items()) ^ set(want.items()))}")
            bad = [k for k, v in res["metrics"].items()
                   if not isinstance(v["value"], (int, float))
                   or not math.isfinite(v["value"])]
            if bad:
                errors.append(f"{wl} trace={trace}: non-finite {bad}")
            print(f"smoke {wl} trace={trace}: {len(got)} metrics, "
                  f"{res['attempted']} case runs", flush=True)
    for e in errors:
        print(f"smoke FAILED: {e}", file=sys.stderr)
    print(f"smoke {'failed' if errors else 'ok'} in "
          f"{time.perf_counter() - t_start:.1f}s")
    return 1 if errors else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny K and check the metrics")
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's trace digests as the reference")
    args = ap.parse_args(argv)
    if args.smoke:
        import_program()
        return smoke()
    if not args.workload:
        ap.error("--workload is required (or --smoke)")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
