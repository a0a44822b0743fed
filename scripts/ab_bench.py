#!/usr/bin/env python3
"""A/B benchmark of two checkouts: alternating pairs of perfbench runs.

    python3 scripts/ab_bench.py PARENT CHANGE --workload curves \
        --pairs 10 --seconds 30 --seed0 1600 --label my_change

PARENT and CHANGE are two checkouts of the repository (for example
`git clone` copies at two commits). Pair i runs, in each checkout and
unchanged, `python3 perfbench/run.py --workload W --seed X+i --seconds S
--trace 0`; even pairs run PARENT first, odd pairs CHANGE first, so a
drift in the host's speed does not favour one side.

It writes BENCH_<label>.json (in --out-dir, default the working
directory) with the environment fingerprint, both commits, every run's
result, and per end-to-end metric of BENCHMARK.json: each side's median
and quartiles, the change/parent ratio of the medians, the pairs the
change won, and whether the change stays within the metric's bound of
the parent. `crossover_dim` (oracle_bound's dim from which penalty beats
RMD on wall time; null on other workloads) is reported for both sides.
Per case, `cases` gives each side's median over its runs of the case's
`median_scaled_wall_s` and the change/parent ratio, so a change that
moves one case shows where. Each run entry keeps its
`reference_digests` status. A Markdown table of the metrics and one of
the cases go to stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

# the fields a bit-identical trace depends on, as perfbench/run.py
# reads them, plus what else the speed of a run depends on
FINGERPRINT = ("machine", "cpu_model", "simd_sha1", "numpy", "openblas",
               "nproc", "python", "l2_bytes", "l3_bytes", "threads")


def run_once(checkout: Path, workload, seed, seconds):
    """One perfbench run in `checkout`; its result and full record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=4 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"ab_bench: {' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = json.loads((checkout / ".perfbench_out"
                         / f"{workload}_seed{seed}_trace0.json").read_text())
    return result, record


def src_sha1(checkout: Path):
    """Digest of the checkout's src/ files, names and bytes: it names the
    code that ran even when the checkout's commit is dirty or local."""
    h = hashlib.sha1()
    for f in sorted((checkout / "src").rglob("*.py")):
        h.update(str(f.relative_to(checkout)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(metric, parent, change):
    """Medians, quartiles, wins and the bound check of one metric."""
    higher = metric["better"] == "higher"
    bound = metric["bound"]
    p, c = quartiles(parent), quartiles(change)
    ratio = c["median"] / p["median"]
    wins = sum((b > a) if higher else (b < a) for a, b in zip(parent, change))
    within = ratio >= 1.0 - bound if higher else ratio <= 1.0 + bound
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": bound,
        "parent": {**p, "runs": parent}, "change": {**c, "runs": change},
        "ratio": ratio, "wins": wins, "pairs": len(parent),
        # a gain is resolved when the change wins nine pairs in ten and
        # its median clears the parent's interquartile range
        "gain_resolved": (wins >= 0.9 * len(parent)
                          and abs(c["median"] - p["median"])
                          > p["q3"] - p["q1"]),
        "within_bound": within,
    }


def case_summary(parent, change):
    """Per case: each side's median over its runs of the case's
    `median_scaled_wall_s`, and the change/parent ratio. `parent` and
    `change` are lists of run records (perfbench's full JSON record)."""
    walls = {}
    for side, records in (("parent", parent), ("change", change)):
        for rec in records:
            for case, row in rec["diagnostics"].get("cases", {}).items():
                walls.setdefault(case, {"parent": [], "change": []})[
                    side].append(row["median_scaled_wall_s"])
    out = {}
    for case, w in walls.items():
        if not (w["parent"] and w["change"]):
            continue
        p, c = statistics.median(w["parent"]), statistics.median(w["change"])
        out[case] = {"parent_s": p, "change_s": c, "ratio": c / p}
    return out


def crossover(records):
    dims = [r["diagnostics"].get("oracle_bound", {}).get("crossover_dim")
            for r in records]
    return {"runs": dims, "mode": statistics.mode(dims) if dims else None}


def markdown(workload, metrics):
    rows = ["| workload | metric | parent | change | change/parent | wins |"
            " bound |",
            "|---|---|---|---|---|---|---|"]
    for name, m in metrics.items():
        side = {k: f"{m[k]['median']:.4g} [{m[k]['q1']:.4g}, "
                   f"{m[k]['q3']:.4g}]" for k in ("parent", "change")}
        rows.append(f"| {workload} | {name} | {side['parent']} | "
                    f"{side['change']} | {m['ratio']:.3f} | "
                    f"{m['wins']}/{m['pairs']} | "
                    f"{'pass' if m['within_bound'] else 'FAIL'} |")
    return "\n".join(rows)


def case_markdown(workload, cases):
    rows = ["| workload | case | parent ms | change ms | change/parent |",
            "|---|---|---|---|---|"]
    for name, c in cases.items():
        rows.append(f"| {workload} | {name} | {c['parent_s'] * 1e3:.4g} | "
                    f"{c['change_s'] * 1e3:.4g} | {c['ratio']:.3f} |")
    return "\n".join(rows)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be >= 2 (quartiles need two runs a side)")
    spec_path = next((d / "BENCHMARK.json" for d in (args.change, args.parent)
                      if (d / "BENCHMARK.json").is_file()), None)
    if spec_path is None:
        ap.error("neither checkout has a BENCHMARK.json")
    spec = json.loads(spec_path.read_text())

    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, record = run_once(sides[side], args.workload, seed,
                                      args.seconds)
            runs[side].append({"seed": seed, "first": side == order[0],
                               "result": result, "record": record})
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: correct "
                  f"{result['correct']}, failed {result['failed']}",
                  file=sys.stderr)

    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        vals = {side: [r["result"]["metrics"][name]["value"]
                       for r in runs[side]] for side in sides}
        metrics[name] = summarize(metric, vals["parent"], vals["change"])
    env = {side: runs[side][0]["record"]["environment"] for side in sides}
    out = {
        "workload": args.workload,
        "label": args.label,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": [args.seed0 + i for i in range(args.pairs)],
        "environment": {k: env["parent"].get(k) for k in FINGERPRINT},
        "same_fingerprint": all(env["parent"].get(k) == env["change"].get(k)
                                for k in FINGERPRINT),
        "commits": {side: {"checkout": sides[side].name,
                           "commit": env[side].get("commit"),
                           "dirty": env[side].get("dirty"),
                           "src_sha1": src_sha1(sides[side])}
                    for side in sides},
        "all_correct": all(r["result"]["correct"] and not r["result"]["failed"]
                           for side in sides for r in runs[side]),
        "all_within_bound": all(m["within_bound"] for m in metrics.values()),
        "metrics": metrics,
        "crossover_dim": {side: crossover([r["record"] for r in runs[side]])
                          for side in sides},
        "cases": case_summary([r["record"] for r in runs["parent"]],
                              [r["record"] for r in runs["change"]]),
        "runs": {side: [{"seed": r["seed"], "first": r["first"],
                         "correct": r["result"]["correct"],
                         "failed": r["result"]["failed"],
                         "reference_digests":
                             r["record"]["diagnostics"].get(
                                 "reference_digests"),
                         "cases": r["record"]["diagnostics"].get("cases")}
                        for r in runs[side]] for side in sides},
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(markdown(args.workload, metrics))
    print()
    print(case_markdown(args.workload, out["cases"]))
    print(f"all correct: {out['all_correct']}; all within bound: "
          f"{out['all_within_bound']}; written to {path}")
    return 0 if out["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
