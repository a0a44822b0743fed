#!/usr/bin/env python3
"""Run a checkout's shipped configs, or compare the CSVs of two such runs.

    python3 scripts/config_csvs.py write CHECKOUT OUTDIR
    python3 scripts/config_csvs.py compare DIR_A DIR_B

``write`` runs every ``scripts/configs/*.ini`` of CHECKOUT through that
checkout's own ``bilevel`` CLI, at TRIALS trials, with each config's
CSVs under OUTDIR: a config with a ``[sweep]`` section runs as
``sweep``, one with several ``[solver.*]`` sections as ``compare``, any
other as ``run``. ``compare`` exits 1 unless both directories hold the
same CSV names and each pair of CSVs is equal once the wall-time
columns are dropped; it prints each file that differs.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import subprocess
import sys
from pathlib import Path

WALL_COLUMNS = {"wall_seconds", "wall_mean_seconds"}
TRIALS = 3


def command_of(config: Path) -> str:
    """The CLI command that runs a config file."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(config)
    if parser.has_section("sweep"):
        return "sweep"
    solvers = [s for s in parser.sections() if s.startswith("solver.")]
    return "compare" if len(solvers) > 1 else "run"


def write(checkout: Path, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    for config in sorted((checkout / "scripts" / "configs").glob("*.ini")):
        cmd = [sys.executable, "-m", "bilevel.cli", command_of(config),
               "--config", str(config.resolve()), "--trials", str(TRIALS),
               "--out", str(outdir.resolve() / f"{config.stem}.csv"),
               "--quiet"]
        print(" ".join(cmd[2:]), flush=True)
        subprocess.run(cmd, cwd=checkout, env=env, check=True)


def without_wall(path: Path) -> list:
    """The rows of a CSV with the wall-time columns dropped."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0] if rows else [])
            if name not in WALL_COLUMNS]
    return [[row[i] for i in keep] for row in rows]


def differing(dir_a: Path, dir_b: Path) -> list:
    """The CSV names that are in one directory only, or unequal apart
    from the wall-time columns."""
    names_a = {p.name for p in dir_a.glob("*.csv")}
    names_b = {p.name for p in dir_b.glob("*.csv")}
    return sorted((names_a ^ names_b)
                  | {n for n in names_a & names_b
                     if without_wall(dir_a / n) != without_wall(dir_b / n)})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="run a checkout's shipped configs")
    w.add_argument("checkout", type=Path)
    w.add_argument("outdir", type=Path)
    c = sub.add_parser("compare", help="compare two directories of CSVs")
    c.add_argument("dir_a", type=Path)
    c.add_argument("dir_b", type=Path)
    args = ap.parse_args(argv)
    if args.command == "write":
        write(args.checkout, args.outdir)
        return 0
    differ = differing(args.dir_a, args.dir_b)
    total = len({p.name for d in (args.dir_a, args.dir_b)
                 for p in d.glob("*.csv")})
    for name in differ:
        print(f"CSV differs: {name}")
    print(f"{total - len(differ)} of {total} CSVs equal apart from the "
          f"wall-time columns")
    return 1 if differ or not total else 0


if __name__ == "__main__":
    sys.exit(main())
