import csv
import dataclasses
import importlib.util
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevel import bench, hypergrad, problems
from bilevel.bench import (RUN_COLUMNS, SOLVER_KEYS, SOLVER_NAMES,
                           TrialResult, _fmt,
                           _run_chunk,
                           load_run_setup, run_trials, summarize,
                           worker_count, write_run_csv)
from bilevel.cli import main
from bilevel.core import derive_seed
from bilevel.errors import ConfigError, ConvergenceError, NumericError
from bilevel.problems import (PROBLEMS, ProblemSpec, get_problem,
                              make_synthetic)
from bilevel.solvers import OracleCounters, SolverTrace, TraceRow
from helpers import traces_equal


def write_config(path, text):
    path.write_text(text)
    return str(path)


BASE_CONFIG = """
[problem]
name = example1
dim = 6

[solver]
name = penalty
K = 40
T = 2
sigma0 = 1e-3
rho0 = 1e-4
gamma0 = 1.0
eps0 = 1.0
lambda0 = 10.0

[run]
trials = 2
record_every = 20
seed = 3
"""


# plain-gd at step 10 on the quadratic: aborts at u-iteration 7
DIVERGING = dict(K=200, stepper="plain-gd", rho0=10.0, sigma0=10.0)


class TestConfigParsing:
    def test_full_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", BASE_CONFIG)
        setup = load_run_setup(cfg)
        assert setup.problem == "example1"
        assert setup.problem_params == {"dim": 6}
        assert setup.trials == 2 and setup.seed == 3
        assert setup.solvers[0].name == "penalty"
        assert setup.solvers[0].cfg["K"] == 40

    def test_unknown_solver_key(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg",
                           BASE_CONFIG.replace("sigma0", "sigma"))
        with pytest.raises(ConfigError, match="sigma"):
            load_run_setup(cfg)

    def test_unknown_problem(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg",
                           BASE_CONFIG.replace("example1", "example99"))
        with pytest.raises(Exception):
            load_run_setup(cfg)

    def test_missing_solver(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", "[problem]\nname = example1\n")
        with pytest.raises(ConfigError, match="solver"):
            load_run_setup(cfg)

    def test_record_every_exceeds_budget(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg",
                           BASE_CONFIG.replace("record_every = 20",
                                               "record_every = 99"))
        with pytest.raises(ConfigError, match="record_every"):
            load_run_setup(cfg)

    def test_overrides(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", BASE_CONFIG)
        setup = load_run_setup(cfg, overrides={"seed": 9, "trials": 5,
                                               "out": "x.csv"})
        assert setup.seed == 9 and setup.trials == 5 and setup.out == "x.csv"

    def test_sweep_section(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg",
                           BASE_CONFIG + "\n[sweep]\naxis = T\nvalues = 1,2\n")
        setup = load_run_setup(cfg)
        assert setup.sweep_axis == "T" and setup.sweep_values == [1, 2]

    def test_sweep_bad_axis(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg",
                           BASE_CONFIG + "\n[sweep]\naxis = rho0\nvalues = 1\n")
        with pytest.raises(ConfigError, match="axis"):
            load_run_setup(cfg)

    @pytest.mark.parametrize("line", ["trials = 2", "record_every = 20",
                                      "seed = 3"])
    def test_run_value_not_an_integer(self, tmp_path, line):
        key = line.split()[0]
        cfg = write_config(tmp_path / "a.cfg",
                           BASE_CONFIG.replace(line, f"{key} = abc"))
        with pytest.raises(ConfigError, match=key):
            load_run_setup(cfg)
        assert main(["run", "--config", cfg, "--quiet"]) == 2

    def test_unknown_problem_key(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", BASE_CONFIG.replace(
            "dim = 6", "dim = 6\nbogus = 3"))
        with pytest.raises(ConfigError, match="bogus"):
            load_run_setup(cfg)
        assert main(["run", "--config", cfg, "--quiet"]) == 2

    @pytest.mark.parametrize("trials", [1, 2])
    @pytest.mark.parametrize("value", ["abc", "2.5", "-3", "0"])
    def test_bad_problem_value_exit_2(self, tmp_path, capsys, value,
                                      trials):
        # trials = 2 goes through the batched factory
        cfg = write_config(tmp_path / "a.cfg", BASE_CONFIG.replace(
            "dim = 6", f"dim = {value}").replace(
            "trials = 2", f"trials = {trials}"))
        assert main(["run", "--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "dim" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("problem, params", [
        ("importance_toy", "n_train = -5"),
        ("importance_toy", "n_val = 0"),
        ("poison_toy", "n_train = 5"),        # below n_poison = 10
        ("poison_toy", "n_val = 0"),
        ("quadratic", "dim_u = 0"),
    ])
    def test_out_of_range_problem_size_exit_2(self, tmp_path, capsys,
                                              problem, params):
        cfg = write_config(tmp_path / "a.cfg", BASE_CONFIG.replace(
            "name = example1\ndim = 6", f"name = {problem}\n{params}"))
        assert main(["run", "--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_approx_lin_solver_is_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "a.cfg", BASE_CONFIG.replace(
            "name = penalty", "name = approxgrad\napprox_lin_solver = cg"))
        assert main(["run", "--config", cfg, "--quiet"]) == 2
        assert "unknown key 'approx_lin_solver'" in capsys.readouterr().err

    def test_while_cap_is_unknown_key(self, tmp_path, capsys):
        # the penalty schedule advances on its tolerance test alone
        cfg = write_config(tmp_path / "a.cfg", BASE_CONFIG.replace(
            "name = penalty", "name = penalty\nwhile_cap = 5"))
        assert main(["run", "--config", cfg, "--quiet"]) == 2
        assert "unknown key 'while_cap'" in capsys.readouterr().err

    def test_float_problem_value_takes_an_int(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", BASE_CONFIG.replace(
            "name = example1\ndim = 6", "name = ridge\nreg_true = 3"))
        assert load_run_setup(cfg).problem_params == {"reg_true": 3}
        cfg = write_config(tmp_path / "b.cfg", BASE_CONFIG.replace(
            "name = example1\ndim = 6", "name = ridge\nreg_true = x"))
        with pytest.raises(ConfigError, match="reg_true"):
            load_run_setup(cfg)

    @pytest.mark.parametrize("line", ["seed = 3", "gamma0 = 3", "K = 2.5",
                                      "stepper = 3", "sigma0 = abc"])
    def test_solver_value_has_its_default_type(self, tmp_path, capsys,
                                               line):
        # seed is no [solver] key: each trial supplies its own
        key = line.split()[0]
        cfg = write_config(tmp_path / "a.cfg", "[problem]\nname = example1\n"
                           f"\n[solver]\nname = penalty\n{line}\n")
        if line == "gamma0 = 3":
            value = load_run_setup(cfg).solvers[0].cfg[key]
            assert type(value) is float and value == 3.0
        else:
            assert main(["run", "--config", cfg, "--quiet"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and repr(key) in err
            assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("line", ["sigma0 = 0", "rho0 = -1",
                                      "sigma0 = nan"])
    def test_step_size_must_be_positive(self, tmp_path, capsys, line):
        key = line.split()[0]
        text = "\n".join(line if row.startswith(f"{key} =") else row
                         for row in BASE_CONFIG.splitlines())
        cfg = write_config(tmp_path / "a.cfg", text)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be positive")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("solver, line", [
        ("penalty", "approx_reg = 0.1"),
        ("penalty_plain", "lambda0 = 1.0"),
        ("penalty_plain", "nu0 = 0.5"),
        ("penalty_plain", "c_lambda = 0.5"),
        ("gd", "gamma0 = 2.0"),
        ("rmd", "c_gamma = 1.5"),
        ("fmd", "eps0 = 0.5"),
        ("approxgrad", "c_gamma = 1.2"),
    ])
    def test_key_the_solver_does_not_read_exit_2(self, tmp_path, capsys,
                                                 solver, line):
        key = line.split()[0]
        cfg = write_config(tmp_path / "a.cfg", "[problem]\nname = example1\n"
                           f"\n[solver]\nname = {solver}\nK = 5\n{line}\n")
        assert main(["run", "--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert repr(key) in err and repr(solver) in err

    @pytest.mark.parametrize("axis", ["gamma0", "lambda0", "eps0"])
    def test_sweep_axis_a_solver_does_not_read_exit_2(self, tmp_path,
                                                       capsys, axis):
        cfg = write_config(tmp_path / "a.cfg", COMPARE_CONFIG
                           + f"\n[sweep]\naxis = {axis}\nvalues = 1, 2\n")
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert repr(axis) in err and "'gd'" in err
        assert not list(tmp_path.glob("s*.csv"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["sigma0", "rho0", "gamma0", "eps0",
                                     "lambda0", "nu0", "c_gamma", "c_eps",
                                     "c_lambda", "approx_reg"])
    def test_non_finite_solver_value_exit_2(self, tmp_path, capsys, key,
                                            value):
        solver = "approxgrad" if key == "approx_reg" else "penalty"
        cfg = write_config(tmp_path / "a.cfg", "[problem]\nname = example1\n"
                           f"\n[solver]\nname = {solver}\nK = 20\nT = 2\n"
                           f"{key} = {value}\n\n[run]\ntrials = 2\n")
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert key in err and not out.exists()

    def test_non_finite_sweep_value_exit_2_before_any_run(self, tmp_path,
                                                          capsys):
        cfg = write_config(tmp_path / "a.cfg", BASE_CONFIG
                           + "\n[sweep]\naxis = gamma0\nvalues = 1, nan\n")
        assert main(["sweep", "--config", cfg, "--out",
                     str(tmp_path / "s.csv"), "--quiet"]) == 2
        assert "gamma0" in capsys.readouterr().err
        assert not list(tmp_path.glob("s*.csv"))

    @pytest.mark.parametrize("solver", sorted(SOLVER_KEYS))
    def test_every_read_key_moves_the_run(self, solver):
        # each key a solver accepts changes its trace, counters or final
        # point when moved off the base value; an eps0 far above |grad|
        # with c_eps = 1 makes the penalty schedule advance on every
        # u-iteration
        moved = dict(K=5, T=3, sigma0=2e-3, rho0=2e-4, gamma0=2.0, eps0=2.0,
                     lambda0=5.0, nu0=0.5, c_gamma=1.5, c_eps=0.5,
                     c_lambda=0.5, stepper="plain-gd", approx_reg=0.5)
        keys = SOLVER_KEYS[solver]
        base = {k: v for k, v in dict(K=4, T=2, eps0=1e100, c_eps=1.0).items()
                if k in keys}

        def run(cfg):
            [res] = run_trials("example1", solver, pparams={"dim": 4},
                               cfg=cfg, record_every=1)
            return res

        ref = run(base)
        for key in sorted(keys):
            res = run(dict(base, **{key: moved[key]}))
            assert not (traces_equal(res.trace, ref.trace)
                        and res.counters == ref.counters
                        and res.final_point.u.tobytes()
                        == ref.final_point.u.tobytes()), key

    @pytest.mark.parametrize("path", sorted(
        (Path(__file__).parents[1] / "scripts" / "configs").glob("*.ini")),
        ids=lambda p: p.name)
    def test_shipped_configs_load(self, path):
        setup = load_run_setup(path)
        assert setup.solvers

    def test_sweep_empty_values(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg",
                           BASE_CONFIG + "\n[sweep]\naxis = T\nvalues =\n")
        with pytest.raises(ConfigError, match="values"):
            load_run_setup(cfg)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def strip_wall(rows):
    wall_idx = [i for i, c in enumerate(rows[0]) if "wall" in c]
    return [[c for i, c in enumerate(row) if i not in wall_idx]
            for row in rows]


class TestCmdRun:
    def test_run_writes_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "a.cfg", BASE_CONFIG)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert tuple(rows[0]) == RUN_COLUMNS
        # 2 trials x (k=19 and k=39)
        assert len(rows) == 1 + 2 * 2
        assert {r[0] for r in rows[1:]} == {"0", "1"}

    def test_single_row_when_record_every_is_budget(self, tmp_path):
        text = BASE_CONFIG.replace("trials = 2", "trials = 1") \
                          .replace("record_every = 20", "record_every = 40")
        cfg = write_config(tmp_path / "a.cfg", text)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        rows = read_csv(out)
        assert len(rows) == 2    # header + exactly one data row

    def test_byte_identical_reruns_modulo_wall(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", BASE_CONFIG)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        main(["run", "--config", cfg, "--out", str(out1), "--quiet"])
        main(["run", "--config", cfg, "--out", str(out2), "--quiet"])
        assert strip_wall(read_csv(out1)) == strip_wall(read_csv(out2))

    def test_malformed_config_exit_2_no_file(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg",
                           BASE_CONFIG.replace("gamma0", "gamma_zero"))
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, where):
        # np.random.SeedSequence takes no negative entropy
        text = BASE_CONFIG if where == "flag" else BASE_CONFIG.replace(
            "seed = 3", "seed = -3")
        cfg = write_config(tmp_path / "a.cfg", text)
        out = tmp_path / "out.csv"
        argv = ["run", "--config", cfg, "--out", str(out), "--quiet"]
        if where == "flag":
            argv += ["--seed", "-1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: seed must be >= 0")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_numeric_abort_exit_3(self, tmp_path):
        # plain-gd with an absurd step on an unboxed problem overflows
        text = """
[problem]
name = ridge

[solver]
name = gd
K = 50
T = 2
sigma0 = 1e200
rho0 = 1e200
stepper = plain-gd

[run]
trials = 1
record_every = 50
seed = 0
"""
        cfg = write_config(tmp_path / "a.cfg", text)
        code = main(["run", "--config", cfg, "--out",
                     str(tmp_path / "o.csv"), "--quiet"])
        assert code == 3

    def test_numeric_abort_writes_partial_csv(self, tmp_path, monkeypatch):
        # plain-gd at step 10 diverges on the quadratic; the abort comes
        # at u-iteration 7, after 7 recorded rows. One worker runs the
        # trials in order
        monkeypatch.delenv("BILEVEL_THREADS", raising=False)
        text = """
[problem]
name = quadratic

[solver]
name = penalty_plain
stepper = plain-gd
rho0 = 10
sigma0 = 10
K = 200

[run]
record_every = 1
"""
        cfg = write_config(tmp_path / "a.cfg", text)
        out = tmp_path / "o.csv"
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 3
        rows = read_csv(out)
        assert tuple(rows[0]) == RUN_COLUMNS
        assert [r[:2] for r in rows[1:]] == [["0", str(k)] for k in range(7)]
        with pytest.raises(NumericError, match="u-iteration 7") as err:
            run_trials("quadratic", "penalty_plain", cfg=DIVERGING,
                       trials=2, record_every=1)
        # trial 0 aborted, so trial 1 never ran
        assert [r.trial for r in err.value.results] == [0]
        assert len(err.value.results[0].trace) == 7
        assert err.value.results[0].final_point is None

    def test_numeric_abort_on_two_workers_keeps_both_trials(self,
                                                            monkeypatch):
        # each worker runs one trial, and each aborts at u-iteration 7
        monkeypatch.setenv("BILEVEL_THREADS", "2")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(NumericError, match="u-iteration 7") as err:
            run_trials("quadratic", "penalty_plain", cfg=DIVERGING,
                       trials=2, record_every=1)
        results = err.value.results
        assert [r.trial for r in results] == [0, 1]
        assert [len(r.trace) for r in results] == [7, 7]
        assert all(r.final_point is None for r in results)


COMPARE_CONFIG = """
[problem]
name = example2
dim = 4

[solver.a]
name = penalty
K = 30
T = 2

[solver.b]
name = penalty
K = 30
T = 2

[solver.gd]
name = gd
K = 30
T = 2

[run]
trials = 2
record_every = 30
seed = 1
"""


class TestCmdCompare:
    def test_identical_entries_identical_rows(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", COMPARE_CONFIG)
        out = tmp_path / "summary.csv"
        assert main(["compare", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        rows = read_csv(out)
        header = rows[0]
        by_label = {r[0]: r for r in rows[1:]}
        a, b = by_label["a"], by_label["b"]
        for col, va, vb in zip(header, a, b):
            if col in ("label", "wall_mean_seconds"):
                continue
            assert va == vb, col
        assert len(rows) == 4

    def test_compare_needs_two_solvers(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", BASE_CONFIG)
        assert main(["compare", "--config", cfg, "--quiet"]) == 2


class TestCmdSweep:
    def test_sweep_outputs(self, tmp_path):
        text = BASE_CONFIG + "\n[sweep]\naxis = T\nvalues = 1, 2\n"
        cfg = write_config(tmp_path / "s.cfg", text)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        summary = read_csv(tmp_path / "sweep_summary.csv")
        assert len(summary) == 3
        per_value = read_csv(tmp_path / "sweep_solver_T=1.csv")
        assert tuple(per_value[0]) == RUN_COLUMNS

    def test_summary_matches_recomputation(self, tmp_path):
        text = BASE_CONFIG + "\n[sweep]\naxis = T\nvalues = 1, 2\n"
        cfg = write_config(tmp_path / "s.cfg", text)
        out = tmp_path / "sweep.csv"
        main(["sweep", "--config", cfg, "--out", str(out), "--quiet"])
        summary = read_csv(tmp_path / "sweep_summary.csv")
        header = summary[0]
        for row in summary[1:]:
            value = row[header.index("value")]
            per = read_csv(tmp_path / f"sweep_solver_T={value}.csv")
            cols = per[0]
            finals = {}
            for r in per[1:]:
                finals[r[cols.index("trial")]] = float(
                    r[cols.index("distance")])
            vals = np.array(list(finals.values()))
            assert abs(float(row[header.index("final_mean")])
                       - vals.mean()) < 1e-12
            assert abs(float(row[header.index("final_sd")])
                       - vals.std()) < 1e-12


def test_summary_csv_bytes(tmp_path):
    # a label needing csv quoting, an empty and two numeric sweep values
    # and an all-NaN row, against fixed bytes
    nan = float("nan")
    rows = [
        dict(label='a,"b"', solver="penalty", value="", trials=3,
             final_mean=0.1, final_sd=1e-17, final_median=2.5,
             n_hvp_total=12, n_jvp_total=0, second_order_total=12,
             peak_stored_vecs=1, wall_mean_seconds=0.012345678901234567),
        dict(label="sw", solver="rmd", value=0.001, trials=1,
             final_mean=nan, final_sd=nan, final_median=nan,
             n_hvp_total=0, n_jvp_total=7, second_order_total=7,
             peak_stored_vecs=40, wall_mean_seconds=1.0),
        dict(label="T", solver="gd", value=20, trials=2, final_mean=-0.0,
             final_sd=1e300, final_median=float("inf"), n_hvp_total=0,
             n_jvp_total=0, second_order_total=0, peak_stored_vecs=0,
             wall_mean_seconds=3.0),
    ]
    path = bench.write_summary_csv(tmp_path / "s.csv", rows)
    assert path.read_bytes() == (
        b"label,solver,value,trials,final_mean,final_sd,final_median,"
        b"n_hvp_total,n_jvp_total,second_order_total,peak_stored_vecs,"
        b"wall_mean_seconds\r\n"
        b'"a,""b""",penalty,,3,0.10000000000000001,1.0000000000000001e-17,'
        b"2.5,12,0,12,1,0.012345678901234567\r\n"
        b"sw,rmd,0.001,1,nan,nan,nan,0,7,7,40,1\r\n"
        b"T,gd,20,2,-0,1.0000000000000001e+300,inf,0,0,0,0,3\r\n")


class TestCmdCheck:
    def test_oracle_level(self, capsys):
        assert main(["check", "example1", "oracle"]) == 0

    def test_lemma_level(self):
        assert main(["check", "example1", "lemma3"]) == 0

    def test_hypergrad_level_quadratic(self):
        assert main(["check", "quadratic", "hypergrad"]) == 0

    def test_hypergrad_level_singular_is_expected_pass(self, capsys):
        assert main(["check", "example3", "hypergrad"]) == 0
        assert "singular" in capsys.readouterr().out

    @pytest.mark.parametrize("problem", ["example3", "example4"])
    def test_lemma_level_singular_is_expected_pass(self, capsys, problem):
        assert main(["check", problem, "lemma3"]) == 0
        assert "singular by design" in capsys.readouterr().out

    def test_lemma_level_importance_toy(self):
        assert main(["check", "importance_toy", "lemma3"]) == 0

    def test_lemma_level_stalled_solve_is_one_fail_line(self, capsys,
                                                        monkeypatch):
        def stalled(*args, **kwargs):
            raise ConvergenceError(
                "penalized v-minimization: stalled at residual 9.196e-01")
        monkeypatch.setattr(hypergrad, "minimize_penalty_v", stalled)
        assert main(["check", "example1", "lemma3"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL: penalized v-minimization")
        assert out.count("\n") == 1

    @staticmethod
    def refused_before_any_solve(monkeypatch, capsys, level):
        # a constrained problem is refused before any lower-level solve
        called = []
        for name in ("hypergrad_estimates", "solve_lower_level"):
            monkeypatch.setattr(bench, name,
                                lambda *a, name=name, **k: called.append(name))
        assert main(["check", "constrained_toy", level]) == 2
        assert called == []
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert level in err and "constrained_toy" in err

    def test_lemma_on_constrained_is_config_error(self, monkeypatch, capsys):
        self.refused_before_any_solve(monkeypatch, capsys, "lemma3")

    def test_hypergrad_on_constrained_is_config_error(self, monkeypatch,
                                                      capsys):
        self.refused_before_any_solve(monkeypatch, capsys, "hypergrad")

    def test_unknown_problem(self):
        assert main(["check", "nonexistent", "oracle"]) == 2

    def test_negative_seed_exit_2(self, capsys):
        assert main(["check", "example1", "oracle", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: seed must be >= 0, got -1\n"


class TestRunTrialsApi:
    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            run_trials("example1", "penalty", cfg=dict(K=2, T=1), seed=-1)

    @pytest.mark.parametrize("cfg, key, what", [
        ({"K": 2.5}, "K", "an integer"), ({"K": 3.0}, "K", "an integer"),
        ({"T": "3"}, "T", "an integer"), ({"K": True}, "K", "an integer"),
        ({"rho0": True}, "rho0", "a real number"),
        ({"sigma0": "0.1"}, "sigma0", "a real number")],
        ids=["K-2.5", "K-3.0", "T-str", "K-bool", "rho0-bool", "sigma0-str"])
    def test_mistyped_number_rejected_before_any_build(self, monkeypatch,
                                                       cfg, key, what):
        # before, K=2.5 and T="3" died with a raw TypeError, and the bools
        # ran as 1 u-iteration or at rate 1.0
        def no_build(*args):
            raise AssertionError("an instance was built")
        monkeypatch.setattr(bench, "_built", no_build)
        with pytest.raises(ConfigError,
                           match=f"^{key} must be {what}, got {cfg[key]!r}$"):
            run_trials("example1", "penalty", cfg=dict(cfg))

    @pytest.mark.parametrize("problem, pparams, message", [
        ("example1", {"bogus": 1},
         "unknown key 'bogus' for problem 'example1'; known: ['dim']"),
        ("example1", {"dim": "x"}, "dim must be int, got 'x'"),
        ("example1", {"dim": 4.0}, "dim must be int, got 4.0"),
        ("example1", {"dim": True}, "dim must be int, got True"),
        ("ridge", {"reg_true": "2"}, "reg_true must be float, got '2'"),
        ("ridge", {"reg_true": False}, "reg_true must be float, got False")],
        ids=["unknown-key", "dim-str", "dim-float", "dim-bool",
             "float-str", "float-bool"])
    def test_mistyped_problem_param_rejected_before_any_build(
            self, monkeypatch, problem, pparams, message):
        # before, {"bogus": 1} and {"dim": "x"} raised a raw TypeError
        # from the factory; the rule is the one config files follow
        def no_build(*args):
            raise AssertionError("an instance was built")
        monkeypatch.setattr(bench, "_built", no_build)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_trials(problem, "penalty", pparams=pparams,
                       cfg=dict(K=2, T=1))

    def test_problem_params_of_their_default_type_accepted(self):
        # an int stands for a float, and a NumPy number for a Python one
        kw = dict(cfg=dict(K=2, T=1))
        for problem, pparams, same in (
                ("example1", {"dim": np.int64(4)}, {"dim": 4}),
                ("ridge", {"reg_true": 2}, {"reg_true": 2.0}),
                ("ridge", {"reg_true": np.int32(2)}, {"reg_true": 2.0})):
            got = run_trials(problem, "penalty", pparams=pparams, **kw)
            want = run_trials(problem, "penalty", pparams=same, **kw)
            assert traces_equal(got[0].trace, want[0].trace)

    def test_large_dim_builds_no_dense_pair(self):
        # example1 at dim 10**5: an eager V x V identity (75 GiB) made
        # this a memory error, though penalty never calls the dense pair
        res = run_trials("example1", "penalty", pparams={"dim": 10**5},
                         cfg=dict(K=2, T=1))
        assert [r.final_point.v.shape for r in res] == [(10**5,)]
        assert [len(r.trace.rows) for r in res] == [2]

    @pytest.mark.parametrize("key, value", [
        ("seed", 1.5), ("seed", True), ("trials", 2.0), ("trials", True),
        ("record_every", 2.5), ("record_every", True)],
        ids=["seed-1.5", "seed-bool", "trials-2.0", "trials-bool",
             "record_every-2.5", "record_every-bool"])
    def test_mistyped_count_rejected_before_any_build(self, monkeypatch,
                                                      key, value):
        # before, seed=1.5 ran seed 1 (derive_seed truncates), trials=2.0
        # and record_every=2.5 died with a raw TypeError, and True ran as 1
        def no_build(*args):
            raise AssertionError("an instance was built")
        monkeypatch.setattr(bench, "_built", no_build)
        with pytest.raises(ConfigError,
                           match=f"^{key} must be an integer, got {value!r}$"):
            run_trials("example1", "penalty", cfg=dict(K=2, T=1),
                       **{key: value})

    def test_numpy_counts_accepted(self):
        kw = dict(pparams={"dim": 4}, cfg=dict(K=3, T=1))
        res = run_trials("example1", "penalty", trials=np.int64(2),
                         seed=np.int32(3), record_every=np.int64(1), **kw)
        want = run_trials("example1", "penalty", trials=2, seed=3, **kw)
        assert [traces_equal(a.trace, b.trace)
                for a, b in zip(res, want)] == [True, True]

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_check_mistyped_seed_rejected(self, monkeypatch, seed):
        monkeypatch.setattr(bench, "get_problem", lambda name: 1 / 0)
        with pytest.raises(ConfigError,
                           match=f"^seed must be an integer, got {seed!r}$"):
            bench.cmd_check("example1", "oracle", seed=seed, quiet=True)

    def test_numpy_numbers_accepted(self):
        res = run_trials("example1", "penalty", pparams={"dim": 4},
                         cfg={"K": np.int64(3), "T": np.int32(2),
                              "rho0": np.float64(1e-3)})
        want = run_trials("example1", "penalty", pparams={"dim": 4},
                          cfg={"K": 3, "T": 2, "rho0": 1e-3})
        assert traces_equal(res[0].trace, want[0].trace)

    def test_trial_order_and_seeds(self):
        res = run_trials("example1", "penalty_plain", pparams={"dim": 4},
                         cfg=dict(K=10, T=1), trials=3, seed=0,
                         record_every=10)
        assert [r.trial for r in res] == [0, 1, 2]
        assert not np.array_equal(res[0].final_point.u,
                                  res[1].final_point.u)

    def test_process_parallel_matches_serial(self, monkeypatch):
        kw = dict(pparams={"dim": 4}, cfg=dict(K=12, T=2), trials=3,
                  seed=7, record_every=12)
        serial = run_trials("example1", "penalty", **kw)
        monkeypatch.setenv("BILEVEL_THREADS", "2")
        parallel = run_trials("example1", "penalty", **kw)
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a.final_point.u, b.final_point.u)
            assert a.trace.final.distance == b.trace.final.distance

    @pytest.mark.parametrize("env, trials, cpus, want", [
        (None, 5, 4, 1), ("", 5, 4, 1), ("2", 5, 4, 2), ("8", 3, 4, 3),
        ("8", 10, 4, 4), ("8", 10, None, 1)])
    def test_worker_count_caps(self, monkeypatch, env, trials, cpus, want):
        if env is None:
            monkeypatch.delenv("BILEVEL_THREADS", raising=False)
        else:
            monkeypatch.setenv("BILEVEL_THREADS", env)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert worker_count(trials) == want

    @pytest.mark.parametrize("env", ["abc", "2.5", "0", "-3"])
    def test_bad_thread_count_exit_2(self, tmp_path, monkeypatch, capsys,
                                     env):
        monkeypatch.setenv("BILEVEL_THREADS", env)
        with pytest.raises(ConfigError, match="BILEVEL_THREADS"):
            worker_count(4)
        cfg = write_config(tmp_path / "a.cfg", BASE_CONFIG)
        assert main(["run", "--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: BILEVEL_THREADS")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("problem, solver, extra", [
        *[pytest.param(problem, solver, {}, id=f"{problem}-{solver}")
          for problem in ("example1", "example2", "example3", "example4")
          for solver in ("approxgrad", "gd", "penalty", "rmd")],
        # nonzero multipliers, and a schedule that every trial advances
        # within K, at k of its own, so the constraint's nu_h is updated
        *[pytest.param("constrained_toy", solver,
                       dict(stepper=stepper, sigma0=0.05, rho0=0.1,
                            eps0=20.0, lambda0=1.0, nu0=0.5),
                       id=f"constrained_toy-{solver}-{stepper}")
          for solver in ("penalty", "penalty_plain")
          for stepper in ("adam", "plain-gd")],
    ])
    def test_batched_equals_serial(self, problem, solver, extra):
        # trial i of a lockstep batch reproduces trial i run alone, bit
        # for bit, through the batched and the single-point factories;
        # counters are not compared, since a batch shares one. Each
        # solver gets the keys it reads, at one value per key
        cfg = dict(K=30, T=5, sigma0=1e-3, rho0=1e-4, gamma0=1.0, eps0=1.0,
                   lambda0=10.0)
        cfg.update(extra)
        cfg = {k: v for k, v in cfg.items() if k in SOLVER_KEYS[solver]}
        batched = _run_chunk(problem, {}, solver, cfg, 5, [0, 1, 2], 1)
        for i in range(3):
            alone = _run_chunk(problem, {}, solver, cfg, 5, [i], 1)[0]
            assert len(alone.trace) == 30
            assert traces_equal(batched[i].trace, alone.trace)
            got, want = batched[i].final_point, alone.final_point
            assert got.u.tobytes() == want.u.tobytes()
            assert got.v.tobytes() == want.v.tobytes()
            if problem == "constrained_toy":
                assert batched[i].trace.final.gamma > cfg["gamma0"]

    @pytest.mark.parametrize("solver, key", [
        ("gd", "gamma0"), ("rmd", "lambda0"), ("approxgrad", "eps0"),
        ("penalty_plain", "nu0"), ("penalty", "approx_reg"),
        ("gd", "box"), ("penalty", "seed")])
    def test_unread_key_rejected(self, solver, key):
        with pytest.raises(ConfigError) as err:
            run_trials("example1", solver, pparams={"dim": 4},
                       cfg={"K": 2, key: 1.0})
        assert repr(solver) in str(err.value) and repr(key) in str(err.value)

    @pytest.mark.parametrize("key, value", [
        ("trials", 0), ("trials", -2), ("record_every", 0),
        ("record_every", -5)])
    def test_bad_sizes_rejected(self, monkeypatch, key, value):
        # on two workers, trials = 0 once reached the process pool
        monkeypatch.setenv("BILEVEL_THREADS", "2")
        kw = dict(trials=1, record_every=1)
        kw[key] = value
        with pytest.raises(ConfigError, match=f"{key} must be >= 1"):
            run_trials("example1", "gd", cfg=dict(K=3, T=1), **kw)

    def test_constrained_pipeline_adds_slacks(self):
        res = run_trials("constrained_toy", "penalty", cfg=dict(K=20, T=2),
                         trials=1, seed=0, record_every=20)
        assert res[0].final_point.u.shape == (2,)   # u plus one slack

    def test_constrained_baseline_rejected(self):
        with pytest.raises(Exception):
            run_trials("constrained_toy", "gd", cfg=dict(K=5, T=1),
                       trials=1, seed=0)

    def test_summarize_fields(self):
        res = run_trials("example1", "gd", pparams={"dim": 4},
                         cfg=dict(K=10, T=2), trials=2, seed=0,
                         record_every=10)
        s = summarize("gd", "gd", res)
        assert s["trials"] == 2
        assert s["n_hvp_total"] == 0
        assert np.isfinite(s["final_mean"])

    def test_write_run_csv_roundtrip(self, tmp_path):
        res = run_trials("example1", "gd", pparams={"dim": 4},
                         cfg=dict(K=10, T=2), trials=1, seed=0,
                         record_every=5)
        path = write_run_csv(tmp_path / "r.csv", res)
        rows = read_csv(path)
        assert tuple(rows[0]) == RUN_COLUMNS
        k_col = rows[0].index("k")
        assert [r[k_col] for r in rows[1:]] == ["4", "9"]


def reference_run_csv(path, results):
    """The csv.writer + _fmt run-CSV writer, kept as the byte reference."""
    field = {"lambda": "lam"}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RUN_COLUMNS)
        for res in results:
            for row in res.trace.rows:
                out = [res.trial]
                for col in RUN_COLUMNS[1:]:
                    out.append(_fmt(getattr(row, field.get(col, col))))
                w.writerow(out)


EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), 0.0, -0.0,
               5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308,
               -1e308, 1.7976931348623157e308, 0.1, 1 / 3]
EDGE_INTS = [0, 1, 2**31, 2**63 - 1, 2**63, 10**30]

floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=True, allow_infinity=True))
ints = st.one_of(st.sampled_from(EDGE_INTS), st.integers(0, 10**40))


@st.composite
def trace_rows(draw):
    return TraceRow(draw(ints), *(draw(floats) for _ in range(10)),
                    draw(ints), draw(ints), draw(ints))


@given(st.lists(st.tuples(ints, st.lists(trace_rows(), max_size=4)),
                max_size=3))
@settings(max_examples=200, deadline=None)
def test_run_csv_bytes_match_csv_writer(tmp_path_factory, trials):
    results = [TrialResult(trial=t, trace=SolverTrace(rows),
                           final_point=None, counters=OracleCounters(),
                           wall_seconds=float("nan"))
               for t, rows in trials]
    d = tmp_path_factory.mktemp("csv")
    write_run_csv(d / "got.csv", results)
    reference_run_csv(d / "want.csv", results)
    assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
def test_ridge_reg_true_out_of_range_exit_2(tmp_path, capsys, value):
    cfg = write_config(tmp_path / "a.cfg", BASE_CONFIG.replace(
        "name = example1\ndim = 6", f"name = ridge\nreg_true = {value}"))
    assert main(["run", "--config", cfg, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "reg_true" in err


@pytest.mark.parametrize("problem", ["quadratic", "ridge"])
def test_kkt_check_scores_the_solved_instance(monkeypatch, problem):
    # the run solves trial 0's instance, built from derive_seed(seed, 0)
    seen = []
    real = bench.kkt_residual

    def spy(oracle, p, *args, **kwargs):
        seen.append((oracle, p))
        return real(oracle, p, *args, **kwargs)

    monkeypatch.setattr(bench, "kkt_residual", spy)
    monkeypatch.setattr(bench, "_KKT_RUN", {problem: dict(K=5, T=2)})
    bench.cmd_check(problem, "kkt", seed=3, quiet=True)
    (oracle, p), = seen
    factory = get_problem(problem).factory
    solved = factory(derive_seed(3, 0)).oracle
    assert oracle.grad_v_f(p).tobytes() == solved.grad_v_f(p).tobytes()
    assert oracle.grad_v_f(p).tobytes() != factory(3).oracle.grad_v_f(
        p).tobytes()


# The instance slot: run_trials reuses the last group's instance and p0
# while the factory, seed(s) and pparams stay the same.

@pytest.fixture
def serial(monkeypatch):
    """One worker and an empty slot, so every build happens here."""
    monkeypatch.delenv("BILEVEL_THREADS", raising=False)
    monkeypatch.setattr(bench, "_slot", None)


def same_results(a, b):
    assert [r.trial for r in a] == [r.trial for r in b]
    for x, y in zip(a, b):
        assert traces_equal(x.trace, y.trace)
        assert x.counters == y.counters
        if x.final_point is None:
            assert y.final_point is None
        else:
            assert x.final_point.u.tobytes() == y.final_point.u.tobytes()
            assert x.final_point.v.tobytes() == y.final_point.v.tobytes()


class TestInstanceSlot:
    def test_rebuilds_only_on_a_new_key(self, serial, monkeypatch):
        slot_empty = []             # per factory call: was the slot empty?

        def spy(seed, dim=4, scale=0.0):
            slot_empty.append(bench._slot is None)
            return make_synthetic(1, dim, seed)

        monkeypatch.setitem(PROBLEMS, "spy", ProblemSpec(
            spy, spy, {"dim": 4, "scale": 0.0}))

        def builds(solver="penalty", trials=2, seed=0, scale=0.0):
            before = len(slot_empty)
            run_trials("spy", solver, pparams={"scale": scale},
                       cfg=dict(K=2, T=1), trials=trials, seed=seed,
                       record_every=2)
            return len(slot_empty) - before

        assert builds() == 1
        assert builds() == 0
        assert builds(solver="gd") == 0
        assert builds(seed=1) == 1
        assert builds() == 1
        assert builds(trials=3) == 1
        assert builds(trials=1) == 1
        assert builds() == 1
        assert builds(scale=-0.0) == 1
        assert builds(scale=1) == 1
        assert builds(scale=1.0) == 1
        # fmd runs one group per trial; each evicts the one before
        assert builds(solver="fmd") == 2
        assert builds(solver="fmd") == 2
        assert builds() == 1
        assert all(slot_empty)

    def test_cached_p0_is_read_only(self, serial):
        run_trials("example1", "penalty", pparams={"dim": 4},
                   cfg=dict(K=2, T=1), trials=2, record_every=2)
        _, _, p0 = bench._slot
        assert not p0.u.flags.writeable and not p0.v.flags.writeable

    @pytest.mark.parametrize("problem, solver", [
        (problem, solver) for problem in sorted(PROBLEMS)
        for solver in SOLVER_NAMES
        if problem != "constrained_toy" or solver.startswith("penalty")])
    def test_warm_call_equals_cold(self, serial, problem, solver):
        # a warm call reuses an instance another solver has just run on
        cfg = dict(K=4, T=2, sigma0=1e-3, rho0=1e-4, gamma0=1.0, eps0=1.0,
                   lambda0=10.0)
        other = "penalty_plain" if problem == "constrained_toy" else "gd"
        # where trials run one group each, the slot keeps only the last
        lockstep = len(bench.trial_groups(problem, solver, 4, [0, 1])) == 1
        kw = dict(trials=2 if lockstep else 1, seed=4, record_every=1)

        def run(name):
            return run_trials(problem, name, cfg={
                k: v for k, v in cfg.items() if k in SOLVER_KEYS[name]},
                **kw)

        cold = run(solver)
        slot = bench._slot
        run(other)
        warm = run(solver)
        assert bench._slot is slot
        same_results(cold, warm)

    def test_warm_abort_equals_cold(self, serial):
        def abort():
            with pytest.raises(NumericError) as err:
                run_trials("quadratic", "penalty_plain", cfg=DIVERGING,
                           trials=2, record_every=1)
            return err.value.results

        cold = abort()
        slot = bench._slot
        warm = abort()
        assert bench._slot is slot
        same_results(cold, warm)


@pytest.fixture
def perfbench_run(monkeypatch):
    """perfbench/run.py as a module. Its import pins the *_THREADS
    variables and needs perfbench/ on sys.path; both are undone after,
    and perfbench's modules leave sys.modules."""
    here = Path(__file__).resolve().parents[1] / "perfbench"
    for var in ("BILEVEL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(here))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  here / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name, mod in list(sys.modules.items()):
        if str(getattr(mod, "__file__", "")).startswith(str(here)):
            del sys.modules[name]


@pytest.mark.parametrize("problem, solver, trials, pparams", [
    ("example1", "penalty", 3, {"dim": 4}),       # one batched group
    ("example1", "fmd", 3, {"dim": 4}),           # fmd: one per trial
    ("example1", "penalty", 1, {"dim": 4}),       # a lone trial
    ("quadratic", "penalty", 3, {}),              # no batch factory
])
def test_perfbench_setup_builds_the_trial_groups(perfbench_run, monkeypatch,
                                                 problem, solver, trials,
                                                 pparams):
    # setup_s must time the factory calls that runs make
    calls = []
    real = problems.get_problem

    def recording(factory):
        def build(seed, **kw):
            calls.append((factory, seed, kw))
            return factory(seed, **kw)
        return build

    def spy(name):
        spec = real(name)
        return dataclasses.replace(
            spec, factory=recording(spec.factory),
            batch_factory=spec.batch_factory and recording(
                spec.batch_factory))

    monkeypatch.setattr(problems, "get_problem", spy)
    case = SimpleNamespace(problem=problem, solver=solver, trials=trials,
                           pparams=pparams)
    perfbench_run.build_inputs(case, 3)
    assert calls == [(factory, gseed, pparams) for _, factory, gseed
                     in bench.trial_groups(problem, solver, 3,
                                           list(range(trials)))]


# Config fuzz: random files of known keys, junk keys, junk values and bad
# sections, run through the CLI in-process. Most values are in range, so
# many files run; none asks for more than K = 5, T = 5, two trials or a
# dim of 6, so every run stays tiny.
_FUZZ_JUNK = ("0", "-1", "nan", "inf", "-inf", "1e400", "abc", "", "0x10",
              "1, 2", "2.5", "adam")
# keys no section reads (while_cap is a retired penalty key)
_FUZZ_JUNK_KEYS = ("bogus", "while_cap")
_FUZZ_GOOD = {
    "K": ("1", "3", "5"), "T": ("1", "2", "5"),
    "c_gamma": ("1.0", "1.5"), "c_eps": ("0.5", "1"), "c_lambda": ("0.9",),
    "stepper": ("adam", "plain-gd"), "dim": ("2", "4", "6"),
    "n_train": ("6", "10"), "n_val": ("3", "5"), "noise_frac": ("0.2",),
    "n_poison": ("2",), "n": ("40",), "d": ("3",), "reg_true": ("1.0",),
    "dim_u": ("2", "3"), "dim_v": ("2", "3"), "trials": ("1", "2"),
    "record_every": ("1", "2"), "seed": ("0", "7"),
}


def _fuzz_value(key):
    good = _FUZZ_GOOD.get(key, ("1e-3", "0.5", "2.0"))
    # seven in eight values are in range
    return st.sampled_from([good] * 7 + [_FUZZ_JUNK]).flatmap(
        st.sampled_from)


@st.composite
def fuzz_config(draw):
    command = draw(st.sampled_from(("run", "sweep", "compare")))
    lines = []

    def maybe(n=10):
        """True but for one draw in n (it shrinks to True)."""
        return draw(st.sampled_from([True] * (n - 1) + [False]))

    def items(keys, known):
        if known:
            keys = draw(st.lists(st.sampled_from(sorted(known)), max_size=3,
                                 unique=True)) + keys
        if not maybe():
            keys.append(draw(st.sampled_from(_FUZZ_JUNK_KEYS)))
        lines.extend(f"{k} = {draw(_fuzz_value(k))}" for k in keys)

    if maybe():
        problem = draw(st.sampled_from(sorted(PROBLEMS))) if maybe() else (
            "nope")
        lines += ["[problem]"] + ([f"name = {problem}"] if maybe() else [])
        items([], PROBLEMS.get(problem, PROBLEMS["example1"]).defaults)
    labels = (["solver.a", "solver.b"] if command == "compare" and maybe(3)
              else ["solver"] if maybe() else ["solver."])
    for label in labels:
        solver = draw(st.sampled_from(bench.SOLVER_NAMES)) if maybe() else (
            "nope")
        lines += [f"[{label}]", f"name = {solver}"]
        # K and T are always set, so no run takes their large defaults;
        # a key another solver reads turns up now and then
        known = SOLVER_KEYS.get(solver, SOLVER_KEYS["penalty"])
        if not maybe(5):
            known = SOLVER_KEYS["penalty"] | SOLVER_KEYS["approxgrad"]
        items(["K", "T"], set(known) - {"K", "T"})
    if maybe(2):
        lines.append("[run]")
        items([], ("trials", "record_every", "seed"))
    if command == "sweep" and maybe(5) or not maybe(5):
        axis = draw(st.sampled_from(("T", "gamma0", "lambda0", "eps0", "K")))
        lines += ["[sweep]", f"axis = {axis}", "values = " + draw(
            st.sampled_from(("1, 2", "0.5, 2", "", "a, b", "nan", "2, 0")))]
    if not maybe(5):
        lines.append(draw(st.sampled_from(
            ("[bogus]", "key without value", "[unclosed", "= 3",
             "[problem]", "name = example1"))))
    return command, "\n".join(lines) + "\n"


@settings(max_examples=50, deadline=None)
@given(case=fuzz_config())
def test_config_fuzz_only_exits_0_to_3(case):
    import tempfile
    from unittest import mock
    command, text = case
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"BILEVEL_THREADS": "1"}):
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text)
        argv = [command, "--config", str(cfg), "--out",
                str(Path(tmp) / "out.csv"), "--quiet"]
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2, 3)
