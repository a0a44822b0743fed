"""scripts/ab_bench.py's per-case summary, on hand-built run records."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[1] / "scripts" / "ab_bench.py"


@pytest.fixture(scope="module")
def ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(**walls):
    """A perfbench record holding only what the case summary reads."""
    return {"diagnostics": {
        "reference_digests": "applied",
        "cases": {case: {"median_wall_s": 9.0, "raw_uiters_per_s": 1.0,
                         "median_scaled_wall_s": w}
                  for case, w in walls.items()}}}


def test_case_summary_medians_and_ratio(ab_bench):
    parent = [record(fmd=0.050, toy=0.080), record(fmd=0.060, toy=0.090),
              record(fmd=0.055, toy=0.070)]
    change = [record(fmd=0.040, toy=0.080), record(fmd=0.044, toy=0.075),
              record(fmd=0.042, toy=0.085)]
    got = ab_bench.case_summary(parent, change)
    assert list(got) == ["fmd", "toy"]
    assert got["fmd"] == {"parent_s": 0.055, "change_s": 0.042,
                          "ratio": pytest.approx(0.042 / 0.055)}
    assert got["toy"]["parent_s"] == 0.080
    assert got["toy"]["change_s"] == 0.080
    assert got["toy"]["ratio"] == 1.0


def test_case_summary_two_records(ab_bench):
    # one run a side: the medians are the runs' own walls; a case only
    # one side ran has no ratio and is left out
    got = ab_bench.case_summary([record(fmd=0.05, old=0.01)],
                                [record(fmd=0.04, new=0.02)])
    assert got == {"fmd": {"parent_s": 0.05, "change_s": 0.04,
                           "ratio": pytest.approx(0.8)}}
    table = ab_bench.case_markdown("curves", got)
    assert table.splitlines()[2] == "| curves | fmd | 50 | 40 | 0.800 |"
