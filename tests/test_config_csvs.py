"""scripts/config_csvs.py's command choice and CSV comparison."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SCRIPT = ROOT / "scripts" / "config_csvs.py"


@pytest.fixture(scope="module")
def config_csvs():
    spec = importlib.util.spec_from_file_location("config_csvs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_configs_run_as_their_command(config_csvs):
    configs = ROOT / "scripts" / "configs"
    assert {p.stem: config_csvs.command_of(p)
            for p in configs.glob("*.ini")} == {
        "compare_example2": "compare", "example1_large_dim": "run",
        "example1_penalty": "run", "sweep_T": "sweep"}


def write_csvs(directory, files):
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_text(text)
    return directory


RUN = "trial,k,wall_seconds,f\n0,0,0.25,1.5\n0,1,0.5,1.25\n"
SUMMARY = "label,value,wall_mean_seconds\npenalty,1,0.75\n"


def test_equal_apart_from_wall_columns(config_csvs, tmp_path, capsys):
    a = write_csvs(tmp_path / "a", {"run.csv": RUN, "summary.csv": SUMMARY})
    b = write_csvs(tmp_path / "b", {
        "run.csv": RUN.replace("0.25", "9.0"),
        "summary.csv": SUMMARY.replace("0.75", "8.0")})
    assert config_csvs.differing(a, b) == []
    assert config_csvs.main(["compare", str(a), str(b)]) == 0
    assert "2 of 2 CSVs equal" in capsys.readouterr().out


def test_a_value_or_a_file_that_differs_fails(config_csvs, tmp_path, capsys):
    a = write_csvs(tmp_path / "a", {"run.csv": RUN, "summary.csv": SUMMARY,
                                    "only_a.csv": RUN})
    b = write_csvs(tmp_path / "b", {
        "run.csv": RUN.replace("1.25", "1.2500000000000002"),
        "summary.csv": SUMMARY})
    assert config_csvs.differing(a, b) == ["only_a.csv", "run.csv"]
    assert config_csvs.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "CSV differs: run.csv" in out and "1 of 3 CSVs equal" in out


def test_no_csvs_fails(config_csvs, tmp_path):
    a, b = write_csvs(tmp_path / "a", {}), write_csvs(tmp_path / "b", {})
    assert config_csvs.main(["compare", str(a), str(b)]) == 1
