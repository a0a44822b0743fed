"""scripts/src_lines.py's line split, on a small module of known counts."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[1] / "scripts" / "src_lines.py"

# 17 lines: code 6, docstring 5, comment 2, blank 4
FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line
import math


def f(x):
    """One-line docstring."""
    y = x + 1  # a comment after code is code
    text = """a string that is
not a statement of its own"""
    # another comment

    """a bare string
    statement"""
    return math.sqrt(y) + len(text)
'''


@pytest.fixture(scope="module")
def src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_counts(src_lines):
    assert src_lines.count_lines(FIXTURE) == {
        "total": 17, "code": 6, "docstring": 5, "comment": 2, "blank": 4}


def test_table_sums_the_modules(src_lines, tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# c\n")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["module", "total", "code", "docstring", "comment",
                       "blank"]
    assert [r[1:] for r in rows[1:]] == [
        ["17", "6", "5", "2", "4"], ["3", "1", "0", "1", "1"],
        ["20", "7", "5", "3", "5"]]
    assert rows[-1][0] == "all"
