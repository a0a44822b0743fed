import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    # the ```python block under "## Library quick tour", at a small K
    text = README.read_text()
    tour = text[text.index("## Library quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    assert "K=40000" in code
    exec(code.replace("K=40000", "K=200"), {})
