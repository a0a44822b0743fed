#!/usr/bin/env python3
"""Count the lines of the Python modules under src/ by kind.

    python3 scripts/src_lines.py [DIR ...]        # default: src

Prints, per module and in total, its lines and how many of them are
code, docstring, comment and blank, read with ``tokenize``. A line that
holds any code token is code; else a line inside a string that stands
alone as a statement (a docstring) is docstring; else a line holding a
comment is comment; the rest is blank. Deleting a comment or a
docstring line shrinks the total but not the code count, so the split
shows whether a change cut code or prose.
"""

from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")

# tokens that are neither code nor a comment
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.COMMENT}


def count_lines(source: str) -> dict:
    """{"total": lines, and one count per KINDS entry} of the source."""
    rank = {}                   # line number -> index in KINDS, least wins

    def mark(first, last, kind):
        for n in range(first, last + 1):
            rank[n] = min(rank.get(n, len(KINDS)), KINDS.index(kind))

    statement = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            mark(tok.start[0], tok.start[0], "comment")
        elif tok.type == tokenize.NEWLINE:
            alone = len(statement) == 1 and statement[0].type == tokenize.STRING
            for t in statement:
                mark(t.start[0], t.end[0], "docstring" if alone else "code")
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    total = len(source.splitlines())
    counts = dict.fromkeys(KINDS, 0)
    for n in range(1, total + 1):
        counts[KINDS[rank.get(n, KINDS.index("blank"))]] += 1
    return {"total": total, **counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", default=["src"])
    args = parser.parse_args(argv)
    columns = ("total",) + KINDS
    print(f"{'module':<32}" + "".join(f"{c:>10}" for c in columns))
    grand = dict.fromkeys(columns, 0)
    for d in args.dirs:
        for path in sorted(Path(d).rglob("*.py")):
            counts = count_lines(path.read_text())
            print(f"{str(path):<32}"
                  + "".join(f"{counts[c]:>10}" for c in columns))
            for c in columns:
                grand[c] += counts[c]
    print(f"{'all':<32}" + "".join(f"{grand[c]:>10}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
