#!/usr/bin/env python3
"""Physical and code lines of each Python file of the package, and in total.

    python3 scripts/line_counts.py [DIR]

DIR defaults to ``src/vpmix`` of this checkout.  Physical lines are the
lines of the file.  Code lines follow one ``tokenize`` rule: a line counts
if a token of a statement covers it, where comments, blank lines and
statements made of string literals alone (docstrings) are no statement.
"""

import argparse
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vpmix"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def line_counts(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of Python source text."""
    code: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif token.type not in _LAYOUT:
            statement.append(token)
    return len(source.splitlines()), len(code)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", type=Path, default=PACKAGE)
    root = parser.parse_args(argv).dir
    total = [0, 0]
    print(f"{'file':24s} {'physical':>8s} {'code':>6s}")
    for path in sorted(root.glob("*.py")):
        counts = line_counts(path.read_text())
        total = [a + b for a, b in zip(total, counts)]
        print(f"{path.name:24s} {counts[0]:8d} {counts[1]:6d}")
    print(f"{'total':24s} {total[0]:8d} {total[1]:6d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
