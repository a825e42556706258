"""Count the code lines of the `wciq` package, per module and in total.

A code line holds a token that is not a comment and not part of a
docstring; blank lines, comments and docstrings do not count. The
brute-force referees in `oracles.py` are left out of the total and
printed on their own line after it.

Run from the repository root: python tests/code_lines.py
"""

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wciq"
SKIPPED = {"oracles.py"}
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of the file that hold code."""
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    with path.open("rb") as f:
        lines = {line for tok in tokenize.tokenize(f.readline) if tok.type not in _LAYOUT
                 for line in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docstrings)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in SKIPPED:
            continue
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    for name in sorted(SKIPPED):
        print(f"{code_lines(PACKAGE / name):6d}  {name}, outside the total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
