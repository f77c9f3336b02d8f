"""Count the code lines of the dispersim package.

A code line holds at least one token that is not a comment, not part of a
standalone string statement (a docstring) and not whitespace.  Lines inside
a multi-line string that is part of an expression all count.

    python3 tools/count_code_lines.py            # the package next to this script
    python3 tools/count_code_lines.py DIR ...    # the *.py files of each DIR, summed
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a code token."""
    docstrings = [
        ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    ]
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIPPED or any(a <= tok.start and tok.end <= b for a, b in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    dirs = [Path(d) for d in argv] or [Path(__file__).resolve().parent.parent / "src" / "dispersim"]
    total = 0
    for d in dirs:
        for path in sorted(d.glob("*.py")):
            n = code_lines(path.read_text())
            total += n
            print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
