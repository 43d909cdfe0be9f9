"""Count total lines and code lines of each Python module under a path.

A line is a code line when a token other than a comment, NL, INDENT or
DEDENT starts on it or spans it, and it is not part of a docstring (the
first statement of a module, class or function, when that is a string).
Blank lines, comment lines and docstrings are not code.

    python tools/code_lines.py src/evtkit

prints one row per module under the directory, then the totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# NEWLINE ends a line that holds other tokens; ENDMARKER sits past the last line
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.NEWLINE, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """Line numbers that a module, class or function docstring covers."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int]:
    """(total lines, code lines) of ``source``."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(source))


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else ".")
    rows = [(str(path.relative_to(root)), *count_lines(path.read_text())) for path in sorted(root.rglob("*.py"))]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    print(f"{'module':<32} {'lines':>6} {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<32} {lines:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
