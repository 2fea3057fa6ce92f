"""Count code lines of the Python sources, per file and per directory.

A code line is a physical line that holds part of a statement: blank lines,
comment-only lines and the lines of a docstring (the string that opens a
module, class or function body) do not count.  A statement spread over
several lines counts each of them.

    python tools/loc.py             # src/, tests/, perfbench/ and demos/
    python tools/loc.py src tests   # the named directories only
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIRECTORIES = ("src", "tests", "perfbench", "demos")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(n for n in range(token.start[0], token.end[0] + 1) if n not in skip)
    return len(lines)


def main(argv: list[str]) -> int:
    total = 0
    for directory in argv or DIRECTORIES:
        counts = {path: code_lines(path.read_text())
                  for path in sorted((ROOT / directory).rglob("*.py"))}
        for path, count in counts.items():
            print(f"{count:7,}  {path.relative_to(ROOT)}")
        subtotal = sum(counts.values())
        print(f"{subtotal:7,}  {directory}/ (total)\n")
        total += subtotal
    print(f"{total:7,}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
