#!/usr/bin/env python3
"""Count the lines of each module of a package: all lines, and code lines.

A code line holds at least one token that is not a comment and not part of
a docstring (the string that opens a module, class or function body).  So
blank lines, comment lines and docstring lines do not count.

Usage: count_lines.py [DIR ...]   (default: src/spg next to this script)
"""
from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers covered by the docstrings of ``tree``."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def count(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of one Python file."""
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    code: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> int:
    dirs = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent / "src" / "spg"]
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for d in dirs:
        total = code_total = 0
        for path in sorted(d.glob("*.py")):
            lines, code = count(path)
            total, code_total = total + lines, code_total + code
            print(f"{path.name:<16} {lines:>6} {code:>6}")
        print(f"{'total':<16} {total:>6} {code_total:>6}  {d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
