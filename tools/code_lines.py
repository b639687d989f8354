"""Count a Python module's code lines: not blank, not a comment, not a docstring.

Run as ``python tools/code_lines.py src/everettsim/*.py``; it prints one
``<lines> <path>`` line per file and the total. A line counts when a token
other than a comment starts or continues on it, so a statement spread over
several lines counts each of them. A docstring is the string that opens a
module, class or function body; its lines do not count.
"""

from __future__ import annotations

import ast
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every docstring in `source`."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    with open(path, encoding="utf-8") as f:
        skip = docstring_lines(f.read())
    lines: set[int] = set()
    for tok in tokens:
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(paths: list[str]) -> int:
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:5d} {path}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
