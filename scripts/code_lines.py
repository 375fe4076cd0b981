#!/usr/bin/env python3
"""Count code lines: lines carrying a token that is neither a comment
nor part of a docstring (blank lines carry none).

    python3 scripts/code_lines.py FILE_OR_DIR...

Prints one ``count  path`` row per ``.py`` file and a total — the
counting command CHANGES.md entries quote when a PR reports that code
shrank, so the figure cannot be moved by reflowing comments or prose.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False):
            first = node.body[0]
            docstrings.update(range(first.lineno, (first.end_lineno or 0) + 1))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def main(arguments: list[str]) -> int:
    total = 0
    for argument in arguments:
        root = Path(argument)
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{count:7d}  {path}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
