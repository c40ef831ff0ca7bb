#!/usr/bin/env python3
"""Count code-only lines of Python files and of the files under directories.

A line counts when it carries at least one token that is not a comment and
it is not part of a docstring, so blank lines, comment lines and docstrings
are excluded while a statement spread over five lines counts five times.
Prints, per directory, the total, then one line per immediate sub-directory
(files directly under the directory are listed as ``.``); per ``.py`` file
argument, that file's count.

    python3 tools/code_lines.py src/repro [src/repro/core/chaos.py ...]
"""

from __future__ import annotations

import ast
import os
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """Code-only line count of one source file."""
    with tokenize.open(path) as handle:
        source = handle.read()
    lines: set[int] = set()
    for token in tokenize.generate_tokens(iter(source.splitlines(True)).__next__):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    roots = [Path(arg) for arg in argv[1:]]
    for root in roots:
        if not (root.is_dir() or root.is_file() and root.suffix == ".py"):
            print(f"not a directory or .py file: {root}", file=sys.stderr)
            return 2
    for root in roots:
        if root.is_file():
            print(f"{code_lines(root):>7}  {root}")
            continue
        per_package: dict[str, int] = {}
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root)
            package = relative.parts[0] if len(relative.parts) > 1 else "."
            per_package[package] = (per_package.get(package, 0)
                                    + code_lines(path))
        print(f"{sum(per_package.values()):>7}  {root}")
        for package, count in sorted(per_package.items()):
            print(f"{count:>7}  {package}")
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (``| head -1``): that is not an error.
        # Point stdout at /dev/null so the exit-time flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    sys.exit(status)
