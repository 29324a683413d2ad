#!/usr/bin/env python3
"""Print the code lines of each module under ``src`` and their total.

A code line is a line that is not blank, not a comment and not part of a
docstring (of a module, class or function).  Each change reports its net
change in code lines, which this makes reproducible.

Example:
    python scripts/code_lines.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that are not blank, comment or docstring lines."""
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring_lines.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docstring_lines)


def main():
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(SRC)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
