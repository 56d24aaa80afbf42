"""Count the code lines of Python modules: every line that is not blank,
not a comment alone, and not part of a docstring.

    python tools/code_lines.py src/gatss

prints each module's count and the total.
"""

import ast
import sys
from pathlib import Path


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    lines = source.splitlines()
    skip = {i for i, line in enumerate(lines, 1) if not line.strip() or line.lstrip()[0] == "#"}
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, documented) and ast.get_docstring(node, clean=False) is not None:
            skip.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines) - len(skip)


if __name__ == "__main__":
    total = 0
    for path in sorted(Path(sys.argv[1]).glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<20} {count:6,}")
    print(f"{'total':<20} {total:6,}")
