"""The repository's tools, run as a user runs them."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SOURCE = '''"""A module docstring
over two lines."""

import math


def f(x):
    """A function docstring."""
    # a comment alone on its line

    return math.sqrt(x)  # a comment after code


class C:
    """A class docstring,

    with a blank line in it."""

    y = """a string,
    not a docstring"""
'''


def test_code_lines_skips_blank_comment_and_docstring_lines(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# two code lines\ny = 2\n")
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(ROOT / "tools" / "code_lines.py"),
         str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["a.py", "6", "b.py", "2", "total", "8"]
