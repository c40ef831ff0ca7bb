"""``tools/code_lines.py``: what it counts, and a reader that stops early."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
two lines."""

# a comment

def f(x):
    """Docstring."""
    return (x +
            1)  # trailing comment
'''


def _tree(tmp_path: Path) -> Path:
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "top.py").write_text("x = 1\n")
    return tmp_path


def test_counts_code_lines_only(tmp_path):
    root = _tree(tmp_path)
    out = subprocess.run([sys.executable, str(TOOL), str(root)],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [f"      4  {root}", "      1  .",
                                "      3  pkg"]


def test_a_closed_reader_is_not_an_error(tmp_path):
    root = _tree(tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first line
    try:
        proc = subprocess.run([sys.executable, str(TOOL), str(root)],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_counts_one_file(tmp_path):
    root = _tree(tmp_path)
    path = root / "pkg" / "a.py"
    out = subprocess.run([sys.executable, str(TOOL), str(path), str(root)],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[0] == f"      3  {path}"
    assert out.splitlines()[1] == f"      4  {root}"
    missing = subprocess.run([sys.executable, str(TOOL), str(root / "x.txt")],
                             capture_output=True, text=True)
    assert missing.returncode == 2
