"""The line counts of `tools/src_lines.py`, on a small module."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MODULE = '''"""Module docstring,
on two lines."""

import os  # a comment after code is code


# A comment line.
def f(x):
    """Docstring."""
    text = """a string
that is code"""
    return os.sep + text + x
'''


def test_counts_leave_out_blanks_comments_and_docstrings(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import src_lines

    assert src_lines.count(MODULE) == (12, 5)
    (tmp_path / "b.py").write_text(MODULE)
    (tmp_path / "a.py").write_text("x = 1\n\n")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "total", "code"], ["a.py", "2", "1"], ["b.py", "12", "5"], ["total", "14", "6"]]
