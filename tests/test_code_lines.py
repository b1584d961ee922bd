"""The committed code-line counter, tools/code_lines.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

import math  # a trailing comment does not hide the code

# a comment line


def f(x):
    """A function docstring."""
    total = (x
             + math.pi)  # a continuation line counts
    text = """a string that is
not a docstring"""
    return total, \\
        text
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    # import, def, total (2 lines), text (2 lines), return (2 lines)
    assert code_lines.code_lines(SNIPPET) == 8


def test_code_lines_counts_a_file_and_a_directory(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.count(tmp_path / "b.py") == {str(tmp_path / "b.py"): 1}
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines()[0] == "9 code lines in 2 files"
