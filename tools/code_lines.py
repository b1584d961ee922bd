"""Count the code lines of Python files: lines without docstrings, comments and blanks.

A line counts when it holds part of a token other than a comment, a line
break, an indent or a dedent, or a docstring: a string that is a statement
alone, as a module, class or function docstring is.  Every line of a token
that spans several lines counts, and so does each line of a statement that
continues over several.  Standard library only:

    python3 tools/code_lines.py src/piezoshunt            # total, then per file
    python3 tools/code_lines.py src/piezoshunt/reduction.py
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_STATEMENT_START = {None, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(source):
    """The number of code lines of the Python source text `source`."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines, previous = set(), None
    for j, token in enumerate(tokens):
        docstring = (token.type == tokenize.STRING and previous in _STATEMENT_START
                     and tokens[j + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if token.type not in _LAYOUT and not docstring:
            lines.update(range(token.start[0], token.end[0] + 1))
        previous = token.type
    return len(lines)


def count(path):
    """{file: code lines} of the file `path`, or of every .py file under the directory `path`."""
    path = Path(path)
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return {str(f): code_lines(f.read_text(encoding="utf-8")) for f in files}


def main(argv=None):
    counts = {}
    for arg in (sys.argv[1:] if argv is None else argv) or ["src"]:
        counts.update(count(arg))
    print(f"{sum(counts.values())} code lines in {len(counts)} files")
    for name, lines in counts.items():
        print(f"{lines:6d}  {name}")


if __name__ == "__main__":
    main()
