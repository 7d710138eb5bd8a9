"""Total and code lines of each module in a package directory.

    python3 tools/src_lines.py [DIR]

DIR defaults to `src/relaysim` of this checkout.  For every `*.py` file in
DIR, in name order, the script prints its total lines and its code lines,
then the sums.  Code lines leave out blank lines, comments and docstrings:
a docstring here is any statement made of string literals alone.  A line
that holds code and a comment counts as code.  Standard library only.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source text."""
    code: set[int] = set()
    statement: list = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "relaysim"
    rows = [(path.name, *count(path.read_text())) for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'total':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
