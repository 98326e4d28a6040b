"""Count the code lines of each ``src/eigenfence`` module, and their total.

A code line is a physical line that holds at least one token other than a
comment or a docstring: blank lines, comment lines and the lines of
docstrings (a string that is a whole statement) are left out.  A statement
that spans lines counts each of its lines.

Run from anywhere, with the standard library only::

    python tools/code_lines.py [PACKAGE_DIR]

``PACKAGE_DIR`` defaults to this checkout's ``src/eigenfence``.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """The number of code lines of one Python file."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []   # the tokens of the logical line so far
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.NEWLINE:
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in _SKIP:
                statement.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    package = Path(argv[0]) if argv else root / "src" / "eigenfence"
    counts = {p.name: code_lines(p) for p in sorted(package.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
