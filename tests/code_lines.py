"""Count the lines of the package's modules, all and code only.

    python tests/code_lines.py [DIRECTORY] [--baseline BASELINE]

For each module in DIRECTORY (default src/g2forge) prints its name, its
line count as `wc -l` gives it, and its code lines, then the totals.
With --baseline, a directory of the same modules at an earlier
revision (for example a `git archive` copy's src/g2forge), each count
reads `before -> after`, a module missing on one side counting 0.  A
code line holds a token that is not a comment and lies outside every
docstring: tokenize finds the lines that hold code tokens, and ast the
line spans of the module, class and function docstrings, which are
taken out.  Blank lines, comment lines and docstrings do not count;
a line with code and a trailing comment does.  It is not part of the
test suite: a line count is a measure to quote, not an invariant.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# tokens that carry no code: comments, line ends and the indentation
# and file markers
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(text: str) -> set[int]:
    """The line numbers the module's docstrings span."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines in the source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(text))


def counts(folder: Path) -> dict[str, tuple[int, int]]:
    """{module file name: (wc -l, code lines)} for the modules in folder."""
    out = {}
    for path in sorted(folder.glob("*.py")):
        text = path.read_text()
        out[path.name] = text.count("\n"), code_lines(text)
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count module lines.")
    parser.add_argument("directory", nargs="?", type=Path,
                        default=ROOT / "src" / "g2forge")
    parser.add_argument("--baseline", type=Path,
                        help="the same modules before a change")
    args = parser.parse_args(argv)
    after = counts(args.directory)
    before = after if args.baseline is None else counts(args.baseline)
    rows = [(name, before.get(name, (0, 0)), after.get(name, (0, 0)))
            for name in sorted(before.keys() | after.keys())]
    rows.append(("total", *(tuple(map(sum, zip(*column)))
                            for column in list(zip(*rows))[1:])))
    width = 8 if args.baseline is None else 14
    print(f"{'module':<16}{'wc -l':>{width}}{'code':>{width}}")
    for name, old, new in rows:
        cells = new if args.baseline is None else \
            [f"{b} -> {a}" for b, a in zip(old, new)]
        print(f"{name:<16}" + "".join(f"{c:>{width}}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
