"""Count the code lines of the seglv package.

A code line is a physical line that holds part of a Python token, not
counting comments, blank lines and docstrings: a string that stands alone
as the first statement of a module, class or function.  A multi-line
string that is not a docstring counts every line it covers, and a
bracketed expression every line that holds one of its tokens.

Usage: python tools/code_lines.py [package directory, default src/seglv]

Prints one line per module, "<module> <count>", and then "total <count>".
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The physical lines of every docstring in the parsed module `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python `source`."""
    skipped = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIP:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skipped)


def main(argv):
    package = Path(argv[1] if len(argv) > 1 else "src/seglv")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.stem} {count}")
    print(f"total {total}")


if __name__ == "__main__":
    main(sys.argv)
