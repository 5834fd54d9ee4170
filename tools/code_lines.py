"""Count the code lines of the Python modules in a directory.

A code line holds at least one token that is not a comment and is not
part of a docstring (the leading string of a module, class or function);
blank lines do not count. Uses only the standard library:

    python tools/code_lines.py src/minent

prints the count of each module and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(directory: str) -> None:
    total = 0
    for path in sorted(Path(directory).glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1])
