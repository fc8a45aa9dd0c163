"""Count the lines of each module of ``src/prepush``.

Usage: ``python3 tools/src_lines.py [SRC_DIR]`` (default: the ``src/prepush``
next to this script).  Prints one row per module and a total row, each
line counted once: a blank line holds nothing (in a docstring too), a
docstring line lies within a module, class or function docstring, a
comment line holds a comment and nothing else, and every other line is
code.  Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def line_kinds(text):
    """Each line's kind, in order."""
    lines = text.splitlines()
    kinds = ["blank" if not line.strip() else "code" for line in lines]
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if (token.type == tokenize.COMMENT
                and not token.line[:token.start[1]].strip()):
            kinds[token.start[0] - 1] = "comment"
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            for at in range(doc.lineno - 1, doc.end_lineno):
                if kinds[at] != "blank":
                    kinds[at] = "docstring"
    return kinds


def main(argv):
    src = Path(argv[0]) if argv else (
        Path(__file__).resolve().parent.parent / "src" / "prepush")
    rows = []
    for path in sorted(src.glob("*.py")):
        kinds = line_kinds(path.read_text(encoding="utf-8"))
        rows.append((path.name, len(kinds), *map(kinds.count, KINDS)))
    rows.append(("total", *map(sum, list(zip(*rows))[1:])))
    print(f"{'module':<18}{'total':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for name, *counts in rows:
        print(f"{name:<18}{counts[0]:>7}"
              + "".join(f"{n:>11}" for n in counts[1:]))


if __name__ == "__main__":
    main(sys.argv[1:])
