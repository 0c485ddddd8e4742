"""Count the code, docstring, comment and blank lines of each curvforms module.

    python tools/src_lines.py [DIR]

prints one row per ``*.py`` file of DIR (default: this checkout's
``src/curvforms``) and their totals.  Each line is counted once: a line of a
docstring (the leading string of a module, class or function) is docstring,
else a line holding any other token is code, else a line holding a comment is
comment, else it is blank.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count_lines(source: str) -> dict:
    """The number of lines of each kind in ``source``; they add up to its line count."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstring.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code, comment = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comment.add(token.start[0])
        elif token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    kinds = [
        "docstring" if n in docstring else "code" if n in code else "comment" if n in comment else "blank"
        for n in range(1, len(source.splitlines()) + 1)
    ]
    return {kind: kinds.count(kind) for kind in KINDS}


def main(argv) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "curvforms"
    rows = [(path.name, count_lines(path.read_text(encoding="utf-8"))) for path in sorted(root.glob("*.py"))]
    totals = {kind: sum(counts[kind] for _, counts in rows) for kind in KINDS}
    width = max(len("total"), *(len(name) for name, _ in rows))
    print(f"{'module':<{width}}" + "".join(f"{kind:>11}" for kind in (*KINDS, "lines")))
    for name, counts in [*rows, ("total", totals)]:
        print(f"{name:<{width}}" + "".join(f"{counts[kind]:>11}" for kind in KINDS) + f"{sum(counts.values()):>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
