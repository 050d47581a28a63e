"""Code lines, statements and total lines of every module of a package.

    python3 tests/code_lines.py [PACKAGE_DIR]

A code line is a line of source that is not blank, not only a comment and
not part of a docstring (the string that opens a module, class or
function); a line with code and a trailing comment is a code line.  A
statement is a statement node of the syntax tree other than a docstring,
so it counts alike however the source is laid out over lines: packing
names or calls onto fewer lines moves the code lines, not the statements.
Prints one row per module of ``PACKAGE_DIR`` (``src/relpose`` of this
checkout by default) and their total, so that two checkouts compare by one
rule: run it on each and compare the rows.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "relpose"

# Tokens that carry no code of their own.
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstrings(tree: ast.Module) -> list[ast.Expr]:
    """The docstring statements of ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                found.append(first)
    return found


def counts(source: str) -> tuple[int, int, int]:
    """Code lines, statements and total lines of one module's ``source``."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    tree = ast.parse(source)
    docs = docstrings(tree)
    for doc in docs:
        code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree)) - len(docs)
    return len(code), statements, len(source.splitlines())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("package", nargs="?", type=Path, default=PACKAGE)
    args = ap.parse_args(argv)
    rows = [(p.name, *counts(p.read_text())) for p in sorted(args.package.glob("*.py"))]
    rows.append(("total", *(sum(r[k] for r in rows) for k in (1, 2, 3))))
    print(f"{'module':16s} {'code':>6s} {'stmts':>6s} {'total':>6s}")
    for name, code, statements, total in rows:
        print(f"{name:16s} {code:6d} {statements:6d} {total:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
