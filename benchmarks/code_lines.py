"""Count code lines the way ROADMAP aim 2 reads "the line count".

A code line is a physical line that carries at least one token other than
a comment, minus the lines of module/class/function docstrings — so
comments, blank lines and documentation neither count for nor against a
change.  Stdlib only (``tokenize`` + ``ast``).

    python benchmarks/code_lines.py src/repro            # per file + total
    python benchmarks/code_lines.py src/repro/serving/router.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Code lines in one Python source file."""
    source = path.read_bytes()
    lines: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__)
        return 2
    root = Path(argv[0])
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    counts = [(code_lines(f), f) for f in files]
    for n, f in counts:
        print(f"{n:6d}  {f}")
    print(f"{sum(n for n, _ in counts):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
