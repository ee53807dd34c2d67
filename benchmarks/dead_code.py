"""List the functions and classes in ``src/repro`` that no code uses.

A definition (a ``def``, ``async def`` or ``class`` at any depth) is
unused when its name appears nowhere in ``src/``, ``benchmarks/`` or
``examples/`` as an identifier, an attribute or an imported name.  The
imports and ``__all__`` lists of ``__init__.py`` files do not count: a
re-export is not a use.  Dunder methods are the language's to call and
are never listed.  Tests do not count either, so a body only tests call
shows up here.  The rule goes by name alone: a method shares its use
with every other method of that name, and a name reached only through
a string (``getattr``) is listed.  Stdlib only; report only (exit 0).

    python benchmarks/dead_code.py            # one row per definition + total
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINED_IN = ROOT / "src" / "repro"
USED_IN = [ROOT / "src", ROOT / "benchmarks", ROOT / "examples"]

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_reexport(node: ast.AST) -> bool:
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    targets = getattr(node, "targets", [getattr(node, "target", None)])
    return any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets)


def used_names(paths: list[Path]) -> set[str]:
    """Every identifier, attribute and imported name in ``paths``."""
    names: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_bytes())
        skip: set[int] = set()
        if path.name == "__init__.py":
            skip = {id(n) for top in tree.body if _is_reexport(top)
                    for n in ast.walk(top)}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def definitions(path: Path):
    """``(qualified name, line, lines spanned)`` of each definition."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                qual = scope + (child.name,)
                found.append((".".join(qual), child.lineno,
                              child.end_lineno - child.lineno + 1))
                visit(child, qual)
            else:
                visit(child, scope)

    visit(ast.parse(path.read_bytes()), ())
    return found


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__)
        return 2
    files = sorted(p for d in USED_IN if d.is_dir() for p in d.rglob("*.py"))
    names = used_names(files)
    unused = [(span, path, line, qual)
              for path in sorted(DEFINED_IN.rglob("*.py"))
              for qual, line, span in definitions(path)
              if (leaf := qual.rsplit(".", 1)[-1]) not in names
              and not (leaf.startswith("__") and leaf.endswith("__"))]
    for span, path, line, qual in unused:
        print(f"{span:6d}  {path.relative_to(ROOT)}:{line}  {qual}")
    print(f"{sum(s for s, *_ in unused):6d}  total lines, "
          f"{len(unused)} definitions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
