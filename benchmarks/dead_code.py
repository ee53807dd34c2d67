"""List the functions and classes in ``src/repro`` that no code uses.

A definition (a ``def``, ``async def`` or ``class`` at any depth) is
unused when no file in ``src/``, ``benchmarks/`` or ``examples/`` names
it.  A ``def`` in a class body (a method or property) is named only by
an attribute read, ``x.name``; any other definition by an identifier,
an attribute or an imported name as well.  So a local variable or a
module function that happens to share a method's name does not hide
it.  The imports and ``__all__`` lists of ``__init__.py`` files do not
count: a re-export is not a use.  Dunder methods are the language's to
call and are never listed.  Tests do not count either, so a body only
tests call shows up here.  The one exception is a definition decorated
with a ``.register(...)`` call: a registry reaches it by its key, so it
is never listed.  Stdlib only; report only (exit 0).

The rule still goes by name, not by type: a method shares its use with
every attribute of that name on any object, so a test-only ``max`` or
``size`` hides behind numpy's, and a ``stable`` behind another class's
``stable`` property.  A name reached only through a string
(``getattr``) is listed.  Dunder methods, the typed-event views of a
trace and the branches one argument picks are not seen at all.  What
this census cannot see, an execution census can: install a
``sys.setprofile`` hook from a ``sitecustomize`` module on
``PYTHONPATH`` (so child processes are traced too), record every code
object under ``src/repro`` that is entered while every CLI command, the
examples, every ``bench_*.py --smoke`` and ``benchmarks/e2e/run.py
--smoke`` run, and list the ``def`` lines never entered.

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


def used_names(paths: list[Path]) -> tuple[set[str], set[str]]:
    """Every identifier, attribute and imported name in ``paths``, and
    the attribute names among them."""
    names: set[str] = set()
    attrs: set[str] = set()
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
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names | attrs, attrs


def _registered(node: ast.AST) -> bool:
    """Decorated with a ``.register(...)`` call, as registry entries are."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "register"
               for d in node.decorator_list)


def definitions(path: Path):
    """``(qualified name, line, lines spanned, is a method)`` of each
    definition that a registry does not reach by key; a method is a
    ``def`` in a class body."""
    found = []

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                qual = scope + (child.name,)
                if not _registered(child):
                    found.append((".".join(qual), child.lineno,
                                  child.end_lineno - child.lineno + 1,
                                  in_class and not isinstance(
                                      child, ast.ClassDef)))
                visit(child, qual, isinstance(child, ast.ClassDef))
            else:
                visit(child, scope, in_class)

    visit(ast.parse(path.read_bytes()), (), False)
    return found


def unused(defined_in: Path, used_in: list[Path]):
    """``(lines spanned, path, line, qualified name)`` of each definition
    under ``defined_in`` that no file under ``used_in`` names."""
    files = sorted(p for d in used_in if d.is_dir() for p in d.rglob("*.py"))
    names, attrs = used_names(files)
    return [(span, path, line, qual)
            for path in sorted(defined_in.rglob("*.py"))
            for qual, line, span, method in definitions(path)
            if (leaf := qual.rsplit(".", 1)[-1])
            not in (attrs if method else names)
            and not (leaf.startswith("__") and leaf.endswith("__"))]


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__)
        return 2
    rows = unused(DEFINED_IN, USED_IN)
    for span, path, line, qual in rows:
        print(f"{span:6d}  {path.relative_to(ROOT)}:{line}  {qual}")
    print(f"{sum(s for s, *_ in rows):6d}  total lines, "
          f"{len(rows)} definitions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
