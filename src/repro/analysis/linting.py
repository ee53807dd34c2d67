"""`repro-lint` core: AST-walking linter with project-specific rules.

The serving stack's exactness story (byte-stable golden reports,
heap-vs-vectorized scheduler equivalence, bit-identical sharded replays)
rests on conventions — seeded RNG, stable iteration orders, handlers
touching the scheduler only through its public API — that nothing in
ruff/mypy knows about.  This module is the
framework; the conventions themselves live in :mod:`repro.analysis.rules`
as small :class:`Rule` subclasses, each an `ast` visitor over one file.

Everything here is stdlib-only (``ast`` + ``tokenize``-free line scanning)
so the linter runs in any environment that can import the repo — CI, the
tier-1 suite, or a bare checkout with no dev dependencies installed.

Suppression
-----------
A finding is suppressed by an inline pragma on the *first line* of the
offending statement::

    t0 = time.perf_counter()   # repro-lint: ok=wall-clock-in-events (why)

``ok=`` takes a comma-separated rule list; ``ok=all`` waives every rule
for that line.  The parenthesized justification is a convention, not
syntax — but write one: a pragma without a reason is a review comment
waiting to happen.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = ["LintFinding", "FileContext", "Rule", "lint_file", "lint_paths",
           "iter_python_files"]

_PRAGMA = re.compile(r"#\s*repro-lint:\s*ok=([A-Za-z0-9_,-]+)")


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: " \
               f"[{self.rule}] {self.message}"


class FileContext:
    """Parsed source + per-line pragma map, shared by every rule."""

    def __init__(self, path: str, source: str):
        self.path = path.replace(os.sep, "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        # line number -> set of rule names waived on that line
        self.suppressed: dict[int, set[str]] = {}
        for i, line in enumerate(self.lines, start=1):
            m = _PRAGMA.search(line)
            if m:
                self.suppressed[i] = {r.strip()
                                      for r in m.group(1).split(",")}

    # ------------------------------------------------------------------ #
    def is_suppressed(self, line: int, rule: str) -> bool:
        waived = self.suppressed.get(line, ())
        return rule in waived or "all" in waived

    @property
    def is_test(self) -> bool:
        """Test/bench files get the relaxed ruleset (hard-coded seeds are
        the *point* of a reproducible test)."""
        name = self.path.rsplit("/", 1)[-1]
        return ("/tests/" in self.path or "/benchmarks/" in self.path
                or name.startswith(("test_", "bench_", "conftest")))


class Rule:
    """One project convention, checked per file.

    Subclasses set ``name``/``summary`` and implement :meth:`visit`,
    yielding ``(node, message)`` pairs; the framework attaches locations
    and applies pragma suppression.  ``applies_to`` scopes the rule to a
    path family (e.g. only ``serving/``) so rules stay cheap and local.
    """

    name: str = ""
    summary: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        return True

    def visit(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def check(self, ctx: FileContext) -> list[LintFinding]:
        if not self.applies_to(ctx):
            return []
        findings = []
        for node, message in self.visit(ctx):
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
            if not ctx.is_suppressed(line, self.name):
                findings.append(LintFinding(ctx.path, line, col,
                                            self.name, message))
        return findings


# --------------------------------------------------------------------------- #
def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted, deduplicated .py file list.

    Sorted so findings (and therefore CI logs) are byte-stable regardless
    of filesystem enumeration order — the linter holds itself to the
    determinism bar it enforces.
    """
    seen = set()
    out = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                dirs[:] = [d for d in dirs
                           if d not in ("__pycache__", ".git")]
                for fn in sorted(files):
                    if fn.endswith(".py"):
                        full = os.path.join(root, fn)
                        if full not in seen:
                            seen.add(full)
                            out.append(full)
        elif path.endswith(".py"):
            if path not in seen:
                seen.add(path)
                out.append(path)
    return iter(sorted(out))


def lint_file(path: str, rules: Iterable[Rule],
              source: str | None = None) -> list[LintFinding]:
    if source is None:
        with open(path, encoding="utf-8") as f:
            source = f.read()
    ctx = FileContext(path, source)
    findings: list[LintFinding] = []
    for rule in rules:
        findings.extend(rule.check(ctx))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_paths(paths: Iterable[str],
               rules: Iterable[Rule]) -> tuple[list[LintFinding], int]:
    """Lint every .py file under ``paths``; returns (findings, n_files)."""
    rules = list(rules)
    findings: list[LintFinding] = []
    n_files = 0
    for path in iter_python_files(paths):
        n_files += 1
        findings.extend(lint_file(path, rules))
    return findings, n_files
