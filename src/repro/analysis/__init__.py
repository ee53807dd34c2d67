"""Correctness tooling: static determinism linter + event-trace checker.

The serving stack's exactness contracts (byte-stable golden reports,
bit-identical sharded replays, heap-vs-vectorized scheduler equivalence)
are conventions, not laws of the runtime.  This subsystem enforces them
mechanically, *before* the golden diff:

``repro-lint`` (static half)
    :mod:`repro.analysis.linting` + :mod:`repro.analysis.rules` — an
    AST linter (stdlib ``ast``, zero dependencies) with five project
    rules: ``unseeded-rng``, ``wall-clock-in-events``,
    ``unordered-iteration``, ``float-sum-report``,
    ``scheduler-purity``.  Console script ``repro-lint`` /
    ``python -m repro.analysis``; exit 1 on findings; inline pragma
    ``# repro-lint: ok=<rule> (reason)`` waives a designated site.

``tracecheck`` (dynamic half)
    :mod:`repro.analysis.tracecheck` — evaluates array predicates over
    the columns of a recorded :class:`~repro.serving.events.EventTrace`
    and flags causality violations, broken exactly-once
    service/ownership and conservation breaks.  Reachable as
    ``serve-sim --check-trace`` and run per-PR by the bench smoke.

Both halves run as a blocking CI ``lint`` job ahead of tier-1 (together
with the ruff/mypy baseline configured in pyproject.toml).  The linter
imports nothing outside the stdlib, so the lint gate works on a bare
checkout; the trace checker needs numpy and the serving package, so it
is imported from its own module, :mod:`repro.analysis.tracecheck`.
"""

from .linting import (FileContext, LintFinding, Rule, iter_python_files,
                      lint_file, lint_paths)
from .rules import ALL_RULES, default_rules

__all__ = [
    "LintFinding", "FileContext", "Rule", "lint_file", "lint_paths",
    "iter_python_files", "ALL_RULES", "default_rules",
]
