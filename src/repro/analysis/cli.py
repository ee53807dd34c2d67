"""``repro-lint``: run the project ruleset over a source tree.

Usage::

    repro-lint [paths...]            # default: src
    repro-lint --list-rules
    repro-lint --select unseeded-rng,scheduler-purity src

Exit status: 0 clean, 1 findings, 2 usage error.  Installed as a console
script by setup.py and runnable as ``python -m repro.analysis``; CI runs
it as a blocking step before tier-1 (see .github/workflows/ci.yml).
"""

from __future__ import annotations

import argparse

from .linting import lint_paths
from .rules import ALL_RULES, default_rules

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-lint",
        description="determinism & invariant linter for the repro "
                    "serving stack (stdlib-ast, no dependencies)")
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--select", default=None, metavar="RULE[,RULE...]",
                   help="run only these rules")
    p.add_argument("--list-rules", action="store_true",
                   help="print the ruleset and exit")
    return p


def main(argv: list[str] | None = None, out=print) -> int:
    args = build_parser().parse_args(argv)
    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            out(f"{rule.name}: {rule.summary}")
        return 0
    if args.select is not None:
        wanted = [r.strip() for r in args.select.split(",") if r.strip()]
        known = {cls.name for cls in ALL_RULES}
        unknown = [w for w in wanted if w not in known]
        if unknown:
            out(f"repro-lint: unknown rule(s): {', '.join(unknown)} "
                f"(see --list-rules)")
            return 2
        rules = [r for r in rules if r.name in wanted]
    findings, n_files = lint_paths(args.paths, rules)
    for finding in findings:
        out(finding.render())
    if findings:
        out(f"repro-lint: {len(findings)} finding(s) in {n_files} "
            f"file(s); suppress intentional sites with "
            f"'# repro-lint: ok=<rule> (reason)'")
        return 1
    out(f"repro-lint: clean ({n_files} files, {len(rules)} rules)")
    return 0
