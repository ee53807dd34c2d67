"""The project ruleset behind ``repro-lint``.

Each rule encodes one convention the golden-report / exact-replay
contracts depend on.  The docstring of each rule class is the normative
statement; the "Correctness tooling" section of
``src/repro/serving/__init__.py`` is the narrative version.

Rules fire on library code only (``FileContext.is_test`` relaxes tests
and benches, where hard-coded seeds and wall clocks are legitimate), and
every rule honors the ``# repro-lint: ok=<rule>`` inline pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .linting import FileContext, Rule, dotted_name

__all__ = ["ALL_RULES", "default_rules",
           "UnseededRngRule", "WallClockInEventsRule",
           "UnorderedIterationRule", "FloatSumReportRule",
           "SchedulerPurityRule"]


# --------------------------------------------------------------------------- #
class UnseededRngRule(Rule):
    """``unseeded-rng``: all randomness flows from an explicit seed.

    Flags, in library code:

    * legacy global-state numpy API (``np.random.rand``, ``.seed``,
      ``.randint``, ``RandomState``...) — process-global RNG state makes
      replays depend on call order across the whole program;
    * stdlib ``random`` module calls — same global-state hazard;
    * ``np.random.default_rng()`` with no arguments — OS-entropy seeded,
      so two runs differ byte-for-byte;
    * ``np.random.default_rng(<literal>)`` — a hard-coded seed buried in
      a function body cannot be threaded from the caller's config; hoist
      it to a parameter/spec field (``default_rng(args.seed)``,
      ``default_rng(spec.seed)``) or pragma the designated fallback.
    """

    name = "unseeded-rng"
    summary = ("RNG must be an explicit np.random.Generator or a seed "
               "threaded from config; no global-state random APIs")

    # attribute names on np.random that are types/constructors, not the
    # legacy global-state functions
    _OK_ATTRS = {"default_rng", "Generator", "SeedSequence", "BitGenerator",
                 "PCG64", "Philox", "MT19937", "SFC64"}

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.is_test

    def visit(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        stdlib_random = any(
            isinstance(n, ast.Import)
            and any(a.name == "random" for a in n.names)
            for n in ast.walk(ctx.tree))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            # numpy's module-level API: np.random.X / numpy.random.X
            if len(parts) >= 3 and parts[-3] in ("np", "numpy") \
                    and parts[-2] == "random":
                attr = parts[-1]
                if attr == "default_rng":
                    yield from self._check_default_rng(node)
                elif attr not in self._OK_ATTRS:
                    yield (node,
                           f"legacy global-state API np.random.{attr}(); "
                           f"construct an np.random.Generator with an "
                           f"explicit seed instead")
            elif stdlib_random and len(parts) == 2 \
                    and parts[0] == "random":
                yield (node,
                       f"stdlib random.{parts[1]}() uses process-global "
                       f"state; thread an np.random.Generator instead")

    def _check_default_rng(self, node: ast.Call):
        if not node.args and not node.keywords:
            yield (node, "np.random.default_rng() without a seed draws "
                         "OS entropy; runs are not reproducible")
        elif node.args and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, (int, float)):
            yield (node,
                   f"hard-coded seed default_rng({node.args[0].value!r}) "
                   f"in library code; thread the seed (or a Generator) "
                   f"from the caller/config so experiments stay "
                   f"reproducible end-to-end from one seed")


# --------------------------------------------------------------------------- #
class WallClockInEventsRule(Rule):
    """``wall-clock-in-events``: event handlers live in simulated time.

    ``serving/events.py`` is the discrete-event core: every actor takes
    its notion of "now" from the scheduler (event ``t`` / ``sched.now``).
    A wall-clock read (``time.time``, ``perf_counter``, ``monotonic``)
    inside the core couples firing order or payloads to host speed and
    breaks replay determinism.  Designated profiling sites (the engine
    times the loop *around* ``sched.run()``, never inside it) carry the
    pragma.

    ``serving/measured.py`` is in scope too, with no exception: its
    durations are the seconds ``SoftwareBackend.compute`` returns (the
    one timed kernel call, in ``repro.pipeline``), so a clock read there
    would be a second timer.
    """

    name = "wall-clock-in-events"
    summary = ("no time.time/perf_counter/monotonic inside the event core "
               "(serving/events.py, serving/measured.py); handlers use "
               "scheduler time and measured durations come from "
               "SoftwareBackend.compute")

    _CLOCKS = {"time", "perf_counter", "monotonic", "process_time",
               "thread_time", "perf_counter_ns", "monotonic_ns",
               "time_ns"}

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.path.endswith(("serving/events.py",
                                  "serving/measured.py"))

    def visit(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        from_imports = {
            a.asname or a.name
            for n in ast.walk(ctx.tree)
            if isinstance(n, ast.ImportFrom) and n.module == "time"
            for a in n.names}
        for node in ast.walk(ctx.tree):
            name = None
            if isinstance(node, ast.Attribute):
                dotted = dotted_name(node)
                if dotted and dotted.startswith("time.") \
                        and dotted.split(".")[1] in self._CLOCKS:
                    name = dotted
            elif isinstance(node, ast.Name) and node.id in from_imports:
                name = node.id
            if name is not None:
                yield (node,
                       f"wall-clock {name} inside the event core; "
                       f"handlers must take time from the scheduler "
                       f"(event t / sched.now)")


# --------------------------------------------------------------------------- #
class UnorderedIterationRule(Rule):
    """``unordered-iteration``: no set/``.keys()`` iteration in serving.

    Event scheduling and report assembly sit behind the
    ``(t, priority, seq)`` total order and the canonical-JSON contract;
    iterating a ``set`` (hash order) anywhere on those paths reintroduces
    run-to-run nondeterminism that the goldens cannot catch until it
    bites.  Iterate ``sorted(...)`` instead; ``.keys()`` is flagged too —
    dict order is insertion order, so spell it ``for k in d`` (the
    explicit ``.keys()`` form is where set-like view arithmetic creeps
    in).
    """

    name = "unordered-iteration"
    summary = ("no iteration over sets or dict .keys() in serving/ or "
               "analysis/ (order feeds scheduling/reports); use sorted()")

    def applies_to(self, ctx: FileContext) -> bool:
        return ("/serving/" in ctx.path or "/analysis/" in ctx.path) \
            and not ctx.is_test

    def visit(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        iters: list[ast.AST] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if isinstance(it, (ast.Set, ast.SetComp)):
                yield (it, "iterating a set literal/comprehension: hash "
                           "order is nondeterministic across runs; wrap "
                           "in sorted()")
            elif isinstance(it, ast.Call):
                dotted = dotted_name(it.func)
                if isinstance(it.func, ast.Name) and it.func.id == "set":
                    yield (it, "iterating set(...): hash order is "
                               "nondeterministic across runs; wrap in "
                               "sorted()")
                elif dotted and dotted.endswith(".keys") \
                        and not it.args and not it.keywords:
                    yield (it, "iterating .keys(): spell it `for k in d` "
                               "(insertion order) or sorted(d) if the "
                               "order feeds a report")


# --------------------------------------------------------------------------- #
class FloatSumReportRule(Rule):
    """``float-sum-report``: no order-sensitive float accumulation.

    Builtin ``sum()`` over floats accumulates left-to-right, so any
    reordering of the iterable (a refactor, a parallel merge) perturbs
    the low bits — and the golden reports pin those bits.  On serving
    report paths, ``sum()`` is allowed only over provably-integer
    summands (``len(...)``, ``int(...)``, integer literals); float
    reductions must use ``math.fsum`` (order-insensitive) or a numpy
    reduction over an array whose order is documented-stable, with the
    pragma naming that order.
    """

    name = "float-sum-report"
    summary = ("builtin sum() on serving report paths only over int "
               "summands (len/int/literal); floats need math.fsum or a "
               "documented stable order")

    def applies_to(self, ctx: FileContext) -> bool:
        return "/serving/" in ctx.path and not ctx.is_test

    @staticmethod
    def _int_summand(elt: ast.AST) -> bool:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, int):
            return True
        if isinstance(elt, ast.Call) and isinstance(elt.func, ast.Name) \
                and elt.func.id in ("len", "int"):
            return True
        return False

    def visit(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "sum" and node.args):
                continue
            arg = node.args[0]
            elt = arg.elt if isinstance(arg, (ast.GeneratorExp,
                                              ast.ListComp)) else arg
            if not self._int_summand(elt):
                yield (node,
                       "builtin sum() with a non-integer summand on a "
                       "report path: accumulation order perturbs the low "
                       "bits the goldens pin; use math.fsum, or pragma "
                       "with the documented stable order")


# --------------------------------------------------------------------------- #
class SchedulerPurityRule(Rule):
    """``scheduler-purity``: actors use the scheduler's public API only.

    Outside ``serving/events.py`` (the scheduler's own module), code
    holding a scheduler reference may call ``schedule`` / ``schedule_run``
    / ``record`` / ``run`` and read public state, but may
    not reach into private internals (``_heap``, ``_runs``, ``_seq``...)
    or assign any scheduler attribute (``sched.now = ...``) — that is how
    an actor silently forks the ``(t, priority, seq)`` total order the
    whole exactness story depends on.
    """

    name = "scheduler-purity"
    summary = ("actors touch the scheduler only via its public API; no "
               "private-attribute access or attribute assignment outside "
               "events.py")

    _SCHED_NAMES = {"sched", "_sched", "scheduler", "_scheduler"}

    def applies_to(self, ctx: FileContext) -> bool:
        return "/serving/" in ctx.path \
            and not ctx.path.endswith("serving/events.py") \
            and not ctx.is_test

    def _is_scheduler_expr(self, node: ast.AST) -> bool:
        # `sched` / `self.sched` / `self._sched` (any base object)
        if isinstance(node, ast.Name):
            return node.id in self._SCHED_NAMES
        if isinstance(node, ast.Attribute):
            return node.attr in self._SCHED_NAMES
        return False

    def visit(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if not self._is_scheduler_expr(node.value):
                continue
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                yield (node,
                       f"assigning scheduler attribute .{node.attr}: "
                       f"actors may only mutate scheduler state through "
                       f"schedule/schedule_run/record")
            elif node.attr.startswith("_"):
                yield (node,
                       f"private scheduler internal .{node.attr} accessed "
                       f"outside events.py; use the public API "
                       f"(schedule/schedule_run/record/run)")


# --------------------------------------------------------------------------- #
ALL_RULES = (UnseededRngRule, WallClockInEventsRule, UnorderedIterationRule,
             FloatSumReportRule, SchedulerPurityRule)


def default_rules() -> list[Rule]:
    """Fresh instances of the full ruleset (rules are stateless)."""
    return [cls() for cls in ALL_RULES]
