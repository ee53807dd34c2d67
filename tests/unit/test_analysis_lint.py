"""Unit tests for ``repro-lint`` (repro.analysis.linting / rules).

Every rule gets a fire/silent pair: a minimal bad example that must
produce exactly the expected finding, and the fixed idiom that must stay
silent.  Paths are faked ("src/repro/serving/engine.py", ...) because
rules scope themselves by path; sources are synthetic snippets.
"""

import os

from repro.analysis import ALL_RULES, LintFinding, default_rules, lint_file
from repro.analysis.cli import main as lint_main
from repro.analysis.rules import (FloatSumReportRule, SchedulerPurityRule,
                                  UnorderedIterationRule, UnseededRngRule,
                                  WallClockInEventsRule)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def findings_for(rule_cls, path, source):
    return lint_file(path, [rule_cls()], source=source)


def rule_names(findings):
    return [f.rule for f in findings]


# --------------------------------------------------------------------------- #
class TestUnseededRng:
    PATH = "src/repro/models/tgnn.py"

    def test_legacy_global_api_fires(self):
        src = ("import numpy as np\n"
               "def f():\n"
               "    return np.random.rand(3)\n")
        fs = findings_for(UnseededRngRule, self.PATH, src)
        assert rule_names(fs) == ["unseeded-rng"]
        assert "np.random.rand" in fs[0].message

    def test_unseeded_default_rng_fires(self):
        src = ("import numpy as np\n"
               "rng = np.random.default_rng()\n")
        fs = findings_for(UnseededRngRule, self.PATH, src)
        assert rule_names(fs) == ["unseeded-rng"]
        assert "OS entropy" in fs[0].message

    def test_hardcoded_seed_fires(self):
        src = ("import numpy as np\n"
               "def f():\n"
               "    return np.random.default_rng(42)\n")
        fs = findings_for(UnseededRngRule, self.PATH, src)
        assert rule_names(fs) == ["unseeded-rng"]
        assert "hard-coded seed" in fs[0].message

    def test_stdlib_random_fires(self):
        src = ("import random\n"
               "def f():\n"
               "    return random.random()\n")
        fs = findings_for(UnseededRngRule, self.PATH, src)
        assert rule_names(fs) == ["unseeded-rng"]

    def test_threaded_generator_silent(self):
        src = ("import numpy as np\n"
               "def f(rng, spec):\n"
               "    a = rng.normal(size=3)\n"
               "    b = np.random.default_rng(spec.seed)\n"
               "    c = np.random.default_rng(seed)\n"
               "    return a, b, c\n")
        assert findings_for(UnseededRngRule, self.PATH, src) == []

    def test_tests_are_exempt(self):
        src = ("import numpy as np\n"
               "rng = np.random.default_rng(0)\n")
        assert findings_for(UnseededRngRule,
                            "tests/unit/test_x.py", src) == []


class TestWallClockInEvents:
    EVENTS = "src/repro/serving/events.py"

    def test_perf_counter_fires_in_events(self):
        src = ("import time\n"
               "def handler():\n"
               "    return time.perf_counter()\n")
        fs = findings_for(WallClockInEventsRule, self.EVENTS, src)
        assert rule_names(fs) == ["wall-clock-in-events"]

    def test_from_import_alias_fires(self):
        src = ("from time import monotonic\n"
               "def handler():\n"
               "    return monotonic()\n")
        fs = findings_for(WallClockInEventsRule, self.EVENTS, src)
        assert any("monotonic" in f.message for f in fs)

    def test_other_modules_are_out_of_scope(self):
        src = ("import time\n"
               "t0 = time.perf_counter()\n")
        assert findings_for(WallClockInEventsRule,
                            "src/repro/serving/engine.py", src) == []

    def test_scheduler_time_silent(self):
        src = ("def handler(sched, event):\n"
               "    return sched.now + event.t\n")
        assert findings_for(WallClockInEventsRule, self.EVENTS, src) == []

    MEASURED = "src/repro/serving/measured.py"

    def test_measured_module_in_scope(self):
        src = ("import time\n"
               "def reconcile():\n"
               "    return time.perf_counter()\n")
        fs = findings_for(WallClockInEventsRule, self.MEASURED, src)
        assert rule_names(fs) == ["wall-clock-in-events"]


class TestUnorderedIteration:
    PATH = "src/repro/serving/router.py"

    def test_set_literal_fires(self):
        src = "xs = [x for x in {3, 1, 2}]\n"
        fs = findings_for(UnorderedIterationRule, self.PATH, src)
        assert rule_names(fs) == ["unordered-iteration"]

    def test_set_call_fires(self):
        src = ("def f(items):\n"
               "    for x in set(items):\n"
               "        pass\n")
        fs = findings_for(UnorderedIterationRule, self.PATH, src)
        assert rule_names(fs) == ["unordered-iteration"]

    def test_keys_fires(self):
        src = ("def f(d):\n"
               "    for k in d.keys():\n"
               "        pass\n")
        fs = findings_for(UnorderedIterationRule, self.PATH, src)
        assert ".keys()" in fs[0].message

    def test_sorted_and_plain_dict_silent(self):
        src = ("def f(d, items):\n"
               "    for x in sorted(set(items)):\n"
               "        pass\n"
               "    for k in d:\n"
               "        pass\n")
        assert findings_for(UnorderedIterationRule, self.PATH, src) == []

    def test_outside_serving_is_out_of_scope(self):
        src = "xs = [x for x in {3, 1, 2}]\n"
        assert findings_for(UnorderedIterationRule,
                            "src/repro/models/tgnn.py", src) == []


class TestFloatSumReport:
    PATH = "src/repro/serving/engine.py"

    def test_float_sum_fires(self):
        src = "total = sum(j.wait_s for j in jobs)\n"
        fs = findings_for(FloatSumReportRule, self.PATH, src)
        assert rule_names(fs) == ["float-sum-report"]

    def test_integer_summands_silent(self):
        src = ("a = sum(len(b.edges) for b in batches)\n"
               "b = sum(int(x) for x in xs)\n"
               "c = sum(1 for _ in xs)\n")
        assert findings_for(FloatSumReportRule, self.PATH, src) == []

    def test_fsum_silent(self):
        src = ("import math\n"
               "total = math.fsum(j.wait_s for j in jobs)\n")
        assert findings_for(FloatSumReportRule, self.PATH, src) == []


class TestSchedulerPurity:
    PATH = "src/repro/serving/rebalance.py"

    def test_private_internal_fires(self):
        src = ("def f(sched):\n"
               "    sched._heap.append(None)\n")
        fs = findings_for(SchedulerPurityRule, self.PATH, src)
        assert rule_names(fs) == ["scheduler-purity"]
        assert "_heap" in fs[0].message

    def test_attribute_assignment_fires(self):
        src = ("def f(self):\n"
               "    self.sched.now = 0.0\n")
        fs = findings_for(SchedulerPurityRule, self.PATH, src)
        assert rule_names(fs) == ["scheduler-purity"]

    def test_public_api_silent(self):
        src = ("def f(sched, t, prio, ev, cb):\n"
               "    sched.schedule(t, prio, ev, cb)\n"
               "    sched.cancel(ev)\n"
               "    sched.record(ev)\n"
               "    return sched.now\n")
        assert findings_for(SchedulerPurityRule, self.PATH, src) == []

    def test_events_py_is_exempt(self):
        src = ("def f(sched):\n"
               "    sched._heap.append(None)\n")
        assert findings_for(SchedulerPurityRule,
                            "src/repro/serving/events.py", src) == []


# --------------------------------------------------------------------------- #
class TestPragmaSuppression:
    def test_named_pragma_waives_one_rule(self):
        src = ("import time\n"
               "t0 = time.perf_counter()  "
               "# repro-lint: ok=wall-clock-in-events (profiling site)\n")
        assert findings_for(WallClockInEventsRule,
                            "src/repro/serving/events.py", src) == []

    def test_ok_all_waives_everything(self):
        src = ("import numpy as np\n"
               "rng = np.random.default_rng()  # repro-lint: ok=all (demo)\n")
        assert lint_file("src/repro/models/x.py", default_rules(),
                         source=src) == []

    def test_pragma_for_other_rule_does_not_waive(self):
        src = ("import time\n"
               "t0 = time.perf_counter()  "
               "# repro-lint: ok=unseeded-rng (wrong rule)\n")
        fs = findings_for(WallClockInEventsRule,
                          "src/repro/serving/events.py", src)
        assert rule_names(fs) == ["wall-clock-in-events"]


class TestFramework:
    def test_finding_render_format(self):
        f = LintFinding("src/x.py", 3, 7, "unseeded-rng", "boom")
        assert f.render() == "src/x.py:3:7: [unseeded-rng] boom"

    def test_findings_sorted_and_located(self):
        src = ("import numpy as np\n"
               "b = np.random.default_rng()\n"
               "a = np.random.rand(2)\n")
        fs = findings_for(UnseededRngRule, "src/repro/models/x.py", src)
        assert [f.line for f in fs] == [2, 3]
        assert all(f.path == "src/repro/models/x.py" for f in fs)


# --------------------------------------------------------------------------- #
class TestCli:
    def test_repo_src_is_clean(self):
        """The acceptance gate: `repro-lint src/` exits 0 on this repo."""
        lines = []
        rc = lint_main([os.path.join(REPO_ROOT, "src")], out=lines.append)
        assert rc == 0, "\n".join(lines)
        assert lines[-1].startswith("repro-lint: clean")

    def test_findings_exit_one(self, tmp_path):
        bad = tmp_path / "module.py"
        bad.write_text("import numpy as np\n"
                       "rng = np.random.default_rng()\n")
        lines = []
        rc = lint_main([str(bad)], out=lines.append)
        assert rc == 1
        assert any("[unseeded-rng]" in ln for ln in lines)

    def test_select_unknown_rule_exits_two(self):
        lines = []
        rc = lint_main(["--select", "no-such-rule", "src"],
                       out=lines.append)
        assert rc == 2

    def test_list_rules_covers_full_ruleset(self):
        lines = []
        rc = lint_main(["--list-rules"], out=lines.append)
        assert rc == 0
        listed = {ln.split(":", 1)[0] for ln in lines}
        assert listed == {cls.name for cls in ALL_RULES}
        assert len(ALL_RULES) >= 5

    def test_select_scopes_ruleset(self, tmp_path):
        bad = tmp_path / "module.py"
        bad.write_text("import numpy as np\n"
                       "rng = np.random.default_rng()\n")
        lines = []
        rc = lint_main(["--select", "scheduler-purity", str(bad)],
                       out=lines.append)
        assert rc == 0  # the only violation is an unseeded-rng one
