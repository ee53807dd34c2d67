"""The whole ``serve-sim`` flag space, driven through ``repro.cli.main``.

``main(argv, out)`` is already "config as data": one argv is one fleet.
Every draw must end as a clean refusal (exit 2, one ``error:`` line, no
report) or as a run whose own trace replays clean and whose report is
strict, reproducible JSON — never a traceback, never exit 3.
"""

import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main


def flag(name, values):
    return values.map(lambda v: [name, str(v)])


def optional(*parts):
    """Nothing, or the words of every part (itself possibly optional)."""
    return st.just([]) | words(*parts)


def words(*parts):
    return st.tuples(*parts).map(
        lambda groups: [word for group in groups for word in group])


# 0 and "far more than there are vertices" sit beside the plausible sizes.
SIZES = st.sampled_from([0, 1, 2, 8, 10 ** 6])


def floats(*plausible):
    """A float flag's plausible values beside the two that ``float()``
    parses and every ``x <= 0`` guard lets through."""
    return st.sampled_from([*plausible, "nan", "inf"])


# A finite slow-down so large that the sums of the service times overflow.
DEGRADATIONS = floats(1.5, 4, "1e308")

serve_sim_flags = words(
    flag("--backend", st.sampled_from(["cpu-32t", "gpu", "u200"])),
    flag("--edges", st.integers(1, 300)),
    flag("--shards", st.integers(1, 4)),
    flag("--streams", st.integers(1, 5)),
    # From many windows per stream down to one window holding the stream.
    flag("--window-s", st.sampled_from([60, 900, 3600, 86400, 1e7])),
    flag("--speedup", st.sampled_from([1, 2, 2000, 1e6])),
    flag("--topology", st.sampled_from(["sharded", "pool", "hybrid"])),
    flag("--placement", st.sampled_from(["hash", "rebalance", "replicate"])),
    flag("--memsync", st.sampled_from(["none", "invalidate", "push"])),
    flag("--ingest", st.sampled_from(["serial", "pipelined"])),
    optional(flag("--batch-edges", st.sampled_from([0, 1, 16, 128]))),
    optional(flag("--deadline-ms", floats(0, 1, 50))),
    optional(flag("--queue-capacity", st.sampled_from([0, 1, 4]))),
    optional(flag("--pool-servers", SIZES)),
    optional(flag("--hot-top-k", SIZES)),
    optional(flag("--replicate-top-k", SIZES)),
    # Every subset of the three ownership controllers.
    optional(st.just(["--rebalance-online"]),
             optional(flag("--rebalance-threshold", floats(0.05))),
             optional(flag("--rebalance-window", floats(0.5)))),
    optional(flag("--fail-at", st.sampled_from([0, 1, 100])),
             optional(flag("--fail-shard", st.integers(0, 4))),
             optional(flag("--fail-mode", st.sampled_from(["dead", "slow"]))),
             optional(flag("--fail-degradation", DEGRADATIONS)),
             optional(flag("--recover-at", floats(2, 1000)))),
    optional(st.just(["--autoscale"]),
             flag("--slo-p95", floats(1e-6, 0.01, 1)),
             optional(flag("--max-servers", st.integers(1, 6))),
             optional(flag("--scale-window", floats(0.5, 100)))),
)

# The corner one fleet path opened, drawn densely: every controller and
# every memsync policy on a pool (one station: a slow failure runs, a dead
# one is refused for want of a survivor), and failures on a hybrid's
# dedicated shards and on its pool station.
one_path_flags = words(
    flag("--backend", st.sampled_from(["cpu-32t", "u200"])),
    flag("--edges", st.integers(30, 300)),
    flag("--shards", st.integers(1, 3)),
    flag("--streams", st.integers(1, 3)),
    flag("--window-s", st.sampled_from([900, 3600])),
    flag("--speedup", st.sampled_from([2, 2000])),
    flag("--topology", st.sampled_from(["pool", "hybrid"])),
    flag("--memsync", st.sampled_from(["none", "invalidate", "push"])),
    optional(flag("--pool-servers", st.integers(1, 3))),
    optional(st.just(["--rebalance-online"]),
             optional(flag("--rebalance-threshold", floats(0.05))),
             optional(flag("--rebalance-window", floats(0.5)))),
    flag("--fail-at", st.sampled_from([0, 1, 100])),
    flag("--fail-mode", st.sampled_from(["dead", "slow"])),
    optional(flag("--fail-degradation", DEGRADATIONS)),
    optional(flag("--fail-shard", st.integers(0, 3))),
    optional(flag("--recover-at", floats(2, 1000))),
    optional(st.just(["--autoscale"]),
             flag("--slo-p95", floats(1e-6, 1))),
)

POOL = ["--edges", "200", "--shards", "2", "--streams", "2", "--backend",
        "cpu-32t", "--window-s", "3600", "--speedup", "2000", "--topology"]
POOL_RUNS_EVERY_CONTROLLER = POOL + [
    "pool", "--memsync", "push", "--rebalance-online", "--fail-at", "0.2",
    "--fail-mode", "slow", "--recover-at", "0.6"]
POOL_HAS_NO_SURVIVOR = POOL + ["pool", "--fail-at", "0.2"]
HYBRID_SHARD_DIES = POOL + [
    "hybrid", "--fail-at", "0.2", "--recover-at", "0.6",
    "--rebalance-online", "--memsync", "push"]
ELASTIC_LONE_SHARD_DIES = [
    "--edges", "30", "--shards", "1", "--backend", "cpu-32t",
    "--window-s", "3600", "--autoscale", "--slo-p95", "1",
    "--fail-at", "1", "--fail-shard", "0"]
JOBS_RELEASED_AT_ONE_INSTANT = [
    "--edges", "30", "--shards", "3", "--streams", "5", "--window-s", "1e7",
    "--backend", "cpu-32t", "--batch-edges", "128"]
# Ran clean and reported a recovery (and its fail-back rows) at t = inf.
RECOVERY_NEVER_COMES = ["--edges", "300", "--shards", "2", "--streams", "2",
                        "--fail-at", "0.0", "--recover-at", "inf"]
# The examples that must be refused, not merely end cleanly.
REFUSED = (POOL_HAS_NO_SURVIVOR, ELASTIC_LONE_SHARD_DIES,
           RECOVERY_NEVER_COMES)


def serve_sim(flags, path):
    lines = []
    code = main(["serve-sim", "--memory-dim", "8", *flags, "--check-trace",
                 "--json", path], out=lines.append)
    return code, [str(line) for line in lines]


def reject(constant):
    raise AssertionError(f"{constant} is not strict JSON")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(serve_sim_flags | one_path_flags)
@example(POOL_RUNS_EVERY_CONTROLLER)
@example(POOL_HAS_NO_SURVIVOR)
@example(HYBRID_SHARD_DIES)
@example(ELASTIC_LONE_SHARD_DIES)
@example(JOBS_RELEASED_AT_ONE_INSTANT)
@example(RECOVERY_NEVER_COMES)
def test_every_serve_sim_argv_is_a_clean_error_or_a_clean_run(flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        code, lines = serve_sim(flags, path)
        assert code in (0, 2), lines
        assert code == 2 or flags not in REFUSED, lines
        if code == 2:
            # Ahead of it only narration: ``note:`` lines, or what a
            # placement pass reported before the fleet was refused.
            assert [ln.startswith("error: ") for ln in lines] \
                == [False] * (len(lines) - 1) + [True], lines
            assert all(ln.startswith(("note: ", "rebalance: ", "replicate: "))
                       for ln in lines[:-1]), lines
            assert not os.path.exists(path)
            return
        assert any(ln.startswith("trace check: clean") for ln in lines), lines
        with open(path, "rb") as f:
            first = f.read()
        report = json.loads(first, parse_constant=reject)
        assert report["served_edges"] <= report["ingested_edges"]
        os.remove(path)
        assert serve_sim(flags, path)[0] == 0
        with open(path, "rb") as f:
            assert f.read() == first
