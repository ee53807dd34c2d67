"""Unit tests for the CLI (in-process invocation, no subprocesses)."""

import dataclasses
import hashlib
import json
import numbers
import os
from unittest import mock

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.models import TGNN, save_model
from tests.unit.test_extensions import (BAD_KINDS, SMALL,
                                        write_bad_checkpoint)


def run(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, "\n".join(str(x) for x in lines)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])


class TestInfo:
    def test_lists_datasets_and_designs(self):
        code, text = run(["info"])
        assert code == 0
        assert "wikipedia" in text and "gdelt" in text
        assert "u200" in text and "zcu104" in text


class TestTrainEvalInfer:
    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("ckpt") / "model.npz")
        code, text = run([
            "train", "--dataset", "wikipedia", "--edges", "600",
            "--epochs", "1", "--batch-size", "100", "--memory-dim", "12",
            "--neighbors", "4", "--simplified", "--lut", "--prune", "2",
            "--out", path])
        assert code == 0
        assert "saved checkpoint" in text
        return path

    def test_eval(self, checkpoint):
        code, text = run(["eval", "--model", checkpoint,
                          "--dataset", "wikipedia", "--edges", "600"])
        assert code == 0
        assert "AP" in text

    def test_infer_software(self, checkpoint):
        code, text = run(["infer", "--model", checkpoint,
                          "--dataset", "wikipedia", "--edges", "600",
                          "--backend", "software"])
        assert code == 0
        assert "kE/s" in text and "measured" in text

    def test_infer_simulated(self, checkpoint):
        code, text = run(["infer", "--model", checkpoint,
                          "--dataset", "wikipedia", "--edges", "600",
                          "--backend", "zcu104"])
        assert code == 0
        assert "simulated (zcu104)" in text

    def test_distillation_path(self, checkpoint, tmp_path):
        student = str(tmp_path / "student.npz")
        code, text = run([
            "train", "--dataset", "wikipedia", "--edges", "600",
            "--epochs", "1", "--batch-size", "100", "--memory-dim", "12",
            "--neighbors", "4", "--simplified",
            "--teacher", checkpoint, "--out", student])
        assert code == 0
        assert "distilled" in text
        assert os.path.exists(student)

    @pytest.mark.parametrize("argv", [
        # Pruning needs the simplified attention (a ValueError).
        ["train", "--edges", "300", "--prune", "4", "--out", "{tmp}/m.npz"],
        # An empty history died on ``hist[-1]``.
        ["train", "--edges", "300", "--epochs", "0", "--out", "{tmp}/m.npz"],
        ["train", "--edges", "300", "--batch-size", "0",
         "--out", "{tmp}/m.npz"],
        # A checkpoint that is not there (a FileNotFoundError).
        ["eval", "--edges", "300", "--model", "{tmp}/missing.npz"],
        ["infer", "--edges", "300", "--model", "{tmp}/missing.npz"],
        # Checkpoints that are there but make no model (four of them were
        # a KeyError, TypeError or IndexError traceback).
        *(["eval", "--edges", "300", "--model", f"{{tmp}}/bad-{kind}.npz"]
          for kind in BAD_KINDS),
        # A good checkpoint for 172-wide edge features and no node
        # features, run on gdelt's graph (no edge features, 200-wide node
        # features): a shape mismatch inside the memory stage.
        ["eval", "--edges", "300", "--dataset", "gdelt",
         "--model", "{tmp}/small.npz"],
        ["infer", "--edges", "300", "--dataset", "gdelt",
         "--model", "{tmp}/small.npz"],
        ["dse", "--batch-size", "0"],
        ["trace", "--batches", "0"],
    ], ids=" ".join)
    def test_bad_input_is_a_clean_error(self, argv, tmp_path):
        """Every command, not only ``serve-sim``, turns the library's
        ``ValueError`` / ``OSError`` into exit 2 and one ``error:`` line;
        a model that does not fit the graph's features says so."""
        argv = [a.format(tmp=tmp_path) for a in argv]
        for a in argv:
            name = os.path.basename(a)
            if name.startswith("bad-"):
                write_bad_checkpoint(tmp_path / name,
                                     name[len("bad-"):-len(".npz")])
            elif name == "small.npz":
                save_model(TGNN(SMALL, rng=np.random.default_rng(0)), a)
        code, text = run(argv)
        assert code == 2
        assert [ln.startswith("error: ") for ln in text.splitlines()] \
            == [True]
        assert not (tmp_path / "m.npz").exists()
        if (tmp_path / "small.npz").exists():
            assert text == ("error: the model takes edge_dim=172, "
                            "node_dim=0 but the graph has edge_dim=0, "
                            "node_dim=200")


class TestServeSim:
    def test_serve_sim_four_by_four(self):
        code, text = run(["serve-sim", "--dataset", "wikipedia",
                          "--edges", "600", "--shards", "4",
                          "--streams", "4", "--speedup", "2.0",
                          "--window-s", "3600", "--backend", "cpu-32t",
                          "--memory-dim", "8"])
        assert code == 0
        assert "4 shard(s) x 4 stream(s) @ 2x" in text
        assert text.count("shard ") >= 4
        assert "p95" in text and "cross-shard edges" in text
        assert "stable" in text

    def test_serve_sim_single_shard_with_batching(self):
        code, text = run(["serve-sim", "--dataset", "wikipedia",
                          "--edges", "600", "--shards", "1",
                          "--streams", "1", "--backend", "cpu-32t",
                          "--window-s", "3600", "--deadline-ms", "50",
                          "--batch-edges", "128", "--memory-dim", "8"])
        assert code == 0
        assert "1 shard(s) x 1 stream(s)" in text

    def test_serve_sim_backend_choices_track_registry(self):
        from repro.serving import DEFAULT_REGISTRY
        sub = [a for a in build_parser()._subparsers._group_actions[0]
               .choices["serve-sim"]._actions if a.dest == "backend"][0]
        assert list(sub.choices) == DEFAULT_REGISTRY.available()

    def test_serve_sim_u200_prices_die_crossings(self):
        code, text = run(["serve-sim", "--dataset", "wikipedia",
                          "--edges", "400", "--shards", "2",
                          "--streams", "2", "--backend", "u200",
                          "--window-s", "3600", "--memory-dim", "8"])
        assert code == 0
        assert "die crossings" in text

    def test_serve_sim_rebalance_profiles_then_migrates(self):
        # A near-zero threshold guarantees the profiling pass flags every
        # loaded shard, so migrations must happen.
        code, text = run(["serve-sim", "--dataset", "wikipedia",
                          "--edges", "600", "--shards", "4",
                          "--streams", "4", "--backend", "cpu-32t",
                          "--window-s", "3600", "--memory-dim", "8",
                          "--placement", "rebalance",
                          "--util-threshold", "1e-9"])
        assert code == 0
        assert "rebalance: profiled max util" in text
        assert "[placement rebalance]" in text

    def test_serve_sim_replicate_reports_copies(self):
        code, text = run(["serve-sim", "--dataset", "wikipedia",
                          "--edges", "600", "--shards", "4",
                          "--streams", "2", "--backend", "cpu-32t",
                          "--window-s", "3600", "--memory-dim", "8",
                          "--placement", "replicate",
                          "--replicate-top-k", "4"])
        assert code == 0
        assert "replicate: 4 read-mostly" in text
        assert "4 replicated vertices" in text

    def test_serve_sim_pool_topology(self):
        code, text = run(["serve-sim", "--dataset", "wikipedia",
                          "--edges", "600", "--shards", "4",
                          "--streams", "2", "--backend", "cpu-32t",
                          "--window-s", "3600", "--memory-dim", "8",
                          "--topology", "pool"])
        assert code == 0
        assert "pool of 4 replica(s)" in text
        assert "x1.00 replication" in text

    def test_serve_sim_golden_json_determinism(self, tmp_path):
        """Two runs with identical arguments produce byte-identical JSON —
        the guard against hidden RNG or dict-ordering nondeterminism."""
        argv = ["serve-sim", "--dataset", "wikipedia", "--edges", "400",
                "--shards", "4", "--streams", "2", "--backend", "cpu-32t",
                "--window-s", "3600", "--memory-dim", "8", "--seed", "0"]
        paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        for path in paths:
            code, _ = run(argv + ["--json", path])
            assert code == 0
        a, b = (open(p, "rb").read() for p in paths)
        assert a == b
        assert b"replication_factor" in a and b"topology" in a

    def test_serve_sim_memsync_push_prints_sync_traffic(self):
        code, text = run(["serve-sim", "--dataset", "wikipedia",
                          "--edges", "600", "--shards", "4",
                          "--streams", "2", "--backend", "cpu-32t",
                          "--window-s", "3600", "--memory-dim", "8",
                          "--memsync", "push"])
        assert code == 0
        assert "memsync push:" in text
        assert "memory rows synced" in text

    def test_serve_sim_memsync_none_matches_default_byte_for_byte(
            self, tmp_path):
        """Acceptance: --memsync none reproduces today's (no-flag) report."""
        argv = ["serve-sim", "--dataset", "wikipedia", "--edges", "400",
                "--shards", "4", "--streams", "2", "--backend", "cpu-32t",
                "--window-s", "3600", "--memory-dim", "8"]
        paths = [str(tmp_path / "default.json"), str(tmp_path / "none.json")]
        code, text_default = run(argv + ["--json", paths[0]])
        assert code == 0
        code, text_none = run(argv + ["--memsync", "none",
                                      "--json", paths[1]])
        assert code == 0
        a, b = (open(p, "rb").read() for p in paths)
        assert a == b
        # Console output matches too (modulo the JSON path echo line).
        strip = lambda t: [ln for ln in t.splitlines()
                           if not ln.startswith("wrote JSON")]
        assert strip(text_default) == strip(text_none)
        # none stays silent: no memsync traffic line is printed.
        assert not any(ln.startswith("memsync")
                       for ln in text_none.splitlines())

    def test_serve_sim_memsync_json_determinism(self, tmp_path):
        argv = ["serve-sim", "--dataset", "wikipedia", "--edges", "400",
                "--shards", "4", "--streams", "2", "--backend", "cpu-32t",
                "--window-s", "3600", "--memory-dim", "8",
                "--memsync", "invalidate"]
        paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        for path in paths:
            code, _ = run(argv + ["--json", path])
            assert code == 0
        a, b = (open(p, "rb").read() for p in paths)
        assert a == b
        import json
        report = json.loads(a)
        assert report["memsync"] == "invalidate"
        assert report["sync_edges"] > 0
        assert report["stale_reads"] == 0

    def test_serve_sim_pool_ignores_memsync_with_note(self):
        """No note any more: the policy runs on the pool's one station
        and the report says what happened — nothing needed syncing."""
        code, text = run(["serve-sim", "--dataset", "wikipedia",
                          "--edges", "400", "--shards", "2",
                          "--streams", "2", "--backend", "cpu-32t",
                          "--window-s", "3600", "--memory-dim", "8",
                          "--topology", "pool", "--memsync", "push"])
        assert code == 0
        assert "ignored" not in text
        assert "memsync push: 0 memory rows synced, 0 stale reads" in text
        assert "pool of 2 replica(s)" in text

    def test_serve_sim_sharded_ignores_pool_servers_with_note(self):
        base = ["serve-sim", "--dataset", "wikipedia", "--edges", "400",
                "--shards", "2", "--streams", "2", "--backend", "cpu-32t",
                "--window-s", "3600", "--memory-dim", "8"]
        code, plain = run(base)
        assert code == 0 and "--pool-servers" not in plain
        for value in ("3", "0"):
            code, text = run(base + ["--pool-servers", value])
            assert code == 0
            note = (f"note: --pool-servers {value} is ignored in sharded "
                    f"topology")
            assert note in text
            # The note is the only difference: the flag changed nothing.
            assert [ln for ln in text.splitlines()
                    if not ln.startswith(note)] == plain.splitlines()

    def test_serve_sim_json_covers_every_topology(self, tmp_path):
        for i, extra in enumerate((["--topology", "pool"],
                                   ["--placement", "replicate"],
                                   ["--topology", "hybrid"])):
            path = str(tmp_path / f"r{i}.json")
            code, _ = run(["serve-sim", "--dataset", "wikipedia",
                           "--edges", "400", "--shards", "2",
                           "--streams", "2", "--backend", "cpu-32t",
                           "--window-s", "3600", "--memory-dim", "8",
                           "--json", path] + extra)
            assert code == 0
            import json
            with open(path) as f:
                report = json.load(f)
            assert report["stable"] in (True, False)
            assert report["replication_factor"] >= 1.0

    def test_human_report_never_zeroes_a_nonzero_value(self, tmp_path):
        """Units follow the magnitude: at the default load (``--window-s``
        / ``--speedup`` / ``--streams`` untouched; a small graph and the
        priced backend only keep the test fast) utilization is ~1e-5 and
        throughput ~1e-3 E/s, which fixed ``%.2f`` / kE/s units printed
        as ``0.00``."""
        import json
        import re
        path = str(tmp_path / "report.json")
        code, text = run(["serve-sim", "--edges", "400", "--backend",
                          "cpu-32t", "--memory-dim", "8", "--json", path])
        assert code == 0
        with open(path) as f:
            report = json.load(f)
        shown = []      # (printed figure, the value behind it)
        for stats, line in zip(report["shard_stats"], text.splitlines()[1:]):
            m = re.search(r"util (\S+)% .* wait (\S+) \S+  p95 (\S+) ", line)
            shown += zip(m.groups(), (stats["utilization"],
                                      stats["mean_wait_s"],
                                      stats["p95_response_s"]))
        m = re.search(r"p95 (\S+) \S+ / p99 (\S+) \S+, throughput (\S+) ",
                      text)
        shown += zip(m.groups(), (report["p95_response_s"],
                                  report["p99_response_s"],
                                  report["throughput_eps"]))
        assert len(shown) == 3 * report["num_shards"] + 3
        for figure, value in shown:
            assert (float(figure) == 0) == (value == 0), (figure, value)

    @pytest.mark.parametrize("extra", [
        ["--window-s", "0"],
        ["--speedup", "0"],
        ["--streams", "0"],
        ["--shards", "0"],
        ["--queue-capacity", "-1"],
        ["--batch-edges", "0"],
        ["--deadline-ms", "-1"],
        ["--fail-at", "10", "--fail-shard", "7"],
        ["--fail-at", "10", "--fail-shard", "0", "--shards", "1"],
        ["--edges", "30", "--shards", "1", "--window-s", "3600",
         "--autoscale", "--slo-p95", "1", "--fail-at", "1",
         "--fail-shard", "0", "--check-trace"],
        ["--fail-at", "10", "--recover-at", "5"],
        ["--topology", "pool", "--pool-servers", "0"],
        ["--rebalance-online", "--rebalance-window", "0"],
        ["--speedup", "0", "--rebalance-online"],
        ["--speedup", "0", "--autoscale", "--slo-p95", "0.01"],
        ["--window-s", "nan"],
        # Instants near 2.6e12 s rounded every service to 0: p95 0, exit 0.
        ["--speedup", "1e-6"],
        ["--window-s", "inf"],
        ["--window-s", "1e-12"],
        ["--speedup", "nan"],
        ["--edges", "0"],
        ["--memory-dim", "0"],
        # NaN is False under every ``x <= 0`` / ``x < lo`` comparison.
        ["--fail-at", "1", "--recover-at", "nan"],
        ["--autoscale", "--slo-p95", "nan"],
        ["--autoscale", "--slo-p95", "inf"],
        ["--autoscale", "--slo-p95", "1", "--scale-window", "nan"],
        ["--fail-at", "1", "--fail-mode", "slow", "--fail-degradation",
         "nan"],
        # inf died in to_json; 1e308 overflowed the mean response to inf.
        ["--fail-at", "0", "--fail-mode", "slow", "--fail-degradation",
         "inf"],
        ["--fail-at", "0", "--fail-mode", "slow", "--fail-degradation",
         "1e308"],
        # A recovery at t = inf reported one and priced its fail-back.
        ["--fail-at", "0", "--recover-at", "inf", "--check-trace"],
        ["--deadline-ms", "nan"],
        ["--rebalance-online", "--rebalance-window", "nan"],
        # A window that never closes exited 0 with no migration.
        ["--rebalance-online", "--rebalance-window", "inf"],
        ["--rebalance-online", "--rebalance-threshold", "nan"],
        # A threshold no utilization exceeds made no migration, exit 0.
        ["--rebalance-online", "--rebalance-threshold", "inf"],
        ["--placement", "rebalance", "--util-threshold", "inf"],
        # A checkpoint that is not there was a FileNotFoundError traceback.
        ["--model", "no-such-checkpoint.npz"],
    ], ids=" ".join)
    def test_degenerate_values_are_clean_errors(self, extra, tmp_path):
        """The CLI validates nothing itself: whatever the library rejects
        comes back as exit 2 and one ``error:`` line, never a traceback
        and never a report."""
        path = tmp_path / "report.json"
        code, text = run(["serve-sim", "--edges", "300", "--backend",
                          "cpu-32t", "--memory-dim", "8",
                          "--json", str(path)] + extra)
        assert code == 2
        assert [ln.startswith("error: ") for ln in text.splitlines()] \
            == [True]
        assert "Traceback" not in text
        assert not path.exists()

    def test_unwritable_json_path_is_a_clean_error(self, tmp_path):
        """The report is written last: a ``--json`` into a directory that
        does not exist ends in one ``error:`` line, not a traceback
        after the whole run."""
        path = tmp_path / "missing" / "report.json"
        code, text = run(["serve-sim", "--edges", "300", "--backend",
                          "cpu-32t", "--memory-dim", "8",
                          "--json", str(path)])
        assert code == 2
        lines = text.splitlines()
        assert lines[-1].startswith("error: ")
        assert not any(ln.startswith("error: ") for ln in lines[:-1])
        assert "Traceback" not in text

    @pytest.mark.parametrize("argv", [
        ["serve-sim"], ["train", "--out", "m.npz"],
        ["eval", "--model", "m.npz"], ["infer", "--model", "m.npz"]],
        ids=lambda argv: argv[0])
    def test_unknown_dataset_is_a_usage_error(self, argv, capsys):
        """Every ``--dataset`` flag takes the registry's names only, so a
        typo is argparse's exit 2 (was a ``KeyError`` traceback)."""
        with pytest.raises(SystemExit) as exit_:
            main(argv + ["--dataset", "nope"], out=lambda _line: None)
        assert exit_.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err


class TestServeSimGolden:
    """``--ingest serial`` reports are byte-identical to the pre-event-core
    engine: the first three golden files were generated by the PR 3 engine
    (before the unified scheduler refactor) and pin the serial path
    bit-for-bit.  Later goldens pin the PR that introduced their feature —
    ``serve_sim_rebalance_online.json`` freezes the online-rebalancing
    migration accounting (migration count, handoff rows, post-migration
    queueing statistics) so future PRs cannot silently change it."""

    GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "tests", "golden")

    BASE = ["serve-sim", "--dataset", "wikipedia", "--edges", "400",
            "--shards", "4", "--streams", "2", "--backend", "cpu-32t",
            "--window-s", "3600", "--memory-dim", "8", "--seed", "0"]

    CASES = {
        "serve_sim_sharded.json": [],
        "serve_sim_pool.json": ["--topology", "pool"],
        "serve_sim_memsync_batched.json": [
            "--memsync", "push", "--deadline-ms", "50",
            "--batch-edges", "128", "--placement", "replicate"],
        "serve_sim_rebalance_online.json": [
            "--speedup", "2000", "--rebalance-online",
            "--rebalance-threshold", "0.05"],
        "serve_sim_failover.json": [
            "--memsync", "push", "--placement", "replicate",
            "--speedup", "2000", "--fail-at", "300", "--fail-shard", "1",
            "--recover-at", "700"],
        # Baked at the parent of the one-report-builder refactor: hybrid
        # ``pool_servers``, the ``scaling`` block on both elastic fleets
        # (``--shards 2`` so ``--max-servers 4`` really scales; the pool's
        # ``servers`` stays the initial count), and the ``ingest`` key.
        # Named to sort after the cases above, whose parametrize ids
        # (``...-extraN``) carry their sorted position.
        "serve_sim_topology_hybrid.json": ["--topology", "hybrid"],
        "serve_sim_topology_pool_autoscale.json": [
            "--shards", "2", "--topology", "pool", "--speedup", "2000",
            "--autoscale", "--slo-p95", "1e-6", "--max-servers", "4"],
        "serve_sim_sharded_autoscale.json": [
            "--shards", "2", "--speedup", "2000",
            "--autoscale", "--slo-p95", "1e-6", "--max-servers", "4"],
        "serve_sim_sharded_pipelined.json": [
            "--ingest", "pipelined", "--batch-edges", "128",
            "--deadline-ms", "50"],
    }

    @pytest.mark.parametrize("golden,extra", sorted(CASES.items()))
    def test_serial_reports_byte_identical_to_pre_refactor(
            self, tmp_path, golden, extra):
        path = str(tmp_path / "report.json")
        code, _ = run(self.BASE + extra + ["--json", path])
        assert code == 0
        with open(os.path.join(self.GOLDEN_DIR, golden), "rb") as f:
            want = f.read()
        with open(path, "rb") as f:
            got = f.read()
        assert got == want

    def test_explicit_ingest_serial_flag_matches_default(self, tmp_path):
        """``--ingest serial`` spelled out == the default == the golden."""
        path = str(tmp_path / "report.json")
        code, _ = run(self.BASE + ["--ingest", "serial", "--json", path])
        assert code == 0
        with open(os.path.join(self.GOLDEN_DIR,
                               "serve_sim_sharded.json"), "rb") as f:
            want = f.read()
        with open(path, "rb") as f:
            got = f.read()
        assert got == want


class TestServeSimHybridAndIngest:
    def test_serve_sim_hybrid_topology(self):
        code, text = run(["serve-sim", "--dataset", "wikipedia",
                          "--edges", "600", "--shards", "2",
                          "--streams", "2", "--backend", "cpu-32t",
                          "--window-s", "3600", "--memory-dim", "8",
                          "--topology", "hybrid", "--hot-top-k", "8"])
        assert code == 0
        assert "2 hot shard(s) + pool of 2 replica(s)" in text
        assert "[placement hybrid]" in text
        assert text.count("shard ") >= 3    # 2 hot shards + the pool row

    def test_serve_sim_hybrid_pool_servers_flag(self):
        code, text = run(["serve-sim", "--dataset", "wikipedia",
                          "--edges", "400", "--shards", "2",
                          "--streams", "2", "--backend", "cpu-32t",
                          "--window-s", "3600", "--memory-dim", "8",
                          "--topology", "hybrid", "--pool-servers", "3"])
        assert code == 0
        assert "pool of 3 replica(s)" in text

    def test_serve_sim_hybrid_ignores_placement_with_note(self):
        code, text = run(["serve-sim", "--dataset", "wikipedia",
                          "--edges", "400", "--shards", "2",
                          "--streams", "2", "--backend", "cpu-32t",
                          "--window-s", "3600", "--memory-dim", "8",
                          "--topology", "hybrid",
                          "--placement", "replicate"])
        assert code == 0
        assert "--placement replicate is ignored in hybrid" in text

    def test_serve_sim_pipelined_ingest_tagged_and_faster(self, tmp_path):
        base = ["serve-sim", "--dataset", "wikipedia", "--edges", "400",
                "--shards", "2", "--streams", "2", "--backend", "cpu-32t",
                "--window-s", "3600", "--memory-dim", "8",
                "--deadline-ms", "2000"]
        import json
        p95 = {}
        for ingest in ("serial", "pipelined"):
            path = str(tmp_path / f"{ingest}.json")
            code, text = run(base + ["--ingest", ingest, "--json", path])
            assert code == 0
            assert ("[ingest pipelined]" in text) == (ingest == "pipelined")
            with open(path) as f:
                report = json.load(f)
            p95[ingest] = report["p95_response_s"]
            # The key only appears in pipelined reports (serial keeps the
            # pre-event-core schema byte-for-byte).
            assert ("ingest" in report) == (ingest == "pipelined")
        assert p95["pipelined"] < p95["serial"]

    def test_serve_sim_hybrid_json_determinism(self, tmp_path):
        argv = ["serve-sim", "--dataset", "wikipedia", "--edges", "400",
                "--shards", "2", "--streams", "2", "--backend", "cpu-32t",
                "--window-s", "3600", "--memory-dim", "8",
                "--topology", "hybrid", "--ingest", "pipelined"]
        paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        for path in paths:
            code, _ = run(argv + ["--json", path])
            assert code == 0
        a, b = (open(p, "rb").read() for p in paths)
        assert a == b
        import json
        report = json.loads(a)
        assert report["topology"] == "hybrid"
        assert report["ingest"] == "pipelined"


class TestServeSimRebalanceOnline:
    BASE = ["serve-sim", "--dataset", "wikipedia", "--edges", "400",
            "--shards", "4", "--streams", "2", "--backend", "cpu-32t",
            "--window-s", "3600", "--memory-dim", "8", "--seed", "0"]

    def test_online_rebalance_prints_migration_summary(self):
        code, text = run(self.BASE + ["--speedup", "2000",
                                      "--rebalance-online",
                                      "--rebalance-threshold", "0.05"])
        assert code == 0
        assert "rebalance online:" in text
        assert "state rows handed off" in text

    def test_stationary_load_reports_zero_migrations(self):
        """At the default light load no shard crosses the threshold: the
        rebalancer runs but must be a no-op."""
        code, text = run(self.BASE + ["--rebalance-online"])
        assert code == 0
        assert "rebalance online: 0 migration(s)" in text

    def test_json_carries_migration_accounting(self, tmp_path):
        import json
        path = str(tmp_path / "r.json")
        code, _ = run(self.BASE + ["--speedup", "2000",
                                   "--rebalance-online",
                                   "--rebalance-threshold", "0.05",
                                   "--json", path])
        assert code == 0
        with open(path) as f:
            report = json.load(f)
        assert report["rebalance"] == "online"
        assert report["migrations"] > 0
        assert report["handoff_rows"] > 0
        assert report["migrated_vertices"] > 0

    def test_without_flag_json_has_no_rebalance_keys(self, tmp_path):
        import json
        path = str(tmp_path / "r.json")
        code, _ = run(self.BASE + ["--json", path])
        assert code == 0
        with open(path) as f:
            report = json.load(f)
        for key in ("rebalance", "migrations", "migrated_vertices",
                    "handoff_rows"):
            assert key not in report

    def test_pool_topology_ignores_flag_with_note(self):
        """No note any more: the rebalancer runs, finds a lone station
        with nowhere to donate, and the report says so."""
        code, text = run(self.BASE + ["--topology", "pool",
                                      "--speedup", "2000",
                                      "--rebalance-online",
                                      "--rebalance-threshold", "0.05"])
        assert code == 0
        assert "ignored" not in text
        assert "rebalance online: 0 migration(s) of 0 vertex(es), " \
            "0 state rows handed off" in text

    def test_hybrid_topology_runs_drift_mode(self):
        code, text = run(self.BASE + ["--topology", "hybrid",
                                      "--shards", "2",
                                      "--rebalance-online",
                                      "--rebalance-window", "1.0"])
        assert code == 0
        assert "rebalance online:" in text

    def test_rebalance_json_determinism(self, tmp_path):
        argv = self.BASE + ["--speedup", "2000", "--rebalance-online",
                            "--rebalance-threshold", "0.05"]
        paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        for path in paths:
            code, _ = run(argv + ["--json", path])
            assert code == 0
        a, b = (open(p, "rb").read() for p in paths)
        assert a == b


class TestServeSimAutoscale:
    BASE = ["serve-sim", "--dataset", "wikipedia", "--edges", "400",
            "--shards", "2", "--streams", "2", "--backend", "cpu-32t",
            "--window-s", "3600", "--memory-dim", "8", "--seed", "0",
            "--speedup", "2000"]

    def test_pool_scales_up_under_a_tight_slo(self, tmp_path):
        import json
        path = str(tmp_path / "r.json")
        code, text = run(self.BASE + ["--topology", "pool", "--autoscale",
                                      "--slo-p95", "1e-6",
                                      "--max-servers", "4",
                                      "--json", path])
        assert code == 0
        assert "autoscale slo-p95" in text
        with open(path) as f:
            report = json.load(f)
        s = report["scaling"]
        assert s["autoscale"] == "slo-p95"
        assert s["scale_ups"] > 0
        assert s["initial_servers"] == 2 and s["max_servers"] == 4
        assert s["final_servers"] == s["peak_servers"] == 4
        assert s["server_seconds"] > 0

    def test_pool_scales_down_under_a_slack_slo(self):
        code, text = run(self.BASE + ["--topology", "pool", "--autoscale",
                                      "--slo-p95", "1e6"])
        assert code == 0
        assert "down, fleet 2 -> 1" in text

    def test_sharded_splits_print_handoff_rows(self):
        code, text = run(self.BASE + ["--autoscale", "--slo-p95", "1e-6",
                                      "--max-servers", "4"])
        assert code == 0
        assert "autoscale slo-p95" in text
        assert "split/merge rows" in text

    def test_autoscaled_trace_replays_clean(self):
        code, text = run(self.BASE + ["--topology", "pool", "--autoscale",
                                      "--slo-p95", "1e-6",
                                      "--max-servers", "4",
                                      "--check-trace"])
        assert code == 0
        # 7 checks: the fleet-size replay joined the standard six.
        assert "trace check: clean" in text and "7 checks" in text

    def test_scaling_block_absent_without_flag(self, tmp_path):
        import json
        path = str(tmp_path / "r.json")
        code, _ = run(self.BASE + ["--json", path])
        assert code == 0
        with open(path) as f:
            assert "scaling" not in json.load(f)

    def test_autoscale_json_determinism(self, tmp_path):
        argv = self.BASE + ["--autoscale", "--slo-p95", "1e-6",
                            "--max-servers", "4"]
        paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        for path in paths:
            code, _ = run(argv + ["--json", path])
            assert code == 0
        a, b = (open(p, "rb").read() for p in paths)
        assert a == b

    @pytest.mark.parametrize("extra,msg", [
        (["--autoscale"], "--slo-p95"),
        (["--slo-p95", "1.0"], "--autoscale"),
        (["--scale-window", "10"], "--autoscale"),
        (["--max-servers", "4"], "--autoscale"),
        (["--autoscale", "--slo-p95", "1.0", "--topology", "hybrid"],
         "hybrid"),
        (["--autoscale", "--slo-p95", "1.0", "--placement", "replicate"],
         "hash"),
        (["--autoscale", "--slo-p95", "1.0", "--max-servers", "1"],
         "--max-servers"),
    ])
    def test_conflicting_flags_are_clean_errors(self, extra, msg):
        code, text = run(self.BASE + extra)
        assert code == 2
        assert "error:" in text and self.LIBRARY_SAYS.get(msg, msg) in text

    # This conflict is rejected by the library, not the CLI, so the
    # message names the concept instead of the flag (the parametrize id
    # keeps the flag spelling).
    LIBRARY_SAYS = {"--max-servers": "max_replicas"}

    COMPOSED = ["--autoscale", "--slo-p95", "1e-6", "--max-servers", "4",
                "--rebalance-online", "--rebalance-threshold", "0.05",
                "--fail-at", "300", "--fail-shard", "1",
                "--recover-at", "700", "--memsync", "push"]

    def test_three_controllers_run_together(self, tmp_path):
        """``--autoscale``, ``--rebalance-online`` and ``--fail-at`` used
        to exclude each other pairwise (two exit-2 rows above); they are
        one legal run now: every controller acts, the trace replays
        clean, and the report is deterministic and pinned."""
        paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        for path in paths:
            code, text = run(self.BASE + self.COMPOSED
                             + ["--check-trace", "--json", path])
            assert code == 0
            assert "trace check: clean" in text and "7 checks" in text
            assert "rebalance online:" in text and "chaos dead:" in text
            assert "autoscale slo-p95" in text
        a, b = (open(p, "rb").read() for p in paths)
        golden = os.path.join(TestServeSimGolden.GOLDEN_DIR,
                              "serve_sim_sharded_composed.json")
        with open(golden, "rb") as f:
            assert a == b == f.read()

    def test_dropped_plans_are_reported(self, tmp_path):
        """A load at which the scaler's splits overtake rebalancer moves
        decided in the same window: the drops are counted in the JSON and
        named in the human report (and absent from both at zero — the
        composed golden above has none)."""
        import json
        path = str(tmp_path / "r.json")
        code, text = run([
            "serve-sim", "--dataset", "wikipedia", "--edges", "600",
            "--shards", "1", "--streams", "2", "--backend", "cpu-32t",
            "--window-s", "3600", "--memory-dim", "8", "--seed", "0",
            "--speedup", "20000", "--autoscale", "--slo-p95", "1e-6",
            "--max-servers", "4", "--rebalance-online",
            "--rebalance-threshold", "0.05", "--check-trace",
            "--json", path])
        assert code == 0 and "trace check: clean" in text
        with open(path) as f:
            stale = json.load(f)["stale_plans"]
        assert stale > 0
        assert f"control plane: {stale} stale ownership plan(s)" in text

    @pytest.mark.parametrize("pair", [
        ["--rebalance-online"],
        ["--fail-at", "300", "--fail-shard", "1"]])
    def test_each_pairing_with_autoscale_replays_clean(self, pair):
        code, text = run(self.BASE + ["--autoscale", "--slo-p95", "1e-6",
                                      "--max-servers", "4", "--check-trace"]
                         + pair)
        assert code == 0
        assert "trace check: clean" in text and "7 checks" in text


def canonical_events(trace):
    """Each event as its type name and every scalar field (nested ones
    included): integers as ``int``, floats as ``float.hex()``."""
    def scalars(obj):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if dataclasses.is_dataclass(value):
                yield from scalars(value)
            elif isinstance(value, str):
                yield value
            elif isinstance(value, numbers.Integral):
                yield int(value)
            elif isinstance(value, numbers.Real):
                yield float(value).hex()
    return [[type(ev).__name__, *scalars(ev)] for ev in trace]


def trace_digest(argv):
    """``argv`` run traced: its event count and the SHA-256 of its
    canonical event list."""
    from repro.serving import ServingEngine
    traces = []
    honest = ServingEngine.run

    def traced(engine, *args, **kwargs):
        report = honest(engine, *args, **kwargs)
        traces.append(engine.last_event_trace)
        return report

    with mock.patch.object(ServingEngine, "run", traced):
        code, _ = run(argv + ["--check-trace"])
    assert code == 0 and len(traces) == 1
    rows = canonical_events(traces[0])
    return {"events": len(rows),
            "sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest()}


class TestServeSimTraceDigests:
    """The golden argv pin the event order, not just the report bytes:
    each one's traced run must record the typed-event sequence digested
    in ``tests/golden/trace_digests.json``.  Regenerate that file (only
    when an event-order change is intended) with
    ``PYTHONPATH=src:. python tests/unit/test_cli.py``."""

    PATH = os.path.join(TestServeSimGolden.GOLDEN_DIR, "trace_digests.json")
    CASES = dict(
        {name: TestServeSimGolden.BASE + extra
         for name, extra in TestServeSimGolden.CASES.items()},
        **{"serve_sim_sharded_composed.json":
           TestServeSimAutoscale.BASE + TestServeSimAutoscale.COMPOSED})

    @pytest.mark.parametrize("golden", sorted(CASES))
    def test_event_order_matches_the_pinned_digest(self, golden):
        with open(self.PATH) as f:
            want = json.load(f)[golden]
        assert trace_digest(self.CASES[golden]) == want


class TestReportStrictJson:
    """Every canonical report round-trips *strict* JSON: no Infinity/NaN
    tokens ever reach the serialized report (the open-ended outage
    interval regression — ``(t0, inf)`` is clamped to the run makespan
    before it can leak into accounting)."""

    CASES = dict(TestServeSimGolden.CASES,
                 **{"fail_without_recover.json": [
                        "--memsync", "push", "--placement", "replicate",
                        "--speedup", "2000", "--fail-at", "300",
                        "--fail-shard", "1"],
                    "autoscale_pool.json": [
                        "--topology", "pool", "--speedup", "2000",
                        "--autoscale", "--slo-p95", "1e-6",
                        "--max-servers", "4"]})

    @pytest.mark.parametrize("name,extra", sorted(CASES.items()))
    def test_round_trips_strict_json(self, tmp_path, name, extra):
        import json

        def reject(token):
            raise AssertionError(
                f"non-finite JSON token {token!r} in {name}")

        path = str(tmp_path / name)
        code, _ = run(TestServeSimGolden.BASE + extra + ["--json", path])
        assert code == 0
        with open(path) as f:
            text = f.read()
        report = json.loads(text, parse_constant=reject)
        # And the round trip is exact: parse -> dump -> parse.
        assert json.loads(json.dumps(report), parse_constant=reject) \
            == report

    def test_open_outage_interval_is_clamped_to_makespan(self, tmp_path):
        """A failure with no recovery leaves an open outage: its report
        accounting must cover at most the run span, never infinity."""
        import json
        path = str(tmp_path / "r.json")
        code, _ = run(TestServeSimGolden.BASE + self.CASES[
            "fail_without_recover.json"] + ["--json", path])
        assert code == 0
        with open(path) as f:
            report = json.loads(f.read(), parse_constant=lambda t: 1 / 0)
        assert report["outage_windows"] > 0
        assert report["makespan_s"] < float("inf")


class TestDseTrace:
    def test_dse_prints_frontier(self):
        code, text = run(["dse", "--platform", "zcu104", "--prune", "2"])
        assert code == 0
        assert "frontier" in text and "DSP" in text

    def test_trace_prints_gantt(self):
        code, text = run(["trace", "--platform", "zcu104",
                          "--batches", "2", "--width", "60"])
        assert code == 0
        assert "|" in text
        assert "pipeline overlap" in text


if __name__ == "__main__":
    cases = TestServeSimTraceDigests.CASES
    with open(TestServeSimTraceDigests.PATH, "w") as f:
        json.dump({name: trace_digest(cases[name]) for name in sorted(cases)},
                  f, indent=2)
        f.write("\n")
