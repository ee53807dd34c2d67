"""Unit tests for the extension modules: checkpoint I/O and its format
versions, design-space exploration, multi-die shard placement, warm-start,
reporting."""

import json
import os
import re

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.datasets import wikipedia_like
from repro.graph import iter_fixed_size
from repro.hw import (SweepSpec, U200, ZCU104, explore, pareto_frontier,
                      plan_shard_dies)
from repro.models import ModelConfig, TGNN, load_model, save_model
from repro.models.checkpoint import FORMAT
from repro.reporting import render_table, save_json, save_result, section
from repro.training import warm_start_student

SMALL = ModelConfig(memory_dim=8, time_dim=6, embed_dim=8, edge_dim=172,
                    num_neighbors=4)


def stream():
    return wikipedia_like(num_edges=200, num_users=40, num_items=10)


def rewrite_checkpoint(path, edit) -> None:
    """Rewrite the checkpoint at ``path`` in place: ``edit(entries, cfg)``
    changes its ``.npz`` entries and its decoded ``meta/config``."""
    with np.load(path) as data:
        entries = dict(data)
    cfg = json.loads(bytes(entries["meta/config"]).decode())
    edit(entries, cfg)
    if "meta/config" in entries:
        entries["meta/config"] = np.frombuffer(json.dumps(cfg).encode(),
                                               dtype=np.uint8)
    np.savez(path, **entries)


def as_v1(updater):
    """An edit that makes a file version 1: no ``meta/format``, and a
    config that names its ``memory_updater``."""
    def edit(entries, cfg):
        del entries["meta/format"]
        cfg["memory_updater"] = updater
    return edit


# The checkpoints load_model refuses, as edits of a good one.
BAD_CHECKPOINTS = {
    "v1-rnn": as_v1("rnn"),
    "no-config": lambda entries, cfg: entries.pop("meta/config"),
    "unknown-key": lambda entries, cfg: cfg.update(colour="red"),
    "bad-value": lambda entries, cfg: cfg.update(num_neighbors=0),
    "param-mismatch": lambda entries, cfg: entries.update(
        {"param/extra.weight": np.zeros(3)}),
    "format-3": lambda entries, cfg: entries.update(
        {"meta/format": np.array(FORMAT + 1)}),
}


BAD_KINDS = (*BAD_CHECKPOINTS, "one-array")


def write_bad_checkpoint(path, kind: str) -> None:
    """Write a file of one of the ``BAD_KINDS`` to ``path``: one ``.npy``
    array, or a good checkpoint edited by ``BAD_CHECKPOINTS[kind]``."""
    if kind == "one-array":
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
        return
    save_model(TGNN(SMALL, rng=np.random.default_rng(0)), str(path))
    rewrite_checkpoint(path, BAD_CHECKPOINTS[kind])


class TestCheckpoint:
    @pytest.mark.parametrize("cfg", [
        SMALL.with_(simplified_attention=True, lut_time_encoder=True,
                    lut_bins=8, pruning_budget=2),
        SMALL], ids=["codesigned", "cosine"])
    def test_model_roundtrip(self, tmp_path, cfg):
        """Every parameter bit, the config (a ``pruning_budget=None``
        too) and the LUT calibration, stored only for a LUT model."""
        g = stream()
        model = TGNN(cfg, rng=np.random.default_rng(0))
        model.calibrate(g)
        path = os.path.join(tmp_path, "model.npz")
        save_model(model, path)
        with np.load(path) as data:
            has_lut = any(k.startswith("meta/lut") for k in data.files)
            assert int(data["meta/format"]) == FORMAT == 2
        assert has_lut == cfg.lut_time_encoder
        loaded = load_model(path)
        assert loaded.cfg == cfg
        want, got = model.state_dict(), loaded.state_dict()
        assert list(want) == list(got)
        assert all(want[k].tobytes() == got[k].tobytes() for k in want)
        # Identical inference behaviour, including LUT calibration: both
        # prepared, both on the float32 runtimes a prepared model builds.
        model.prepare_inference()
        rt1, rt2 = model.new_runtime(g), loaded.new_runtime(g)
        for b in iter_fixed_size(g, 32):
            a = model.infer_batch(b, rt1, g).embeddings.data
            c = loaded.infer_batch(b, rt2, g).embeddings.data
            assert np.array_equal(a, c)

    @pytest.mark.parametrize("cfg", [
        SMALL.with_(simplified_attention=True, lut_time_encoder=True,
                    lut_bins=8, pruning_budget=2),
        SMALL], ids=["codesigned", "cosine"])
    def test_v1_gru_file_loads_bit_identically(self, tmp_path, cfg):
        """A version-1 file (no ``meta/format``, ``"memory_updater":
        "gru"`` in its config) migrates in one step to the model a v2 file
        of the same parameters loads as."""
        g = stream()
        model = TGNN(cfg, rng=np.random.default_rng(0))
        model.calibrate(g)
        v2, v1 = str(tmp_path / "v2.npz"), str(tmp_path / "v1.npz")
        save_model(model, v2)
        save_model(model, v1)
        rewrite_checkpoint(v1, as_v1("gru"))
        with np.load(v1) as data:
            assert "meta/format" not in data.files
            assert b'"memory_updater": "gru"' in bytes(data["meta/config"])
        new, old = load_model(v2), load_model(v1)
        assert old.cfg == new.cfg == cfg
        want, got = new.state_dict(), old.state_dict()
        assert list(want) == list(got)
        assert all(np.array_equal(want[k], got[k]) for k in want)
        rt_new, rt_old = new.new_runtime(g), old.new_runtime(g)
        for b in iter_fixed_size(g, 32):
            a = new.infer_batch(b, rt_new, g).embeddings.data
            c = old.infer_batch(b, rt_old, g).embeddings.data
            assert np.array_equal(a, c)

    @pytest.mark.parametrize("kind", BAD_KINDS)
    def test_a_file_that_makes_no_model_is_one_value_error(self, tmp_path,
                                                           kind):
        """A v1 ``rnn`` file, one without a config, an unknown config key,
        a config value ``ModelConfig`` rejects, parameters that do not fit,
        a newer format and a lone array each raise one ``ValueError`` that
        names the file (the CLI prints it as its ``error:`` line)."""
        path = tmp_path / f"{kind}.npz"
        write_bad_checkpoint(path, kind)
        with pytest.raises(ValueError, match="^" + re.escape(str(path))):
            load_model(str(path))

    def test_the_updater_option_is_gone(self):
        """The GRU is the one updater: ``ModelConfig`` has no
        ``memory_updater`` field, so only a v1 file can name one."""
        assert "memory_updater" not in ModelConfig.__dataclass_fields__
        with pytest.raises(TypeError):
            ModelConfig(memory_updater="gru")


class TestDSE:
    SPEC = SweepSpec(n_cu=(1, 2), sg=(4, 8), s_fam=(8,), s_ftm=((4, 4),),
                     nb=(16,), freq_mhz=(250.0,))

    def test_explore_filters_infeasible(self):
        cfg = ModelConfig(simplified_attention=True)
        pts = explore(cfg, ZCU104, self.SPEC)
        assert pts, "some designs must fit"
        assert all(p.resources.fits for p in pts)

    def test_pareto_frontier_properties(self):
        cfg = ModelConfig(simplified_attention=True)
        pts = explore(cfg, U200, self.SPEC)
        frontier = pareto_frontier(pts)
        dsps = [p.dsp for p in frontier]
        thpts = [p.throughput_eps for p in frontier]
        assert dsps == sorted(dsps)
        assert thpts == sorted(thpts)
        # No point dominates a frontier member.
        for f in frontier:
            for p in pts:
                assert not (p.dsp < f.dsp
                            and p.throughput_eps > f.throughput_eps)

    def test_frontier_spans_cheapest_to_fastest(self):
        """The frontier's ends are the single-objective picks: the
        fewest-DSP design and the highest-throughput one."""
        pts = explore(ModelConfig(simplified_attention=True), U200, self.SPEC)
        frontier = pareto_frontier(pts)
        assert frontier[0].dsp == min(p.dsp for p in pts)
        assert frontier[-1].throughput_eps \
            == max(p.throughput_eps for p in pts)
        assert pareto_frontier([]) == []

    def test_latency_priced_at_the_batch_size(self):
        cfg = ModelConfig(simplified_attention=True)
        small = explore(cfg, U200, self.SPEC, batch_size=100)
        large = explore(cfg, U200, self.SPEC, batch_size=2000)
        assert [p.hw for p in small] == [p.hw for p in large]
        assert all(a.latency_s < b.latency_s for a, b in zip(small, large))
        assert all(a.resources == b.resources for a, b in zip(small, large))


class TestShardDies:
    """Fig. 2's layout, reused for serving shards: the shared front end
    keeps the middle die and shards spread round-robin over the others."""

    def test_single_die_no_crossings(self):
        assert plan_shard_dies(4, ZCU104.dies) == [0, 0, 0, 0]

    def test_u200_layout_matches_paper(self):
        # SLR1 holds the front end; shards alternate over SLR0 and SLR2.
        assert plan_shard_dies(4, U200.dies) == [0, 2, 0, 2]
        assert plan_shard_dies(1, U200.dies) == [0]

    def test_shards_balance_over_the_outer_dies(self):
        plan = plan_shard_dies(7, 4)        # the front end takes die 2
        counts = np.bincount(plan, minlength=4)
        assert counts[2] == 0
        assert counts[[0, 1, 3]].max() - counts[[0, 1, 3]].min() <= 1

    def test_invalid_counts_raise(self):
        for num_shards, dies in ((0, 3), (4, 0), (-1, 1)):
            with pytest.raises(ValueError):
                plan_shard_dies(num_shards, dies)


class TestWarmStart:
    def test_copies_shared_parameters(self):
        teacher = TGNN(SMALL, rng=np.random.default_rng(0))
        student = TGNN(SMALL.with_(simplified_attention=True),
                       rng=np.random.default_rng(1))
        copied = warm_start_student(teacher, student)
        assert "memory_updater.gru.weight_ih" in copied
        assert "out_transform.weight" in copied
        assert np.array_equal(student.out_transform.weight.data,
                              teacher.out_transform.weight.data)
        # Attention-specific student parameters are untouched.
        assert not any(name.startswith("attention.attn_bias")
                       for name in copied)


class TestAPANEmbedNodes:
    def test_query_does_not_mutate_state(self):
        from repro.models import APAN
        g = stream()
        apan = APAN(SMALL, mailbox_size=4, rng=np.random.default_rng(0))
        rt = apan.new_runtime(g)
        with no_grad():
            apan.process_batch(g.slice(0, 50), rt, g)
        snap = {key: value.copy() for key, value in vars(rt).items()}
        with no_grad():
            emb = apan.embed_nodes(np.array([0, 1, 2]),
                                   np.array([1e4, 1e4, 1e4]), rt, g)
        assert emb.shape == (3, SMALL.embed_dim)
        for key, value in snap.items():
            assert np.array_equal(getattr(rt, key), value), key


class TestReporting:
    def test_render_table_alignment(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}]
        text = render_table(rows, precision=2)
        lines = text.strip().splitlines()
        assert len(lines) == 4
        assert "0.12" in text

    def test_render_empty(self):
        assert render_table([]) == "(no rows)"

    def test_save_result(self, tmp_path):
        path = save_result("unit_test", "hello", results_dir=str(tmp_path))
        assert os.path.exists(path)
        with open(path) as fh:
            assert fh.read().strip() == "hello"

    def test_save_json_is_canonical(self, tmp_path):
        """Sorted keys, two-space indent, one trailing newline: the same
        object always writes the same bytes."""
        path = save_json("unit_test", {"b": [1, 2.5], "a": None},
                         results_dir=str(tmp_path))
        assert path == str(tmp_path / "unit_test.json")
        with open(path) as fh:
            text = fh.read()
        assert text == ('{\n  "a": null,\n  "b": [\n    1,\n    2.5\n'
                        '  ]\n}\n')
        assert json.loads(text) == {"a": None, "b": [1, 2.5]}

    def test_section(self):
        s = section("Title")
        assert "Title" in s and "=" in s
