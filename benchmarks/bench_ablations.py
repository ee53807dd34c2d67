"""Ablation benches for the design choices DESIGN.md calls out (E11).

Not paper figures, but the co-design's load-bearing decisions:

* **LUT bin count** — encoding fidelity (vs the cosine teacher encoder) and
  on-chip storage vs number of equal-frequency bins; 128 bins (the paper's
  choice) sits at the fidelity knee.
* **Prefetching** — §IV-C claims attention-released prefetch hides neighbor
  fetch latency behind the MUU; disabling it must cost throughput.
* **Updater scan width** — the commit pointer scans 3 lines/cycle in the
  paper; narrower scans should stall the write-back path.  The model
  retires at most one valid line a cycle (one arrival per cycle), so this
  sweep reads flat by construction — a known fidelity gap of
  ``UpdaterCache``, not a measurement.
* **Pruning policy** — attention-score pruning vs random and vs
  most-recent-k pruning: the learned policy should match or beat both on
  attention-mass retention.
* **Processing batch size Nb** — throughput saturation and the latency cost
  of oversizing.
"""

import numpy as np
import pytest

from repro.datasets import encoder_input_deltas
from repro.hw import FPGAAccelerator, U200_DESIGN, ZCU104_DESIGN, UpdaterCache
from repro.models import CosineTimeEncoder, LUTTimeEncoder, ModelConfig, TGNN
from repro.autograd.functional import masked_softmax
from repro.models.pruning import top_k_mask
from repro.reporting import render_table, save_result


def test_ablation_lut_bins(benchmark, capsys, wiki):
    """Encoding error and storage vs bin count (paper picks 128)."""
    deltas = encoder_input_deltas(wiki)
    ref = CosineTimeEncoder(100, rng=np.random.default_rng(0))
    probe = np.random.default_rng(1).choice(deltas, size=4000)
    exact = ref(probe).data
    rows = []
    for bins in (8, 16, 32, 64, 128, 256):
        enc = LUTTimeEncoder(100, n_bins=bins, rng=np.random.default_rng(2))
        enc.calibrate(deltas, reference=ref)
        approx = enc(probe).data
        err = float(np.mean(np.abs(approx - exact)))
        rows.append({"bins": bins, "mean_abs_err": err,
                     "storage_words": enc.storage_words([300, 100])})
    table = render_table(rows, precision=4,
                         title="Ablation — LUT time-encoder bin count")
    with capsys.disabled():
        print(table)
    save_result("ablation_lut_bins", table)
    errs = [r["mean_abs_err"] for r in rows]
    assert all(a >= b - 1e-6 for a, b in zip(errs, errs[1:]))  # monotone
    # Fidelity improves with bins but saturates: the cosine encoder's
    # highest-frequency dimensions oscillate faster than any practical bin
    # width, so their error is irreducible (the *learned* entries absorb
    # this during distillation — fidelity to the teacher encoder is only a
    # warm-start criterion).
    assert errs[4] < 0.75 * errs[0]

    benchmark(lambda: LUTTimeEncoder(100, n_bins=128).calibrate(deltas))


def test_ablation_prefetch(benchmark, capsys, wiki, wiki_np_models):
    """§IV-C prefetch on/off on both boards."""
    model = wiki_np_models["NP(M)"]
    rows = []
    for board, hw in (("u200", U200_DESIGN), ("zcu104", ZCU104_DESIGN)):
        for prefetch in (True, False):
            acc = FPGAAccelerator(model, hw.with_(prefetch=prefetch))
            rep = acc.run_stream(wiki, 1000, end=2000)
            rows.append({"board": board, "prefetch": prefetch,
                         "thpt_kEs": rep.throughput_eps / 1e3,
                         "mean_lat_ms": rep.mean_latency_s * 1e3})
    table = render_table(rows, precision=2,
                         title="Ablation — neighbor prefetching (§IV-C)")
    with capsys.disabled():
        print(table)
    save_result("ablation_prefetch", table)
    by = {(r["board"], r["prefetch"]): r for r in rows}
    for board in ("u200", "zcu104"):
        assert by[(board, True)]["thpt_kEs"] \
            >= by[(board, False)]["thpt_kEs"]

    benchmark.pedantic(
        lambda: FPGAAccelerator(model, ZCU104_DESIGN).run_stream(
            wiki, 1000, end=1000),
        rounds=3, iterations=1, warmup_rounds=1)


def test_ablation_updater_scan_width(benchmark, capsys):
    """Commit-pointer scan width (paper: 3 lines/cycle)."""
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 500, size=20_000)   # hot-vertex heavy stream
    rows = []
    for scan in (1, 2, 3, 4, 8):
        cache = UpdaterCache(lines=64, scan_width=scan)
        rep = cache.process(ids)
        rows.append({"scan_width": scan, "cycles": rep.cycles,
                     "stalled": rep.stalled_cycles,
                     "invalidated": rep.invalidated})
    table = render_table(rows, title="Ablation — Updater commit scan width")
    with capsys.disabled():
        print(table)
    save_result("ablation_updater_scan", table)
    cycles = [r["cycles"] for r in rows]
    assert all(a >= b for a, b in zip(cycles, cycles[1:]))
    # Diminishing returns: 3 -> 8 helps far less than 1 -> 3.
    assert (cycles[0] - cycles[2]) >= (cycles[2] - cycles[4])

    benchmark(lambda: UpdaterCache(lines=64, scan_width=3).process(ids))


def test_ablation_pruning_policy(benchmark, capsys, wiki):
    """Attention-score pruning vs random-k vs most-recent-k.

    Metric: retained teacher-attention mass — the fraction of the vanilla
    softmax weight covered by the kept neighbors (higher = the values the
    teacher cares about survive pruning).
    """
    cfg = ModelConfig(memory_dim=16, time_dim=12, embed_dim=16,
                      num_neighbors=10, simplified_attention=True)
    # A trained-ish student: its logits at least order neighbors by recency;
    # we train quickly against a teacher for realistic logits.
    from repro.training import (DistillationConfig, DistillationTrainer,
                                TrainConfig, Trainer)
    teacher_cfg = cfg.with_(simplified_attention=False)
    teacher = TGNN(teacher_cfg, rng=np.random.default_rng(0))
    Trainer(teacher, wiki, TrainConfig(epochs=1, batch_size=100,
                                       seed=0)).train(1000)
    student = TGNN(cfg, rng=np.random.default_rng(1))
    dt = DistillationTrainer(teacher, student, wiki,
                             DistillationConfig(epochs=2, batch_size=100,
                                                kd_weight=4.0, seed=0))
    dt.train(1000)

    # Collect teacher attention and student logits over fresh batches.
    from repro.autograd import no_grad
    from repro.graph import iter_fixed_size
    rt_t = teacher.new_runtime(wiki)
    rt_s = student.new_runtime(wiki)
    masses = {"attention": [], "random": [], "most_recent": []}
    rng = np.random.default_rng(7)
    budget = 4
    with no_grad():
        for batch in iter_fixed_size(wiki, 100, end=2000):
            res_t = teacher.process_batch(batch, rt_t, wiki)
            res_s = student.process_batch(batch, rt_s, wiki)
            if batch.eid[0] < 1000:
                continue    # warm-up period
            alpha = masked_softmax(res_t.attention.logits,
                                   res_t.attention.mask).data
            mask = res_t.attention.mask
            ok = mask.sum(axis=1) > budget
            if not ok.any():
                continue
            alpha, mask = alpha[ok], mask[ok]
            slog = res_s.attention.logits.data[ok]
            keep_attn = top_k_mask(slog, mask, budget)
            keep_rand = top_k_mask(rng.random(slog.shape), mask, budget)
            recency = np.arange(mask.shape[1], dtype=float)[None, :]
            keep_recent = top_k_mask(np.broadcast_to(recency, mask.shape),
                                     mask, budget)
            masses["attention"].append((alpha * keep_attn).sum(axis=1).mean())
            masses["random"].append((alpha * keep_rand).sum(axis=1).mean())
            masses["most_recent"].append(
                (alpha * keep_recent).sum(axis=1).mean())
    rows = [{"policy": k, "retained_teacher_mass": float(np.mean(v))}
            for k, v in masses.items()]
    table = render_table(rows, precision=4,
                         title=f"Ablation — pruning policy (budget {budget} "
                               f"of {cfg.num_neighbors})")
    with capsys.disabled():
        print(table)
    save_result("ablation_pruning_policy", table)
    by = {r["policy"]: r["retained_teacher_mass"] for r in rows}
    assert by["attention"] > by["random"]
    assert by["attention"] >= by["most_recent"] - 0.05

    benchmark(lambda: top_k_mask(np.random.default_rng(0).random((500, 10)),
                                 np.ones((500, 10), dtype=bool), budget))


def test_ablation_processing_batch_nb(benchmark, capsys, wiki,
                                      wiki_np_models):
    """Pipeline-batch size Nb: throughput saturation vs latency cost."""
    model = wiki_np_models["NP(M)"]
    rows = []
    for nb in (8, 16, 32, 64, 128):
        hw = U200_DESIGN.with_(nb=nb)
        acc = FPGAAccelerator(model, hw)
        rep = acc.run_stream(wiki, 1000, end=2000)
        rows.append({"nb": nb, "thpt_kEs": rep.throughput_eps / 1e3,
                     "mean_lat_ms": rep.mean_latency_s * 1e3})
    table = render_table(rows, precision=2,
                         title="Ablation — processing batch size Nb (U200)")
    with capsys.disabled():
        print(table)
    save_result("ablation_nb", table)
    thpts = [r["thpt_kEs"] for r in rows]
    assert thpts[2] > thpts[0] * 0.9       # small Nb wastes pipeline
    assert max(thpts) / min(thpts) > 1.05  # the knob matters

    benchmark.pedantic(
        lambda: FPGAAccelerator(model, U200_DESIGN.with_(nb=64)).run_stream(
            wiki, 1000, end=1000),
        rounds=3, iterations=1, warmup_rounds=1)
