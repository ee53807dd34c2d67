"""Targeted tests for code paths added during the extension phase.

* the premultiplied-LUT updater kernel equals its dense counterpart exactly
  (the §III-C identity);
* attention modules receive correct gradients end-to-end (finite-difference
  checked at module level);
* trace collection composes with time-window batching;
* perf model codifies the budget-independence of the hardware critical path
  (the Fig. 5 deviation documented in EXPERIMENTS.md E6).
"""

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.autograd.functional import masked_softmax
from repro.datasets import wikipedia_like
from repro.graph import iter_time_windows
from repro.hw import FPGAAccelerator, U200_DESIGN, ZCU104_DESIGN
from repro.models import ModelConfig, TGNN
from repro.models.memory_updater import GRUMemoryUpdater
from repro.models.time_encoding import LUTTimeEncoder
from repro.perf import PerformanceModel
from tests.property.gradcheck import check_gradients, sum_sq

SMALL = ModelConfig(memory_dim=8, time_dim=6, embed_dim=8, edge_dim=12,
                    num_neighbors=4)


class TestPremultipliedUpdaters:
    def test_premul_equals_dense(self):
        rng = np.random.default_rng(0)
        enc = LUTTimeEncoder(SMALL.time_dim, n_bins=8, rng=rng)
        enc.calibrate(rng.pareto(1.3, 2000) * 1e4)
        upd = GRUMemoryUpdater(SMALL.with_(lut_time_encoder=True), enc,
                               rng=rng)
        raw = rng.normal(size=(7, SMALL.raw_message_dim))
        dt = rng.uniform(0, 1e5, 7)
        mem = rng.normal(size=(7, SMALL.memory_dim))
        premul = {"updt": enc.premultiply(upd.input_time_weight()),
                  "updt_raw": upd.input_raw_weight()}
        with no_grad():
            dense = upd(raw, dt, mem).data
            fast = upd(raw, dt, mem, premul).data
        assert np.allclose(dense, fast, atol=1e-12)

    def test_input_time_weight_shapes(self):
        enc = LUTTimeEncoder(SMALL.time_dim, n_bins=8)
        gru = GRUMemoryUpdater(SMALL, enc)
        assert gru.input_time_weight().shape == (3 * SMALL.memory_dim,
                                                 SMALL.time_dim)


class TestAttentionGradients:
    def test_vanilla_attention_parameter_gradcheck(self):
        from repro.models.attention import VanillaTemporalAttention
        cfg = ModelConfig(memory_dim=4, time_dim=3, embed_dim=4, edge_dim=2,
                          num_neighbors=3)
        attn = VanillaTemporalAttention(cfg, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        q = Tensor(rng.normal(size=(2, 4)))
        nbr = Tensor(rng.normal(size=(2, 3, 4)))
        ef = rng.normal(size=(2, 3, 2))
        te = Tensor(rng.normal(size=(2, 3, 3)))
        tz = Tensor(rng.normal(size=(2, 3)))
        mask = np.array([[True, True, False], [True, True, True]])

        def loss(wq, wk, wv):
            out = attn(q, nbr, ef, te, tz, mask)
            return sum_sq(out.hidden)

        check_gradients(loss, [attn.w_q.weight, attn.w_k.weight,
                               attn.w_v.weight], atol=1e-4, rtol=1e-3)

    def test_simplified_attention_parameter_gradcheck(self):
        from repro.models.attention import SimplifiedTemporalAttention
        cfg = ModelConfig(memory_dim=4, time_dim=3, embed_dim=4, edge_dim=2,
                          num_neighbors=3, simplified_attention=True)
        attn = SimplifiedTemporalAttention(cfg, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        nbr = Tensor(rng.normal(size=(2, 3, 4)))
        ef = Tensor(rng.normal(size=(2, 3, 2)))
        te = Tensor(rng.normal(size=(2, 3, 3)))
        mask = np.array([[True, True, False], [True, True, True]])
        dt = rng.uniform(0, 2, size=(2, 3))

        def loss(a, wt, wv):
            alpha = masked_softmax(attn.logits_from_dt(dt), mask)
            hidden = attn.transform(alpha, *(attn.aggregate(alpha, x)
                                             for x in (nbr, ef, te)))
            return sum_sq(hidden)

        check_gradients(loss, [attn.attn_bias, attn.w_t.weight,
                               attn.w_v.weight], atol=1e-4, rtol=1e-3)


class TestTraceWithWindows:
    def test_trace_over_window_batches(self):
        g = wikipedia_like(num_edges=400, num_users=60, num_items=15)
        cfg = SMALL.with_(edge_dim=172, simplified_attention=True,
                          lut_time_encoder=True, lut_bins=8,
                          pruning_budget=2)
        model = TGNN(cfg, rng=np.random.default_rng(0))
        model.calibrate(g)
        acc = FPGAAccelerator(model, ZCU104_DESIGN)
        windows = list(iter_time_windows(g, 6 * 3600.0))[:5]
        # batch_size is ignored when explicit batches are supplied.
        rep = acc.run_stream(g, batch_size=1, batches=windows, trace=True)
        assert rep.n_edges == sum(len(w) for w in windows)
        assert len(rep.events) > 0
        assert len(rep.batch_latencies_s) == len(windows)


class TestBudgetIndependentCriticalPath:
    def test_perf_model_period_budget_independent_on_u200(self):
        """EXPERIMENTS.md E6 deviation, codified: at the published U200
        design point the pipeline period does not depend on the pruning
        budget (the FTM / GRU gate arrays dominate), while T_LS does."""
        periods, tls = [], []
        for budget in (6, 4, 2):
            cfg = ModelConfig(simplified_attention=True,
                              lut_time_encoder=True, pruning_budget=budget)
            pred = PerformanceModel(cfg, U200_DESIGN).pipeline_period()
            periods.append(pred.tp_s)
            tls.append(pred.t_ls_s)
        assert periods[0] == periods[1] == periods[2]
        assert tls[0] > tls[1] > tls[2]
