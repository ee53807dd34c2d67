"""Unit tests for the MAC/MEM operation counter (Tables I-II reproduction)."""

import numpy as np
import pytest

from repro.models import ModelConfig, variant_ladder
from repro.profiling import (count_ops, count_ops_apan,
                             table1_breakdown, table2_ladder)
from repro.profiling.paper_reference import TABLE2
from repro.reporting import render_table

WIKI = ModelConfig()                       # paper dims for Wikipedia/Reddit
GDELT = ModelConfig(edge_dim=0, node_dim=200)


class TestPaperConvention:
    def test_wikipedia_gru_matches_paper_exactly(self):
        c = count_ops(WIKI)
        assert c.gru_macs == pytest.approx(48.4e3)

    def test_gdelt_gru_matches_paper_exactly(self):
        c = count_ops(GDELT)
        assert c.gru_macs == pytest.approx(51.2e3)

    def test_lut_gru_delta_matches_paper(self):
        base = count_ops(WIKI)
        lut = count_ops(WIKI.with_(simplified_attention=True,
                                   lut_time_encoder=True))
        assert base.gru_macs - lut.gru_macs == pytest.approx(10.1e3)

    def test_wikipedia_kmem_matches_paper(self):
        c = count_ops(WIKI)
        assert c.total_mems == pytest.approx(5.7e3, rel=0.01)
        # §III key point 3: vertex-state words are the memory traffic.
        assert (c.mems["memory"] + c.mems["update"]) / c.total_mems > 0.8

    def test_ladder_percentages_close_to_paper(self):
        ours = table2_ladder(WIKI)
        paper = TABLE2["wikipedia"]
        for o, p in zip(ours, paper):
            assert o["kMAC_pct"] == pytest.approx(p["kMAC_pct"], abs=3.0), \
                o["model"]
            assert o["kMEM_pct"] == pytest.approx(p["kMEM_pct"], abs=2.0), \
                o["model"]

    def test_sat_halves_gnn(self):
        base = count_ops(WIKI)
        sat = count_ops(WIKI.with_(simplified_attention=True))
        assert sat.gnn_macs == pytest.approx(base.gnn_macs / 2, rel=0.12)
        # §III key point 1: the GNN still dominates the compute after SAT.
        assert sat.gnn_macs / sat.total_macs > 0.7

    def test_pruning_linear_in_budget(self):
        lut = WIKI.with_(simplified_attention=True, lut_time_encoder=True)
        per_nbr = []
        for k in (6, 4, 2):
            c = count_ops(lut.with_(pruning_budget=k))
            per_nbr.append(c.gnn_macs)
        d1 = per_nbr[0] - per_nbr[1]   # 6 -> 4
        d2 = per_nbr[1] - per_nbr[2]   # 4 -> 2
        assert d1 == pytest.approx(d2, rel=0.01)

    def test_headline_compute_reduction(self):
        """§VI claim: 84 % computation reduction, 67 % fewer MEMs (NP(S))."""
        base = count_ops(WIKI)
        nps = count_ops(WIKI.with_(simplified_attention=True,
                                   lut_time_encoder=True, pruning_budget=2))
        assert 1 - nps.total_macs / base.total_macs > 0.80
        assert 1 - nps.total_mems / base.total_mems > 0.60

    def test_simplified_gnn_applies_w_v_per_neighbor(self):
        """The published count applies ``W_v`` to every kept neighbor."""
        m, ef, e, k = 100, 172, 100, 10
        np2 = WIKI.with_(simplified_attention=True, lut_time_encoder=True,
                         pruning_budget=2)
        assert count_ops(np2).gnn_macs == (
            2 * (m + ef) * e + 2 * e + k * k + (e + m) * e)


class TestStructure:
    def test_parts_partition_totals(self):
        c = count_ops(WIKI)
        assert c.total_macs == pytest.approx(sum(c.macs.values()))
        assert c.total_mems == pytest.approx(sum(c.mems.values()))

    def test_gnn_part_has_zero_mems(self):
        assert count_ops(WIKI).mems["gnn"] == 0.0

    def test_sample_and_update_have_zero_macs(self):
        c = count_ops(WIKI)
        assert c.macs["sample"] == 0.0 and c.macs["update"] == 0.0

    def test_table1_breakdown_rows(self):
        rows = table1_breakdown(WIKI)
        parts = [r["part"] for r in rows]
        assert parts == ["sample", "memory", "gnn", "update", "total"]
        assert rows[-1]["kMAC_pct"] == 100.0

    def test_ladder_renders_without_config_column(self):
        rows = table2_ladder(WIKI)
        text = render_table(rows, columns=[c for c in rows[0]
                                           if c != "config"])
        assert "ModelConfig" not in text
        assert "baseline" in text and "+NP(S)" in text


class TestAPANCounts:
    def test_latency_path_cheaper_than_tgn(self):
        tgn = count_ops(WIKI)
        apan = count_ops_apan(WIKI, mailbox_size=10)
        assert apan.total_mems < tgn.total_mems   # no neighbor fetches
        assert apan.mems["update"] == 0.0         # async, off-path

    def test_mailbox_size_scales_compute(self):
        small = count_ops_apan(WIKI, mailbox_size=5)
        large = count_ops_apan(WIKI, mailbox_size=20)
        assert large.total_macs > small.total_macs
