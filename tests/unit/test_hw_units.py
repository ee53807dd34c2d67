"""Unit tests for MUU / EU timing models, and the hw package's import hygiene."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.hw
from repro.hw import (EU_STAGES, MUU_STAGES, EmbeddingUnit,
                      MemoryUpdateUnit, ZCU104_DESIGN)
from repro.models import ModelConfig, TGNN
from repro.autograd import Tensor
from repro.autograd.functional import masked_softmax
from tests.property.test_gnn_kernel_properties import oracle_values

CFG = ModelConfig(memory_dim=8, time_dim=6, embed_dim=8, edge_dim=12,
                  num_neighbors=4, simplified_attention=True)


class TestMUUTiming:
    def test_stage_names(self):
        muu = MemoryUpdateUnit(CFG, ZCU104_DESIGN)
        assert set(muu.stage_cycles(16)) == set(MUU_STAGES)

    def test_cycles_scale_with_nodes(self):
        muu = MemoryUpdateUnit(CFG, ZCU104_DESIGN)
        a = muu.stage_cycles(16)
        b = muu.stage_cycles(32)
        assert b["muu_update_gate"] == 2 * a["muu_update_gate"]

    def test_bigger_array_fewer_cycles(self):
        small = MemoryUpdateUnit(CFG, ZCU104_DESIGN)
        big = MemoryUpdateUnit(CFG, ZCU104_DESIGN.with_(sg=8))
        assert big.stage_cycles(32)["muu_update_gate"] \
            < small.stage_cycles(32)["muu_update_gate"]

    def test_lut_removes_time_slice_and_encoder(self):
        lut_cfg = CFG.with_(lut_time_encoder=True)
        plain = MemoryUpdateUnit(CFG, ZCU104_DESIGN).stage_cycles(32)
        lut = MemoryUpdateUnit(lut_cfg, ZCU104_DESIGN).stage_cycles(32)
        assert lut["muu_update_gate"] < plain["muu_update_gate"]


class TestEUTiming:
    def test_stage_names(self):
        eu = EmbeddingUnit(CFG, ZCU104_DESIGN)
        assert set(eu.stage_cycles(16)) == set(EU_STAGES)

    def test_pruning_reduces_fam_not_am(self):
        pruned = CFG.with_(pruning_budget=2)
        full = EmbeddingUnit(CFG, ZCU104_DESIGN).stage_cycles(32)
        np_ = EmbeddingUnit(pruned, ZCU104_DESIGN).stage_cycles(32)
        assert np_["eu_fam"] < full["eu_fam"]
        # Logits still computed over all k sampled neighbors.
        assert np_["eu_attention"] == full["eu_attention"]

    def test_fam_parallelism(self):
        narrow = EmbeddingUnit(CFG, ZCU104_DESIGN.with_(s_fam=4))
        wide = EmbeddingUnit(CFG, ZCU104_DESIGN.with_(s_fam=16))
        assert wide.stage_cycles(32)["eu_fam"] < narrow.stage_cycles(32)["eu_fam"]

    def test_aggregate_then_transform_equals_per_neighbor_values(self):
        """Linearity reordering (FAM before value weights) is exact: the
        shared kernel, which runs the EU's order, against the per-neighbor
        values oracle — rows with no valid neighbor included."""
        model = TGNN(CFG, rng=np.random.default_rng(2))
        rng = np.random.default_rng(3)
        model.attention.w_v.bias.data[:] = rng.normal(size=CFG.embed_dim)
        n, k = 6, CFG.num_neighbors
        nbr = rng.normal(size=(n, k, CFG.memory_dim))
        ef = rng.normal(size=(n, k, CFG.edge_dim))
        te = rng.normal(size=(n, k, CFG.time_dim))
        logits = rng.normal(size=(n, k))
        mask = rng.random((n, k)) < 0.8
        mask[0] = False
        ef_m = np.where(mask[:, :, None], ef, 0.0)

        attn = model.attention
        alpha = masked_softmax(Tensor(logits), mask)
        via_eu_order = attn.transform(alpha, *(
            attn.aggregate(alpha, Tensor(x)) for x in (nbr, ef, te))).data
        ref = oracle_values(attn, nbr, ef_m, te, logits, mask)
        assert np.allclose(via_eu_order, ref, rtol=1e-12, atol=1e-12)
        assert np.array_equal(via_eu_order[0], np.zeros(CFG.embed_dim))


def imported_modules(path: Path) -> set[str]:
    """Absolute dotted names of everything ``path`` imports (``from a
    import b`` counts as both ``a`` and ``a.b``), relative ones resolved."""
    package = ["repro", "hw"]
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level \
                else []
            module = ".".join(base + ([node.module] if node.module else []))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


class TestImportHygiene:
    """The simulator prices from ``ModelConfig`` alone: nothing under
    ``repro.hw`` can reach a kernel or the autograd engine."""

    @pytest.mark.parametrize("path", sorted(
        Path(repro.hw.__file__).parent.glob("*.py")), ids=lambda p: p.name)
    def test_hw_imports_no_kernels(self, path):
        # ``repro.models.tgn`` and ``repro.autograd`` above all: the one
        # thing hw may take from either package is the frozen config.
        for name in imported_modules(path):
            if name.startswith(("repro.models", "repro.autograd")):
                assert name.startswith("repro.models.config"), name

    def test_the_resolver_sees_relative_and_aliased_imports(self, tmp_path):
        src = tmp_path / "probe.py"
        src.write_text("from ..models.tgn import TGNN\n"
                       "from ..models import tgn as t\n"
                       "from . import eu\nimport repro.autograd.tensor\n")
        assert {"repro.models.tgn.TGNN", "repro.models.tgn", "repro.hw.eu",
                "repro.autograd.tensor"} <= imported_modules(src)
