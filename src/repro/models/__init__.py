"""TGNN models: TGN-attn baseline, co-designed variants, and APAN."""

from .apan import APAN, APANRuntime  # noqa: F401
from .attention import (DT_SCALE, AttentionOutput,  # noqa: F401
                        SimplifiedTemporalAttention, VanillaTemporalAttention)
from .config import NP_BUDGETS, ModelConfig, variant_ladder  # noqa: F401
from .checkpoint import load_model, save_model  # noqa: F401
from .link_predictor import LinkPredictor  # noqa: F401
from .memory_updater import GRUMemoryUpdater  # noqa: F401
from .pruning import top_k_mask  # noqa: F401
from .tgn import (KERNEL_STAGES, TGNN, BatchResult,  # noqa: F401
                  ModelRuntime)
from .time_encoding import CosineTimeEncoder, LUTTimeEncoder  # noqa: F401

__all__ = [
    "ModelConfig", "variant_ladder", "NP_BUDGETS",
    "TGNN", "ModelRuntime", "BatchResult", "KERNEL_STAGES",
    "CosineTimeEncoder", "LUTTimeEncoder",
    "VanillaTemporalAttention", "SimplifiedTemporalAttention",
    "AttentionOutput", "DT_SCALE",
    "GRUMemoryUpdater",
    "top_k_mask",
    "LinkPredictor", "APAN", "APANRuntime",
    "save_model", "load_model",
]
