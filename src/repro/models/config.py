"""Model configuration and the Table II optimization ladder.

A :class:`ModelConfig` pins every dimension and co-design flag.  The ladder
helper enumerates the paper's accumulated-optimization rows:

    Baseline  -> +SAT -> +LUT -> +NP(L) -> +NP(M) -> +NP(S)

where SAT is the simplified temporal attention (Eq. 16), LUT the look-up
table time encoder (§III-C), and NP(x) neighbor pruning with budgets 6/4/2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["ModelConfig", "variant_ladder", "NP_BUDGETS"]

# Pruning budgets from §VI: NP(L/M/S) keep 6/4/2 of the 10 sampled neighbors.
NP_BUDGETS: dict[str, int] = {"L": 6, "M": 4, "S": 2}


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and co-design switches for a memory-based TGNN.

    Defaults reproduce the paper's TGN-attn setup: memory/time/embedding
    width 100, 10 most-recent temporal neighbors, Wikipedia-style 172-d edge
    features.
    """

    memory_dim: int = 100
    time_dim: int = 100
    embed_dim: int = 100
    edge_dim: int = 172
    node_dim: int = 0
    num_neighbors: int = 10        # sampled most-recent neighbors (k)
    # --- co-design flags -------------------------------------------------- #
    simplified_attention: bool = False   # SAT (Eq. 16)
    lut_time_encoder: bool = False       # LUT (§III-C)
    lut_bins: int = 128
    pruning_budget: int | None = None    # NP: neighbors kept after pruning
    # --- bookkeeping ------------------------------------------------------ #
    name: str = "baseline"

    def __post_init__(self):
        if self.pruning_budget is not None:
            if not self.simplified_attention:
                raise ValueError(
                    "neighbor pruning requires the simplified attention: the "
                    "pruning decision uses its pre-fetch logits (§III-B)")
            if not 0 < self.pruning_budget <= self.num_neighbors:
                raise ValueError("pruning budget must be in [1, num_neighbors]")
        for field in ("memory_dim", "time_dim", "embed_dim", "num_neighbors"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")
        if self.edge_dim < 0 or self.node_dim < 0:
            raise ValueError("feature dims must be non-negative")

    # ------------------------------------------------------------------ #
    @property
    def raw_message_dim(self) -> int:
        """Cached message payload width: ``s_src || s_dst || f_e``."""
        return 2 * self.memory_dim + self.edge_dim

    @property
    def message_dim(self) -> int:
        """GRU input width: raw message plus the time encoding (Eq. 4)."""
        return self.raw_message_dim + self.time_dim

    @property
    def effective_neighbors(self) -> int:
        """Neighbors whose values are actually computed and fetched."""
        return self.pruning_budget if self.pruning_budget is not None \
            else self.num_neighbors

    def with_(self, **kwargs) -> "ModelConfig":
        """Derive a modified copy (dataclass ``replace`` convenience)."""
        return replace(self, **kwargs)


def variant_ladder(base: ModelConfig) -> list[ModelConfig]:
    """The six accumulated-optimization variants of Table II, in order."""
    sat = base.with_(simplified_attention=True, name="+SAT")
    lut = sat.with_(lut_time_encoder=True, name="+LUT")
    return [
        base.with_(name="baseline"),
        sat,
        lut,
        lut.with_(pruning_budget=NP_BUDGETS["L"], name="+NP(L)"),
        lut.with_(pruning_budget=NP_BUDGETS["M"], name="+NP(M)"),
        lut.with_(pruning_budget=NP_BUDGETS["S"], name="+NP(S)"),
    ]
