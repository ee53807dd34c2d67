"""Accelerator design configuration (the knobs of Table IV and §V).

A :class:`HardwareConfig` fixes the parallelism of every compute module, the
processing-batch size, the clock, and simulator fidelity options.  The two
published design points are :data:`U200_DESIGN` and :data:`ZCU104_DESIGN`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .memory_model import DDRModel
from .platforms import U200, ZCU104, FPGAPlatform

__all__ = ["HardwareConfig", "U200_DESIGN", "ZCU104_DESIGN"]


@dataclass(frozen=True)
class HardwareConfig:
    """Design parameters of the accelerator (§V notation in comments)."""

    platform: FPGAPlatform
    n_cu: int = 1                  # Ncu: computation units
    sg: int = 4                    # Sg: each MUU gate uses an Sg x Sg array
    s_fam: int = 8                 # SFAM: aggregation-tree parallelism
    s_ftm: tuple[int, int] = (4, 4)  # SFTM: transform array shape
    nb: int = 16                   # Nb: edges per processing (pipeline) batch
    freq_mhz: float = 125.0        # Ffreq
    word_bytes: int = 4            # Zd (float32)
    # --- Updater (fully-associative cache with rotating pointers) -------- #
    updater_lines: int = 64
    commit_scan: int = 3           # cache lines scanned per cycle (§VI)
    # --- fidelity knobs ---------------------------------------------------- #
    pipeline_flush_cycles: int = 24   # per-stage fill/drain overhead (HLS)
    die_crossing_cycles: int = 8      # SLR-boundary FIFO latency
    prefetch: bool = True             # overlap neighbor fetch with MUU
    loader_overlap: int = 8           # in-flight gather requests

    def __post_init__(self):
        if self.n_cu <= 0 or self.sg <= 0 or self.s_fam <= 0:
            raise ValueError("parallelism parameters must be positive")
        if self.nb <= 0:
            raise ValueError("processing batch size must be positive")
        if self.nb % self.n_cu != 0:
            raise ValueError("nb must divide evenly across CUs")
        if self.commit_scan <= 0:
            raise ValueError("commit_scan must be positive")

    # ------------------------------------------------------------------ #
    @property
    def clock_s(self) -> float:
        """Seconds per cycle."""
        return 1.0 / (self.freq_mhz * 1e6)

    @property
    def sg2(self) -> int:
        """MACs per cycle in one MUU gate array."""
        return self.sg * self.sg

    @property
    def sftm2(self) -> int:
        """MACs per cycle in the FTM array."""
        return self.s_ftm[0] * self.s_ftm[1]

    def ddr(self, refresh: bool = False) -> DDRModel:
        """DDR model for this platform (refresh on = simulator fidelity)."""
        return DDRModel(peak_bw_gbs=self.platform.ddr_bw_gbs,
                        word_bytes=self.word_bytes, refresh=refresh)

    def with_(self, **kwargs) -> "HardwareConfig":
        return replace(self, **kwargs)


# Table IV design points.
U200_DESIGN = HardwareConfig(platform=U200, n_cu=2, sg=8, s_fam=16,
                             s_ftm=(8, 8), nb=32, freq_mhz=250.0,
                             updater_lines=128)
ZCU104_DESIGN = HardwareConfig(platform=ZCU104, n_cu=1, sg=4, s_fam=8,
                               s_ftm=(4, 4), nb=16, freq_mhz=125.0,
                               updater_lines=64)
