"""External-memory (DDR) timing model with burst-dependent effective bandwidth.

The paper (Eq. 21, citing Lu et al.'s FPGA memory microbenchmarks [21])
models transfers at ``alpha(l) * BW`` where ``alpha(l) in (0, 1]`` is the
efficiency of a burst of length ``l`` words.  Short bursts pay per-request
overhead (address phase, bus turnaround) and achieve a small fraction of peak
bandwidth; long streaming bursts approach it.

We use the standard saturating form ``alpha(l) = l / (l + l_half)`` — the
measured curves in [21] are well fit by it — with ``l_half`` interpreted as
the burst length at which half of peak bandwidth is reached.

The model optionally charges DRAM refresh (tRFC every tREFI), which the
paper's *analytical* model omits and names as an error source in §VI; the
cycle simulator enables it, the Section-V model does not.  This asymmetry is
deliberate: it reproduces the Fig. 6 prediction-error structure.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DDRModel"]


@dataclass(frozen=True)
class DDRModel:
    """Bandwidth/latency model of one external-memory subsystem.

    Parameters
    ----------
    peak_bw_gbs:
        Peak bandwidth in GB/s (Table III values).
    word_bytes:
        Bytes per data word (the paper uses IEEE float32, ``Zd = 4``;
        the host kernel's deployed runtime is float32 as well, see
        ``TGNN.prepare_inference``).
    l_half:
        Burst length (in words) achieving 50 % efficiency.
    base_latency_s:
        Fixed per-request latency (row activation + controller), charged
        once per logical transfer.
    refresh:
        Charge periodic refresh overhead (simulator only).
    t_refi_s / t_rfc_s:
        Refresh interval and refresh cycle time (DDR4 8 Gb defaults).
    """

    peak_bw_gbs: float
    word_bytes: int = 4
    l_half: float = 64.0
    base_latency_s: float = 120e-9
    refresh: bool = False
    t_refi_s: float = 7.8e-6
    t_rfc_s: float = 350e-9

    def alpha(self, burst_words: float) -> float:
        """Effective-bandwidth fraction for bursts of ``burst_words``."""
        if burst_words <= 0:
            raise ValueError("burst length must be positive")
        return burst_words / (burst_words + self.l_half)

    @property
    def refresh_derating(self) -> float:
        """Bandwidth multiplier due to refresh (1.0 when disabled)."""
        if not self.refresh:
            return 1.0
        return 1.0 - self.t_rfc_s / self.t_refi_s

    def transfer_time(self, total_words: float, burst_words: float,
                      requests: int = 1) -> float:
        """Seconds to move ``total_words`` in bursts of ``burst_words``.

        ``requests`` charges the fixed base latency that many times (e.g. one
        gather per vertex row); the bandwidth term uses the alpha-derated
        peak.  Either term may dominate — small scattered gathers are
        latency-bound, bulk table scans are bandwidth-bound.
        """
        if total_words <= 0:
            return 0.0
        bw = (self.peak_bw_gbs * 1e9 / self.word_bytes) \
            * self.alpha(burst_words) * self.refresh_derating
        return requests * self.base_latency_s + total_words / bw

    def row_gather_time(self, n_rows: int, row_words: float,
                        overlap: int = 8) -> float:
        """Time to gather ``n_rows`` scattered rows of ``row_words`` each.

        Row fetches are independent, so a hardware data loader keeps
        ``overlap`` requests in flight; latency amortises accordingly.
        """
        if n_rows <= 0 or row_words <= 0:
            return 0.0
        effective_requests = max(1, -(-n_rows // max(1, overlap)))
        return self.transfer_time(n_rows * row_words, row_words,
                                  requests=effective_requests)
