"""Quickstart: co-designed temporal GNN inference in ~60 lines.

Builds a synthetic interaction stream, instantiates the paper's co-designed
model (simplified attention + LUT time encoder + neighbor pruning), runs it
through (a) the measured single-thread software engine and (b) the simulated
U200 accelerator, and prints the complexity/performance summary.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.datasets import wikipedia_like
from repro.hw import FPGAAccelerator, U200_DESIGN, estimate_resources
from repro.models import ModelConfig, TGNN
from repro.pipeline import SoftwareBackend, run_engine
from repro.profiling import count_ops


def main() -> None:
    # 1. A Wikipedia-like interaction stream (users x pages, 172-d edge
    #    features, 30 days, power-law inter-event gaps).
    graph = wikipedia_like(num_edges=4000, num_users=400, num_items=60)
    print(f"stream: {graph}")

    # 2. The co-designed model: NP(M) = simplified attention (Eq. 16)
    #    + LUT time encoder (128 equal-frequency bins) + pruning budget 4.
    cfg = ModelConfig(simplified_attention=True, lut_time_encoder=True,
                      pruning_budget=4, name="NP(M)")
    model = TGNN(cfg, rng=np.random.default_rng(0))
    model.calibrate(graph)          # fit LUT bin edges from stream Δt stats
    model.prepare_inference()       # pre-multiply LUT x weight matrices

    baseline = count_ops(ModelConfig())
    ours = count_ops(cfg)
    print(f"\ncomplexity per embedding: "
          f"{baseline.total_macs / 1e3:.1f} kMAC -> "
          f"{ours.total_macs / 1e3:.1f} kMAC "
          f"({100 * (1 - ours.total_macs / baseline.total_macs):.0f}% less), "
          f"{baseline.total_mems / 1e3:.1f} kMEM -> "
          f"{ours.total_mems / 1e3:.1f} kMEM")

    # 3. Software deployment path (measured, single thread).
    backend = SoftwareBackend(model, graph)
    report = run_engine(backend, graph, batch_size=200, end=2000)
    print(f"\nsoftware (1 thread, measured): "
          f"{report.throughput_eps / 1e3:.1f} kE/s, "
          f"mean batch latency {report.mean_latency_s * 1e3:.2f} ms")
    emb = backend.rt.state.memory
    print(f"vertex memory table: shape {emb.shape}, "
          f"{np.count_nonzero(np.any(emb != 0, axis=1))} vertices touched")

    # 4. Simulated U200 accelerator (modeled timing only: it prices the
    #    stream from batch shapes and runs no kernel).
    acc = FPGAAccelerator(model, U200_DESIGN)
    hw_report = acc.run_stream(graph, batch_size=200, end=2000)
    print(f"\nU200 accelerator (simulated): "
          f"{hw_report.throughput_eps / 1e3:.1f} kE/s, "
          f"mean batch latency {hw_report.mean_latency_s * 1e3:.2f} ms, "
          f"{hw_report.updater_invalidated} redundant updates eliminated")

    est = estimate_resources(cfg, U200_DESIGN)
    print(f"U200 resources: {est.dsp} DSP, {est.bram} BRAM, "
          f"{est.uram} URAM, {est.lut / 1e3:.0f}k LUT (fits: {est.fits})")


if __name__ == "__main__":
    main()
