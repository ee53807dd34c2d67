#!/usr/bin/env python
"""CI guard for the event-core perf trajectory.

Compares the ``BENCH_events_per_sec.json`` artifact emitted by
``bench_serving_scale.py::test_event_core_speedup`` against the committed
baseline in ``benchmarks/baselines/events_per_sec.json`` and fails when
the vectorized-vs-heap speedup ratio regresses by more than the allowed
tolerance.  The ratio — not absolute events/sec — is compared because
both lanes run on the same machine in the same process, so the ratio is
hardware-independent while absolute throughput is not.

The same guard covers ``BENCH_measured_backend.json`` from
``test_measured_backend_scaling`` against
``benchmarks/baselines/measured_events_per_sec.json`` — there the ratio
is the measured worker pool's event-time throughput at ``workers=4`` vs
``workers=1``, equally hardware-independent (lane arithmetic over
measured durations, not wall-clock overlap), and
``BENCH_autoscale.json`` from ``test_autoscale_diurnal`` against
``benchmarks/baselines/autoscale_server_seconds.json`` — there the
ratio is static-peak server-seconds over autoscaled server-seconds on
the deterministic diurnal workload, pure event-time arithmetic and so
exactly reproducible.

``BENCH_router_split.json`` from ``test_router_split_scaling`` carries a
``scaling_ratio`` instead — ``ShardRouter.split`` µs/call at 16 shards
over 4, same batches, same process — where *lower* is better and the
claim is absolute (the one-pass split does not grow with the shard
count): it is held under the ``scaling_ratio_max`` ceiling committed in
``benchmarks/baselines/router_split.json``, with no tolerance band.

``BENCH_ingest.json`` from ``test_ingest_scaling`` carries the same kind
of ``scaling_ratio`` — ``make_stream_arrivals`` + ``BatcherActor.start``
wall time at 16 streams over 2 on one graph, same process — held under
the ceiling in ``benchmarks/baselines/ingest.json``: eight times the
arrivals may cost a few more array operations, not a Python step each.

Other ``BENCH_*`` artifacts (e.g. ``BENCH_failover.json`` from the
failure-injection sweep) carry neither ratio; pointing the guard
at one is a clean no-op rather than a KeyError, so CI can glob the
results directory without special-casing which artifact is which.

Usage::

    python benchmarks/check_perf_trajectory.py \
        results/BENCH_events_per_sec.json \
        benchmarks/baselines/events_per_sec.json
"""

from __future__ import annotations

import json
import sys

TOLERANCE = 0.20   # fail below (1 - TOLERANCE) x baseline ratio


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    current_path, baseline_path = argv[1], argv[2]
    with open(current_path) as fh:
        current = json.load(fh)
    with open(baseline_path) as fh:
        baseline = json.load(fh)

    if "scaling_ratio" in current:
        cur = float(current["scaling_ratio"])
        ceiling = float(baseline["scaling_ratio_max"])
        print(f"scaling ratio: current {cur:.2f}x, ceiling {ceiling:.2f}x")
        if cur > ceiling:
            print(f"FAIL: cost grows with scale beyond the committed "
                  f"ceiling ({cur:.2f}x > {ceiling:.2f}x).")
            return 1
        print("OK: scaling ratio holds.")
        return 0

    if "speedup_ratio" not in current:
        print(f"skip: {current_path} carries no speedup_ratio "
              f"(not a perf-trajectory artifact); nothing to compare.")
        return 0

    cur = float(current["speedup_ratio"])
    base = float(baseline["speedup_ratio"])
    floor = (1.0 - TOLERANCE) * base
    print(f"event-core speedup ratio: current {cur:.2f}x, "
          f"baseline {base:.2f}x, floor {floor:.2f}x "
          f"(tolerance {TOLERANCE:.0%})")
    if cur < floor:
        print(f"FAIL: event core regressed more than {TOLERANCE:.0%} "
              f"below the committed baseline "
              f"({cur:.2f}x < {floor:.2f}x). If the regression is "
              f"intentional, update benchmarks/baselines/"
              f"events_per_sec.json in the same change.")
        return 1
    if cur > base * (1.0 + TOLERANCE):
        # Not a failure — but invite a baseline bump so the guard stays
        # tight around reality.
        print(f"note: current ratio {cur:.2f}x is well above baseline; "
              f"consider raising the committed baseline.")
    print("OK: event-core perf trajectory holds.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
