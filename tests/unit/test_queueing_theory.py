"""Statistical validation of the event core's queue against queueing theory.

``simulate_queue`` (``tests/property/queue_oracle.py``) feeds one
:class:`~repro.serving.ServerGroup` hand-built arrivals.

The serving benchmarks size fleets from the simulator's wait/response
numbers, so the simulator itself must be trusted against something
*external* to the code: the closed-form M/M/1 and M/M/c (Erlang-C) results.
With seeded Poisson arrivals and exponential service the event-driven
simulation must land on the analytic mean waits within sampling tolerance —
a test that catches wrong utilization denominators, off-by-one admissions,
or non-FIFO dispatch that shape-style unit tests cannot see.

The large-sample distributional checks are marked ``tier2`` (run with
``pytest -m tier2``); the cheap order/boundary invariants run in tier-1.
"""

import numpy as np
import pytest

from tests.property.queue_oracle import simulate_queue

# --------------------------------------------------------------------------- #
# Closed forms


def mm1_mean_wait(lam: float, mu: float) -> float:
    """M/M/1 mean time in queue (excluding service): Wq = rho / (mu - lam)."""
    rho = lam / mu
    assert rho < 1
    return rho / (mu - lam)


def erlang_c(c: int, a: float) -> float:
    """P(wait > 0) for M/M/c offered load ``a = lam / mu`` erlangs."""
    rho = a / c
    assert rho < 1
    inv_pw = 0.0
    term = 1.0                      # a^k / k!
    for k in range(c):
        inv_pw += term
        term *= a / (k + 1)
    top = term / (1.0 - rho)        # a^c / c! / (1 - rho)
    return top / (inv_pw + top)


def mmc_mean_wait(lam: float, mu: float, c: int) -> float:
    """M/M/c mean time in queue: Wq = ErlangC / (c*mu - lam)."""
    return erlang_c(c, lam / mu) / (c * mu - lam)


def kingman_ggc_mean_wait(lam: float, mu: float, c: int,
                          ca2: float, cs2: float) -> float:
    """Kingman / Allen-Cunneen G/G/c approximation.

    ``Wq ~= (ca2 + cs2) / 2 * Wq_M/M/c`` — the squared coefficients of
    variation of interarrival (``ca2``) and service (``cs2``) times scale
    the Markovian wait.  Exact for M/M/c (both 1) and M/D/1 (the
    Pollaczek-Khinchine halving); an approximation elsewhere.
    """
    return (ca2 + cs2) / 2 * mmc_mean_wait(lam, mu, c)


def klb_gg1_mean_wait(lam: float, mu: float,
                      ca2: float, cs2: float) -> float:
    """Kraemer & Langenbach-Belz refinement of Kingman for G/G/1.

    For smoother-than-Poisson arrivals (``ca2 < 1``) the plain Kingman
    bound overestimates; the KLB exponential correction tightens it.
    """
    rho = lam / mu
    w = kingman_ggc_mean_wait(lam, mu, 1, ca2, cs2)
    if ca2 < 1.0:
        w *= np.exp(-2 * (1 - rho) * (1 - ca2) ** 2
                    / (3 * rho * (ca2 + cs2)))
    return w


def poisson_arrivals(rng, lam: float, n: int):
    t = np.cumsum(rng.exponential(1.0 / lam, size=n))
    return [(float(ti), i) for i, ti in enumerate(t)]


# --------------------------------------------------------------------------- #
# Tier-2: distributional agreement with the closed forms


@pytest.mark.tier2
@pytest.mark.parametrize("rho", [0.5, 0.7, 0.85])
def test_mm1_mean_wait_matches_closed_form(rho):
    """Seeded M/M/1 replicates Wq = rho/(mu - lam) within tolerance."""
    mu, n = 1.0, 60_000
    lam = rho * mu
    rng = np.random.default_rng(12345)
    arrivals = poisson_arrivals(rng, lam, n)
    service = rng.exponential(1.0 / mu, size=n)
    res = simulate_queue(arrivals, lambda i: float(service[i]))
    want = mm1_mean_wait(lam, mu)
    # Queue waits are autocorrelated, so the sample mean converges slowly;
    # 60k jobs at these loads sit comfortably inside 10 %.
    assert res.mean_wait_s == pytest.approx(want, rel=0.10)
    assert res.offered_load == pytest.approx(rho, rel=0.05)
    assert res.offered_load < 1.0


@pytest.mark.tier2
@pytest.mark.parametrize("c,rho", [(2, 0.7), (4, 0.8)])
def test_mmc_mean_wait_matches_erlang_c(c, rho):
    """Seeded M/M/c replicates the Erlang-C mean wait within tolerance."""
    mu, n = 1.0, 60_000
    lam = rho * c * mu
    rng = np.random.default_rng(98765)
    arrivals = poisson_arrivals(rng, lam, n)
    service = rng.exponential(1.0 / mu, size=n)
    res = simulate_queue(arrivals, lambda i: float(service[i]),
                         num_servers=c)
    want = mmc_mean_wait(lam, mu, c)
    assert res.mean_wait_s == pytest.approx(want, rel=0.12)
    assert res.offered_load == pytest.approx(rho, rel=0.05)
    # Mean response = mean wait + mean service.
    assert res.mean_response_s == pytest.approx(res.mean_wait_s + 1.0 / mu,
                                                rel=0.05)


@pytest.mark.tier2
def test_pooling_beats_partitioning_in_wait():
    """The M/M/c shared queue waits less than c independent M/M/1 queues at
    the same per-server load — the queueing-theory fact behind the serving
    engine's pool topology."""
    c, rho, mu = 4, 0.8, 1.0
    assert mmc_mean_wait(rho * c * mu, mu, c) < mm1_mean_wait(rho * mu, mu)
    # And the simulator reproduces the ordering, not just the formulas.
    n = 40_000
    rng = np.random.default_rng(7)
    service = rng.exponential(1.0 / mu, size=n)
    pooled = simulate_queue(poisson_arrivals(rng, rho * c * mu, n),
                            lambda i: float(service[i]), num_servers=c)
    single = simulate_queue(poisson_arrivals(rng, rho * mu, n),
                            lambda i: float(service[i]))
    assert pooled.mean_wait_s < single.mean_wait_s


@pytest.mark.tier2
@pytest.mark.parametrize("c,rho", [(1, 0.7), (1, 0.85), (2, 0.85),
                                   (4, 0.85)])
def test_kingman_mdc_deterministic_service(c, rho):
    """M/D/c: Poisson arrivals, *deterministic* service — the Kingman /
    Allen-Cunneen G/G/c approximation (cs2 = 0 halves the M/M/c wait)
    lands within a few percent, and exactly at c=1 (Pollaczek-Khinchine).

    This pins the event core on a service-time distribution that is not
    exponential — the shape measured backends actually produce — where the
    M/M/c tests alone would not notice a variance-handling bug.
    """
    mu, n = 1.0, 60_000
    lam = rho * c * mu
    rng = np.random.default_rng(31337)
    arrivals = poisson_arrivals(rng, lam, n)
    res = simulate_queue(arrivals, lambda _i: 1.0 / mu, num_servers=c)
    want = kingman_ggc_mean_wait(lam, mu, c, ca2=1.0, cs2=0.0)
    assert res.mean_wait_s == pytest.approx(want, rel=0.08)
    assert res.offered_load == pytest.approx(rho, rel=0.05)
    # Deterministic service really does halve the exponential-service wait.
    assert res.mean_wait_s < mmc_mean_wait(lam, mu, c)


@pytest.mark.tier2
@pytest.mark.parametrize("k", [2, 4])
def test_kingman_klb_erlang_arrivals_deterministic_service(k):
    """E_k/D/1: smoother-than-Poisson arrivals (ca2 = 1/k), deterministic
    service — the KLB-corrected Kingman approximation holds within
    sampling+model tolerance.  Both coefficients of variation differ from
    1 here, so this exercises the full G/G shape of the approximation."""
    mu, rho, n = 1.0, 0.8, 60_000
    lam = rho * mu
    rng = np.random.default_rng(2024)
    inter = rng.gamma(k, 1.0 / (k * lam), size=n)
    t = np.cumsum(inter)
    arrivals = [(float(ti), i) for i, ti in enumerate(t)]
    res = simulate_queue(arrivals, lambda _i: 1.0 / mu)
    want = klb_gg1_mean_wait(lam, mu, ca2=1.0 / k, cs2=0.0)
    assert res.mean_wait_s == pytest.approx(want, rel=0.15)
    # Smoother arrivals wait less than Poisson ones (M/D/1).
    assert res.mean_wait_s < kingman_ggc_mean_wait(lam, mu, 1, 1.0, 0.0)


@pytest.mark.tier2
def test_online_rebalancer_is_noop_on_stationary_workload():
    """Under a stationary workload the online rebalancer must not act, so
    every closed-form check above transfers unchanged to rebalancer-enabled
    runs: zero migrations, and the full serving report — every wait,
    utilization, and percentile the M/M/c-validated core produced — is
    bit-identical to the plain engine's at statistical sample size.
    """
    from repro.datasets import wikipedia_like
    from repro.pipeline import LinearCostBackend
    from repro.serving import OnlineRebalancer, ServingEngine

    g = wikipedia_like(num_edges=20_000, num_users=2_000, num_items=300)

    def run(rebalancer):
        engine = ServingEngine(
            [LinearCostBackend(per_edge_s=1e-3) for _ in range(4)],
            g.num_nodes, rebalancer=rebalancer)
        return engine.run(g, window_s=3600.0, speedup=5.0, num_streams=2)

    base = run(None)
    rebalanced = run(OnlineRebalancer(window_s=200.0))
    assert rebalanced.migrations == 0
    assert rebalanced.handoff_rows == 0
    d_base, d_reb = base.to_dict(), rebalanced.to_dict()
    for key in ("rebalance", "migrations", "migrated_vertices",
                "handoff_rows"):
        d_reb.pop(key)
    assert d_reb == d_base


# --------------------------------------------------------------------------- #
# Tier-1: fast invariants on the same machinery


def test_percentiles_are_ordered():
    """p95 <= p99 on any served trace (and both bound the max response)."""
    rng = np.random.default_rng(3)
    for servers in (1, 3):
        arrivals = poisson_arrivals(rng, 0.9 * servers, 2_000)
        service = rng.exponential(1.0, size=2_000)
        res = simulate_queue(arrivals, lambda i: float(service[i]),
                             num_servers=servers)
        responses = res.responses()
        assert res.p95_response_s <= res.p99_response_s <= responses.max()
        assert res.mean_wait_s <= res.mean_response_s


@pytest.mark.parametrize("num_servers", [1, 3])
def test_stability_flag_on_analytic_boundary(num_servers):
    """Offered load < 1 (what a report calls ``stable``), checked just
    across the boundary.

    Deterministic arrivals one service-time apart per server put the system
    exactly at capacity; shrinking or stretching the spacing by 2 % must
    flip the flag.
    """
    service_s, n = 1.0, 500
    for factor, expect_stable in ((1.02, True), (0.98, False)):
        spacing = service_s * factor / num_servers
        arrivals = [(i * spacing, None) for i in range(n)]
        res = simulate_queue(arrivals, lambda _: service_s,
                             num_servers=num_servers)
        assert (res.offered_load < 1.0) is expect_stable

    # Exactly at capacity the load is 1.0 by construction and the system is
    # *not* called stable (a deployment with zero headroom drifts).
    arrivals = [(i * service_s / num_servers, None) for i in range(n)]
    res = simulate_queue(arrivals, lambda _: service_s,
                         num_servers=num_servers)
    assert res.offered_load == pytest.approx(1.0)
    assert not res.offered_load < 1.0


def test_deterministic_queue_wait_formula():
    """D/D/1 overload: wait of job i is exactly i*(service - spacing)."""
    service, spacing, n = 1.0, 0.5, 50
    arrivals = [(i * spacing, None) for i in range(n)]
    res = simulate_queue(arrivals, lambda _: service)
    assert res.waits() == pytest.approx(np.arange(n) * (service - spacing))


@pytest.mark.tier2
def test_measured_service_times_match_kingman_gg1():
    """M/G/1 with *measured* kernel service times: the simulated wait
    lands on Kingman/Allen-Cunneen computed from the realized arrival
    rate and the measured mean / cv².

    This closes the loop the modeled tier-2 checks cannot: the service
    process here is real numpy kernel wall-clock (via
    ``MeasuredServerGroup`` on the event scheduler), so the test
    validates that measured durations reconcile into event time as a
    well-formed G/G/1 service process — with Poisson arrivals,
    Pollaczek-Khinchine makes the Kingman form exact in expectation,
    whatever distribution the host's timing noise produces.
    """
    from repro.datasets import wikipedia_like
    from repro.graph import iter_fixed_size
    from repro.models import ModelConfig, TGNN
    from repro.serving import (EventScheduler, MeasuredBackend,
                               MeasuredServerGroup, WorkerPool)
    from repro.serving.events import _ARRIVAL

    cfg = ModelConfig(memory_dim=8, time_dim=6, embed_dim=8, edge_dim=172,
                      num_neighbors=4, simplified_attention=True,
                      lut_time_encoder=True, lut_bins=8, pruning_budget=2)
    g = wikipedia_like(num_edges=600, num_users=80, num_items=20)
    model = TGNN(cfg, rng=np.random.default_rng(0))
    model.calibrate(g)
    model.prepare_inference()
    batches = list(iter_fixed_size(g, 20))

    def attempt(seed):
        # Calibration pass (also warms caches): place the target rho ~ 0.6
        # at the speed the host runs the kernel now, not at the start of
        # the test, so a host that slowed down since cannot push the
        # realized load to 1.
        warm = MeasuredBackend(model, g)
        est = float(np.mean([warm.process_batch(b) for b in batches]))
        n = 6000
        lam = 0.6 / est
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.exponential(1.0 / lam, size=n))

        sched = EventScheduler()
        group = MeasuredServerGroup(0, 1, MeasuredBackend(model, g),
                                    WorkerPool(0), sched)

        def on_arrival(ev):
            group.submit(ev[0], (ev[1],))

        for i, ti in enumerate(t):
            sched.schedule(float(ti), _ARRIVAL,
                           (float(ti), batches[i % len(batches)]),
                           on_arrival)
        sched.run()
        res = group.finalize()
        assert res.jobs == n

        measured = res.service_s
        # A single OS descheduling stall (one sample ~50x the median)
        # corrupts the whole run: the transient it queues up is exactly
        # what a mean-field formula cannot describe.  Signal a retry
        # rather than testing Kingman against a preempted process.
        if float(measured.max()) > 50 * float(np.median(measured)):
            return None
        mean_s = float(measured.mean())
        cs2 = float(measured.var() / mean_s ** 2)
        lam_hat = (n - 1) / float(t[-1] - t[0])
        assert lam_hat * mean_s < 1.0      # realized load stayed stable
        want = kingman_ggc_mean_wait(lam_hat, 1.0 / mean_s, 1,
                                     ca2=1.0, cs2=cs2)
        return res.mean_wait_s, want

    # Wall-clock service brings sampling noise and host timing drift, so
    # one out-of-band attempt proves nothing — but a real reconciliation
    # bug shifts *every* attempt, so three consistent misses fail.
    clean = []
    for seed in (2022, 2023, 2024):
        got = attempt(seed)
        if got is None:
            continue
        clean.append(got)
        sim, want = got
        if sim == pytest.approx(want, rel=0.40):
            return
    if not clean:
        pytest.skip("host preempted the kernel timing in all attempts")
    sim, want = clean[-1]
    assert sim == pytest.approx(want, rel=0.40)
