"""Shared fixtures for the benchmark harness.

Datasets and trained models are module-scoped and deliberately smaller than
the real Wikipedia/Reddit/GDELT streams so the full harness completes in
minutes; every bench prints the paper's published values next to ours, and
EXPERIMENTS.md records the comparison.
"""

import numpy as np
import pytest

from repro.datasets import gdelt_like, reddit_like, wikipedia_like
from repro.models import ModelConfig, TGNN


def pytest_addoption(parser):
    parser.addoption(
        "--smoke", action="store_true", default=False,
        help="shrink bench workloads to a seconds-scale smoke run "
             "(exercised by the tier-1 test suite)")


def pytest_configure(config):
    # Benches print their tables; keep them visible in the bench log.
    config.option.verbose = max(config.option.verbose, 0)
    config.addinivalue_line(
        "markers", "smoke: bench supports the --smoke reduced workload")
    # Registered here as well as in the repo-root conftest so a bench file
    # can be run from inside benchmarks/ (different rootdir) without
    # tripping --strict-markers; the root conftest owns the deselection.
    config.addinivalue_line(
        "markers",
        "tier2: slow statistical test, excluded from tier-1; run with "
        "`pytest -m tier2`")
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(_RunOncePlugin(), "benchmark-run-once")


@pytest.fixture(scope="session")
def smoke(request):
    """True when the harness runs with ``--smoke`` (reduced workloads)."""
    return request.config.getoption("--smoke")


class _RunOnce:
    """Stand-in for pytest-benchmark's fixture: calls the function once.

    A bench's timing block is a side measurement; its tables and shape
    assertions come first.  Without the plugin the block still runs, so a
    bench stays runnable under only numpy, pytest and hypothesis.
    """

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, **_timing):
        return fn(*args, **(kwargs or {}))


class _RunOncePlugin:
    @pytest.fixture
    def benchmark(self):
        return _RunOnce()


@pytest.fixture(scope="session")
def wiki():
    """Wikipedia analogue at bench scale."""
    return wikipedia_like(num_edges=4000, num_users=400, num_items=60)


@pytest.fixture(scope="session")
def reddit():
    return reddit_like(num_edges=4000, num_users=400, num_items=50)


@pytest.fixture(scope="session")
def gdelt():
    return gdelt_like(num_edges=4000, num_users=300, num_items=300)


@pytest.fixture(scope="session")
def datasets(wiki, reddit, gdelt):
    return {"wikipedia": wiki, "reddit": reddit, "gdelt": gdelt}


def np_model(graph, budget, seed=0, **overrides) -> TGNN:
    """Calibrated co-designed model NP(budget) at paper dims."""
    cfg = ModelConfig(simplified_attention=True, lut_time_encoder=True,
                      pruning_budget=budget,
                      edge_dim=graph.edge_dim, node_dim=graph.node_dim,
                      name=f"NP({budget})", **overrides)
    model = TGNN(cfg, rng=np.random.default_rng(seed))
    model.calibrate(graph)
    model.prepare_inference()
    return model


@pytest.fixture(scope="session")
def wiki_np_models(wiki):
    """NP(L/M/S) models on the Wikipedia analogue (paper dims)."""
    return {name: np_model(wiki, budget)
            for name, budget in (("NP(L)", 6), ("NP(M)", 4), ("NP(S)", 2))}
