"""Repo-wide pytest configuration: the tier-1 / tier-2 split.

Tier-1 (``pytest -x -q``, the CI gate) must stay seconds-fast, so slow
*statistical* tests — distributional validation of the queue simulator
against closed-form M/M/1 / M/M/c results, large-sample percentile checks —
are marked ``tier2`` and deselected by default.  Run them explicitly with::

    pytest -m tier2

Any ``-m`` expression that mentions ``tier2`` disables the auto-deselect,
so ``pytest -m "tier2 or smoke"`` behaves as written.
"""

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "tier2: slow statistical test, excluded from tier-1; run with "
        "`pytest -m tier2`")
    # A deprecation or syntax warning raised from the package's own code
    # is an error.  Compile-time ones (an invalid escape in a docstring)
    # name the module by file path, run-time ones by dotted name.
    for category in ("DeprecationWarning", "SyntaxWarning"):
        config.addinivalue_line(
            "filterwarnings",
            rf"error::{category}:(.*[\\/])?repro[./\\].*")


def pytest_collection_modifyitems(config, items):
    if "tier2" in (config.getoption("markexpr", default="") or ""):
        return
    skip = pytest.mark.skip(
        reason="tier2 statistical test; run `pytest -m tier2`")
    for item in items:
        if "tier2" in item.keywords:
            item.add_marker(skip)
