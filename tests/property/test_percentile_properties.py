"""``sorted_percentile`` is ``np.percentile`` bit for bit on sorted input.

The report reads every p95/p99 off one ascending array in closed form,
numpy's ``linear`` interpolation with its IEEE operations in its order.
Held here to ``np.percentile`` itself on sorted finite float64 arrays:
lengths 1..200, duplicates, wide magnitudes, the report's two quantiles
and any ``q`` in [0, 100].
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serving.events import sorted_percentile

# Differences of two values stay finite: |b - a| <= 2e300.
finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@st.composite
def sorted_arrays(draw):
    n = draw(st.integers(1, 200))
    # Half the draws pick from a few values, so runs of ties are common.
    pool = draw(st.lists(finite, min_size=1, max_size=4)) \
        if draw(st.booleans()) else None
    values = st.sampled_from(pool) if pool else finite
    return np.sort(np.array(draw(st.lists(values, min_size=n, max_size=n)),
                            dtype=np.float64))


quantiles = st.sampled_from([95, 99]) | st.floats(0.0, 100.0)

# The two points of a p99 at g = 0.99, where ``a + d * g`` and numpy's
# ``b - d * (1 - g)`` round apart (1.981 against 1.9809999999999999).
BRANCH = (np.array([0.1, 2.0]), 99)


def check(percentile, s, q):
    assert percentile(s, q).hex() == float(np.percentile(s, q)).hex()


@settings(deadline=None, max_examples=300)
@given(sorted_arrays(), quantiles)
@example(*BRANCH)
@example(np.array([5.0]), 95)
@example(np.array([-3.0, -3.0, 7.5e-300, 7.5e-300, 1e300]), 99)
@example(np.exp(np.linspace(-40.0, 40.0, 60)), 99.9)
@example(np.arange(20, dtype=np.float64), 100)
@example(np.arange(20, dtype=np.float64), 0)
def test_closed_form_equals_np_percentile(s, q):
    check(sorted_percentile, s, q)


def test_one_branch_interpolation_fails():
    """Mutation check: interpolating from the lower point alone (no
    ``g >= 0.5`` branch) is a last-bit error on the fixed example."""

    def one_branch(s, q):
        n = len(s)
        v = (n - 1) * (q / 100)
        if v >= n - 1:
            return float(s[n - 1])
        lo = math.floor(v)
        g = v - lo
        a, b = float(s[lo]), float(s[lo + 1])
        return a + (b - a) * g

    with pytest.raises(AssertionError):
        check(one_branch, *BRANCH)
