"""Property tests of the two scalar water-fillers over extreme spectra.

Spectra of 1-6 modes span 1e-8 to 1e8 with zeros allowed, budgets span
1e-12 to 1e12.  Every allocation must satisfy the full KKT conditions of
its convex problem at the harness tolerances: nonnegative, nothing on a
zero-product mode, the whole budget spent, stationary on the active modes,
and no inactive mode whose marginal gain at zero beats the water level.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from matfield import (
    DEFAULT_TOLERANCES,
    logdet_kkt_residual,
    trace_kkt_residual,
    waterfill_logdet,
    waterfill_trace,
)

POWER_REL = DEFAULT_TOLERANCES["power_rel"]
KKT_REL = DEFAULT_TOLERANCES["kkt_rel"]

magnitude = st.one_of(st.just(0.0), st.floats(-8.0, 8.0).map(lambda e: 10.0**e))


@st.composite
def instances(draw):
    n = draw(st.integers(1, 6))
    a = sorted(draw(st.lists(magnitude, min_size=n, max_size=n)), reverse=True)
    b = sorted(draw(st.lists(magnitude, min_size=n, max_size=n)), reverse=True)
    power = 10.0 ** draw(st.floats(-12.0, 12.0))
    return np.array(a), np.array(b), power


def gain_at_zero(kind, a, b):
    """Marginal objective decrease per unit power at x = 0."""
    return a * b if kind == "trace" else a * b / (1.0 + a)


def check_kkt(kind, solver, residual, a, b, power):
    x, mu = solver(a, b, power)
    assert x.shape == a.shape
    assert np.all(x >= 0.0)
    assert np.all(x[a * b == 0.0] == 0.0)
    if not np.any(a * b > 0.0):
        assert np.all(x == 0.0) and mu == 0.0
        return
    assert abs(np.sum(x) - power) <= POWER_REL * power
    assert residual(a, b, x, mu) <= KKT_REL
    idle = (x == 0.0) & (a * b > 0.0)
    assert np.all(gain_at_zero(kind, a[idle], b[idle]) <= mu * (1.0 + KKT_REL))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(instances())
def test_waterfill_trace_satisfies_kkt(case):
    check_kkt("trace", waterfill_trace, trace_kkt_residual, *case)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(instances())
def test_waterfill_logdet_satisfies_kkt(case):
    check_kkt("logdet", waterfill_logdet, logdet_kkt_residual, *case)
