"""Property test of the four design modes over dims and budgets.

Each example draws dims from 1-6, a budget P = 10^U(-12, 6) and a seed, and
runs design-trace, design-det, relay-mse and relay-capacity through run() at
one trial, budget 10 and no PGD refinement; every invariant flag must hold at
the default tolerances.  The budget range stops at 1e6 because the relay
route check fails from about P = 3e6 on (dims 4x1x2x3 at the default seed:
mimo.lmmse_error loses precision at high SNR, see
test_relay_mse_route_at_high_snr).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from matfield.experiments import build_config, run

DESIGN_MODES = ("design-trace", "design-det", "relay-mse", "relay-capacity")


@st.composite
def configs(draw):
    return {
        "dims": draw(st.lists(st.integers(1, 6), min_size=4, max_size=4)),
        "power": 10.0 ** draw(st.floats(-12.0, 6.0)),
        "seed": draw(st.integers(0, 2**31 - 1)),
        "trials": 1,
        "budget": 10,
        "refinements": 0,
    }


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(configs())
def test_design_modes_hold_every_invariant(data):
    for mode in DESIGN_MODES:
        report = run(build_config(data, mode=mode))
        failed = [flag for flag, ok in report["trials"][0]["invariant_pass"].items() if not ok]
        assert not failed, (mode, failed)
        assert report["pass"]
