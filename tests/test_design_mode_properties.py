"""Property test of the four design modes over dims, budgets, noise scales
and channel ranks.

Each example draws dims from 1-6, a budget P = 10^U(-12, 6), a seed, a noise
scale s = 10^U(-6, 6) and a rank for each channel, from 0 to the channel's
smaller side.  It builds explicit instances from the seeded ones: the noise
covariances (R_n, or R_n1 and R_n2) scaled by s, and each channel (H, or H1
and H2) truncated to its drawn rank by SVD.  design-trace and design-det run
on the point instance, relay-mse and relay-capacity on the relay instance,
all through run() at one trial, budget 10 and no oracle refinement; every
invariant flag must hold at the default tolerances.

The budget range stops at 1e6, and s is raised where needed to keep P / s
at most 1e6, because the relay route check fails from about P = 3e6 on
(dims 4x1x2x3 at the default seed: mimo.lmmse_error loses precision at high
SNR, see test_relay_mse_route_at_high_snr).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from matfield import generate_relay, generate_system, matrix_to_json
from matfield.experiments import build_config, run

POINT_MODES = ("design-trace", "design-det")
RELAY_MODES = ("relay-mse", "relay-capacity")
MAX_SNR = 1e6


def _truncate(h, rank):
    """h with all but its `rank` largest singular values set to zero."""
    u, s, vh = np.linalg.svd(h)
    return (u[:, :rank] * s[:rank]) @ vh[:rank]


@st.composite
def configs(draw):
    dims = draw(st.lists(st.integers(1, 6), min_size=4, max_size=4))
    power = 10.0 ** draw(st.floats(-12.0, 6.0))
    seed = draw(st.integers(0, 2**31 - 1))
    noise = max(10.0 ** draw(st.floats(-6.0, 6.0)), power / MAX_SNR)

    def channel(h):
        return matrix_to_json(_truncate(h, draw(st.integers(0, min(h.shape)))))

    model = generate_system(seed, dims, power)
    relay = generate_relay(seed, dims, power)
    point = {
        "H": channel(model.channel),
        "R_n": matrix_to_json(noise * model.noise_cov),
        "n_streams": model.n_streams,
    }
    relay_instance = {
        "H1": channel(relay.channel1),
        "H2": channel(relay.channel2),
        "R_s": matrix_to_json(relay.source_cov),
        "R_n1": matrix_to_json(noise * relay.noise1_cov),
        "R_n2": matrix_to_json(noise * relay.noise2_cov),
    }
    base = {"dims": dims, "power": power, "seed": seed, "trials": 1, "budget": 10, "refinements": 0}
    return {"point": {**base, "instance": point}, "relay": {**base, "instance": relay_instance}}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(configs())
def test_design_modes_hold_every_invariant(data):
    for family, modes in (("point", POINT_MODES), ("relay", RELAY_MODES)):
        for mode in modes:
            report = run(build_config(data[family], mode=mode))
            failed = [flag for flag, ok in report["trials"][0]["invariant_pass"].items() if not ok]
            assert not failed, (mode, failed)
            assert report["pass"]
