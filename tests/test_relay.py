import numpy as np
import pytest

from matfield import (
    NotPD,
    RelayModel,
    ShapeError,
    design_relay_capacity,
    design_relay_sum_mse,
    forwarding_to_precoder,
    precoder_to_forwarding,
    relay_capacity,
    relay_to_weighted,
    relay_transmit_power,
    relay_weighted_mse,
    transmit_power,
    weighted_mse_of_precoder,
)
from matfield.baselines import random_search_oracle, relay_logdet_problem, relay_mse_problem
from matfield.relay import relay_chain
from matfield.spectral import from_eigs

import helpers


def scalar_chain(h1=1.0, h2=1.0, rs=1.0, r1=1.0, r2=1.0, power=4.0):
    return RelayModel(
        channel1=np.array([[h1]], dtype=complex),
        channel2=np.array([[h2]], dtype=complex),
        source_cov=np.array([[rs]], dtype=complex),
        noise1_cov=np.array([[r1]], dtype=complex),
        noise2_cov=np.array([[r2]], dtype=complex),
        power=power,
    )


def test_mapping_dead_first_hop():
    m = RelayModel(
        channel1=np.zeros((2, 2)),
        channel2=np.eye(2),
        source_cov=np.eye(2),
        noise1_cov=np.eye(2),
        noise2_cov=np.eye(2),
        power=1.0,
    )
    _, op = relay_to_weighted(m)
    assert np.allclose(op.weights[0], 0.0)
    assert np.allclose(op.offset, np.eye(2))


def test_mapping_identity_chain_values():
    m = RelayModel(
        channel1=np.eye(2),
        channel2=np.eye(2),
        source_cov=np.eye(2),
        noise1_cov=np.eye(2),
        noise2_cov=np.eye(2),
        power=1.0,
    )
    sysm, op = relay_to_weighted(m)
    assert np.allclose(op.weights[0], np.eye(2) / np.sqrt(2.0), atol=1e-12)
    assert np.allclose(op.offset, 0.5 * np.eye(2), atol=1e-12)
    assert np.allclose(sysm.channel, np.eye(2))
    assert np.allclose(sysm.noise_cov, np.eye(2))
    assert sysm.n_streams == 2


def test_mapping_offset_completes_source_cov():
    gen = helpers.rng(0)
    for _ in range(25):
        m = helpers.random_relay(gen, 2, 3, 2, 4.0)
        _, op = relay_to_weighted(m)
        w = op.weights[0]
        assert np.min(np.linalg.eigvalsh(op.offset)) >= -1e-10 * np.linalg.norm(op.offset)
        assert helpers.rel_err(op.offset + w.conj().T @ w, m.source_cov) < 1e-10


def test_forwarding_conversion_zero():
    m = helpers.random_relay(helpers.rng(1), 2, 2, 2, 4.0)
    assert np.allclose(precoder_to_forwarding(m, np.zeros((2, 2))), 0.0)


def test_forwarding_identity_when_first_hop_silent():
    m = RelayModel(
        channel1=np.zeros((2, 2)),
        channel2=np.eye(2),
        source_cov=np.eye(2),
        noise1_cov=np.eye(2),
        noise2_cov=np.eye(2),
        power=1.0,
    )
    f = helpers.crandn(helpers.rng(2), 2, 2)
    assert np.allclose(precoder_to_forwarding(m, f), f)


def test_forwarding_power_bijection():
    gen = helpers.rng(3)
    for _ in range(25):
        m = helpers.random_relay(gen, 2, 2, 3, 4.0)
        f = helpers.crandn(gen, m.n_relay_tx, m.n_relay_rx)
        pm = precoder_to_forwarding(m, f)
        pf = transmit_power(f)
        assert abs(relay_transmit_power(m, pm) - pf) < 1e-9 * max(1.0, pf)
        back = forwarding_to_precoder(m, pm)
        assert helpers.rel_err(back, f) < 1e-10



def test_forwarding_maps_undo_each_other():
    gen = helpers.rng(13)
    for _ in range(25):
        m = helpers.random_relay(gen, 3, 2, 3, 4.0)
        f = helpers.crandn(gen, m.n_relay_tx, m.n_relay_rx)
        assert helpers.rel_err(forwarding_to_precoder(m, precoder_to_forwarding(m, f)), f) < 1e-12
        assert helpers.rel_err(precoder_to_forwarding(m, forwarding_to_precoder(m, f)), f) < 1e-12


@pytest.mark.parametrize("design", [design_relay_sum_mse, design_relay_capacity])
def test_relay_design_builds_one_root_of_c1(design, monkeypatch):
    import matfield.relay
    import matfield.spectral

    sizes = []

    def counting(u, w):
        sizes.append(w.size)
        return from_eigs(u, w)

    for module in (matfield.relay, matfield.spectral):
        monkeypatch.setattr(module, "from_eigs", counting)
    m = helpers.random_relay(helpers.rng(14), 2, 3, 2, 4.0)
    design(m)
    assert sizes == [m.n_relay_rx]

def test_chain_mse_zero_forwarding():
    m = helpers.random_relay(helpers.rng(4), 2, 2, 2, 4.0)
    assert helpers.rel_err(relay_weighted_mse(m, np.zeros((2, 2))), m.source_cov) < 1e-12


def test_chain_mse_scalar_closed_form():
    m = scalar_chain()
    for p in (0.3, 1.0, 1.7):
        got = relay_weighted_mse(m, np.array([[p]]))[0, 0].real
        want = 1.0 - p * p / (2.0 * p * p + 1.0)
        assert abs(got - want) < 1e-12
        # same value through the weighted point-to-point route
        sysm, op = relay_to_weighted(m)
        f = forwarding_to_precoder(m, np.array([[p]]))
        assert abs(weighted_mse_of_precoder(op, sysm, f)[0, 0].real - want) < 1e-12


def test_chain_mse_matches_weighted_route():
    gen = helpers.rng(5)
    for _ in range(25):
        m = helpers.random_relay(gen, 2, 3, 2, 4.0)
        pm = helpers.crandn(gen, m.n_relay_tx, m.n_relay_rx)
        sysm, op = relay_to_weighted(m)
        f = forwarding_to_precoder(m, pm)
        a = relay_weighted_mse(m, pm)
        b = weighted_mse_of_precoder(op, sysm, f)
        assert helpers.rel_err(a, b) < 1e-9


def test_chain_mse_matches_end_to_end_estimator():
    gen = helpers.rng(6)
    for _ in range(25):
        m = helpers.random_relay(gen, 3, 2, 2, 4.0)
        pm = helpers.crandn(gen, m.n_relay_tx, m.n_relay_rx)
        got = relay_weighted_mse(m, pm)
        want = helpers.end_to_end_error_cov(m, pm)
        assert helpers.rel_err(got, want) < 1e-9


def test_capacity_zero_forwarding():
    m = helpers.random_relay(helpers.rng(7), 2, 2, 2, 4.0)
    assert abs(relay_capacity(m, np.zeros((2, 2)))) < 1e-12


def test_capacity_hits_first_hop_bottleneck():
    m = scalar_chain()
    cap = relay_capacity(m, np.array([[1e3]]))  # forwarding gain^2 = 1e6
    assert abs(cap - np.log(2.0)) < 0.01 * np.log(2.0)
    # monotone in forwarding gain
    caps = [relay_capacity(m, np.array([[p]])) for p in (0.1, 0.5, 1.0, 4.0)]
    assert np.all(np.diff(caps) > 0)


def test_capacity_consistent_with_mse_route():
    gen = helpers.rng(8)
    for _ in range(25):
        m = helpers.random_relay(gen, 2, 2, 2, 4.0)
        pm = helpers.crandn(gen, m.n_relay_tx, m.n_relay_rx)
        cap = relay_capacity(m, pm)
        sign, ld_rs = np.linalg.slogdet(m.source_cov)
        sign2, ld_psi = np.linalg.slogdet(relay_weighted_mse(m, pm))
        assert abs(cap - (ld_rs - ld_psi)) < 1e-9 * max(1.0, abs(cap))


def test_mse_design_dead_second_hop():
    m = RelayModel(
        channel1=np.eye(2),
        channel2=np.zeros((2, 2)),
        source_cov=np.eye(2),
        noise1_cov=np.eye(2),
        noise2_cov=np.eye(2),
        power=1.0,
    )
    pm, obj, _ = design_relay_sum_mse(m)
    assert np.allclose(pm, 0.0)
    assert abs(obj - 2.0) < 1e-12


def test_capacity_design_dead_first_hop():
    m = RelayModel(
        channel1=np.zeros((2, 2)),
        channel2=np.eye(2),
        source_cov=np.eye(2),
        noise1_cov=np.eye(2),
        noise2_cov=np.eye(2),
        power=1.0,
    )
    pm, cap, _ = design_relay_capacity(m)
    assert np.allclose(pm, 0.0)
    assert abs(cap) < 1e-12


def test_mse_design_beats_random_search():
    gen = helpers.rng(9)
    for trial in range(3):
        m = helpers.random_relay(gen, 2, 2, 2, 4.0)
        pm, obj, _ = design_relay_sum_mse(m)
        assert abs(relay_transmit_power(m, pm) - 4.0) < 1e-9 * 4.0
        oracle = random_search_oracle(relay_mse_problem(m), budget=2000, seed=trial, refinements=20)
        assert obj <= oracle + 1e-6


def test_capacity_design_beats_random_search():
    gen = helpers.rng(10)
    for trial in range(3):
        m = helpers.random_relay(gen, 2, 2, 2, 4.0)
        pm, cap, _ = design_relay_capacity(m)
        sign, ld_rs = np.linalg.slogdet(m.source_cov)
        oracle = random_search_oracle(relay_logdet_problem(m), budget=2000, seed=trial, refinements=20)
        assert cap >= (ld_rs - oracle) - 1e-6


def test_scalar_designs_match_grid():
    gen = helpers.rng(11)
    for _ in range(5):
        h1 = complex(*gen.standard_normal(2)) / np.sqrt(2)
        h2 = complex(*gen.standard_normal(2)) / np.sqrt(2)
        rs, r1, r2 = gen.uniform(0.5, 2.0, size=3)
        m = scalar_chain(h1, h2, rs, r1, r2, power=3.0)
        c1 = (abs(h1) ** 2 * rs + r1).real
        # phase of the forwarding scalar is irrelevant; scan |p|^2 on its budget range
        p2 = np.linspace(0.0, 3.0 / c1, 30001)
        t = abs(h2) ** 2 * p2
        psi = rs - rs**2 * abs(h1) ** 2 * t / (t * c1 + r2)
        pm, obj, _ = design_relay_sum_mse(m)
        assert obj <= np.min(psi) + 1e-6
        pm2, cap, _ = design_relay_capacity(m)
        assert cap >= np.max(np.log(rs) - np.log(psi)) - 1e-6


def test_model_validation():
    with pytest.raises(NotPD):
        scalar_chain(rs=0.0)
    with pytest.raises(ShapeError):
        RelayModel(
            channel1=np.ones((2, 2)),
            channel2=np.eye(2),
            source_cov=np.eye(3),
            noise1_cov=np.eye(2),
            noise2_cov=np.eye(2),
            power=1.0,
        )
    for power in (0.0, float("inf"), float("nan"), True, "4", 4.0 + 0j, 10**400):
        with pytest.raises(ValueError, match="relay power budget"):
            scalar_chain(power=power)
    assert scalar_chain(power=np.int64(4)).power == 4.0


def test_first_hop_gram_value():
    m = scalar_chain(h1=2.0, rs=1.5, r1=0.5)
    assert abs(m.c1[0, 0] - 6.5) < 1e-12


@pytest.mark.parametrize("n_src, n_relay, n_dst", [(2, 2, 2), (2, 3, 2), (3, 2, 3), (1, 1, 1)])
def test_relay_chain_of_one_forwarding_matrix_is_lapack_bitwise(n_src, n_relay, n_dst):
    # the designs evaluate one forwarding matrix at a time; only stacks take
    # the 2x2 closed-form solve, so a design's numbers stay LAPACK's to the bit
    gen = helpers.rng(9)
    model = helpers.random_relay(gen, n_src, n_relay, n_dst)
    p = helpers.crandn(gen, n_relay, n_relay)
    t = model.channel2 @ p
    want = np.linalg.solve(t @ model.c1 @ t.conj().T + model.noise2_cov, t)
    got_t, got_z = relay_chain(model, p)
    assert got_t.tobytes() == t.tobytes()
    assert got_z.tobytes() == want.tobytes()
