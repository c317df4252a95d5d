import numpy as np
import pytest

from matfield import (
    InvalidWeight,
    NotPD,
    ShapeError,
    SystemModel,
    classical_weighted_mse,
    from_classical_weights,
    lmmse_equalizer,
    loewner_leq,
    mse_lmmse,
    mse_matrix,
    transmit_power,
)
from matfield.mimo import lmmse_error
from matfield.weighting import weighted_mse_of_precoder

import helpers


def small_model(seed=0, **kw):
    return helpers.random_system(helpers.rng(seed), **kw)


def expand_mse_entrywise(model, g, f):
    # direct scalar-loop expansion of E{(Gy-s)(Gy-s)^H}; no matmul on purpose
    n = model.n_streams
    e = np.zeros((n, n), dtype=complex)
    ghf = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(model.n_rx):
                for t in range(model.n_tx):
                    ghf[i, j] += g[i, k] * model.channel[k, t] * f[t, j]
    for i in range(n):
        ghf[i, i] -= 1.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                e[i, j] += ghf[i, k] * np.conj(ghf[j, k])
            for k in range(model.n_rx):
                for l in range(model.n_rx):
                    e[i, j] += g[i, k] * model.noise_cov[k, l] * np.conj(g[j, l])
    return e


def test_mse_matrix_zero_equalizer_gives_identity():
    m = small_model(1)
    f = helpers.boundary_precoder(helpers.rng(2), m.n_tx, m.n_streams, m.power)
    out = mse_matrix(m, np.zeros((m.n_streams, m.n_rx)), f)
    assert np.allclose(out, np.eye(m.n_streams), atol=1e-14)


def test_mse_matrix_identity_chain():
    m = SystemModel(channel=np.eye(2), noise_cov=np.eye(2), n_streams=2, power=4.0)
    out = mse_matrix(m, np.eye(2), np.eye(2))
    assert np.allclose(out, np.eye(2))


def test_mse_matrix_matches_entrywise_expansion():
    gen = helpers.rng(3)
    m = helpers.random_system(gen, 3, 2, 2, 4.0)
    f = helpers.boundary_precoder(gen, 3, 2, 4.0)
    g = helpers.crandn(gen, 2, 2)
    assert helpers.rel_err(mse_matrix(m, g, f), expand_mse_entrywise(m, g, f)) < 1e-12


def test_mse_matrix_is_psd():
    gen = helpers.rng(4)
    for _ in range(20):
        m = helpers.random_system(gen, 2, 3, 2, 2.0)
        f = helpers.boundary_precoder(gen, 2, 2, 2.0)
        g = helpers.crandn(gen, 2, 3)
        e = mse_matrix(m, g, f)
        assert np.min(np.linalg.eigvalsh(e)) >= -1e-10 * np.linalg.norm(e)


def test_mse_matrix_shape_mismatch():
    m = small_model(5)
    with pytest.raises(ShapeError):
        mse_matrix(m, np.zeros((2, 3)), np.zeros((2, 2)))


def test_lmmse_zero_precoder():
    m = small_model(6)
    g = lmmse_equalizer(m, np.zeros((m.n_tx, m.n_streams)))
    assert np.allclose(g, 0.0)


def test_lmmse_scalar_value():
    p = 5.0
    m = SystemModel(channel=np.eye(1), noise_cov=np.eye(1), n_streams=1, power=p)
    g = lmmse_equalizer(m, np.array([[np.sqrt(p)]]))
    assert abs(g[0, 0] - np.sqrt(p) / (p + 1.0)) < 1e-12


def test_lmmse_dominates_random_equalizers():
    gen = helpers.rng(7)
    m = helpers.random_system(gen, 2, 2, 2, 4.0)
    f = helpers.boundary_precoder(gen, 2, 2, 4.0)
    best = mse_matrix(m, lmmse_equalizer(m, f), f)
    for _ in range(100):
        g = helpers.crandn(gen, 2, 2)
        assert loewner_leq(best, mse_matrix(m, g, f), 1e-8)


def test_mse_lmmse_zero_precoder():
    m = small_model(8)
    assert np.allclose(mse_lmmse(m, np.zeros((m.n_tx, m.n_streams))), np.eye(m.n_streams))


def test_mse_lmmse_scalar_value():
    m = SystemModel(channel=np.eye(1), noise_cov=np.eye(1), n_streams=1, power=3.0)
    out = mse_lmmse(m, np.array([[np.sqrt(3.0)]]))
    assert abs(out[0, 0] - 0.25) < 1e-12


def test_mse_lmmse_agrees_with_explicit_route():
    gen = helpers.rng(9)
    for _ in range(20):
        m = helpers.random_system(gen, 3, 2, 2, 4.0)
        f = helpers.boundary_precoder(gen, 3, 2, 4.0)
        direct = mse_lmmse(m, f)
        explicit = mse_matrix(m, lmmse_equalizer(m, f), f)
        assert helpers.rel_err(direct, explicit) < 1e-10


def test_mse_lmmse_eigenvalues_in_unit_interval():
    gen = helpers.rng(10)
    for _ in range(20):
        m = helpers.random_system(gen, 2, 2, 2, 4.0)
        f = helpers.boundary_precoder(gen, 2, 2, 4.0)
        lam = np.linalg.eigvalsh(mse_lmmse(m, f))
        assert np.all(lam > 0.0) and np.all(lam <= 1.0 + 1e-12)


def test_classical_weighted_mse_unit_weights_is_trace():
    gen = helpers.rng(11)
    m = helpers.random_system(gen, 2, 2, 2, 4.0)
    f = helpers.boundary_precoder(gen, 2, 2, 4.0)
    g = helpers.crandn(gen, 2, 2)
    val = classical_weighted_mse(m, g, f, np.ones(2))
    assert abs(val - np.trace(mse_matrix(m, g, f)).real) < 1e-12


def test_classical_weighted_mse_basis_weight_picks_entry():
    gen = helpers.rng(12)
    m = helpers.random_system(gen, 2, 2, 2, 4.0)
    f = helpers.boundary_precoder(gen, 2, 2, 4.0)
    g = helpers.crandn(gen, 2, 2)
    val = classical_weighted_mse(m, g, f, np.array([1.0, 0.0]))
    assert abs(val - mse_matrix(m, g, f)[0, 0].real) < 1e-12


def test_classical_weighted_mse_bridges_to_operator_form():
    gen = helpers.rng(13)
    m = helpers.random_system(gen, 2, 2, 2, 4.0)
    f = helpers.boundary_precoder(gen, 2, 2, 4.0)
    w = np.array([1.7, 0.3])
    op = from_classical_weights(w)
    g = lmmse_equalizer(m, f)
    direct = classical_weighted_mse(m, g, f, w)
    lifted = np.trace(weighted_mse_of_precoder(op, m, f)).real
    assert abs(direct - lifted) < 1e-12


def test_classical_weighted_mse_rejects_negative_weight():
    m = small_model(14)
    f = np.zeros((m.n_tx, m.n_streams))
    with pytest.raises(InvalidWeight):
        classical_weighted_mse(m, np.zeros((m.n_streams, m.n_rx)), f, np.array([1.0, -0.1]))


def test_model_requires_pd_noise():
    with pytest.raises(NotPD):
        SystemModel(channel=np.eye(2), noise_cov=np.diag([1.0, 0.0]), n_streams=2, power=1.0)


def test_model_validates_scalars():
    with pytest.raises(Exception):
        SystemModel(channel=np.eye(2), noise_cov=np.eye(2), n_streams=0, power=1.0)
    with pytest.raises(Exception):
        SystemModel(channel=np.eye(2), noise_cov=np.eye(2), n_streams=2, power=0.0)
    # a real number that is not a bool: no numeric string or complex budget
    for power in (float("inf"), float("nan"), True, "4", "inf", 4.0 + 0j, 10**400):
        with pytest.raises(ValueError, match="power budget"):
            SystemModel(channel=np.eye(2), noise_cov=np.eye(2), n_streams=2, power=power)
    for power in (4, np.float32(4.0), np.int64(4)):
        m = SystemModel(channel=np.eye(2), noise_cov=np.eye(2), n_streams=2, power=power)
        assert m.power == 4.0 and type(m.power) is float
    # n_streams follows the integer rule: no truncation of 2.7, no bool as 1
    for streams in (2.7, True, "2"):
        with pytest.raises(ValueError, match="n_streams"):
            SystemModel(channel=np.eye(2), noise_cov=np.eye(2), n_streams=streams, power=1.0)
    for streams in (2.0, np.int64(2)):
        m = SystemModel(channel=np.eye(2), noise_cov=np.eye(2), n_streams=streams, power=1.0)
        assert m.n_streams == 2 and type(m.n_streams) is int


def test_transmit_power():
    f = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert abs(transmit_power(f) - 5.0) < 1e-14


@pytest.mark.parametrize("n_tx, n_streams", [(2, 2), (3, 2), (2, 3), (1, 1)])
def test_lmmse_error_of_one_precoder_is_lapack_bitwise(n_tx, n_streams):
    # the designs evaluate one precoder at a time; only stacks take the 2x2
    # closed-form inverse, so a design's numbers stay LAPACK's to the bit
    model = small_model(7, n_tx=n_tx, n_streams=n_streams)
    f = helpers.crandn(helpers.rng(8), n_tx, n_streams)
    k = model.k_gram
    want = np.linalg.inv(f.conj().T @ (k @ f) + np.eye(n_streams))
    assert lmmse_error(k, f)[1].tobytes() == want.tobytes()
