import numpy as np
import pytest

from matfield import (
    InvalidWeight,
    NotPSD,
    ShapeError,
    WeightingOperator,
    from_classical_weights,
    mse_lmmse,
    loewner_leq,
    weighted_mse_of_precoder,
)

import helpers


def test_identity_operator_is_passthrough():
    op = WeightingOperator(weights=(np.eye(2),), offset=np.zeros((2, 2)))
    phi = helpers.random_psd(helpers.rng(0), 2)
    assert np.allclose(op.apply(phi), phi)


def test_zero_input_returns_offset():
    pi = helpers.random_pd(helpers.rng(1), 3)
    op = WeightingOperator(weights=(helpers.crandn(helpers.rng(2), 2, 3),), offset=pi)
    assert np.allclose(op.apply(np.zeros((2, 2))), pi)


def test_apply_matches_term_sum():
    gen = helpers.rng(3)
    op = helpers.random_operator(gen, n_streams=2, m=3, k=2)
    phi = helpers.random_psd(gen, 2)
    # accumulate the definition one factor at a time
    want = np.array(op.offset, dtype=complex)
    for w in op.weights:
        want = want + w.conj().T @ phi @ w
    got = op.apply(phi)
    assert helpers.rel_err(got, want) < 1e-12
    assert np.min(np.linalg.eigvalsh(got)) >= -1e-10 * np.linalg.norm(got)


def test_apply_shape_mismatch():
    op = helpers.random_operator(helpers.rng(4), n_streams=2, m=2)
    with pytest.raises(ShapeError):
        op.apply(np.eye(3))


def test_apply_linear_when_offset_zero():
    gen = helpers.rng(5)
    op = helpers.random_operator(gen, n_streams=3, m=2, pd_offset=False)
    a = helpers.random_psd(gen, 3)
    b = helpers.random_psd(gen, 3)
    lhs = op.apply(2.0 * a + 0.5 * b)
    rhs = 2.0 * op.apply(a) + 0.5 * op.apply(b)
    assert helpers.rel_err(lhs, rhs) < 1e-12


def test_weighted_mse_zero_precoder():
    gen = helpers.rng(6)
    m = helpers.random_system(gen, 2, 2, 2, 4.0)
    op = helpers.random_operator(gen, n_streams=2, m=2, k=2)
    out = weighted_mse_of_precoder(op, m, np.zeros((2, 2)))
    assert helpers.rel_err(out, op.factor_gram() + op.offset) < 1e-12


def test_weighted_mse_identity_operator_is_plain_mse():
    gen = helpers.rng(7)
    m = helpers.random_system(gen, 2, 2, 2, 4.0)
    f = helpers.boundary_precoder(gen, 2, 2, 4.0)
    op = WeightingOperator(weights=(np.eye(2),), offset=np.zeros((2, 2)))
    assert helpers.rel_err(weighted_mse_of_precoder(op, m, f), mse_lmmse(m, f)) < 1e-12


def test_weighted_mse_two_route_consistency():
    gen = helpers.rng(8)
    for _ in range(20):
        m = helpers.random_system(gen, 3, 2, 2, 4.0)
        op = helpers.random_operator(gen, n_streams=2, m=3, k=2)
        f = helpers.boundary_precoder(gen, 3, 2, 4.0)
        assert helpers.rel_err(weighted_mse_of_precoder(op, m, f), op.apply(mse_lmmse(m, f))) < 1e-10


def test_classical_embedding_diag_sqrt():
    op = from_classical_weights([4.0, 1.0])
    assert op.k == 1
    assert np.allclose(op.weights[0], np.diag([2.0, 1.0]))
    assert np.allclose(op.offset, 0.0)


def test_classical_embedding_trace_picks_weighted_diag():
    phi = helpers.random_psd(helpers.rng(9), 2)
    op = from_classical_weights([2.0, 0.0])
    assert abs(np.trace(op.apply(phi)).real - 2.0 * phi[0, 0].real) < 1e-12


def test_classical_embedding_rejects_negative():
    with pytest.raises(InvalidWeight):
        from_classical_weights([1.0, -1.0])


def assert_monotone(op, a, b):
    """A <= B in the Loewner order, and so Psi(A) <= Psi(B)."""
    assert loewner_leq(a, b)
    assert loewner_leq(op.apply(a), op.apply(b))


def test_monotonicity_trivial_pairs():
    gen = helpers.rng(10)
    op = helpers.random_operator(gen, n_streams=2, m=2, k=2)
    assert_monotone(op, np.zeros((2, 2)), np.eye(2))
    a = helpers.random_psd(gen, 2)
    assert_monotone(op, a, a)


def test_monotonicity_random_sweep():
    gen = helpers.rng(11)
    for _ in range(1000):
        op = helpers.random_operator(gen, n_streams=2, m=2, k=1, pd_offset=False)
        a = helpers.random_psd(gen, 2)
        b = a + helpers.random_psd(gen, 2)
        assert_monotone(op, a, b)


def test_monotonicity_rejects_unordered_inputs():
    # I >= 0 but not I <= 0, and the operator keeps the order: Psi(I) - Psi(0)
    # = sum_k W_k^H W_k is PSD and nonzero
    op = helpers.random_operator(helpers.rng(12), n_streams=2, m=2)
    assert not loewner_leq(np.eye(2), np.zeros((2, 2)))
    assert not loewner_leq(op.apply(np.eye(2)), op.apply(np.zeros((2, 2))))
    assert_monotone(op, np.zeros((2, 2)), np.eye(2))


def test_operator_validation():
    with pytest.raises(Exception):
        WeightingOperator(weights=(), offset=np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        WeightingOperator(weights=(np.eye(2), np.ones((3, 2))), offset=np.zeros((2, 2)))
    with pytest.raises(NotPSD):
        WeightingOperator(weights=(np.eye(2),), offset=np.diag([1.0, -1.0]))


def test_rectangular_factors_change_output_dim():
    op = helpers.random_operator(helpers.rng(13), n_streams=2, m=4)
    assert op.n_streams == 2
    assert op.apply(np.eye(2)).shape == (4, 4)
