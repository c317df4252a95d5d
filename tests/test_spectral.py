import numpy as np
import pytest

from matfield import (
    InvalidMatrix,
    NotPD,
    NotPSD,
    RelayModel,
    ShapeError,
    SystemModel,
    WeightingOperator,
    design_det_min,
    hermitian_sqrt,
    hermitize,
    inv_sqrt_pd,
    is_psd,
    loewner_leq,
    logdet_pd,
    ordered_evd,
    ordered_svd,
    symmetrize,
)
from matfield import spectral
from matfield.spectral import pd_roots

import helpers


def test_ordered_svd_identity():
    out = ordered_svd(np.eye(2))
    assert np.allclose(out.u, np.eye(2))
    assert np.allclose(out.s, [1.0, 1.0])
    assert np.allclose(out.v, np.eye(2))


def test_ordered_svd_sorts_descending():
    out = ordered_svd(np.diag([1.0, 3.0]))
    assert np.allclose(out.s, [3.0, 1.0])
    # ordering forces a column swap
    assert np.allclose(out.u, [[0, 1], [1, 0]])
    assert np.allclose(out.v, [[0, 1], [1, 0]])


def test_ordered_svd_reconstructs_rectangular():
    a = helpers.crandn(helpers.rng(3), 3, 2)
    out = ordered_svd(a)
    sigma = np.zeros((3, 2))
    sigma[:2, :2] = np.diag(out.s)
    assert helpers.rel_err(out.u @ sigma @ out.v.conj().T, a) < 1e-10
    assert np.allclose(out.u.conj().T @ out.u, np.eye(3), atol=1e-10)
    assert np.allclose(out.v.conj().T @ out.v, np.eye(2), atol=1e-10)
    assert np.all(np.diff(out.s) <= 0)


def test_singular_values_match_gram_eigenvalues():
    a = helpers.crandn(helpers.rng(4), 4, 3)
    s = ordered_svd(a).s
    lam = ordered_evd(a.conj().T @ a).values
    assert np.allclose(s, np.sqrt(np.clip(lam, 0, None)), atol=1e-9)


def test_ordered_svd_phase_convention():
    a = helpers.crandn(helpers.rng(5), 4, 4)
    u = ordered_svd(a).u
    for col in u.T:
        top = col[np.argmax(np.abs(col))]
        assert abs(top.imag) < 1e-12 and top.real > 0


def test_ordered_svd_deterministic_on_ties():
    # repeated singular values: same bytes in, same factors out
    a = np.kron(np.eye(2), helpers.crandn(helpers.rng(6), 2, 2))
    out1 = ordered_svd(a)
    out2 = ordered_svd(a.copy())
    assert np.array_equal(out1.u, out2.u)
    assert np.array_equal(out1.v, out2.v)


def _first_entry_keys(cols):
    """(index, sign of the real part) of each column's first entry above
    1e-12 in magnitude; (0, 0) for a column with none."""
    keys = []
    for col in cols.T:
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        keys.append((int(nz[0]), int(np.sign(col[nz[0]].real))) if nz.size else (0, 0))
    return keys


def _tied_keys_in_order(values, cols):
    """Asserts the tie-break within each run of equal values; returns the
    number of adjacent equal pairs checked."""
    keys = _first_entry_keys(cols)
    ties = 0
    for j in range(1, values.size):
        if values[j] == values[j - 1]:
            ties += 1
            assert keys[j - 1] <= keys[j]
    return ties


def test_tie_break_orders_repeated_values_by_first_entry():
    gen = helpers.rng(23)
    ties = 0
    for n in (2, 3):
        # kron(I, B) repeats each singular value, kron(I, A) each eigenvalue
        out = ordered_svd(np.kron(np.eye(n), helpers.crandn(gen, 2, 2)))
        ties += _tied_keys_in_order(out.s, out.u)
        evd = ordered_evd(np.kron(np.eye(n), helpers.random_pd(gen, 2)), "increasing")
        ties += _tied_keys_in_order(evd.values, evd.vectors)
    evd = ordered_evd(np.diag([1.0, 3.0, 1.0, 3.0, 2.0]))
    ties += _tied_keys_in_order(evd.values, evd.vectors)
    assert ties >= 10
    # the sign key: equal values and equal first indices, a tiny first entry
    # skipped and a column with no entry above tolerance
    cols = np.array(
        [
            [0.6, -0.6, 1e-13, 0.6, 1e-13],
            [0.8, 0.8, -0.6, -0.8, 1e-13],
            [0.0, 0.0, 0.8, 0.0, 0.0],
        ],
        dtype=np.complex128,
    )
    values = np.array([2.0, 2.0, 2.0, 2.0, 2.0])
    order = spectral._tie_order(values, cols, descending=True)
    assert order.tolist() == [1, 4, 0, 3, 2]
    assert _tied_keys_in_order(values[order], cols[:, order]) == 4


def test_ordered_svd_rejects_nonfinite():
    with pytest.raises(InvalidMatrix):
        ordered_svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_ordered_evd_identity():
    out = ordered_evd(np.eye(2), "decreasing")
    assert np.allclose(out.values, [1.0, 1.0])


def test_ordered_evd_increasing():
    out = ordered_evd(np.diag([2.0, 5.0]), "increasing")
    assert np.allclose(out.values, [2.0, 5.0])


def test_ordered_evd_trace_identity():
    a = helpers.random_psd(helpers.rng(7), 4) - 0.5 * np.eye(4)
    out = ordered_evd(a)
    assert abs(np.sum(out.values) - np.trace(a).real) < 1e-10
    rec = out.vectors @ np.diag(out.values) @ out.vectors.conj().T
    assert helpers.rel_err(rec, a) < 1e-10


def test_ordered_evd_rejects_non_hermitian():
    with pytest.raises(InvalidMatrix):
        ordered_evd(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_sqrt_identity():
    assert np.allclose(hermitian_sqrt(np.eye(3)), np.eye(3))


def test_hermitian_sqrt_diagonal():
    assert np.allclose(hermitian_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_hermitian_sqrt_multiplies_back():
    a = helpers.random_psd(helpers.rng(8), 4)
    s = hermitian_sqrt(a)
    assert helpers.rel_err(s @ s, a) < 1e-9
    assert is_psd(s)


def test_hermitian_sqrt_clips_roundoff():
    # eigenvalue at -1e-13 * scale is accepted and clipped
    a = np.diag([1.0, -1e-13])
    s = hermitian_sqrt(a)
    assert np.allclose(s @ s, np.diag([1.0, 0.0]), atol=1e-12)


def test_hermitian_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        hermitian_sqrt(np.diag([1.0, -0.5]))


def test_inv_sqrt_pd_roundtrip():
    a = helpers.random_pd(helpers.rng(9), 3)
    r = inv_sqrt_pd(a)
    assert helpers.rel_err(r @ a @ r, np.eye(3)) < 1e-9
    with pytest.raises(NotPD):
        inv_sqrt_pd(np.diag([1.0, 0.0]))


def _relay_with(**cov):
    eye = np.eye(2)
    mats = {"source_cov": eye, "noise1_cov": eye, "noise2_cov": eye, **cov}
    return RelayModel(channel1=eye, channel2=eye, power=1.0, **mats)


# every place that decides "strictly positive definite" reads the one rule
# spectral.eigs_are_pd; a relative floor there shows at all of them at once
PD_ENTRY_POINTS = {
    "SystemModel.R_n": lambda a: SystemModel(channel=np.eye(2), noise_cov=a, n_streams=2, power=1.0),
    "RelayModel.R_s": lambda a: _relay_with(source_cov=a),
    "RelayModel.R_n1": lambda a: _relay_with(noise1_cov=a),
    "RelayModel.R_n2": lambda a: _relay_with(noise2_cov=a),
    "design_det_min.Pi": lambda a: design_det_min(
        SystemModel(channel=np.eye(2), noise_cov=np.eye(2), n_streams=2, power=1.0),
        WeightingOperator(weights=(np.eye(2),), offset=a),
    ),
    "pd_roots": pd_roots,
    "inv_sqrt_pd": inv_sqrt_pd,
    "logdet_pd": logdet_pd,
}


@pytest.mark.parametrize("entry", list(PD_ENTRY_POINTS))
@pytest.mark.parametrize("last, is_pd", [(0.0, False), (-1e-300, False), (1e-12, True)])
def test_one_pd_rule_at_every_entry_point(entry, last, is_pd):
    a = np.diag([1.0, last])
    if is_pd:
        PD_ENTRY_POINTS[entry](a)
    else:
        with pytest.raises(NotPD):
            PD_ENTRY_POINTS[entry](a)


def test_pd_roots_are_inverse_square_roots():
    a = helpers.random_pd(helpers.rng(6), 3)
    root, inv_root = pd_roots(a)
    assert helpers.rel_err(root @ root, a) < 1e-12
    assert helpers.rel_err(root @ inv_root, np.eye(3)) < 1e-12
    assert np.array_equal(inv_root, inv_sqrt_pd(a))
    with pytest.raises(NotPD, match="R_x"):
        pd_roots(np.diag([1.0, 0.0]), "R_x")


def test_logdet_pd_matches_slogdet():
    a = helpers.random_pd(helpers.rng(10), 4)
    assert abs(logdet_pd(a) - np.linalg.slogdet(a)[1]) < 1e-10
    with pytest.raises(NotPD):
        logdet_pd(np.zeros((2, 2)))


def test_loewner_order_basic():
    assert loewner_leq(np.eye(2), 2 * np.eye(2))
    assert not loewner_leq(2 * np.eye(2), np.eye(2))


def test_loewner_shape_mismatch():
    with pytest.raises(ShapeError):
        loewner_leq(np.eye(2), np.eye(3))


def test_loewner_reflexive_transitive():
    gen = helpers.rng(11)
    for _ in range(25):
        a = helpers.random_psd(gen, 3)
        b = a + helpers.random_psd(gen, 3)
        c = b + helpers.random_psd(gen, 3)
        assert loewner_leq(a, a, 1e-9)
        assert loewner_leq(a, b, 1e-9) and loewner_leq(b, c, 1e-9)
        assert loewner_leq(a, c, 1e-9)


def test_hermitize_validates():
    a = helpers.random_psd(helpers.rng(12), 3)
    assert np.allclose(hermitize(a), a)
    with pytest.raises(InvalidMatrix):
        hermitize(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_symmetrize_no_check():
    out = symmetrize(np.array([[0.0, 2.0], [0.0, 0.0]]))
    assert np.allclose(out, [[0.0, 1.0], [1.0, 0.0]])
