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
    hermitize,
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
        evd = ordered_evd(np.kron(np.eye(n), helpers.random_pd(gen, 2)))
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
    order = spectral._tie_order(values, cols)
    assert order.tolist() == [1, 4, 0, 3, 2]
    assert _tied_keys_in_order(values[order], cols[:, order]) == 4


def test_ordered_svd_rejects_nonfinite():
    with pytest.raises(InvalidMatrix):
        ordered_svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_ordered_evd_identity():
    out = ordered_evd(np.eye(2))
    assert np.allclose(out.values, [1.0, 1.0])


def test_ordered_evd_trace_identity():
    a = helpers.random_psd(helpers.rng(7), 4) - 0.5 * np.eye(4)
    out = ordered_evd(a)
    assert abs(np.sum(out.values) - np.trace(a).real) < 1e-10
    rec = out.vectors @ np.diag(out.values) @ out.vectors.conj().T
    assert helpers.rel_err(rec, a) < 1e-10


def test_ordered_evd_rejects_non_hermitian():
    with pytest.raises(InvalidMatrix):
        ordered_evd(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("last, is_psd", [(-1e-13, True), (-1e-9, False), (-0.5, False)])
def test_psd_rule_floor(last, is_psd):
    # eigenvalues down to -PSD_RTOL * max|w| count as rounding noise
    a = np.diag([1.0, last])
    assert spectral.eigs_are_psd(np.linalg.eigvalsh(a)) is is_psd
    if is_psd:
        spectral.as_covariance(a, 2, "Pi", definite=False)
    else:
        with pytest.raises(NotPSD, match="Pi"):
            spectral.as_covariance(a, 2, "Pi", definite=False)


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


def _stack(gen, count, rows, cols):
    return np.stack([helpers.crandn(gen, rows, cols) for _ in range(count)])


# (rows, inner, cols) of stack products on both sides of _MATVEC_ROWS, the
# most rows that go through the broadcast matvec, and a 1x1 that matmul keeps
MUL_SHAPES = [(1, 1, 1), (2, 2, 2), (2, 3, 4), (3, 3, 3), (4, 4, 4), (8, 8, 8), (16, 16, 16)]


def test_mul_shapes_cover_both_methods():
    rows = [r for r, _, _ in MUL_SHAPES]
    assert min(rows) < 2 <= spectral._MATVEC_ROWS < max(rows)


@pytest.mark.parametrize("rows, inner, cols", MUL_SHAPES)
@pytest.mark.parametrize("count", [1, 9])
def test_stack_product_matches_matmul(rows, inner, cols, count):
    gen = helpers.rng(100 * rows + 10 * inner + cols)
    a, b = _stack(gen, count, rows, inner), _stack(gen, count, inner, cols)
    want = a @ b
    got = spectral._mul(a, b)
    assert got.shape == want.shape
    err = np.linalg.norm(got - want, axis=(1, 2))
    assert np.all(err <= 1e-14 * np.linalg.norm(want, axis=(1, 2)))


@pytest.mark.parametrize("rows, inner", [(2, 3), (4, 2), (8, 8)])
def test_stack_product_of_conjugate_transposed_views(rows, inner):
    # _ct returns a strided view, the operand form of Phi's F^H K F and
    # the relay's T^H Z and T C1 T^H
    gen = helpers.rng(rows + inner)
    f, k = _stack(gen, 5, inner, rows), _stack(gen, 5, inner, rows)
    a = spectral._ct(f)
    assert not a.flags.c_contiguous
    for got, want in ((spectral._mul(a, k), a @ k), (spectral._mul(k, a), k @ a)):
        err = np.linalg.norm(got - want, axis=(1, 2))
        assert np.all(err <= 1e-14 * np.linalg.norm(want, axis=(1, 2)))


@pytest.mark.parametrize("rows, inner, cols", MUL_SHAPES)
def test_product_of_two_matrices_is_matmul_bitwise(rows, inner, cols):
    gen = helpers.rng(rows + inner + cols)
    a, b = helpers.crandn(gen, rows, inner), helpers.crandn(gen, inner, cols)
    assert spectral._mul(a, b).tobytes() == (a @ b).tobytes()


@pytest.mark.parametrize("rows, inner, cols", MUL_SHAPES)
def test_stack_product_member_bits_do_not_depend_on_the_stack(rows, inner, cols):
    # the refinement scores and differentiates sub-stacks of its starts, and
    # its masked reference must reproduce every row bit for bit
    gen = helpers.rng(7 * rows + inner + cols)
    a, b = _stack(gen, 9, rows, inner), _stack(gen, 9, inner, cols)
    whole = spectral._mul(a, b)
    for k in range(9):
        assert np.array_equal(spectral._mul(a[k : k + 1], b[k : k + 1])[0], whole[k])
    mask = np.arange(9) % 3 != 1
    assert np.array_equal(spectral._mul(a[mask], b[mask]), whole[mask])


def _well_conditioned(gen, count, n):
    # complex, not Hermitian: the standard normal part plus n I keeps every
    # member far from singular
    return _stack(gen, count, n, n) + n * np.eye(n)


def _pd_stack(gen, count, n):
    # Hermitian positive definite, the members _solve is meant for
    return np.stack([helpers.random_pd(gen, n) for _ in range(count)])


# member sizes on both sides of the 2x2 closed forms
INV_SIZES = [1, 2, 3]


@pytest.mark.parametrize("n", INV_SIZES)
@pytest.mark.parametrize("count", [1, 9])
def test_stack_inverse_and_solve_match_lapack(n, count):
    gen = helpers.rng(40 + 10 * n + count)
    a, pd = _well_conditioned(gen, count, n), _pd_stack(gen, count, n)
    inv = spectral._inv(a)
    want = np.linalg.inv(a)
    assert inv.shape == want.shape
    assert np.all(np.linalg.norm(inv - want, axis=(1, 2)) <= 1e-13 * np.linalg.norm(want, axis=(1, 2)))
    # right-hand widths that take _mul's matmul (1 column) and its matvec
    for cols in (1, 2, 3):
        t = _stack(gen, count, n, cols)
        for got, want in ((spectral._mul(inv, t), np.linalg.solve(a, t)), (spectral._solve(pd, t), np.linalg.solve(pd, t))):
            assert got.shape == want.shape
            err = np.linalg.norm(got - want, axis=(1, 2))
            assert np.all(err <= 1e-13 * np.linalg.norm(want, axis=(1, 2)))


@pytest.mark.parametrize("n", INV_SIZES)
def test_inverse_and_solve_of_one_matrix_are_lapack_bitwise(n):
    gen = helpers.rng(50 + n)
    a, pd, t = _well_conditioned(gen, 1, n)[0], helpers.random_pd(gen, n), helpers.crandn(gen, n, 2)
    assert spectral._inv(a).tobytes() == np.linalg.inv(a).tobytes()
    assert spectral._solve(pd, t).tobytes() == np.linalg.solve(pd, t).tobytes()


@pytest.mark.parametrize("n", [1, 3])
def test_inverse_and_solve_of_other_member_sizes_are_lapack_bitwise(n):
    gen = helpers.rng(60 + n)
    a, pd, t = _well_conditioned(gen, 5, n), _pd_stack(gen, 5, n), _stack(gen, 5, n, 2)
    assert spectral._inv(a).tobytes() == np.linalg.inv(a).tobytes()
    assert spectral._solve(pd, t).tobytes() == np.linalg.solve(pd, t).tobytes()


def test_stack_inverse_member_bits_do_not_depend_on_the_stack():
    gen = helpers.rng(70)
    a, pd, t = _well_conditioned(gen, 9, 2), _pd_stack(gen, 9, 2), _stack(gen, 9, 2, 3)
    whole, solved = spectral._inv(a), spectral._solve(pd, t)
    for k in range(9):
        assert np.array_equal(spectral._inv(a[k : k + 1])[0], whole[k])
        assert np.array_equal(spectral._solve(pd[k : k + 1], t[k : k + 1])[0], solved[k])
    for rows in (slice(2, 7), slice(None, None, 2), np.arange(9) % 3 != 1):
        assert np.array_equal(spectral._inv(a[rows]), whole[rows])
        assert np.array_equal(spectral._solve(pd[rows], t[rows]), solved[rows])


def test_stack_solve_keeps_lapack_accuracy_at_an_ill_conditioned_bracket():
    # the relay bracket B = T T^H + R at a rank-one T of power 1e12 has a
    # condition number near 1e12; T^H B^-1 T, which the relay chain forms,
    # must come out as LAPACK's solve gives it, where T^H (adj B / det B) T
    # loses about 1e-4 relative
    gen = helpers.rng(75)
    t = 1e6 * _stack(gen, 6, 2, 1) @ _stack(gen, 6, 1, 2)
    b = t @ spectral._ct(t) + _pd_stack(gen, 6, 2)
    want = spectral._ct(t) @ np.linalg.solve(b, t)
    got = spectral._ct(t) @ spectral._solve(b, t)
    assert np.all(np.linalg.norm(got - want, axis=(1, 2)) <= 1e-10 * np.linalg.norm(want, axis=(1, 2)))


SINGULAR_2X2 = [np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([[0.0, 1j], [0.0, 3.0]])]


@pytest.mark.parametrize("singular", SINGULAR_2X2)
def test_singular_stack_member_raises_like_lapack(singular):
    # a zero determinant (or pivot) raises LinAlgError, as LAPACK does, rather
    # than returning inf or NaN under a RuntimeWarning (which the suite makes an error)
    gen = helpers.rng(80)
    a, t = _pd_stack(gen, 4, 2), _stack(gen, 4, 2, 2)
    a[2] = singular
    for inv in (spectral._inv, np.linalg.inv):
        with pytest.raises(np.linalg.LinAlgError):
            inv(a)
    for solve in (spectral._solve, np.linalg.solve):
        with pytest.raises(np.linalg.LinAlgError):
            solve(a, t)
