"""Deterministic complex-matrix kernels.

Ordered singular/eigen decompositions with a fixed tie-break and phase
convention, the PD and PSD rules and the covariance check built on them,
eigen-rebuilds, PD square roots, log-determinants, and Loewner-order
comparisons.  Everything downstream (model, design, relay) leans on these
conventions, so repeated calls on identical input bytes must return
identical factors.  The model layer's formulas are written in
the stack kernels at the end.

Conventions:
  * singular values / eigenvalues are sorted decreasing with a
    stable tie-break on (value, index of first non-negligible vector entry,
    sign of its real part);
  * every vector is scaled so its largest-magnitude entry is real positive
    (for singular pairs the phase is taken from the left vector and the
    same factor is applied to the right vector, which leaves the outer
    product unchanged);
  * norms used in tolerances are spectral norms unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidMatrix, NotPD, NotPSD, ShapeError

HERMITIAN_RTOL = 1e-12   # relative conjugate-symmetry tolerance on inputs
PSD_RTOL = 1e-10         # relative eigenvalue floor accepted as "semi-definite"

_ENTRY_TOL = 1e-12       # threshold for "non-negligible" vector entries


def eigs_are_psd(w) -> bool:
    """True when the eigenvalues w clear the PSD floor min w >= -PSD_RTOL * max|w|."""
    return not w.size or bool(w.min() >= -PSD_RTOL * max(float(np.abs(w).max()), 1e-300))


def eigs_are_pd(w) -> bool:
    """True when the eigenvalues w are nonempty and all strictly positive (no floor)."""
    return bool(w.size) and bool(w.min() > 0.0)


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise InvalidMatrix(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():  # complex isfinite covers both parts
        raise InvalidMatrix("matrix contains NaN or Inf entries")
    return m


def as_shaped(a, shape: tuple, name: str) -> np.ndarray:
    """as_matrix(a), raising ShapeError unless it has the given shape."""
    m = as_matrix(a)
    if m.shape != shape:
        raise ShapeError(f"{name} must be {shape}, got {m.shape}")
    return m


def symmetrize(a) -> np.ndarray:
    """Return (A + A^H)/2 without checking how Hermitian A was.

    Used on matrices that are Hermitian by construction, to scrub the
    rounding asymmetry of float matrix products.
    """
    m = np.asarray(a, dtype=np.complex128)
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def hermitize(a) -> np.ndarray:
    """Validate that A is Hermitian and return the exactly Hermitian (A + A^H)/2.

    The input must be conjugate-symmetric to HERMITIAN_RTOL relative
    (Frobenius); anything worse raises InvalidMatrix.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise InvalidMatrix(f"Hermitian matrix must be square, got {m.shape}")
    mh = m.conj().T
    if not (m == mh).all():  # an exactly Hermitian A has no asymmetry to measure
        gap = np.linalg.norm(m - mh)
        if gap > HERMITIAN_RTOL * max(1.0, np.linalg.norm(m)):
            raise InvalidMatrix(
                "matrix is not Hermitian (asymmetry {:.3e} exceeds tolerance)".format(gap)
            )
    return (m + mh) / 2.0


def frozen(a: np.ndarray) -> np.ndarray:
    """a made read-only; a must be an array that no caller holds."""
    a.flags.writeable = False
    return a


def as_covariance(a, n: int, name: str, definite: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (hermitize(a), its eigenvalues), checked to be n x n and positive definite
    (semi-definite unless definite); the InvalidMatrix, ShapeError, NotPD or NotPSD names
    the matrix."""
    try:
        h = hermitize(a)
    except InvalidMatrix as exc:
        raise InvalidMatrix(f"{name}: {exc}") from None
    if h.shape[0] != n:
        raise ShapeError(f"{name} is {h.shape[0]}x{h.shape[0]}, but must be {n}x{n}")
    w = np.linalg.eigvalsh(h)
    if definite and not eigs_are_pd(w):
        raise NotPD(f"{name} must be strictly positive definite")
    if not definite and not eigs_are_psd(w):
        raise NotPSD(f"{name} must be positive semi-definite")
    return frozen(h), frozen(w)


def from_eigs(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Hermitian U diag(w) U^H from eigenvectors u and (real) eigenvalues w."""
    return symmetrize((u * w) @ u.conj().T)


def _phase_fix(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each column so its largest-magnitude entry is real positive.

    Returns (fixed columns, per-column multipliers).  argmax takes the first
    maximal entry, which makes the pivot choice deterministic.
    """
    if cols.shape[1] == 0:
        return cols.copy(), np.ones(0, dtype=np.complex128)
    mag = np.abs(cols)
    at = (mag.argmax(axis=0), np.arange(cols.shape[1]))
    nonzero = mag[at] > 0.0
    factors = np.where(nonzero, cols[at].conj() / np.where(nonzero, mag[at], 1.0), 1.0)
    return cols * factors[None, :], factors


def _tie_order(values: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Stable decreasing order with the deterministic secondary keys described above."""
    big = np.abs(cols) > _ENTRY_TOL
    # argmax finds each column's first entry above tolerance; a column with
    # none keeps index 0, where its masked sign is 0
    at = (big.argmax(axis=0), np.arange(cols.shape[1]))
    first_sign = np.sign(cols.real[at]) * big[at]
    # np.lexsort: last key is primary, earlier keys break ties, stable overall
    return np.lexsort((first_sign, at[0], -values))


@dataclass(frozen=True, eq=False)
class OrderedSVD:
    """Full SVD A = u @ diag_rect(s) @ v^H with s sorted decreasing."""

    u: np.ndarray  # rows x rows unitary, columns are left singular vectors
    s: np.ndarray  # min(rows, cols) singular values, decreasing
    v: np.ndarray  # cols x cols unitary, columns are right singular vectors


@dataclass(frozen=True, eq=False)
class OrderedEVD:
    """Eigendecomposition A = vectors @ diag(values) @ vectors^H, values decreasing."""

    values: np.ndarray
    vectors: np.ndarray


def ordered_svd(a) -> OrderedSVD:
    """Full SVD with decreasing singular values and fixed phase/tie conventions."""
    m = as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise InvalidMatrix(f"SVD did not converge: {exc}") from None
    v = vh.conj().T
    k = s.size
    # each column's phase is fixed on its own, so all of u at once; the
    # unpaired columns k: stay where they are, as the reordering spares them
    u, factors = _phase_fix(u)
    v = v.copy()
    v[:, :k] = v[:, :k] * factors[None, :k]
    if not (s[1:] < s[:-1]).all():  # LAPACK's order stands unless two values tie
        order = _tie_order(s, u[:, :k])
        u[:, :k] = u[:, order]
        v[:, :k] = v[:, order]
        s = s[order]
    if v.shape[1] > k:
        v[:, k:], _ = _phase_fix(v[:, k:])
    return OrderedSVD(u=u, s=s, v=v)


def ordered_evd(a) -> OrderedEVD:
    """Eigendecomposition of a Hermitian matrix with decreasing eigenvalues.

    Raises InvalidMatrix when the input is not Hermitian to tolerance.
    """
    h = hermitize(a)
    try:
        w, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise InvalidMatrix(f"eigendecomposition did not converge: {exc}") from None
    u, _ = _phase_fix(u)
    # eigh's order is increasing, so without ties the decreasing one is its reverse
    order = np.arange(w.size)[::-1] if (w[1:] > w[:-1]).all() else _tie_order(w, u)
    return OrderedEVD(values=w[order], vectors=u[:, order])


def pd_root_eigh(h: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(U, sqrt(w)) from the eigh of an h already exactly Hermitian; NotPD unless PD."""
    w, u = np.linalg.eigh(h)
    if not eigs_are_pd(w):
        raise NotPD(f"{name} is not strictly positive definite")
    return u, np.sqrt(w)


def pd_roots(a, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """(A^{1/2}, A^{-1/2}) of a Hermitian strictly positive definite A, from one eigh."""
    u, root = pd_root_eigh(hermitize(a), name)
    return from_eigs(u, root), from_eigs(u, 1.0 / root)


def logdet_of(h: np.ndarray) -> float:
    """logdet_pd of an h that is already exactly Hermitian, unchecked."""
    w = np.linalg.eigvalsh(h)
    if w.size == 0:
        return 0.0
    if not eigs_are_pd(w):
        raise NotPD("log-determinant requires a positive definite matrix")
    return float(np.log(w).sum())


def logdet_pd(a) -> float:
    """log det of a Hermitian strictly positive definite matrix."""
    return logdet_of(hermitize(a))


def loewner_leq(a, b, tol: float = 1e-8) -> bool:
    """Whether A <= B in the Loewner (PSD) order, to tolerance.

    True iff min eig(B - A) >= -tol * max(1, ||B - A||) with the spectral
    norm of the difference.
    """
    ha = hermitize(a)
    hb = hermitize(b)
    if ha.shape != hb.shape:
        raise ShapeError(f"Loewner comparison needs equal shapes, got {ha.shape} vs {hb.shape}")
    d = hb - ha
    w = np.linalg.eigvalsh(d)
    if w.size == 0:
        return True
    scale = max(1.0, float(np.abs(w).max()))
    return bool(w.min() >= -tol * scale)


# ---------------------------------------------------------------------------
# stack kernels: one matrix or a (batch, rows, cols) stack.  A product with a
# fixed matrix is one GEMM over the stack reshaped to (batch * rows, cols);
# numpy multiplies a one-row operand through gemv or dot instead of gemm, so
# a member computed alone may differ in the last bits from one in a stack.
# A product of two stack members (`_mul`) is one broadcast matvec gufunc
# while the product is small, else numpy's matmul, which makes one GEMM call
# per member.  A stack of 2x2 members is inverted (`_inv`) by the adjugate
# over its determinant (`_det2`), a few ufuncs over the whole stack, and
# takes its log-det (`_logdet`) from that determinant; one matrix and other
# member sizes go through LAPACK, one call per member.  A solve (`_solve`) of
# 2x2 members eliminates in closed form.  Either way a member's bits do not
# depend on its stack.


def _right(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """X A for one matrix or every stack member, as one GEMM over the stacked rows."""
    return (x.reshape(-1, x.shape[-1]) @ a).reshape(x.shape[:-1] + (a.shape[-1],))


def _left(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A X for one matrix or every stack member, as one GEMM: (X^T A^T)^T."""
    if x.ndim == 2:
        return a @ x
    return _right(x.swapaxes(1, 2), a.T).swapaxes(1, 2)


# A B of two stacks as a matvec over B's transposed columns costs one gufunc
# step per member row; numpy's matmul makes one GEMM call per member.  Time
# of matmul over time of matvec, complex stacks of 20 and 100 members, k and
# cols each 2, 4, 16 and 64 (2 cores, numpy 2.4.6, OpenBLAS 0.3.31):
#
#   rows of A               matmul / matvec    (100 x (2x2)(2x2): 26 / 8.3 us)
#   2                       1.07 - 3.10
#   3                       0.97 - 2.49        (the low end at k = cols = 64)
#   4                       0.79 - 2.10        (below 1 at k = cols = 64)
#   5                       0.71 - 1.85
#   2-3, k or cols of 1     0.50 - 1.14
#
# So the matvec takes A of 2 or 3 rows with no dimension of 1.  The benchmark
# reaches only 2x2 members; the rest of the range rests on this table.
_MATVEC_ROWS = 3


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A B for one pair of matrices (exactly a @ b) or each pair of stack members."""
    if a.ndim == 2 or not 1 < a.shape[-2] <= _MATVEC_ROWS or 1 in b.shape[-2:]:
        return a @ b
    return np.matvec(b.swapaxes(-1, -2)[..., None, :, :], a)


def _det2(a: np.ndarray) -> np.ndarray:
    """ad - bc of each 2x2 member of a stack."""
    return a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]


# the adjugate [[d, -b], [-c, a]] of [[a, b], [c, d]] is its reversed
# transpose times these signs
_ADJ_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _inv(a: np.ndarray) -> np.ndarray:
    """A^-1 of one matrix (exactly np.linalg.inv) or of each stack member.

    2x2 members are inverted by the adjugate over the determinant; a zero
    determinant raises LinAlgError, as LAPACK does on a singular member.
    """
    if a.ndim == 2 or a.shape[-1] != 2:
        return np.linalg.inv(a)
    det = _det2(a)
    if not det.all():
        raise np.linalg.LinAlgError("Singular matrix")
    return a[:, ::-1, ::-1].swapaxes(1, 2) / (det[:, None, None] * _ADJ_SIGN)


def _logdet(psi: np.ndarray) -> np.ndarray:
    """log |det| of each stack member; +inf where Re det is not positive.

    That is slogdet's value where its sign has a positive real part.  2x2
    members take log |ad - bc| (`_det2`); other sizes go through slogdet.
    """
    if psi.shape[-1] != 2:
        sign, ld = np.linalg.slogdet(psi)
        return np.where(np.real(sign) > 0.0, ld, np.inf)
    det = _det2(psi)
    return np.log(np.abs(det), out=np.full(det.shape, np.inf), where=det.real > 0.0)


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^-1 B of one pair (exactly np.linalg.solve) or each pair of stack members.

    A stack of 2x2 members is solved by elimination without pivoting,
    A = [[1, 0], [c / a, 1]] [[a, b], [0, d - (c / a) b]], which is backward
    stable for the Hermitian positive definite members it is meant for (the
    relay bracket); a zero pivot raises LinAlgError.  B times `_inv`'s
    adjugate inverse is not: its error is not that of a nearby A, and at a
    bracket of condition 1e12 the relay's T^H A^-1 T lost 1e-4 relative
    through it.  One pair and other member sizes go through LAPACK.
    """
    if a.ndim == 2 or a.shape[-1] != 2:
        return np.linalg.solve(a, b)
    pivot, upper = a[:, 0, 0, None], a[:, 0, 1, None]
    if not pivot.all():
        raise np.linalg.LinAlgError("Singular matrix")
    lower = a[:, 1, 0, None] / pivot
    schur = a[:, 1, 1, None] - lower * upper
    if not schur.all():
        raise np.linalg.LinAlgError("Singular matrix")
    z = np.empty_like(b)
    np.divide(b[:, 1] - lower * b[:, 0], schur, out=z[:, 1])
    np.divide(b[:, 0] - upper * z[:, 1], pivot, out=z[:, 0])
    return z


def _ct(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of one matrix or every stack member."""
    return x.conj().swapaxes(-1, -2)


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(A^H B) for one pair of matrices or each pair of stack members."""
    return np.vecdot(a.reshape(a.shape[:-2] + (-1,)), b.reshape(b.shape[:-2] + (-1,))).real


# A stack's Kronecker GEMM does rows * cols / (k (rows + cols)) times the
# flops of the k factors' products, but as one large GEMM without the copies
# a transposed product makes.  On 2000-member stacks (2 cores, numpy 2.4.6,
# OpenBLAS) it stays ahead up to a flop ratio of 6 (12x12, 8x24, 2x64 and
# 4x64 factors: 1.6 against 3.8 ms at 12x12) and falls behind from 7 (14x14:
# 3.0 against 2.1 ms; 24x24: 24 against 15 ms).
_KRON_FLOP_RATIO = 6


class Congruence:
    """The map X -> sum_k A_k^H X A_k and its adjoint Y -> sum_k A_k Y A_k^H.

    A stack of small factors is one GEMM of each member's row-major vec with
    sum_k kron(conj A_k, A_k) (or its conjugate transpose), built on the
    first stack: one-matrix calls never build that (rows * cols)^2 matrix.
    One matrix, and a stack above _KRON_FLOP_RATIO, go through the factor
    products, each product one GEMM over the stack.
    """

    def __init__(self, factors):
        self.factors = tuple(factors)
        rows, cols = self.factors[0].shape
        self._kron = rows * cols <= _KRON_FLOP_RATIO * len(self.factors) * (rows + cols)

    @cached_property
    def _vec(self) -> tuple[np.ndarray, np.ndarray]:
        fwd = sum(np.kron(np.conj(a), a) for a in self.factors)
        return fwd, np.ascontiguousarray(fwd.conj().T)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 2 or not self._kron:
            return sum(_right(_left(a.conj().T, x), a) for a in self.factors)
        n = self.factors[0].shape[1]
        return (x.reshape(x.shape[0], -1) @ self._vec[0]).reshape(x.shape[0], n, n)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        if y.ndim == 2 or not self._kron:
            return sum(_right(_left(a, y), a.conj().T) for a in self.factors)
        n = self.factors[0].shape[0]
        return (y.reshape(y.shape[0], -1) @ self._vec[1]).reshape(y.shape[0], n, n)
