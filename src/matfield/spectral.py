"""Deterministic complex-matrix kernels.

Ordered singular/eigen decompositions with a fixed tie-break and phase
convention, the PD and PSD rules and the covariance check built on them,
eigen-rebuilds, Hermitian square roots, log-determinants, and Loewner-order
comparisons.  Everything downstream (model, design, relay) leans on these
conventions, so repeated calls on identical input bytes must return
identical factors.  The model layer's formulas are written in
the stack kernels at the end.

Conventions:
  * singular values / eigenvalues are sorted (default: decreasing) with a
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


def eigs_are_psd(w, rtol: float = PSD_RTOL) -> bool:
    """True when the eigenvalues w clear the PSD floor min w >= -rtol * max|w|."""
    return not w.size or bool(w.min() >= -rtol * max(float(np.abs(w).max()), 1e-300))


def eigs_are_pd(w) -> bool:
    """True when the eigenvalues w are nonempty and all strictly positive (no floor)."""
    return bool(w.size) and bool(w.min() > 0.0)


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise InvalidMatrix(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
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
    gap = np.linalg.norm(m - m.conj().T)
    if gap > HERMITIAN_RTOL * max(1.0, np.linalg.norm(m)):
        raise InvalidMatrix(
            "matrix is not Hermitian (asymmetry {:.3e} exceeds tolerance)".format(gap)
        )
    return (m + m.conj().T) / 2.0


def as_covariance(a, n: int, name: str, definite: bool = True) -> np.ndarray:
    """hermitize(a), checked to be n x n and positive definite (semi-definite
    unless definite); the ShapeError, NotPD or NotPSD names the matrix."""
    h = hermitize(a)
    if h.shape[0] != n:
        raise ShapeError(f"{name} is {h.shape[0]}x{h.shape[0]}, but must be {n}x{n}")
    w = np.linalg.eigvalsh(h)
    if definite and not eigs_are_pd(w):
        raise NotPD(f"{name} must be strictly positive definite")
    if not definite and not eigs_are_psd(w):
        raise NotPSD(f"{name} must be positive semi-definite")
    return h


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
    idx = np.argmax(np.abs(cols), axis=0)
    pivots = cols[idx, np.arange(cols.shape[1])]
    mags = np.abs(pivots)
    factors = np.where(mags > 0.0, np.conj(pivots) / np.where(mags > 0.0, mags, 1.0), 1.0)
    return cols * factors[None, :], factors


def _tie_order(values: np.ndarray, cols: np.ndarray, descending: bool) -> np.ndarray:
    """Stable ordering with the deterministic secondary keys described above."""
    big = np.abs(cols) > _ENTRY_TOL
    # argmax finds each column's first entry above tolerance; a column with
    # none keeps index 0, where its masked sign is 0
    first_idx = np.argmax(big, axis=0)
    first_sign = (np.sign(cols.real) * big)[first_idx, np.arange(cols.shape[1])]
    primary = -values if descending else values
    # np.lexsort: last key is primary, earlier keys break ties, stable overall
    return np.lexsort((first_sign, first_idx, primary))


@dataclass(frozen=True, eq=False)
class OrderedSVD:
    """Full SVD A = u @ diag_rect(s) @ v^H with s sorted decreasing."""

    u: np.ndarray  # rows x rows unitary, columns are left singular vectors
    s: np.ndarray  # min(rows, cols) singular values, decreasing
    v: np.ndarray  # cols x cols unitary, columns are right singular vectors


@dataclass(frozen=True, eq=False)
class OrderedEVD:
    """Eigendecomposition A = vectors @ diag(values) @ vectors^H."""

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
    paired_u, factors = _phase_fix(u[:, :k])
    u = u.copy()
    v = v.copy()
    u[:, :k] = paired_u
    v[:, :k] = v[:, :k] * factors[None, :]
    order = _tie_order(s, u[:, :k], descending=True)
    u[:, :k] = u[:, order]
    v[:, :k] = v[:, order]
    s = s[order]
    if u.shape[1] > k:
        u[:, k:], _ = _phase_fix(u[:, k:])
    if v.shape[1] > k:
        v[:, k:], _ = _phase_fix(v[:, k:])
    return OrderedSVD(u=u, s=s, v=v)


def ordered_evd(a, direction: str = "decreasing") -> OrderedEVD:
    """Eigendecomposition of a Hermitian matrix with ordered eigenvalues.

    direction is "decreasing" (default) or "increasing".  Raises
    InvalidMatrix when the input is not Hermitian to tolerance.
    """
    if direction not in ("decreasing", "increasing"):
        raise ValueError(f"unknown direction {direction!r}")
    h = hermitize(a)
    try:
        w, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise InvalidMatrix(f"eigendecomposition did not converge: {exc}") from None
    u, _ = _phase_fix(u)
    order = _tie_order(w, u, descending=(direction == "decreasing"))
    return OrderedEVD(values=w[order], vectors=u[:, order])


def is_psd(a, rtol: float = PSD_RTOL) -> bool:
    """True when min eigenvalue >= -rtol * max|eigenvalue|."""
    return eigs_are_psd(np.linalg.eigvalsh(hermitize(a)), rtol)


def hermitian_sqrt(a) -> np.ndarray:
    """Hermitian PSD square root S with S @ S = A.

    Eigenvalues in [-PSD_RTOL * ||A||, 0) are treated as rounding noise and
    clipped to zero; anything more negative raises NotPSD.
    """
    h = hermitize(a)
    w, u = np.linalg.eigh(h)
    if not eigs_are_psd(w):
        raise NotPSD(
            "matrix has eigenvalue {:.3e} below the PSD tolerance".format(float(w.min()))
        )
    return from_eigs(u, np.sqrt(np.clip(w, 0.0, None)))


def _pd_eigh(a, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvectors, sqrt of eigenvalues) of a Hermitian A that must be PD."""
    w, u = np.linalg.eigh(hermitize(a))
    if not eigs_are_pd(w):
        raise NotPD(f"{name} is not strictly positive definite")
    return u, np.sqrt(w)


def pd_roots(a, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """(A^{1/2}, A^{-1/2}) of a Hermitian strictly positive definite A, from one eigh."""
    u, root = _pd_eigh(a, name)
    return from_eigs(u, root), from_eigs(u, 1.0 / root)


def inv_sqrt_pd(a, name: str = "matrix") -> np.ndarray:
    """A^{-1/2} of a Hermitian strictly positive definite A: pd_roots without A^{1/2}."""
    u, root = _pd_eigh(a, name)
    return from_eigs(u, 1.0 / root)


def logdet_pd(a) -> float:
    """log det of a Hermitian strictly positive definite matrix."""
    h = hermitize(a)
    w = np.linalg.eigvalsh(h)
    if w.size == 0:
        return 0.0
    if not eigs_are_pd(w):
        raise NotPD("log-determinant requires a positive definite matrix")
    return float(np.sum(np.log(w)))


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
# only products of two stack members and inverses go member by member.  numpy
# multiplies a one-row operand through gemv or dot instead of gemm, so a
# member computed alone may differ in the last bits from one in a stack.


def _right(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """X A for one matrix or every stack member, as one GEMM over the stacked rows."""
    return (x.reshape(-1, x.shape[-1]) @ a).reshape(x.shape[:-1] + (a.shape[-1],))


def _left(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A X for one matrix or every stack member, as one GEMM: (X^T A^T)^T."""
    if x.ndim == 2:
        return a @ x
    return _right(x.swapaxes(1, 2), a.T).swapaxes(1, 2)


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
