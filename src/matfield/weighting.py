"""Matrix-field weighting of error covariances.

A weighting operator maps an error covariance Phi to

    Psi(Phi) = sum_k  W_k^H Phi W_k  +  Pi,

with rectangular factors W_k (n_streams x m) and a Hermitian PSD offset Pi
(m x m).  The map is linear in Phi up to the constant offset, preserves the
Loewner order, and subsumes the classical diagonal weighted-MSE objective
(one factor W = diag(sqrt(w)), Pi = 0).
The operator's ``psi``, ``psi_trace`` and ``adjoint`` take one matrix or a
stack; Tr Psi(Phi) = Tr(Phi sum_k W_k W_k^H) + Tr Pi uses the stream-side Gram.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidWeight, ShapeError
from .mimo import SystemModel, mse_lmmse
from .spectral import Congruence, as_covariance, as_matrix, frozen, hermitize, symmetrize


@dataclass(frozen=True, eq=False)
class WeightingOperator:
    """Immutable bundle of weighting factors (W_1, ..., W_K) and offset Pi, kept as
    read-only copies, with offset_eigs, the offset's eigenvalues (increasing)."""

    weights: tuple
    offset: np.ndarray

    def __post_init__(self):
        ws = tuple(frozen(as_matrix(w).copy(order="K")) for w in self.weights)
        if len(ws) < 1:
            raise InvalidWeight("need at least one weighting factor")
        shape = ws[0].shape
        for w in ws[1:]:
            if w.shape != shape:
                raise ShapeError(f"all weighting factors W_k must share shape {shape}, got {w.shape}")
        pi, eigs = as_covariance(self.offset, shape[1], "offset matrix Pi", definite=False)
        vars(self).update(weights=ws, offset=pi, offset_eigs=eigs)

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def n_streams(self) -> int:
        return self.weights[0].shape[0]

    def apply(self, phi) -> np.ndarray:
        """Psi(Phi) = sum_k W_k^H Phi W_k + Pi."""
        p = hermitize(phi)
        if p.shape[0] != self.n_streams:
            raise ShapeError(
                f"operator acts on {self.n_streams}x{self.n_streams} matrices, got {p.shape}"
            )
        return symmetrize(self.psi(p))

    @cached_property
    def _congruence(self) -> Congruence:
        return Congruence(self.weights)

    @cached_property
    def _offset_trace(self) -> float:
        return float(np.real(np.trace(self.offset)))

    @cached_property
    def stream_gram(self) -> np.ndarray:
        """sum_k W_k W_k^H (n_streams x n_streams), built once per operator."""
        return frozen(symmetrize(sum(w @ w.conj().T for w in self.weights)))

    def psi(self, phi: np.ndarray) -> np.ndarray:
        """sum_k W_k^H Phi W_k + Pi of one matrix or each stack member, unchecked."""
        return self._congruence(phi) + self.offset

    def psi_trace(self, phi: np.ndarray) -> np.ndarray:
        """Tr Psi(Phi) of one Hermitian Phi or each stack member, unchecked."""
        # Tr(W_gram Phi) = <W_gram, Phi>_F, as W_gram is Hermitian
        flat = phi.reshape(phi.shape[:-2] + (-1,))
        return self._offset_trace + np.real(np.vecdot(self.stream_gram.reshape(-1), flat))

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """sum_k W_k Y W_k^H of one matrix or each stack member, unchecked."""
        return self._congruence.adjoint(y)

    def factor_gram(self) -> np.ndarray:
        """sum_k W_k^H W_k, the image of the identity minus the offset."""
        return symmetrize(self._congruence(np.eye(self.n_streams)))


def from_classical_weights(weights) -> WeightingOperator:
    """Embed diagonal per-stream weights: W = diag(sqrt(w)), Pi = 0."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise InvalidWeight("classical weights must be a nonempty 1-D array")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise InvalidWeight("classical weights must be finite and nonnegative")
    n = w.size
    return WeightingOperator(
        weights=(np.diag(np.sqrt(w)).astype(np.complex128),),
        offset=np.zeros((n, n), dtype=np.complex128),
    )


def check_streams(op: WeightingOperator, model: SystemModel) -> None:
    """ShapeError unless the operator acts on the model's n_streams x n_streams Phi."""
    if op.n_streams != model.n_streams:
        raise ShapeError(
            f"operator expects {op.n_streams} streams but the model has {model.n_streams}"
        )


def weighted_mse_of_precoder(op: WeightingOperator, model: SystemModel, precoder) -> np.ndarray:
    """Weighted error covariance at the MMSE equalizer for a given precoder."""
    check_streams(op, model)
    # op.apply's checks would change nothing on the exactly Hermitian Phi of mse_lmmse
    return symmetrize(op.psi(mse_lmmse(model, precoder)))
