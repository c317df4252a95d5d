"""Point-to-point MIMO signal model.

Unit-covariance data streams s pass through a precoder F, a channel H with
additive noise of covariance R_n, and a linear equalizer G.  The error
covariance of the estimate G(HFs + n) is

    Phi(G, F) = (GHF - I)(GHF - I)^H + G R_n G^H,

and the MMSE-optimal equalizer minimizes Phi in the Loewner order; there
Phi(F) = (F^H K F + I)^{-1} with K = H^H R_n^{-1} H (``lmmse_error``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidWeight, NumericalError, ShapeError
from .spectral import _ct, _inner, _left, as_covariance, as_matrix, as_shaped, symmetrize


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Channel, noise covariance, stream count, and transmit power budget.

    channel    : n_rx x n_tx complex gain matrix
    noise_cov  : n_rx x n_rx Hermitian, strictly positive definite
    n_streams  : number of data streams (precoder is n_tx x n_streams)
    power      : transmit power budget, Tr(F F^H) <= power
    """

    channel: np.ndarray
    noise_cov: np.ndarray
    n_streams: int
    power: float

    def __post_init__(self):
        h = as_matrix(self.channel)
        r = as_covariance(self.noise_cov, h.shape[0], "noise covariance R_n")
        if int(self.n_streams) < 1:
            raise ValueError("n_streams must be at least 1")
        if not 0.0 < float(self.power) < np.inf:
            raise ValueError("power budget must be positive and finite")
        object.__setattr__(self, "channel", h)
        object.__setattr__(self, "noise_cov", r)
        object.__setattr__(self, "n_streams", int(self.n_streams))
        object.__setattr__(self, "power", float(self.power))

    @property
    def n_rx(self) -> int:
        return self.channel.shape[0]

    @property
    def n_tx(self) -> int:
        return self.channel.shape[1]


def channel_gram(model: SystemModel) -> np.ndarray:
    """K = H^H R_n^{-1} H (n_tx x n_tx)."""
    h = model.channel
    return symmetrize(h.conj().T @ np.linalg.solve(model.noise_cov, h))


def precoder_power(f: np.ndarray) -> np.ndarray:
    """Tr(F F^H) of one precoder or of each member of a stack."""
    return _inner(f, f)


def lmmse_error(k_gram: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K F, Phi(F) = (F^H K F + I)^{-1}) for one precoder or a stack of them."""
    kf = _left(k_gram, f)
    return kf, np.linalg.inv(_ct(f) @ kf + np.eye(f.shape[-1], dtype=np.complex128))


def transmit_power(precoder) -> float:
    """Tr(F F^H) = squared Frobenius norm of the precoder."""
    return float(precoder_power(as_matrix(precoder)))


def _check_precoder(model: SystemModel, precoder) -> np.ndarray:
    return as_shaped(precoder, (model.n_tx, model.n_streams), "precoder")


def mse_matrix(model: SystemModel, equalizer, precoder) -> np.ndarray:
    """Error covariance Phi(G, F) for an arbitrary linear equalizer G."""
    g = as_shaped(equalizer, (model.n_streams, model.n_rx), "equalizer")
    f = _check_precoder(model, precoder)
    e = g @ model.channel @ f - np.eye(model.n_streams, dtype=np.complex128)
    phi = e @ e.conj().T + g @ model.noise_cov @ g.conj().T
    return symmetrize(phi)


def lmmse_equalizer(model: SystemModel, precoder) -> np.ndarray:
    """MMSE-optimal equalizer G = (HF)^H (HF F^H H^H + R_n)^{-1}."""
    f = _check_precoder(model, precoder)
    hf = model.channel @ f
    m = symmetrize(hf @ hf.conj().T + model.noise_cov)
    try:
        x = np.linalg.solve(m, hf)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"equalizer normal equations are singular: {exc}") from None
    return x.conj().T


def mse_lmmse(model: SystemModel, precoder) -> np.ndarray:
    """Error covariance at the MMSE equalizer: (F^H H^H R_n^{-1} H F + I)^{-1}.

    Eigenvalues always lie in (0, 1].  Any other equalizer gives an error
    covariance that dominates this one in the Loewner order.
    """
    f = _check_precoder(model, precoder)
    try:
        return symmetrize(lmmse_error(channel_gram(model), f)[1])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"MSE matrix solve failed: {exc}") from None


def classical_weighted_mse(model: SystemModel, equalizer, precoder, weights) -> float:
    """Scalar weighted MSE sum_j w_j * Phi_jj for nonnegative per-stream weights."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size != model.n_streams:
        raise ShapeError(f"need {model.n_streams} stream weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise InvalidWeight("weights contain NaN or Inf")
    if np.any(w < 0.0):
        raise InvalidWeight("stream weights must be nonnegative")
    phi = mse_matrix(model, equalizer, precoder)
    return float(np.real(np.sum(w * np.diag(phi))))
