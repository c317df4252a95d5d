"""Point-to-point MIMO signal model.

Unit-covariance data streams s pass through a precoder F, a channel H with
additive noise of covariance R_n, and a linear equalizer G.  The error
covariance of the estimate G(HFs + n) is

    Phi(G, F) = (GHF - I)(GHF - I)^H + G R_n G^H,

and the MMSE-optimal equalizer minimizes Phi in the Loewner order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidWeight, NotPD, NumericalError, ShapeError
from .spectral import as_matrix, hermitize, symmetrize

# relative slack on Tr(F F^H) <= P accepted as feasible
POWER_RTOL = 1e-9


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
        r = hermitize(self.noise_cov)
        if r.shape[0] != h.shape[0]:
            raise ShapeError(
                f"noise covariance R_n is {r.shape} but the channel has {h.shape[0]} outputs"
            )
        if np.linalg.eigvalsh(r).min() <= 0.0:
            raise NotPD("noise covariance R_n must be strictly positive definite")
        if int(self.n_streams) < 1:
            raise ValueError("n_streams must be at least 1")
        if not float(self.power) > 0.0:
            raise ValueError("power budget must be positive")
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


def transmit_power(precoder) -> float:
    """Tr(F F^H) = squared Frobenius norm of the precoder."""
    f = as_matrix(precoder)
    return float(np.sum(np.abs(f) ** 2))


def _check_precoder(model: SystemModel, precoder) -> np.ndarray:
    f = as_matrix(precoder)
    if f.shape != (model.n_tx, model.n_streams):
        raise ShapeError(
            f"precoder must be {(model.n_tx, model.n_streams)}, got {f.shape}"
        )
    return f


def _check_equalizer(model: SystemModel, equalizer) -> np.ndarray:
    g = as_matrix(equalizer)
    if g.shape != (model.n_streams, model.n_rx):
        raise ShapeError(
            f"equalizer must be {(model.n_streams, model.n_rx)}, got {g.shape}"
        )
    return g


def mse_matrix(model: SystemModel, equalizer, precoder) -> np.ndarray:
    """Error covariance Phi(G, F) for an arbitrary linear equalizer G."""
    g = _check_equalizer(model, equalizer)
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
    hf = model.channel @ f
    try:
        x = np.linalg.solve(model.noise_cov, hf)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"noise covariance solve failed: {exc}") from None
    k = symmetrize(hf.conj().T @ x)
    n = model.n_streams
    try:
        phi = np.linalg.solve(k + np.eye(n, dtype=np.complex128), np.eye(n, dtype=np.complex128))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"MSE matrix solve failed: {exc}") from None
    return symmetrize(phi)


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
