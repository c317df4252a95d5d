"""Point-to-point MIMO signal model.

Unit-covariance data streams s pass through a precoder F, a channel H with
additive noise of covariance R_n, and a linear equalizer G.  The error
covariance of the estimate G(HFs + n) is

    Phi(G, F) = (GHF - I)(GHF - I)^H + G R_n G^H,

and the MMSE-optimal equalizer minimizes Phi in the Loewner order; there
Phi(F) = (F^H K F + I)^{-1} with K = H_w^H H_w, H_w = R_n^{-1/2} H (``lmmse_error``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidWeight, NumericalError, ShapeError
from .spectral import _ct, _inner, _inv, _left, _mul, as_covariance, as_matrix, as_shaped, frozen, from_eigs
from .spectral import pd_root_eigh, symmetrize


def is_integer(value) -> bool:
    """True for an integer or an integral float; False for a bool, a string or 2.7."""
    if isinstance(value, (int, np.integer)):
        return not isinstance(value, bool)
    return isinstance(value, float) and value.is_integer()


def is_real(value) -> bool:
    """True for a real number; False for a bool, a string or a complex number."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def as_float(value) -> float:
    """float(value), or +-inf for an integer beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return np.inf if value > 0 else -np.inf


def trusted(cls, **fields):
    """A cls model from fields checked elsewhere (arrays read-only), without its checks."""
    model = object.__new__(cls)
    vars(model).update(fields)
    return model


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Channel, noise covariance, stream count, and power budget; matrices kept read-only.

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
        r = as_covariance(self.noise_cov, h.shape[0], "noise covariance R_n")[0]
        if not is_integer(self.n_streams) or self.n_streams < 1:
            raise ValueError(f"n_streams must be an integer of at least 1, got {self.n_streams!r}")
        if not is_real(self.power) or not 0.0 < as_float(self.power) < np.inf:
            raise ValueError("power budget must be positive and finite")
        vars(self).update(channel=frozen(h.copy(order="K")), noise_cov=r,
                          n_streams=int(self.n_streams), power=float(self.power))

    @property
    def n_rx(self) -> int:
        return self.channel.shape[0]

    @property
    def n_tx(self) -> int:
        return self.channel.shape[1]

    @cached_property
    def whitened(self) -> np.ndarray:
        """H_w = R_n^{-1/2} H (cached, read-only); V_H and K both come from it."""
        u, root = pd_root_eigh(self.noise_cov, "noise covariance R_n")
        return frozen(from_eigs(u, 1.0 / root) @ self.channel)

    @cached_property
    def k_gram(self) -> np.ndarray:
        """K = H_w^H H_w = H^H R_n^{-1} H (n_tx x n_tx; cached, read-only)."""
        return frozen(symmetrize(self.whitened.conj().T @ self.whitened))


def precoder_power(f: np.ndarray) -> np.ndarray:
    """Tr(F F^H) of one precoder or of each member of a stack."""
    return _inner(f, f)


def lmmse_error(k_gram: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K F, Phi(F) = (F^H K F + I)^{-1}) for one precoder or a stack of them."""
    kf = _left(k_gram, f)
    return kf, _inv(_mul(_ct(f), kf) + np.eye(f.shape[-1], dtype=np.complex128))


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
        return symmetrize(lmmse_error(model.k_gram, f)[1])
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
