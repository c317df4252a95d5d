"""Two-hop amplify-and-forward relay link as a weighted point-to-point design.

Source symbols with covariance R_s reach the relay through H1 with noise
covariance R_n1; the relay applies a forwarding matrix P and transmits over
H2 with destination noise covariance R_n2.  The end-to-end LMMSE error
covariance of the chain,

    Psi(P) = R_s - R_s H1^H P^H H2^H (H2 P C1 P^H H2^H + R_n2)^{-1} H2 P H1 R_s,
    C1 = H1 R_s H1^H + R_n1,

is exactly the weighted error covariance of a point-to-point model with
channel H2, noise R_n2, precoder F = P C1^{1/2}, one weighting factor
W = C1^{-1/2} H1 R_s, and offset Pi = R_s - W^H W (the first-hop LMMSE
error covariance).  The relay power Tr(P C1 P^H) equals Tr(F F^H), so both
structured designs transfer verbatim.

The chain kernels take one forwarding matrix or a stack: with T = H2 P,
B = T C1 T^H + R_n2, Z = B^{-1} T, G = T^H Z and S = H1 R_s, Psi(P) =
R_s - S^H G S (``relay_error``) and Tr Psi = Tr R_s - Re Tr(T^H Z S S^H).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .design import PrecoderDesign, design_det_min, design_trace_min
from .errors import NumericalError
from .mimo import SystemModel, as_float, is_real, trusted
from .spectral import Congruence, _ct, _inner, _left, _mul, _right, _solve, as_covariance, as_matrix
from .spectral import as_shaped, from_eigs, frozen, logdet_of, pd_root_eigh, pd_roots, symmetrize
from .weighting import WeightingOperator


@dataclass(frozen=True, eq=False)
class RelayModel:
    """Matrices and power budget of the two-hop chain.

    channel1   : n_relay_rx x n_src first-hop channel H1
    channel2   : n_dst x n_relay_tx second-hop channel H2
    source_cov : n_src x n_src, strictly positive definite R_s
    noise1_cov : n_relay_rx x n_relay_rx, strictly positive definite R_n1
    noise2_cov : n_dst x n_dst, strictly positive definite R_n2
    power      : relay budget, Tr(P C1 P^H) <= power

    Construction keeps read-only copies of the checked matrices and also
    sets c1 (C1 = H1 R_s H1^H + R_n1, the relay-input covariance, always PD)
    and s_congruence; c1 and every cached matrix (q_gram, c1_inv_root) are
    read-only too.
    """

    channel1: np.ndarray
    channel2: np.ndarray
    source_cov: np.ndarray
    noise1_cov: np.ndarray
    noise2_cov: np.ndarray
    power: float

    def __post_init__(self):
        h1 = as_matrix(self.channel1)
        h2 = as_matrix(self.channel2)
        rs = as_covariance(self.source_cov, h1.shape[1], "source covariance R_s")[0]
        r1 = as_covariance(self.noise1_cov, h1.shape[0], "relay noise covariance R_n1")[0]
        r2 = as_covariance(self.noise2_cov, h2.shape[0], "destination noise covariance R_n2")[0]
        if not is_real(self.power) or not 0.0 < as_float(self.power) < np.inf:
            raise ValueError("relay power budget must be positive and finite")
        # derived matrices of the chain kernels: C1 and the congruence
        # G -> S^H G S with S = H1 R_s (n_relay_rx x n_src), and its adjoint
        s_map = frozen(h1 @ rs)
        vars(self).update(channel1=frozen(h1.copy(order="K")), channel2=frozen(h2.copy(order="K")),
                          source_cov=rs, noise1_cov=r1, noise2_cov=r2, power=float(self.power),
                          c1=frozen(symmetrize(s_map @ h1.conj().T + r1)),
                          s_congruence=Congruence((s_map,)))

    @property
    def n_src(self) -> int:
        return self.channel1.shape[1]

    @property
    def n_relay_rx(self) -> int:
        return self.channel1.shape[0]

    @property
    def n_relay_tx(self) -> int:
        return self.channel2.shape[1]

    @property
    def n_dst(self) -> int:
        return self.channel2.shape[0]

    @cached_property
    def q_gram(self) -> np.ndarray:
        """Q = S S^H with S = H1 R_s."""
        s_map = self.s_congruence.factors[0]
        return frozen(symmetrize(s_map @ np.conj(s_map.T)))

    @cached_property
    def c1_inv_root(self) -> np.ndarray:
        """C1^{-1/2}, the only root of C1 the designs read."""
        u, root = pd_root_eigh(self.c1, "first-hop Gram C1")
        return frozen(from_eigs(u, 1.0 / root))

    @cached_property
    def _source_trace(self) -> float:
        return float(np.real(np.trace(self.source_cov)))


def _check_forwarding(model: RelayModel, forwarding) -> np.ndarray:
    return as_shaped(forwarding, (model.n_relay_tx, model.n_relay_rx), "forwarding matrix")


def forwarding_power(model: RelayModel, p: np.ndarray) -> np.ndarray:
    """Tr(P C1 P^H) of one forwarding matrix or of each member of a stack."""
    return _inner(p, _right(p, model.c1))


def relay_chain(model: RelayModel, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T = H2 P, Z = B^{-1} T) for one forwarding matrix or a stack of them."""
    t = _left(model.channel2, p)
    bracket = _mul(_right(t, model.c1), _ct(t)) + model.noise2_cov
    return t, _solve(bracket, t)


def relay_error(model: RelayModel, t: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(G = T^H Z, Psi = R_s - S^H G S) from the chain of one P or a stack."""
    g = _mul(_ct(t), z)
    return g, model.source_cov - model.s_congruence(g)


def relay_trace(model: RelayModel, t: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Tr Psi = Tr R_s - Re Tr(T^H Z Q), Q = S S^H, from the chain of one P or a stack."""
    return model._source_trace - _inner(t, _right(z, model.q_gram))


def relay_transmit_power(model: RelayModel, forwarding) -> float:
    """Average relay transmit power Tr(P C1 P^H)."""
    return float(forwarding_power(model, _check_forwarding(model, forwarding)))


def relay_to_weighted(model: RelayModel) -> tuple[SystemModel, WeightingOperator]:
    """Point-to-point model and weighting operator equivalent to the chain.

    The offset Pi = R_s - W^H W is the first-hop LMMSE error covariance; it
    is rebuilt from its eigendecomposition only when rounding left a
    slightly negative eigenvalue (floor -1e-12 * Tr).  Both models reuse the
    chain's checked matrices, and the spectrum of that one eigh is the offset's.
    """
    h1rs = model.s_congruence.factors[0]
    w = frozen(model.c1_inv_root @ h1rs)
    try:
        x = np.linalg.solve(model.c1, h1rs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - C1 is PD
        raise NumericalError(f"first-hop Gram solve failed: {exc}") from None
    pi = symmetrize(model.source_cov - h1rs.conj().T @ x)
    eigs, vecs = np.linalg.eigh(pi)
    if eigs.min() < 0.0:
        floor = -1e-12 * max(float(np.real(np.trace(pi))), 1e-300)
        if eigs.min() < floor:
            raise NumericalError("first-hop error covariance lost semi-definiteness beyond rounding")
        pi = from_eigs(vecs, np.clip(eigs, 0.0, None))
        eigs = np.linalg.eigvalsh(pi)
    sysmodel = trusted(SystemModel, channel=model.channel2, noise_cov=model.noise2_cov,
                       n_streams=model.n_relay_rx, power=model.power)
    return sysmodel, trusted(WeightingOperator, weights=(w,), offset=frozen(pi), offset_eigs=frozen(eigs))


def precoder_to_forwarding(model: RelayModel, precoder) -> np.ndarray:
    """P = F C1^{-1/2}; preserves the power, Tr(P C1 P^H) = Tr(F F^H)."""
    f = as_shaped(precoder, (model.n_relay_tx, model.n_relay_rx), "precoder")
    return f @ model.c1_inv_root


def forwarding_to_precoder(model: RelayModel, forwarding) -> np.ndarray:
    """Inverse map F = P C1^{1/2} of precoder_to_forwarding."""
    p = _check_forwarding(model, forwarding)
    return p @ pd_roots(model.c1, "first-hop Gram C1")[0]


def relay_weighted_mse(model: RelayModel, forwarding) -> np.ndarray:
    """End-to-end LMMSE error covariance Psi(P) computed through the chain."""
    p = _check_forwarding(model, forwarding)
    try:
        t, z = relay_chain(model, p)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - bracket is PD
        raise NumericalError(f"relay bracket solve failed: {exc}") from None
    return symmetrize(relay_error(model, t, z)[1])


def relay_capacity_routes(model: RelayModel, forwarding) -> tuple[float, float]:
    """The chain mutual information by two routes, (cap_err, cap_mi).

    cap_err = log det R_s - log det Psi(P) goes through the error covariance;
    cap_mi = log det(I + B^H B) is the direct form log det(I + A R_s A^H C^{-1})
    whitened by Cholesky factors, B = L_C^{-1} A L_s, with A = H2 P H1 and
    C = H2 P R_n1 P^H H2^H + R_n2; unlike log det(C + A R_s A^H) - log det C it
    does not cancel when the destination is wider than the signal rank.
    """
    p = _check_forwarding(model, forwarding)
    cap_err = logdet_of(model.source_cov) - logdet_of(relay_weighted_mse(model, p))
    t = model.channel2 @ p
    c = symmetrize(t @ model.noise1_cov @ t.conj().T + model.noise2_cov)
    try:
        a_ls = t @ model.channel1 @ np.linalg.cholesky(model.source_cov)
        b = np.linalg.solve(np.linalg.cholesky(c), a_ls)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - C and R_s are PD
        raise NumericalError(f"capacity whitening failed: {exc}") from None
    return cap_err, logdet_of(np.eye(model.n_src) + symmetrize(b.conj().T @ b))


def relay_capacity(model: RelayModel, forwarding) -> float:
    """Source-destination mutual information of the chain with Gaussian signaling.

    Returns cap_err of relay_capacity_routes; disagreement with the direct
    form beyond 1e-9 relative raises NumericalError.
    """
    cap_err, cap_mi = relay_capacity_routes(model, forwarding)
    if abs(cap_err - cap_mi) > 1e-9 * max(1.0, abs(cap_err), abs(cap_mi)):
        raise NumericalError(
            "capacity routes disagree: {:.12e} vs {:.12e}".format(cap_err, cap_mi)
        )
    return cap_err


def design_relay_sum_mse(model: RelayModel) -> tuple[np.ndarray, float, PrecoderDesign]:
    """Forwarding matrix minimizing Tr Psi(P) under the relay power budget.

    Returns (P, objective, design) with the objective re-evaluated through
    the relay chain at the returned P.
    """
    sysmodel, op = relay_to_weighted(model)
    design = design_trace_min(sysmodel, op)
    p = precoder_to_forwarding(model, design.precoder)
    objective = float(np.real(np.trace(relay_weighted_mse(model, p))))
    return p, objective, design


def design_relay_capacity(
    model: RelayModel, jitter_pi: bool = False
) -> tuple[np.ndarray, float, PrecoderDesign]:
    """Forwarding matrix maximizing the chain mutual information.

    Equivalent to minimizing log det Psi(P).  Requires the first-hop error
    covariance to be strictly positive definite unless jitter_pi is set.
    Returns (P, capacity, design) with the capacity re-evaluated through the
    relay chain at the returned P.
    """
    sysmodel, op = relay_to_weighted(model)
    design = design_det_min(sysmodel, op, jitter_pi=jitter_pi)
    p = precoder_to_forwarding(model, design.precoder)
    return p, relay_capacity(model, p), design
