"""Structured precoder design under matrix-field weighting.

For a single weighting factor (K = 1) the optimal precoder has the form

    F = V_H  diag_rect(f)  U_F^H,

where V_H is the right singular basis of the noise-whitened channel
R_n^{-1/2} H (singular values decreasing), the rotation U_F is the left
singular basis of W (trace objective) or the eigenbasis of W Pi^{-1} W^H
(log-det objective), and the amplitudes f come from a scalar water-filling
problem over the paired spectra.  Pairing is index-aligned after sorting
both spectra in decreasing order, and the products lambda_h[j] * f[j]^2
stay nonincreasing, which is exactly the ordering the rank-one bounds below
need for equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPD, NotPSD, PreconditionError, ShapeError, Unsupported
from .mimo import SystemModel
from .spectral import (
    as_matrix,
    eigs_are_pd,
    eigs_are_psd,
    hermitize,
    inv_sqrt_pd,
    logdet_pd,
    ordered_evd,
    ordered_svd,
    symmetrize,
)
from .weighting import WeightingOperator, check_streams, weighted_mse_of_precoder

# the log-det solve stops once sum x is within this many ulps of the budget
_WF_ULPS = 4


@dataclass(frozen=True, eq=False)
class WhitenedChannel:
    """Spectrum of the noise-whitened channel R_n^{-1/2} H.

    eigenvalues : n_tx values of H^H R_n^{-1} H, sorted decreasing
                  (squared singular values of the whitened channel, zero padded)
    basis       : n_tx x n_tx unitary V_H of right singular vectors
    """

    eigenvalues: np.ndarray
    basis: np.ndarray


@dataclass(frozen=True, eq=False)
class PrecoderDesign:
    """Result of a structured design.

    channel_basis   : V_H from the whitened channel
    gains           : per-mode amplitudes f_j >= 0, length min(n_tx, n_streams)
    rotation        : n_streams x n_streams unitary U_F
    precoder        : assembled F = V_H diag_rect(gains) rotation^H
    objective_value : objective evaluated at the assembled precoder
    multiplier      : water-level dual variable of the power constraint
    offset          : the offset Pi the design used (jittered when regularized)
    weight_eigs     : n_streams squared singular values of W (trace) or theta
                      eigenvalues (log-det), decreasing, zero padded
    channel_eigs    : the n_streams whitened channel eigenvalues paired with them;
                      the water-filler takes the first min(n_tx, n_streams) of both
    """

    channel_basis: np.ndarray
    gains: np.ndarray
    rotation: np.ndarray
    precoder: np.ndarray
    objective_value: float
    multiplier: float
    offset: np.ndarray
    weight_eigs: np.ndarray
    channel_eigs: np.ndarray


def whiten_channel(model: SystemModel) -> WhitenedChannel:
    """Ordered spectrum and right singular basis of R_n^{-1/2} H."""
    svd = ordered_svd(inv_sqrt_pd(model.noise_cov, "noise covariance R_n") @ model.channel)
    lam = np.zeros(model.n_tx, dtype=np.float64)
    lam[: svd.s.size] = svd.s**2
    return WhitenedChannel(eigenvalues=lam, basis=svd.v)


# ---------------------------------------------------------------------------
# spectral lower bounds used by the structural arguments


def _psd_pair(a, b):
    """Hermitian A, B of equal shape and their increasing spectra; both must be PSD."""
    ha = hermitize(a)
    hb = hermitize(b)
    if ha.shape != hb.shape:
        raise ShapeError(f"need equal shapes, got {ha.shape} vs {hb.shape}")
    wa = np.linalg.eigvalsh(ha)
    wb = np.linalg.eigvalsh(hb)
    for w, name in ((wa, "A"), (wb, "B")):
        if not eigs_are_psd(w):
            raise NotPSD(f"{name} must be positive semi-definite")
    return ha, hb, wa, wb


def trace_product_lower_bound(a, b, slack: float = 1e-9) -> tuple[float, bool]:
    """Reverse-ordered eigenvalue bound sum_i lam_i(A) lam_{N-i+1}(B) <= Tr(AB).

    Both inputs must be Hermitian PSD of equal shape.  Returns (bound, holds)
    where holds allows `slack` relative to max(1, |Tr(AB)|).  Equality is
    attained when A and B share eigenvectors with reversed eigenvalue order.
    """
    ha, hb, wa, wb = _psd_pair(a, b)
    bound = float(np.sum(wa[::-1] * wb))  # A decreasing against B increasing
    tr = float(np.real(np.trace(ha @ hb)))
    holds = bound <= tr + slack * max(1.0, abs(tr))
    return bound, holds


def det_sum_lower_bound(a, b, slack: float = 1e-9) -> tuple[float, bool]:
    """Aligned-ordered bound prod_i (lam_i(A) + lam_i(B)) <= det(A + B).

    Both spectra sorted decreasing.  Equality is attained when A and B share
    eigenvectors with both eigenvalue lists in decreasing order.
    """
    ha, hb, wa, wb = _psd_pair(a, b)
    bound = float(np.prod(wa[::-1] + wb[::-1]))  # both decreasing, aligned
    det = float(np.real(np.linalg.det(ha + hb)))
    holds = bound <= det * (1.0 + slack) + 1e-15 * max(1.0, abs(det))
    return bound, holds


# ---------------------------------------------------------------------------
# scalar water-filling solvers


def _check_waterfill_inputs(a, b, power: float) -> tuple[np.ndarray, np.ndarray]:
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.ndim != 1 or bv.ndim != 1:
        raise ShapeError("water-filling inputs must be 1-D")
    if av.size != bv.size:
        raise ShapeError(f"spectra lengths differ: {av.size} vs {bv.size}")
    if not (np.all(np.isfinite(av)) and np.all(np.isfinite(bv))):
        raise PreconditionError("spectra must be finite")
    if np.any(av < 0.0) or np.any(bv < 0.0):
        raise PreconditionError("spectra must be nonnegative")
    if np.any(np.diff(av) > 1e-12 * max(1.0, float(av.max(initial=0.0)))) or np.any(
        np.diff(bv) > 1e-12 * max(1.0, float(bv.max(initial=0.0)))
    ):
        raise PreconditionError("spectra must be sorted in decreasing order")
    if not power > 0.0:
        raise PreconditionError("power budget must be positive")
    return av, bv


def waterfill_trace(weight_eigs, channel_eigs, power: float) -> tuple[np.ndarray, float]:
    """Minimize sum_j a_j / (1 + b_j x_j) over x >= 0, sum x <= power.

    a = weight_eigs and b = channel_eigs must be sorted decreasing, paired by
    index.  Returns (x, mu) with x the per-mode squared amplitudes and mu the
    water-level dual variable; modes with a_j * b_j = 0 get x_j = 0.  When at
    least one product is positive the full budget is spent.

    Closed form: with q_j = sqrt(a_j b_j) and r_j = sqrt(a_j / b_j), the
    active modes satisfy 1 + b_j x_j = q_j / sqrt(mu), so over the active
    set A

        1 / sqrt(mu) = (P + sum_A 1 / b_j) / S,   S = sum_A r_j,

    and A is the largest prefix (modes ordered by q_j) whose last mode still
    gets x > 0.  Each allocation is evaluated as

        x_j = (r_j / S) P + sum_{i in A} (q_j - q_i) / (b_i b_j) / S,

    which avoids the cancellation (P + R) - R at small budgets: the pair
    terms are exactly antisymmetric and a lone active mode gets x = P.
    """
    a, b = _check_waterfill_inputs(weight_eigs, channel_eigs, power)
    prod = a * b
    active = prod > 0.0
    if not np.any(active):
        return np.zeros(a.size), 0.0
    b_act = b[active]
    q = np.sqrt(prod[active])
    r = q / b_act
    pair = (q[:, None] - q) / (b_act[:, None] * b_act)
    # mode k is active together with modes 1..k-1 iff it gets x_k > 0
    ok = r * power + np.tril(pair).sum(axis=1) > 0.0
    n_on = ok.size if ok.all() else int(np.argmin(ok))
    s = float(np.sum(r[:n_on]))
    x = np.zeros(a.size)
    x[np.flatnonzero(active)[:n_on]] = np.maximum(
        0.0, r[:n_on] / s * power + pair[:n_on, :n_on].sum(axis=1) / s
    )
    return x, (s / (power + float(np.sum(1.0 / b_act[:n_on])))) ** 2


def _t_minus_one(num, k, k2):
    """Positive root u of u (u + k) = num >= 0, in conjugate form."""
    return 2.0 * num / (k + np.sqrt(k2 + 4.0 * num))


def waterfill_logdet(theta_eigs, channel_eigs, power: float) -> tuple[np.ndarray, float]:
    """Minimize sum_j log(a_j / (1 + b_j x_j) + 1) over x >= 0, sum x <= power.

    Same conventions as waterfill_trace.  The stationarity condition per
    active mode is a_j b_j / (t_j (t_j + a_j)) = mu with t_j = 1 + b_j x_j,
    so with lam = 1 / mu each mode solves

        t_j - 1 = (a_j b_j lam - 1 - a_j) / (t_j + 1 + a_j)

    (taken as the conjugate-form positive root) and turns on at
    lam_j = (1 + a_j) / (a_j b_j).  The active set is read off the total
    allocation at each turn-on level: mode j is active iff it stays below
    the budget.  With m the active mode that turns on last, the scalar solve
    is in v with lam = lam_m + v^2, so every active numerator
    a_j b_j (lam_m - lam_j) + a_j b_j v^2 is a sum of nonnegative terms, a
    budget far below any mode's scale stays resolved, and sum x is smooth,
    convex and increasing in v.  v is bracketed by 0 and the smaller of the
    next turn-on level and the level at which mode m alone takes the budget;
    Newton steps with dx_j / dlam = a_j / (2 t_j + a_j) start at the upper
    end and so approach the root from above, and a step that leaves the
    bracket bisects it instead.  The solve stops once sum x is within a few
    ulps of the budget or the bracket holds no float strictly inside.
    """
    a, b = _check_waterfill_inputs(theta_eigs, channel_eigs, power)
    prod = a * b
    active = prod > 0.0
    if not np.any(active):
        return np.zeros(a.size), 0.0
    a_act = a[active]
    b_act = b[active]
    p_act = prod[active]
    k = 2.0 + a_act
    k2 = k * k
    lam_on = (1.0 + a_act) / p_act
    ahead = np.maximum(lam_on[:, None] - lam_on, 0.0)
    at_turn_on = np.sum(_t_minus_one(p_act * ahead, k, k2) / b_act, axis=1)
    on = at_turn_on < power
    last = int(np.argmax(np.where(on, lam_on, -np.inf)))
    a_on, b_on, p_on, k, k2 = a_act[on], b_act[on], p_act[on], k[on], k2[on]
    head = p_on * (lam_on[last] - lam_on[on])
    tol = _WF_ULPS * np.finfo(np.float64).eps * power

    def alloc(v):
        """(x, sum x - power, d sum x / dv) at lam = lam_m + v^2."""
        u = _t_minus_one(p_on * (v * v) + head, k, k2)
        x = u / b_on
        return x, float(np.sum(x)) - power, float(2.0 * v * np.sum(a_on / (2.0 * u + k)))

    lo = 0.0
    hi = power * (2.0 + a_act[last] + b_act[last] * power) / a_act[last]
    hi = float(np.sqrt(min(hi, float(np.min(lam_on[~on], initial=np.inf)) - lam_on[last])))
    v = hi
    x_on, gap, slope = alloc(v)
    best = (abs(gap), v, x_on)
    while abs(gap) > tol:
        if gap > 0.0:
            hi = v
        else:
            lo = v
        step = v - gap / slope if slope > 0.0 else lo
        if not lo < step < hi:
            step = lo + 0.5 * (hi - lo)
            if not lo < step < hi:
                break
        v = step
        x_on, gap, slope = alloc(v)
        if abs(gap) < best[0]:
            best = (abs(gap), v, x_on)
    _, v, x_on = best
    x = np.zeros(a.size)
    x[np.flatnonzero(active)[on]] = x_on
    return x, 1.0 / (lam_on[last] + v * v)


def _kkt_residual(a, b, x, mu: float, logdet: bool) -> float:
    """Max relative gap of the active modes' marginal gains from mu."""
    a, b, x = (np.asarray(v, dtype=np.float64) for v in (a, b, x))
    active = (x > 0.0) & (a * b > 0.0)
    if not np.any(active) or mu <= 0.0:
        return 0.0
    a, b, t = a[active], b[active], 1.0 + b[active] * x[active]
    grad = a * b / (t * (t + a) if logdet else t**2)
    return float(np.max(np.abs(grad - mu)) / mu)


def trace_kkt_residual(weight_eigs, channel_eigs, gains_sq, mu: float) -> float:
    """Max relative stationarity residual over active modes of waterfill_trace."""
    return _kkt_residual(weight_eigs, channel_eigs, gains_sq, mu, logdet=False)


def logdet_kkt_residual(theta_eigs, channel_eigs, gains_sq, mu: float) -> float:
    """Max relative stationarity residual over active modes of waterfill_logdet."""
    return _kkt_residual(theta_eigs, channel_eigs, gains_sq, mu, logdet=True)


# ---------------------------------------------------------------------------
# precoder assembly and the two closed-form designs


def assemble_precoder(spectrum: WhitenedChannel, gains, rotation) -> np.ndarray:
    """F = V_H diag_rect(gains) U_F^H for a unitary rotation U_F."""
    v = as_matrix(spectrum.basis)
    u = as_matrix(rotation)
    g = np.asarray(gains, dtype=np.float64)
    if g.ndim != 1:
        raise ShapeError("gains must be 1-D")
    n_tx = v.shape[0]
    n_streams = u.shape[0]
    if u.shape[0] != u.shape[1]:
        raise ShapeError(f"rotation must be square, got {u.shape}")
    if g.size > min(n_tx, n_streams):
        raise ShapeError(
            f"at most {min(n_tx, n_streams)} gains fit a {n_tx}x{n_streams} precoder, got {g.size}"
        )
    gap = np.linalg.norm(u.conj().T @ u - np.eye(n_streams))
    if gap > 1e-8 * max(1.0, float(n_streams)):
        raise PreconditionError("rotation must be unitary")
    lam = np.zeros((n_tx, n_streams), dtype=np.complex128)
    lam[np.arange(g.size), np.arange(g.size)] = g
    return v @ lam @ u.conj().T


def _weight_factor(op: WeightingOperator, model: SystemModel) -> np.ndarray:
    if op.k != 1:
        raise Unsupported("closed-form designs cover a single weighting factor (K = 1)")
    check_streams(op, model)
    return op.weights[0]


def _padded(values: np.ndarray, n: int) -> np.ndarray:
    return np.concatenate([values[:n], np.zeros(max(0, n - values.size))])


def _structured_design(model, op, weight_eigs, rotation, waterfill, objective) -> PrecoderDesign:
    """Whiten the channel, water-fill the paired spectra, assemble F, evaluate objective(Psi)."""
    spectrum = whiten_channel(model)
    lam_w = _padded(weight_eigs, model.n_streams)
    lam_h = _padded(spectrum.eigenvalues, model.n_streams)
    n_modes = min(model.n_tx, model.n_streams)
    x, mu = waterfill(lam_w[:n_modes], lam_h[:n_modes], model.power)
    gains = np.sqrt(x)
    f = assemble_precoder(spectrum, gains, rotation)
    return PrecoderDesign(
        channel_basis=spectrum.basis,
        gains=gains,
        rotation=rotation,
        precoder=f,
        objective_value=objective(weighted_mse_of_precoder(op, model, f)),
        multiplier=float(mu),
        offset=op.offset,
        weight_eigs=lam_w,
        channel_eigs=lam_h,
    )


def design_trace_min(model: SystemModel, op: WeightingOperator) -> PrecoderDesign:
    """Trace-optimal precoder for Psi(F) = W^H Phi(F) W + Pi, K = 1.

    The rotation is the left singular basis of W; the amplitudes water-fill
    the paired (squared singular values of W, whitened channel eigenvalues)
    spectra.  objective_value is Tr of the weighted error covariance at the
    assembled precoder.
    """
    wsvd = ordered_svd(_weight_factor(op, model))
    return _structured_design(
        model, op, wsvd.s**2, wsvd.u, waterfill_trace, lambda psi: float(np.real(np.trace(psi)))
    )


def design_det_min(
    model: SystemModel, op: WeightingOperator, jitter_pi: bool = False
) -> PrecoderDesign:
    """Log-det-optimal precoder for Psi(F) = W^H Phi(F) W + Pi, K = 1.

    Requires a strictly positive definite Pi; with jitter_pi=True a singular
    Pi is replaced by Pi + eps*I, eps = 1e-10 * Tr(Pi) / m, and the jittered
    offset is used for the rotation and the reported objective and is
    returned as the design's offset.  The
    rotation is the eigenbasis of W Pi^{-1} W^H; the amplitudes water-fill
    the paired (theta eigenvalues, whitened channel eigenvalues) spectra.
    objective_value is log det of the weighted error covariance at the
    assembled precoder.
    """
    w = _weight_factor(op, model)
    pi = op.offset
    if not eigs_are_pd(np.linalg.eigvalsh(pi)):
        if not jitter_pi:
            raise NotPD(
                "offset matrix must be strictly positive definite for the log-det design "
                "(pass jitter_pi=True to regularize)"
            )
        eps = 1e-10 * float(np.real(np.trace(pi))) / pi.shape[0]
        pi = symmetrize(pi + eps * np.eye(pi.shape[0]))
        if not eigs_are_pd(np.linalg.eigvalsh(pi)):
            raise NotPD("offset matrix is singular even after jitter")
        op = WeightingOperator(weights=op.weights, offset=pi)
    evd = ordered_evd(symmetrize(w @ np.linalg.solve(op.offset, w.conj().T)), "decreasing")
    return _structured_design(
        model, op, np.clip(evd.values, 0.0, None), evd.vectors, waterfill_logdet, logdet_pd
    )
