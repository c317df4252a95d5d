"""Structure-free numerical baselines.

A SearchProblem wraps one of the four objectives (weighted trace, weighted
log-det, relay sum-MSE, relay log-det) as batched callables over stacks of
candidate matrices, together with the quadratic power form of the variable.
`random_search_oracle` attacks a problem with boundary-scaled random
sampling plus multi-start projected-gradient refinement and returns the
best objective it finds; the structured designs are certified by never
losing to it.

Gradients are conjugate (Wirtinger) gradients d objective / d conj(X); a
descent step is X - eta * grad.  All objective/gradient callables accept a
(batch, rows, cols) stack and return (batch,) or a same-shaped stack.

Every product of the stack with a fixed matrix is one GEMM over the whole
stack: the stack is reshaped to (batch * rows, cols) and multiplied from
the right (``_right``), or transposed first for a product from the left
(``_left``).  The fixed matrices are K = H^H R_n^{-1} H, W_gram = sum_k
W_k W_k^H, H2, C1, S = H1 R_s and Q = S S^H.  The congruences Phi -> sum_k
W_k^H Phi W_k and G -> S^H G S are linear, so each is one GEMM of the
row-major vec of every member with sum_k kron(conj A_k, A_k)
(``_congruence``); the conjugate transpose of that matrix is the adjoint
map the gradients need.  Only products of two candidate-dependent
matrices and one inverse or solve per Hermitian matrix are made matrix by
matrix.  numpy multiplies a one-row operand through gemv or dot instead of
gemm, so a row scored alone may differ in the last bits from the same row
scored in a larger batch.

Objective and gradient share their per-row intermediates: with
``with_state=True`` the objective also returns a tuple of stacks (state)
that ``gradient(x, state)`` takes instead of rebuilding them -- ``(kf,
phi)`` for the trace problem and ``(kf, phi, psi)`` for log-det, with
K F and Phi = (F^H K F + I)^{-1}; ``(t, z)`` for the relay sum-MSE and
``(z, g, psi)`` for the relay log-det, with T = H2 P, Z = B^{-1} T for the
bracket B = T C1 T^H + R_n2, and G = T^H Z.  Each state entry has one row
per candidate, so a row mask selects the state of a subset.

Projected-gradient refinement works on its live starts only.  It keeps an
index array of the starts whose step has not fallen below its floor,
projects and scores only those, hands each accepted candidate's state to
the gradient, and drops a start for good once its step underflows (a
frozen start could never be accepted again).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import ShapeError
from .mimo import SystemModel
from .relay import RelayModel, first_hop_gram
from .rng import SplitMix64
from .spectral import symmetrize
from .weighting import WeightingOperator

_POWER_FLOOR = 1e-300


@dataclass(frozen=True, eq=False)
class SearchProblem:
    """Minimization problem over complex matrices with a quadratic power cap.

    ``objective(x, with_state=False)`` returns the values, or ``(values,
    state)`` with the per-row intermediates; ``gradient(x, state=None)``
    reuses a state for the same rows of ``x`` when one is given.
    """

    shape: tuple
    power: float
    objective: Callable
    power_of: Callable
    gradient: Optional[Callable] = None


def _as_stack(x: np.ndarray, shape) -> np.ndarray:
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3 or arr.shape[1:] != tuple(shape):
        raise ShapeError(f"expected a stack of {tuple(shape)} matrices, got {arr.shape}")
    return arr


def _right(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """X_s A for every stack member, as one GEMM over the stacked rows."""
    return (x.reshape(-1, x.shape[-1]) @ a).reshape(x.shape[:-1] + (a.shape[-1],))


def _left(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A X_s for every stack member, as one GEMM: (X_s^T A^T)^T."""
    return np.swapaxes(_right(np.swapaxes(x, 1, 2), a.T), 1, 2)


def _ct(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every stack member."""
    return np.conj(np.swapaxes(x, 1, 2))


def _congruence(factors) -> np.ndarray:
    """Matrix of X -> sum_k A_k^H X A_k acting on row-major vec(X).

    ``_vec_map`` applies it to a stack as one GEMM; its conjugate transpose
    is the matrix of the adjoint map Y -> sum_k A_k Y A_k^H.
    """
    return sum(np.kron(np.conj(a), a) for a in factors)


def _vec_map(x: np.ndarray, mat: np.ndarray, n: int) -> np.ndarray:
    """Apply a linear map on row-major vec(X_s) to every stack member; n x n out."""
    return (x.reshape(x.shape[0], -1) @ mat).reshape(x.shape[0], n, n)


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(A_s^H B_s) for each pair of stack members."""
    return np.vecdot(a.reshape(a.shape[0], -1), b.reshape(b.shape[0], -1)).real


def _frobenius_power(x: np.ndarray, shape) -> np.ndarray:
    """||X||_F^2 for each stack member (the precoder power)."""
    f = _as_stack(x, shape)
    return _inner(f, f)


def _relay_power(x: np.ndarray, shape, c1: np.ndarray) -> np.ndarray:
    """Tr(P C1 P^H) for each stack member (the relay transmit power)."""
    p = _as_stack(x, shape)
    return _inner(p, _right(p, c1))


def _precoder_parts(model: SystemModel, op: WeightingOperator):
    """Shape of F and the batched map F -> (K F, Phi = (F^H K F + I)^{-1})."""
    if op.n_streams != model.n_streams:
        raise ShapeError("operator and model stream counts differ")
    h = model.channel
    k_gram = symmetrize(h.conj().T @ np.linalg.solve(model.noise_cov, h))
    eye = np.eye(model.n_streams, dtype=np.complex128)

    def lmmse(f):
        kf = _left(k_gram, f)
        return kf, np.linalg.inv(_ct(f) @ kf + eye)

    return (model.n_tx, model.n_streams), lmmse


def trace_problem(model: SystemModel, op: WeightingOperator) -> SearchProblem:
    """Tr Psi(F) = Tr(W_gram Phi) + Tr Pi as a batched function of the precoder F."""
    shape, lmmse = _precoder_parts(model, op)
    pi_tr = float(np.real(np.trace(op.offset)))
    w_gram = symmetrize(sum(w @ w.conj().T for w in op.weights))
    w_vec = w_gram.reshape(-1)

    def objective(x, with_state=False):
        f = _as_stack(x, shape)
        kf, phi = lmmse(f)
        # Tr(W_gram Phi) = <W_gram, Phi>_F, as W_gram is Hermitian
        out = pi_tr + np.real(np.vecdot(w_vec, phi.reshape(f.shape[0], -1)))
        return (out, (kf, phi)) if with_state else out

    def gradient(x, state=None):
        kf, phi = lmmse(_as_stack(x, shape)) if state is None else state
        return -(_right(kf @ phi, w_gram) @ phi)

    return SearchProblem(
        shape=shape,
        power=model.power,
        objective=objective,
        power_of=partial(_frobenius_power, shape=shape),
        gradient=gradient,
    )


def logdet_problem(model: SystemModel, op: WeightingOperator) -> SearchProblem:
    """log det Psi(F) as a batched function of the precoder F."""
    shape, lmmse = _precoder_parts(model, op)
    weigh = _congruence(op.weights)
    weigh_adj = np.ascontiguousarray(weigh.conj().T)

    def objective(x, with_state=False):
        f = _as_stack(x, shape)
        kf, phi = lmmse(f)
        psi = _vec_map(phi, weigh, op.out_dim) + op.offset
        sign, ld = np.linalg.slogdet(psi)
        out = np.where(np.real(sign) > 0.0, ld, np.inf)
        return (out, (kf, phi, psi)) if with_state else out

    def gradient(x, state=None):
        if state is None:
            _, state = objective(x, with_state=True)
        kf, phi, psi = state
        # sum_k W_k Psi^{-1} W_k^H
        mid = _vec_map(np.linalg.inv(psi), weigh_adj, model.n_streams)
        return -(kf @ phi @ mid @ phi)

    return SearchProblem(
        shape=shape,
        power=model.power,
        objective=objective,
        power_of=partial(_frobenius_power, shape=shape),
        gradient=gradient,
    )


def _relay_parts(model: RelayModel):
    """Shape of P, C1, S = H1 R_s, the batched map P -> (T, Z), and power_of."""
    c1 = first_hop_gram(model)
    s_map = model.channel1 @ model.source_cov  # n_relay_rx x n_src
    h2 = model.channel2

    def chain(p):
        t = _left(h2, p)
        bracket = _right(t, c1) @ _ct(t) + model.noise2_cov
        return t, np.linalg.solve(bracket, t)

    shape = (model.n_relay_tx, model.n_relay_rx)
    power_of = partial(_relay_power, shape=shape, c1=c1)
    return shape, c1, s_map, chain, power_of


def _relay_gradient(model: RelayModel, c1: np.ndarray, zm: np.ndarray, g: np.ndarray):
    """Gradient H2^H (ZM G C1 - ZM) of a relay objective in P.

    ZM = Z M for the objective's middle factor M (Q for the sum-MSE,
    S Psi^{-1} S^H for log-det) and G = T^H Z.
    """
    return _left(np.conj(model.channel2.T), _right(zm @ g, c1) - zm)


def relay_mse_problem(model: RelayModel) -> SearchProblem:
    """Tr Psi(P) through the relay chain as a batched function of P."""
    shape, c1, s_map, chain, power_of = _relay_parts(model)
    q_gram = symmetrize(s_map @ np.conj(s_map.T))
    rs_tr = float(np.real(np.trace(model.source_cov)))

    def objective(x, with_state=False):
        p = _as_stack(x, shape)
        t, z = chain(p)
        out = rs_tr - _inner(t, _right(z, q_gram))  # Tr(S^H T^H B^{-1} T S)
        return (out, (t, z)) if with_state else out

    def gradient(x, state=None):
        t, z = chain(_as_stack(x, shape)) if state is None else state
        return _relay_gradient(model, c1, _right(z, q_gram), _ct(t) @ z)

    return SearchProblem(
        shape=shape,
        power=model.power,
        objective=objective,
        power_of=power_of,
        gradient=gradient,
    )


def relay_logdet_problem(model: RelayModel) -> SearchProblem:
    """log det Psi(P) through the relay chain (capacity = log det R_s - this).

    Psi = R_s - S^H G S with G = T^H B^{-1} T.
    """
    shape, c1, s_map, chain, power_of = _relay_parts(model)
    fit = _congruence((s_map,))
    fit_adj = np.ascontiguousarray(fit.conj().T)

    def objective(x, with_state=False):
        t, z = chain(_as_stack(x, shape))
        g = _ct(t) @ z
        psi = model.source_cov - _vec_map(g, fit, model.n_src)
        sign, ld = np.linalg.slogdet(psi)
        out = np.where(np.real(sign) > 0.0, ld, np.inf)
        return (out, (z, g, psi)) if with_state else out

    def gradient(x, state=None):
        if state is None:
            _, state = objective(x, with_state=True)
        z, g, psi = state
        # S Psi^{-1} S^H
        mid = _vec_map(np.linalg.inv(psi), fit_adj, model.n_relay_rx)
        return _relay_gradient(model, c1, z @ mid, g)

    return SearchProblem(
        shape=shape,
        power=model.power,
        objective=objective,
        power_of=power_of,
        gradient=gradient,
    )


# ---------------------------------------------------------------------------
# the oracle


def _project_to_budget(problem: SearchProblem, x: np.ndarray, boundary: bool = False) -> np.ndarray:
    """Rescale stack members exceeding the budget (or everything, to the boundary)."""
    p = problem.power_of(x)
    p = np.maximum(p, _POWER_FLOOR)
    if boundary:
        scale = np.sqrt(problem.power / p)
    else:
        scale = np.minimum(1.0, np.sqrt(problem.power / p))
    return x * scale[:, None, None]


def projected_gradient_descent(
    problem: SearchProblem, starts: np.ndarray, max_iter: int = 500
) -> tuple[np.ndarray, np.ndarray]:
    """Refine a stack of feasible starts by projected gradient with step halving.

    Per start: step size doubles after an accepted move and halves on a
    rejected one; a start freezes once its step underflows.  Projection is
    power rescale onto the feasible set.  Each iteration scores only the
    live (unfrozen) starts, and the gradient at an accepted candidate reuses
    the state its objective evaluation built.  Returns (values, points).
    """
    if problem.gradient is None:
        raise ShapeError("problem has no gradient; cannot refine")
    x = _project_to_budget(problem, np.array(starts, dtype=np.complex128))
    f, state = problem.objective(x, with_state=True)
    g = problem.gradient(x, state)
    gnorm = np.sqrt(np.sum(np.abs(g) ** 2, axis=(1, 2)))
    xnorm = np.sqrt(np.sum(np.abs(x) ** 2, axis=(1, 2)))
    eta = 0.25 * np.maximum(xnorm, np.sqrt(problem.power)) / np.maximum(gnorm, 1e-12)
    eta_floor = 1e-14 * np.maximum(eta, 1e-12)
    live = np.arange(x.shape[0])
    for _ in range(max_iter):
        if live.size == 0:
            break
        cand = _project_to_budget(problem, x[live] - eta[live, None, None] * g[live])
        fc, state = problem.objective(cand, with_state=True)
        improved = fc < f[live]
        accepted = live[improved]
        moved = cand[improved]
        x[accepted] = moved
        f[accepted] = fc[improved]
        eta[accepted] *= 2.0
        eta[live[~improved]] *= 0.5
        if accepted.size:
            g[accepted] = problem.gradient(moved, tuple(s[improved] for s in state))
        live = live[eta[live] > eta_floor[live]]
    return f, x


def random_search_oracle(
    problem: SearchProblem,
    budget: int,
    seed: int,
    refinements: int = 100,
    max_iter: int = 500,
    extra_candidates=(),
) -> float:
    """Best objective over boundary-scaled random candidates plus refinement.

    budget random matrices with unit-variance complex Gaussian entries are
    rescaled to the power boundary and scored in bulk; the best `refinements`
    of them (plus any extra_candidates) seed the projected-gradient stage.
    Returns the best feasible objective value found.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    rows, cols = problem.shape
    stream = SplitMix64(seed)
    x = stream.complex_normal_stack(budget, rows, cols)
    x = _project_to_budget(problem, x, boundary=True)
    extras = [np.asarray(e, dtype=np.complex128)[None, :, :] for e in extra_candidates]
    if extras:
        x = np.concatenate([x] + extras, axis=0)
        x = _project_to_budget(problem, x)
    values = problem.objective(x)
    best = float(np.min(values))
    if problem.gradient is not None and refinements > 0:
        order = np.argsort(values, kind="stable")[: min(refinements, x.shape[0])]
        refined, _ = projected_gradient_descent(problem, x[order], max_iter=max_iter)
        best = min(best, float(np.min(refined)))
    return best
