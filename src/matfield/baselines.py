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

Objective and gradient share their per-row intermediates: with
``with_state=True`` the objective also returns a tuple of stacks (state)
that ``gradient(x, state)`` takes instead of rebuilding them -- the Gram
``m`` for the trace problem, ``(phi, psi)`` for log-det, ``(t, b)`` for the
relay sum-MSE and ``(t, b, psi)`` for the relay log-det.  Each state entry
has one row per candidate, so a row mask selects the state of a subset.

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


def _stack_trace_product(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Tr(W^H X_s) for each stack member
    return np.einsum("ij,sij->s", w.conj(), x)


def _frobenius_power(x: np.ndarray, shape) -> np.ndarray:
    """||X||_F^2 for each stack member (the precoder power)."""
    f = _as_stack(x, shape)
    return np.sum(np.abs(f) ** 2, axis=(1, 2))


def _relay_power(x: np.ndarray, shape, c1: np.ndarray) -> np.ndarray:
    """Tr(P C1 P^H) for each stack member (the relay transmit power)."""
    p = _as_stack(x, shape)
    return np.real(np.einsum("sij,sij->s", np.conj(p), p @ c1))


def trace_problem(model: SystemModel, op: WeightingOperator) -> SearchProblem:
    """Tr Psi(F) as a batched function of the precoder F; state is (m,)."""
    if op.n_streams != model.n_streams:
        raise ShapeError("operator and model stream counts differ")
    shape = (model.n_tx, model.n_streams)
    h = model.channel
    k_gram = symmetrize(h.conj().T @ np.linalg.solve(model.noise_cov, h))
    eye = np.eye(model.n_streams, dtype=np.complex128)
    pi_tr = float(np.real(np.trace(op.offset)))
    w_gram = np.zeros((model.n_streams, model.n_streams), dtype=np.complex128)
    for w in op.weights:
        w_gram = w_gram + w @ w.conj().T
    w_gram = symmetrize(w_gram)

    def _gram(f):
        return symmetrize(np.conj(np.swapaxes(f, 1, 2)) @ (k_gram @ f) + eye)

    def objective(x, with_state=False):
        f = _as_stack(x, shape)
        m = _gram(f)
        total = np.full(f.shape[0], pi_tr, dtype=np.float64)
        for w in op.weights:
            sol = np.linalg.solve(m, np.broadcast_to(w, (f.shape[0],) + w.shape))
            total = total + np.real(_stack_trace_product(w, sol))
        return (total, (m,)) if with_state else total

    def gradient(x, state=None):
        f = _as_stack(x, shape)
        m = _gram(f) if state is None else state[0]
        phi = np.linalg.inv(m)
        return -(k_gram @ f) @ phi @ w_gram @ phi

    return SearchProblem(
        shape=shape,
        power=model.power,
        objective=objective,
        power_of=partial(_frobenius_power, shape=shape),
        gradient=gradient,
    )


def logdet_problem(model: SystemModel, op: WeightingOperator) -> SearchProblem:
    """log det Psi(F) as a batched function of the precoder F; state is (phi, psi)."""
    if op.n_streams != model.n_streams:
        raise ShapeError("operator and model stream counts differ")
    shape = (model.n_tx, model.n_streams)
    h = model.channel
    k_gram = symmetrize(h.conj().T @ np.linalg.solve(model.noise_cov, h))
    eye = np.eye(model.n_streams, dtype=np.complex128)

    def _psi(f):
        m = symmetrize(np.conj(np.swapaxes(f, 1, 2)) @ (k_gram @ f) + eye)
        phi = np.linalg.inv(m)
        psi = np.broadcast_to(op.offset, (f.shape[0],) + op.offset.shape).copy()
        for w in op.weights:
            psi = psi + np.conj(w.T) @ phi @ w
        return phi, symmetrize(psi)

    def objective(x, with_state=False):
        f = _as_stack(x, shape)
        phi, psi = _psi(f)
        sign, ld = np.linalg.slogdet(psi)
        out = np.where(np.real(sign) > 0.0, ld, np.inf)
        return (out, (phi, psi)) if with_state else out

    def gradient(x, state=None):
        f = _as_stack(x, shape)
        phi, psi = _psi(f) if state is None else state
        psi_inv = np.linalg.inv(psi)
        mid = np.zeros_like(phi)
        for w in op.weights:
            mid = mid + w @ psi_inv @ np.conj(w.T)
        return -(k_gram @ f) @ phi @ mid @ phi

    return SearchProblem(
        shape=shape,
        power=model.power,
        objective=objective,
        power_of=partial(_frobenius_power, shape=shape),
        gradient=gradient,
    )


def _relay_parts(model: RelayModel):
    c1 = first_hop_gram(model)
    s_map = model.channel1 @ model.source_cov  # n_relay_rx x n_src
    q_gram = symmetrize(s_map @ np.conj(s_map.T))
    return c1, s_map, q_gram


def _relay_bracket(model: RelayModel, c1: np.ndarray, p: np.ndarray):
    """T = H2 P and B = T C1 T^H + R_n2 for each stack member."""
    t = model.channel2 @ p
    b = symmetrize(t @ c1 @ np.conj(np.swapaxes(t, 1, 2)) + model.noise2_cov)
    return t, b


def relay_mse_problem(model: RelayModel) -> SearchProblem:
    """Tr Psi(P) through the relay chain as a batched function of P; state is (t, b)."""
    c1, s_map, q_gram = _relay_parts(model)
    shape = (model.n_relay_tx, model.n_relay_rx)
    h2 = model.channel2
    rs_tr = float(np.real(np.trace(model.source_cov)))

    def objective(x, with_state=False):
        p = _as_stack(x, shape)
        t, b = _relay_bracket(model, c1, p)
        a2 = t @ s_map
        sol = np.linalg.solve(b, a2)
        out = rs_tr - np.real(np.einsum("sij,sij->s", np.conj(a2), sol))
        return (out, (t, b)) if with_state else out

    def gradient(x, state=None):
        p = _as_stack(x, shape)
        t, b = _relay_bracket(model, c1, p) if state is None else state
        z = np.linalg.solve(b, t)
        zq = z @ q_gram
        grad_t = zq @ np.conj(np.swapaxes(t, 1, 2)) @ z @ c1 - zq
        return np.conj(h2.T) @ grad_t

    return SearchProblem(
        shape=shape,
        power=model.power,
        objective=objective,
        power_of=partial(_relay_power, shape=shape, c1=c1),
        gradient=gradient,
    )


def relay_logdet_problem(model: RelayModel) -> SearchProblem:
    """log det Psi(P) through the relay chain (capacity = log det R_s - this).

    The state is (t, b, psi).
    """
    c1, s_map, _ = _relay_parts(model)
    shape = (model.n_relay_tx, model.n_relay_rx)
    h2 = model.channel2
    rs = model.source_cov

    def _psi(p):
        t, b = _relay_bracket(model, c1, p)
        a2 = t @ s_map
        sol = np.linalg.solve(b, a2)
        psi = rs - np.conj(np.swapaxes(a2, 1, 2)) @ sol
        return t, b, symmetrize(psi)

    def objective(x, with_state=False):
        p = _as_stack(x, shape)
        t, b, psi = _psi(p)
        sign, ld = np.linalg.slogdet(psi)
        out = np.where(np.real(sign) > 0.0, ld, np.inf)
        return (out, (t, b, psi)) if with_state else out

    def gradient(x, state=None):
        p = _as_stack(x, shape)
        t, b, psi = _psi(p) if state is None else state
        z = np.linalg.solve(b, t)
        mid = s_map @ np.linalg.inv(psi) @ np.conj(s_map.T)
        zm = z @ mid
        grad_t = zm @ np.conj(np.swapaxes(t, 1, 2)) @ z @ c1 - zm
        return np.conj(h2.T) @ grad_t

    return SearchProblem(
        shape=shape,
        power=model.power,
        objective=objective,
        power_of=partial(_relay_power, shape=shape, c1=c1),
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
