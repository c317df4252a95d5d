"""Structure-free numerical baselines.

A SearchProblem wraps one of the four objectives (weighted trace, weighted
log-det, relay sum-MSE, relay log-det) as batched callables over stacks of
candidate matrices, together with the quadratic power form of the variable.
`random_search_oracle` attacks a problem with boundary-scaled random
sampling plus multi-start projected-gradient refinement and returns the
best objective it finds; the structured designs are certified by never
losing to it.

Objectives and powers are the model layer's own stack kernels, so the oracle
scores a candidate by the design's formulas; this module adds one conjugate
(Wirtinger) gradient d objective / d conj(X) per family, a descent step being
X - eta * grad.  With ``with_state=True`` an objective also returns its
per-row intermediates (state), which ``gradient(x, state)`` takes instead of
rebuilding them: ``(K F, Phi)`` for the trace problem, ``(K F, Phi, Psi)`` for
log-det, ``(T, Z)`` for the relay sum-MSE and ``(Z, G, Psi)`` for the relay
log-det (see `relay`).  A row mask selects the state of a subset of rows.

The objectives fall as power grows, so their minimizers sit on the power
sphere p(X) = P of the power form p(X) = Re Tr(X M X^H), and the budget
rescale is a retraction onto it.  Projected-gradient refinement is therefore
Riemannian gradient descent on that sphere, in the power form's own metric
<A, B>_M = Re Tr(A M B^H): it steps along the tangent direction
d = g M^-1 - (Re<g, X> / p(X)) X, whose slope -2 Re<g, d> is never positive
by Cauchy-Schwarz in the M inner product.  (A step along -g, rescaled
radially, can climb when M is not a multiple of I.)  M = I for the two
point-to-point problems and M = C1 for the two relay problems.  Step lengths
are Barzilai-Borwein ones (Barzilai and Borwein 1988) in the safeguarded
form of Wen and Yin (2013).

Projected-gradient refinement scores only its live starts.  A start freezes
for good once its value has settled: every `_SETTLE_EVERY` iterations the
live values are compared with the checkpoint copy taken two checks
(2 `_SETTLE_EVERY` iterations) before, and a start whose value fell by at
most `_SETTLE_TOL` max(1, |f|) since then freezes.  The window spans two
checks because in ill-conditioned problems a start still descending can
reject ten candidates in a row, halving its step each time, before its next
accepted move.  A start whose candidates are all rejected keeps its value,
so it freezes within three checks of its last accepted move.  Freezing
only stops work; a frozen start keeps its best point and value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ShapeError
from .mimo import SystemModel, channel_gram, lmmse_error, precoder_power
from .relay import RelayModel, forwarding_power, relay_chain, relay_error, relay_trace
from .rng import SplitMix64
from .spectral import _ct, _inner, _left, _right
from .weighting import WeightingOperator, check_streams

_POWER_FLOOR = 1e-300
# value rule of projected_gradient_descent: iterations between checkpoints
# (a start is judged over the last two) and the relative fall below which it
# counts as settled
_SETTLE_EVERY = 10
_SETTLE_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class SearchProblem:
    """Minimization problem over complex matrices with a quadratic power cap.

    ``objective(x, with_state=False)`` returns the values, or ``(values,
    state)`` with the per-row intermediates; ``gradient(x, state=None)``
    reuses a state for the same rows of ``x`` when one is given.
    ``inverse_gram`` is M^-1 for the power form Re Tr(X M X^H), or None
    when M = I.
    """

    shape: tuple
    power: float
    objective: Callable
    power_of: Callable
    gradient: Callable
    inverse_gram: np.ndarray | None = None


def _as_stack(x: np.ndarray, shape) -> np.ndarray:
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3 or arr.shape[1:] != tuple(shape):
        raise ShapeError(f"expected a stack of {tuple(shape)} matrices, got {arr.shape}")
    return arr


def _search_problem(shape, power, power_of, score, grad, inverse_gram=None) -> SearchProblem:
    """The problem of score(stack) -> (values, state) and grad(*state) -> gradient stack."""

    def objective(x, with_state=False):
        out, state = score(_as_stack(x, shape))
        return (out, state) if with_state else out

    def gradient(x, state=None):
        if state is None:
            _, state = score(_as_stack(x, shape))
        return grad(*state)

    return SearchProblem(
        shape=shape,
        power=power,
        objective=objective,
        power_of=lambda x: power_of(_as_stack(x, shape)),
        gradient=gradient,
        inverse_gram=inverse_gram,
    )


def _logdet(psi: np.ndarray) -> np.ndarray:
    """log det of each stack member; +inf where the determinant is not positive."""
    sign, ld = np.linalg.slogdet(psi)
    return np.where(np.real(sign) > 0.0, ld, np.inf)


def trace_problem(model: SystemModel, op: WeightingOperator) -> SearchProblem:
    """Tr Psi(F) = Tr(W_gram Phi) + Tr Pi as a batched function of the precoder F."""
    check_streams(op, model)
    k_gram = channel_gram(model)

    def score(f):
        kf, phi = lmmse_error(k_gram, f)
        return op.psi_trace(phi), (kf, phi)

    def grad(kf, phi):
        return -(_right(kf @ phi, op.stream_gram) @ phi)

    return _search_problem((model.n_tx, model.n_streams), model.power, precoder_power, score, grad)


def logdet_problem(model: SystemModel, op: WeightingOperator) -> SearchProblem:
    """log det Psi(F) as a batched function of the precoder F."""
    check_streams(op, model)
    k_gram = channel_gram(model)

    def score(f):
        kf, phi = lmmse_error(k_gram, f)
        psi = op.psi(phi)
        return _logdet(psi), (kf, phi, psi)

    def grad(kf, phi, psi):
        # sum_k W_k Psi^{-1} W_k^H
        return -(kf @ phi @ op.adjoint(np.linalg.inv(psi)) @ phi)

    return _search_problem((model.n_tx, model.n_streams), model.power, precoder_power, score, grad)


def _relay_gradient(model: RelayModel, zm: np.ndarray, g: np.ndarray):
    """Gradient H2^H (ZM G C1 - ZM) of a relay objective in P.

    ZM = Z M for the objective's middle factor M (Q for the sum-MSE,
    S Psi^{-1} S^H for log-det) and G = T^H Z.
    """
    return _left(np.conj(model.channel2.T), _right(zm @ g, model.c1) - zm)


def _relay_problem(model: RelayModel, score, grad) -> SearchProblem:
    shape = (model.n_relay_tx, model.n_relay_rx)
    inv_root = model.c1_roots[1]
    return _search_problem(
        shape, model.power, lambda p: forwarding_power(model, p), score, grad,
        inverse_gram=inv_root @ inv_root,
    )


def relay_mse_problem(model: RelayModel) -> SearchProblem:
    """Tr Psi(P) through the relay chain as a batched function of P."""

    def score(p):
        t, z = relay_chain(model, p)
        return relay_trace(model, t, z), (t, z)

    def grad(t, z):
        return _relay_gradient(model, _right(z, model.q_gram), _ct(t) @ z)

    return _relay_problem(model, score, grad)


def relay_logdet_problem(model: RelayModel) -> SearchProblem:
    """log det Psi(P) through the relay chain (capacity = log det R_s - this)."""

    def score(p):
        t, z = relay_chain(model, p)
        g, psi = relay_error(model, t, z)
        return _logdet(psi), (z, g, psi)

    def grad(z, g, psi):
        # S Psi^{-1} S^H
        return _relay_gradient(model, z @ model.s_congruence.adjoint(np.linalg.inv(psi)), g)

    return _relay_problem(model, score, grad)


# ---------------------------------------------------------------------------
# the oracle


def _project_to_budget(problem: SearchProblem, x: np.ndarray, boundary: bool = False) -> np.ndarray:
    """Rescale stack members exceeding the budget (or everything, to the boundary)."""
    scale = np.sqrt(problem.power / np.maximum(problem.power_of(x), _POWER_FLOOR))
    return x * (scale if boundary else np.minimum(1.0, scale))[:, None, None]


def _tangent_direction(problem: SearchProblem, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """d = g M^-1 - (Re<g, X> / p(X)) X: the M-metric gradient, less its radial part."""
    gm = g if problem.inverse_gram is None else _right(g, problem.inverse_gram)
    radial = _inner(g, x) / np.maximum(problem.power_of(x), _POWER_FLOOR)
    return gm - radial[:, None, None] * x


def projected_gradient_descent(
    problem: SearchProblem, starts: np.ndarray, max_iter: int = 500
) -> tuple[np.ndarray, np.ndarray]:
    """Refine a stack of feasible starts by Riemannian descent on the power sphere.

    Per start: a candidate X - eta d along the tangent direction d (see the
    module docstring) is rescaled into the budget and accepted if and only
    if it strictly lowers the objective and moves (<s, s> > 0 for the move
    s; a zero move can read lower only through batch rounding).  After an
    accepted move, with y the change in d, the next step is the
    Barzilai-Borwein length <s, s> / Re<s, y>, or double the step when
    Re<s, y> <= 0, capped at 1e8 eta0 (a tiny Re<s, y> overflows the length
    to inf); a rejected candidate halves the step.  A start freezes at a
    checkpoint (every `_SETTLE_EVERY` iterations) once its value fell by at
    most `_SETTLE_TOL` max(1, |f|) since the checkpoint before the last one,
    and `max_iter` caps the iterations.  Each iteration scores only the live
    (unfrozen) starts, and the gradient at an accepted candidate reuses the
    state its objective evaluation built.  Returns (values, points).
    """
    x = _project_to_budget(problem, np.array(starts, dtype=np.complex128))
    f, state = problem.objective(x, with_state=True)
    g = problem.gradient(x, state)
    d = _tangent_direction(problem, x, g)
    gnorm = np.sqrt(np.sum(np.abs(g) ** 2, axis=(1, 2)))
    xnorm = np.sqrt(np.sum(np.abs(x) ** 2, axis=(1, 2)))
    eta = 0.25 * np.maximum(xnorm, np.sqrt(problem.power)) / np.maximum(gnorm, 1e-12)
    eta_hi = 1e8 * eta
    live = np.arange(x.shape[0])
    # values at the last two checkpoints; no start is judged before the second
    older, newer = np.full_like(f, np.inf), f.copy()
    for it in range(1, max_iter + 1):
        if live.size == 0:
            break
        cand = _project_to_budget(problem, x[live] - eta[live, None, None] * d[live])
        fc, state = problem.objective(cand, with_state=True)
        step = cand - x[live]
        ss = _inner(step, step)
        # a zero move reads lower only through batch rounding
        improved = (fc < f[live]) & (ss > 0.0)
        accepted = live[improved]
        eta[live[~improved]] *= 0.5
        if accepted.size:
            moved = cand[improved]
            x[accepted] = moved
            f[accepted] = fc[improved]
            g_new = problem.gradient(moved, tuple(s[improved] for s in state))
            d_new = _tangent_direction(problem, moved, g_new)
            sy = _inner(step[improved], d_new - d[accepted])
            with np.errstate(over="ignore"):  # a tiny sy gives inf, capped below
                bb = np.divide(ss[improved], sy, out=2.0 * eta[accepted], where=sy > 0.0)
            eta[accepted] = np.minimum(bb, eta_hi[accepted])
            d[accepted] = d_new
        if it % _SETTLE_EVERY == 0:
            fl = f[live]
            live = live[older[live] - fl > _SETTLE_TOL * np.maximum(1.0, np.abs(fl))]
            older, newer = newer, f.copy()
    return f, x


def random_search_oracle(
    problem: SearchProblem, budget: int, seed: int, refinements: int = 100
) -> float:
    """Best objective over boundary-scaled random candidates plus refinement.

    budget random matrices with unit-variance complex Gaussian entries are
    rescaled to the power boundary and scored in bulk; the best `refinements`
    of them seed the projected-gradient stage.  Returns the best feasible
    objective value found.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    rows, cols = problem.shape
    stream = SplitMix64(seed)
    x = stream.complex_normal_stack(budget, rows, cols)
    x = _project_to_budget(problem, x, boundary=True)
    values = problem.objective(x)
    best = float(np.min(values))
    if refinements > 0:
        order = np.argsort(values, kind="stable")[: min(refinements, x.shape[0])]
        refined, _ = projected_gradient_descent(problem, x[order])
        best = min(best, float(np.min(refined)))
    return best
