"""Structure-free numerical baselines.

A SearchProblem wraps one of the four objectives (weighted trace, weighted
log-det, relay sum-MSE, relay log-det) as batched callables over stacks of
candidate matrices, together with the quadratic power form of the variable.
`random_search_oracle` attacks a problem with boundary-scaled random
sampling plus multi-start quasi-Newton refinement and returns the best
objective it finds; the structured designs are certified by never
losing to it.

Objectives and powers are the model layer's own stack kernels, so the oracle
scores a candidate by the design's formulas; this module adds one conjugate
(Wirtinger) gradient d objective / d conj(X) per family, a descent step being
X - eta * grad.  An objective returns its values with its per-row
intermediates (state), from which the gradient is taken without rebuilding
them: ``(K F, Phi)`` for the trace problem, ``(K F, Phi, Psi)`` for log-det,
``(T, Z)`` for the relay sum-MSE and ``(Z, G, Psi)`` for the relay log-det
(see `relay`).  A row mask selects the state of a subset of rows.

The objectives fall as power grows, so their minimizers sit on the power
sphere p(X) = P of the power form p(X) = Re Tr(X M X^H), with M = I for the
two point-to-point problems and M = C1 for the two relay problems.  The
refinement therefore works in the scale-free variable Y, with
X = sqrt(P / p(Y)) Y: every Y != 0 maps onto the sphere, and f(X(Y)) is an
unconstrained function of Y that is constant along Y.  Its gradient is

    sqrt(P / p(Y)) (g - (Re<g, Y> / p(Y)) Y M)

for the gradient g of f at X(Y).  It needs no M^-1 and no tangent
projection, and it has no component along Y.  The method is L-BFGS (Liu and
Nocedal 1989; Nocedal and Wright, Numerical Optimization, ch. 7) on the
real vector of Y, batched over the starts: each start keeps its newest
min(2 rows cols, `_MEMORY`) pairs and its H0 scale in a memory, and every
iteration derives each live start's direction from that memory by the
compact form of Byrd, Nocedal and Schnabel (1994).  An iteration scores one
candidate per start; a candidate that fails the Armijo condition halves
that start's step for the next iteration, so there is no inner line search.
First-order descent (Barzilai-Borwein steps along the projected gradient)
stalled 5e-8 to 2e-5 (relative) short of the design where the curvature
spans many decades, such as more streams than transmit antennas at
P = 1e6; L-BFGS reaches it to rounding there.  The refinement keeps the
name `projected_gradient_descent`, by which callers look it up.

The refinement scores only its live starts.  A start freezes for good once
its value has settled: every `_SETTLE_EVERY` iterations the live values are
compared with the checkpoint copy taken two checks (2 `_SETTLE_EVERY`
iterations) before, and a start whose value fell by at most `_SETTLE_TOL`
max(1, |f|) since then freezes.  The window spans two checks because a
start still descending can reject several candidates in a row, halving its
step each time, before its next accepted move.  A start whose candidates
are all rejected keeps its value, so it freezes within three checks of its
last accepted move.  Freezing only stops work; a frozen start keeps its
best point and value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ShapeError
from .mimo import SystemModel, lmmse_error, precoder_power
from .relay import RelayModel, forwarding_power, relay_chain, relay_error, relay_trace
from .rng import SplitMix64
from .spectral import _ct, _inner, _inv, _left, _logdet, _mul, _right
from .weighting import WeightingOperator, check_streams

_POWER_FLOOR = 1e-300
# value rule of projected_gradient_descent: iterations between checkpoints
# (a start is judged over the last two) and the relative fall below which it
# counts as settled
_SETTLE_EVERY = 3
_SETTLE_TOL = 1e-14
# L-BFGS: the most (s, y) pairs a start keeps, the most iterations, and the
# Armijo fraction of the predicted decrease an accepted candidate must reach
_MEMORY = 16
_MAX_ITER = 500
_ARMIJO = 1e-4


@dataclass(frozen=True, eq=False)
class SearchProblem:
    """Minimization problem over complex matrices with a quadratic power cap.

    The callables are unchecked stack kernels, like `WeightingOperator.psi`:
    ``objective(x)`` takes a (count, *shape) stack and returns ``(values,
    state)``, the state a tuple of per-row intermediates; ``gradient(*state)``
    returns the gradient at the rows the state holds, so a row subset of
    every state array gives the gradient of those rows; ``power_of(x)`` is
    the power form p(X) = Re Tr(X M X^H) of each member.  ``gram`` is M, or
    None when M = I.
    """

    shape: tuple
    power: float
    objective: Callable
    power_of: Callable
    gradient: Callable
    gram: np.ndarray | None = None


def trace_problem(model: SystemModel, op: WeightingOperator) -> SearchProblem:
    """Tr Psi(F) = Tr(W_gram Phi) + Tr Pi as a batched function of the precoder F."""
    check_streams(op, model)

    def objective(f):
        kf, phi = lmmse_error(model.k_gram, f)
        return op.psi_trace(phi), (kf, phi)

    def gradient(kf, phi):
        return -_mul(_right(_mul(kf, phi), op.stream_gram), phi)

    return SearchProblem((model.n_tx, model.n_streams), model.power, objective, precoder_power, gradient)


def logdet_problem(model: SystemModel, op: WeightingOperator) -> SearchProblem:
    """log det Psi(F) as a batched function of the precoder F."""
    check_streams(op, model)

    def objective(f):
        kf, phi = lmmse_error(model.k_gram, f)
        psi = op.psi(phi)
        return _logdet(psi), (kf, phi, psi)

    def gradient(kf, phi, psi):
        # sum_k W_k Psi^{-1} W_k^H
        return -_mul(_mul(_mul(kf, phi), op.adjoint(_inv(psi))), phi)

    return SearchProblem((model.n_tx, model.n_streams), model.power, objective, precoder_power, gradient)


def _relay_gradient(model: RelayModel, zm: np.ndarray, g: np.ndarray):
    """Gradient H2^H (ZM G C1 - ZM) of a relay objective in P.

    ZM = Z M for the objective's middle factor M (Q for the sum-MSE,
    S Psi^{-1} S^H for log-det) and G = T^H Z.
    """
    return _left(np.conj(model.channel2.T), _right(_mul(zm, g), model.c1) - zm)


def _relay_problem(model: RelayModel, objective, gradient) -> SearchProblem:
    return SearchProblem(
        (model.n_relay_tx, model.n_relay_rx),
        model.power,
        objective,
        lambda p: forwarding_power(model, p),
        gradient,
        gram=model.c1,
    )


def relay_mse_problem(model: RelayModel) -> SearchProblem:
    """Tr Psi(P) through the relay chain as a batched function of P."""

    def objective(p):
        t, z = relay_chain(model, p)
        return relay_trace(model, t, z), (t, z)

    def gradient(t, z):
        return _relay_gradient(model, _right(z, model.q_gram), _mul(_ct(t), z))

    return _relay_problem(model, objective, gradient)


def relay_logdet_problem(model: RelayModel) -> SearchProblem:
    """log det Psi(P) through the relay chain (capacity = log det R_s - this)."""

    def objective(p):
        t, z = relay_chain(model, p)
        g, psi = relay_error(model, t, z)
        return _logdet(psi), (z, g, psi)

    def gradient(z, g, psi):
        # S Psi^{-1} S^H
        return _relay_gradient(model, _mul(z, model.s_congruence.adjoint(_inv(psi))), g)

    return _relay_problem(model, objective, gradient)


# ---------------------------------------------------------------------------
# the oracle


def _project_to_budget(problem: SearchProblem, x: np.ndarray, boundary: bool = False) -> np.ndarray:
    """Rescale stack members exceeding the budget (or everything, to the boundary)."""
    scale = np.sqrt(problem.power / np.maximum(problem.power_of(x), _POWER_FLOOR))
    return x * (scale if boundary else np.minimum(1.0, scale))[:, None, None]


def _as_stack(x: np.ndarray, shape) -> np.ndarray:
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 3 or arr.shape[1:] != tuple(shape):
        raise ShapeError(f"expected a stack of {tuple(shape)} matrices, got {arr.shape}")
    return arr


def _flat(a: np.ndarray) -> np.ndarray:
    """Each member of a contiguous complex stack as one real vector (a view)."""
    return a.view(np.float64).reshape(a.shape[0], -1)


def _search_gradient(problem: SearchProblem, y: np.ndarray, power: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient in Y of f(sqrt(P / p(Y)) Y), from the gradient g of f there and p = p(Y)."""
    ym = y if problem.gram is None else _right(y, problem.gram)
    radial = _inner(g, y) / power
    return np.sqrt(problem.power / power)[:, None, None] * (g - radial[:, None, None] * ym)


class _Memory:
    """The L-BFGS pairs of a stack of starts, the newest m of each, with R^-1 and H0.

    ``pairs[k]`` holds start k's steps s in rows 0 .. m-1 and its gradient
    changes y in rows m .. 2m-1, filled round-robin: ``slot[k]`` is the next
    slot to write, which holds the oldest pair once all m are taken.  R is
    the upper triangle of S Y^T in the pairs' age order and D its diagonal;
    ``r_inv`` keeps R^-1 and ``yy`` keeps Y Y^T, both in slot order.  An empty
    slot is a zero pair with a unit diagonal in R^-1, which the direction
    ignores.  ``gamma[k]`` is start k's H0 scale: the caller's initial value
    until its first pair, then <s, y> / <y, y> of its newest pair.
    """

    def __init__(self, pairs, r_inv, d, yy, slot, gamma):
        self.pairs, self.r_inv, self.d, self.yy, self.slot, self.gamma = pairs, r_inv, d, yy, slot, gamma

    @classmethod
    def empty(cls, count: int, m: int, size: int, gamma=1.0) -> _Memory:
        return cls(
            np.zeros((count, 2 * m, size)),
            np.tile(np.eye(m), (count, 1, 1)),
            np.zeros((count, m)),
            np.zeros((count, m, m)),
            np.zeros(count, dtype=np.intp),
            np.full(count, gamma, dtype=np.float64),
        )

    def take(self, rows) -> _Memory:
        return _Memory(*(a[rows] for a in (self.pairs, self.r_inv, self.d, self.yy, self.slot, self.gamma)))

    def push(self, rows: np.ndarray, s: np.ndarray, y: np.ndarray, sy: np.ndarray) -> None:
        """Write the pair (s, y) over the oldest pair of each of `rows` and set H0 from it.

        R^-1 is updated in place by blocks: the oldest pair leads R, so
        dropping its row and column leaves the inverse of the rest, and the
        new pair's column of R, (S y, s^T y), adds the column
        (-R^-1 S y, 1) / s^T y; entry j of S y is zeroed to drop the oldest
        pair's column, and row j, now the newest pair's, is 1 / s^T y on the
        diagonal and zero elsewhere.
        """
        m = self.d.shape[1]
        j, at = self.slot[rows], np.arange(rows.size)
        self.pairs[rows, j] = s
        self.pairs[rows, m + j] = y
        self.d[rows, j] = sy
        sy_yy = np.matvec(self.pairs[rows], y)
        self.yy[rows, j] = sy_yy[:, m:]
        self.yy[rows, :, j] = sy_yy[:, m:]
        sy_yy[at, j] = 0.0
        col = np.matvec(self.r_inv[rows], sy_yy[:, :m])
        col /= -sy[:, None]
        col[at, j] = 1.0 / sy
        self.r_inv[rows, j] = 0.0
        self.r_inv[rows, :, j] = col
        self.slot[rows] = (j + 1) % m
        self.gamma[rows] = sy / np.vecdot(y, y)

    def direction(self, g: np.ndarray) -> np.ndarray:
        """-H g for each row's L-BFGS inverse Hessian with H0 = gamma I.

        The compact form of Byrd, Nocedal and Schnabel (1994):
        H g = gamma g + S^T R^-T ((D + gamma Y Y^T) w - gamma Y g)
        - gamma Y^T w for w = R^-1 S g, which is gamma g with no pairs.  A
        row's result depends on that row alone, to the bit.
        """
        m = self.d.shape[1]
        gamma = self.gamma[:, None]
        sg_yg = np.matvec(self.pairs, g)
        w = np.matvec(self.r_inv, sg_yg[:, :m])
        u = np.vecmat(self.d * w + gamma * (np.matvec(self.yy, w) - sg_yg[:, m:]), self.r_inv)
        return np.vecmat(np.concatenate([-u, gamma * w], axis=1), self.pairs) - gamma * g


def projected_gradient_descent(problem: SearchProblem, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Refine a stack of feasible starts by batched L-BFGS in the scale-free variable.

    Each start is a point Y with X = sqrt(P / p(Y)) Y (see the module
    docstring); a start inside the budget is scored where it is, and its
    first accepted candidate lies on the boundary.  Per iteration, each live
    start scores one candidate Y + t d along its L-BFGS direction d, accepted
    if and only if it satisfies the Armijo condition f <= f(Y) + `_ARMIJO`
    t f'(Y; d), with f'(Y; d) = 2 Re<G, d> for the gradient G in Y, strictly
    lowers the objective and moves (<s, s> > 0 for the move s; a zero move
    can read lower only through batch rounding).  Each iteration derives d
    for every live start from its memory: the newest min(2 rows cols,
    `_MEMORY`) pairs with H0 = gamma I, gamma = <s, y> / <y, y> of the newest
    pair, or before the first pair the gamma at which -gamma G moves a
    quarter of the radius.  A rejected candidate halves t and keeps the
    memory and G, hence d.  An accepted one resets t to 1 and stores its pair
    (s, y), y the change in G, when the curvature <s, y> is positive.  A
    start freezes at a checkpoint (every `_SETTLE_EVERY` iterations) once its
    value fell by at most `_SETTLE_TOL` max(1, |f|) since the checkpoint
    before the last one, and `_MAX_ITER` caps the iterations.  Each iteration
    scores only the live (unfrozen) starts, and the gradient at an accepted
    candidate reuses the state its objective evaluation built.  `starts`
    must be a stack of `problem.shape` members (else ShapeError).  Returns
    (values, points).
    """
    x = _project_to_budget(problem, _as_stack(starts, problem.shape))
    count, rows, cols = x.shape
    f, state = problem.objective(x)
    values, points = f.copy(), x.copy()
    power = np.maximum(problem.power_of(x), _POWER_FLOOR)
    grad = _flat(_search_gradient(problem, x, power, problem.gradient(*state)))
    y = _flat(x).copy()
    size = y.shape[1]
    radius = np.maximum(np.sqrt(np.vecdot(y, y)), np.sqrt(problem.power))
    gamma = 0.25 * radius / np.maximum(np.sqrt(np.vecdot(grad, grad)), 1e-12)
    memory = _Memory.empty(count, min(size, _MEMORY), size, gamma)
    t = np.ones(count)
    live = np.arange(count)
    # values at the last two checkpoints; no start is judged before the second
    older, newer = np.full_like(f, np.inf), f.copy()
    for it in range(1, _MAX_ITER + 1):
        if live.size == 0:
            break
        d = memory.direction(grad)
        slope = 2.0 * np.vecdot(grad, d)
        yc = y + t[:, None] * d
        cand = yc.view(np.complex128).reshape(-1, rows, cols)
        pc = np.maximum(problem.power_of(cand), _POWER_FLOOR)
        xc = cand * np.sqrt(problem.power / pc)[:, None, None]
        fc, state = problem.objective(xc)
        s = yc - y
        ok = (fc <= f + _ARMIJO * t * slope) & (fc < f) & (np.vecdot(s, s) > 0.0)
        t = np.where(ok, 1.0, 0.5 * t)
        acc = np.flatnonzero(ok)
        if acc.size:
            g_acc = problem.gradient(*(a[acc] for a in state))
            g_new = _flat(_search_gradient(problem, cand[acc], pc[acc], g_acc))
            s, dg = s[acc], g_new - grad[acc]
            sy = np.vecdot(s, dg)
            curved = sy > 0.0
            memory.push(acc[curved], s[curved], dg[curved], sy[curved])
            np.copyto(y, yc, where=ok[:, None])
            np.copyto(x, xc, where=ok[:, None, None])
            np.copyto(f, fc, where=ok)
            grad[acc] = g_new
        if it % _SETTLE_EVERY == 0:
            keep = older - f > _SETTLE_TOL * np.maximum(1.0, np.abs(f))
            if not keep.all():
                gone = ~keep
                values[live[gone]], points[live[gone]] = f[gone], x[gone]
                live, y, x, f, grad, t, newer = (a[keep] for a in (live, y, x, f, grad, t, newer))
                memory = memory.take(keep)
            older, newer = newer, f.copy()
    values[live], points[live] = f, x
    return values, points


def random_search_oracle(
    problem: SearchProblem, budget: int, seed: int, refinements: int = 100
) -> float:
    """Best objective over boundary-scaled random candidates plus refinement.

    budget random matrices with unit-variance complex Gaussian entries are
    rescaled to the power boundary and scored in bulk; the best `refinements`
    of them seed the refinement stage (`projected_gradient_descent`).
    Returns the best feasible objective value found.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    rows, cols = problem.shape
    stream = SplitMix64(seed)
    x = stream.complex_normal_stack(budget, rows, cols)
    x = _project_to_budget(problem, x, boundary=True)
    values, _ = problem.objective(x)
    best = float(np.min(values))
    if refinements > 0:
        order = np.argsort(values, kind="stable")[:refinements]
        refined, _ = projected_gradient_descent(problem, x[order])
        best = min(best, float(np.min(refined)))
    return best
