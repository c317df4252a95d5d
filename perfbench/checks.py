"""Checks of design outputs made with the benchmark's own numpy formulas.

Nothing here calls into matfield: the error covariance, the weighted
objective, the relay chain and the stationarity test are recomputed from
the instance matrices, so a fault in the program cannot hide behind the
same fault in its own checks.

Model (point-to-point): Phi(F) = (F^H K F + I)^{-1} with K = H^H R_n^{-1} H,
Psi(F) = W^H Phi(F) W + Pi.  Trace families minimize Tr Psi, log-det
families minimize log det Psi, both under Tr(F F^H) <= P.  A relay with
forwarding matrix P_f is checked through the chain in information form,

    Psi_chain = (R_s^{-1} + A^H C^{-1} A)^{-1},  A = H2 P_f H1,
    C = H2 P_f R_n1 P_f^H H2^H + R_n2,

and its stationarity in the equivalent precoder F = P_f C1^{1/2},
C1 = H1 R_s H1^H + R_n1, with W = C1^{-1/2} H1 R_s and Pi = R_s - W^H W.
"""

from __future__ import annotations

import numpy as np

# Tr(F F^H) must equal the budget to this relative slack (matfield's
# documented power_rel); the reported objective must match the benchmark's
# own value to OBJECTIVE_REL of max(1, |value|).
POWER_REL = 1e-9
OBJECTIVE_REL = 1e-8
# The non-parallel share of the gradient of an exact design grows with the
# budget: up to about 1e-13 * max(1, P) over dims 1-8 and P up to 1e6.
# The slack is STATIONARY_REL * max(1, P), so 1e-4 at P = 1e6.
STATIONARY_REL = 1e-10
# singular values of F below this share of the largest are inactive modes
_RANK_RTOL = 1e-13


def _herm(a):
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def _inv_sqrt(a):
    w, u = np.linalg.eigh(_herm(a))
    return (u / np.sqrt(w)) @ u.conj().T


def _sqrt(a):
    w, u = np.linalg.eigh(_herm(a))
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T


def error_cov(h, r_n, f):
    """Phi(F) = (F^H K F + I)^{-1} and K, the MMSE error covariance."""
    k = _herm(h.conj().T @ np.linalg.solve(r_n, h))
    return np.linalg.inv(_herm(f.conj().T @ k @ f) + np.eye(f.shape[1])), k


def objective_value(psi, kind):
    if kind == "trace":
        return float(np.real(np.trace(psi)))
    sign, logdet = np.linalg.slogdet(psi)
    return float(logdet) if np.real(sign) > 0.0 else float("inf")


def gradient(h, r_n, w, pi, f, kind):
    """Conjugate (Wirtinger) gradient d objective / d conj(F).

    G = -K F Phi X Phi with X = W W^H (trace) or W Psi^{-1} W^H (log-det).
    With the thin SVD F = Q S R^H, Phi = R S^-1 Y S^-1 R^H + (I - R R^H) and
    K F Phi = K Q Y S^-1 R^H where Y = (Q^H K Q + S^-2)^{-1}.  This form
    stays accurate at large budgets, where F^H K F + I is ill-conditioned
    and the direct product loses the small gradient of the strong modes.
    """
    k = _herm(h.conj().T @ np.linalg.solve(r_n, h))
    q, s, rh = np.linalg.svd(f, full_matrices=False)
    keep = s > _RANK_RTOL * s.max()
    q, s, r = q[:, keep], s[keep], rh[keep].conj().T
    y = np.linalg.inv(_herm(q.conj().T @ k @ q + np.diag(1.0 / s**2)))
    phi = (r / s) @ y @ (r / s).conj().T + (np.eye(f.shape[1]) - r @ r.conj().T)
    if kind == "trace":
        x = w @ w.conj().T
    else:
        x = w @ np.linalg.solve(_herm(w.conj().T @ phi @ w + pi), w.conj().T)
    return -((k @ q @ y / s) @ r.conj().T) @ x @ phi


def stationarity_residual(grad, f):
    """Share of the gradient not parallel to F, and the parallel coefficient.

    At a minimizer on the power sphere the gradient is -mu F with mu >= 0, so
    the residual is zero and the coefficient is real nonpositive.
    """
    gnorm = float(np.linalg.norm(grad))
    fsq = float(np.real(np.vdot(f, f)))
    if gnorm == 0.0 or fsq == 0.0:
        return 0.0, 0.0
    coef = np.vdot(f, grad) / fsq
    return float(np.linalg.norm(grad - coef * f)) / gnorm, float(np.real(coef))


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _stationary(h, r_n, w, pi, f, kind, power):
    resid, coef = stationarity_residual(gradient(h, r_n, w, pi, f, kind), f)
    if resid > STATIONARY_REL * max(1.0, power) or coef > 0.0:
        return f"not stationary on the power sphere (residual {resid:.3e})"
    return None


def check_point_design(h, r_n, w, pi, power, kind, f, reported):
    """Failure reason for a point-to-point design, or None when it passes."""
    used = float(np.real(np.vdot(f, f)))
    if not abs(used - power) <= POWER_REL * power:
        return f"power {used!r} misses budget {power!r}"
    phi, _ = error_cov(h, r_n, f)
    value = objective_value(_herm(w.conj().T @ phi @ w + pi), kind)
    if not _close(value, reported, OBJECTIVE_REL):
        return f"objective {reported!r} != recomputed {value!r}"
    return _stationary(h, r_n, w, pi, f, kind, power)


def relay_equivalent(h1, r_s, r_n1):
    """(C1, W, Pi) of the weighted model equivalent to the relay chain."""
    c1 = _herm(h1 @ r_s @ h1.conj().T + r_n1)
    w = _inv_sqrt(c1) @ h1 @ r_s
    return c1, w, _herm(r_s - w.conj().T @ w)


def chain_error_cov(h1, h2, r_s, r_n1, r_n2, p):
    a = h2 @ p @ h1
    t = h2 @ p
    c = _herm(t @ r_n1 @ t.conj().T + r_n2)
    info = np.linalg.inv(r_s) + a.conj().T @ np.linalg.solve(c, a)
    return _herm(np.linalg.inv(_herm(info)))


def check_relay_design(h1, h2, r_s, r_n1, r_n2, power, kind, p, reported):
    """Failure reason for a relay design, or None when it passes.

    kind "trace" reports Tr Psi_chain; kind "det" reports the capacity
    log det R_s - log det Psi_chain.
    """
    c1, w, pi = relay_equivalent(h1, r_s, r_n1)
    used = float(np.real(np.trace(p @ c1 @ p.conj().T)))
    if not abs(used - power) <= POWER_REL * power:
        return f"relay power {used!r} misses budget {power!r}"
    psi = chain_error_cov(h1, h2, r_s, r_n1, r_n2, p)
    if kind == "trace":
        value = objective_value(psi, "trace")
    else:
        value = objective_value(_herm(r_s), "det") - objective_value(psi, "det")
    if not _close(value, reported, OBJECTIVE_REL):
        return f"objective {reported!r} != recomputed {value!r}"
    return _stationary(h2, r_n2, w, pi, p @ _sqrt(c1), kind, power)


def check_certify_report(report, records_expected, optimality_gap):
    """Failure reason for a certified harness report, or None when it passes.

    The report must pass, hold the expected number of records with every
    invariant flag set, and no oracle value may beat the structured design by
    more than optimality_gap: for relay-capacity (a maximization) the
    structured capacity must not fall below the oracle's, for the other modes
    the structured objective must not exceed the oracle's.
    """
    records = report["trials"]
    if not report["pass"] or report["aggregate"]["failures"] != 0:
        return f"{report['mode']}: report does not pass"
    if len(records) != records_expected:
        return f"{report['mode']}: {len(records)} records, expected {records_expected}"
    for rec in records:
        if not all(rec["invariant_pass"].values()):
            return f"{report['mode']} trial {rec['trial']}: invariant flags {rec['invariant_pass']}"
        structured = rec["objective_structured"]
        oracle = rec["objective_oracle_best"]
        if structured is None:
            continue
        if oracle is not None:
            margin = structured - oracle if report["mode"] == "relay-capacity" else oracle - structured
            if not margin >= -optimality_gap:
                return f"{report['mode']} trial {rec['trial']}: oracle beats design by {-margin:.3e}"
            if not _close(margin, rec["gap"], 1e-12):
                return f"{report['mode']} trial {rec['trial']}: reported gap {rec['gap']!r} != {margin!r}"
    return None
