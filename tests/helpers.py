"""Shared builders and reference computations for the test suite.

Everything here is deliberately independent of the package internals: the
reference values are computed from first principles (direct formulas, grid
scans, active-set algebra) so the tests cross-check the library rather than
restating it.
"""

import numpy as np

from matfield import RelayModel, SystemModel, WeightingOperator


def rng(seed=0):
    return np.random.default_rng(seed)


def crandn(gen, rows, cols):
    """Complex standard normal matrix, E|z_ij|^2 = 1."""
    return (gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_psd(gen, n, rank=None):
    b = crandn(gen, rank if rank is not None else n, n)
    return b.conj().T @ b


def random_pd(gen, n, ridge=0.1):
    return random_psd(gen, n) + ridge * np.eye(n)


def haar_unitary(gen, n):
    q, r = np.linalg.qr(crandn(gen, n, n))
    # normalize phases so the distribution is Haar, not QR-biased
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_system(gen, n_tx=2, n_rx=2, n_streams=2, power=4.0):
    return SystemModel(
        channel=crandn(gen, n_rx, n_tx),
        noise_cov=random_pd(gen, n_rx),
        n_streams=n_streams,
        power=power,
    )


def random_operator(gen, n_streams=2, m=2, k=1, pd_offset=True):
    ws = tuple(crandn(gen, n_streams, m) for _ in range(k))
    pi = random_pd(gen, m) if pd_offset else np.zeros((m, m), dtype=complex)
    return WeightingOperator(weights=ws, offset=pi)


def random_relay(gen, n_src=2, n_relay=2, n_dst=2, power=4.0):
    return RelayModel(
        channel1=crandn(gen, n_relay, n_src),
        channel2=crandn(gen, n_dst, n_relay),
        source_cov=random_pd(gen, n_src),
        noise1_cov=random_pd(gen, n_relay),
        noise2_cov=random_pd(gen, n_dst),
        power=power,
    )


def boundary_precoder(gen, n_tx, n_streams, power):
    f = crandn(gen, n_tx, n_streams)
    return f * np.sqrt(power / np.trace(f @ f.conj().T).real)


def rel_err(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)


def scalar_gap(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def sum_mse_waterfill_reference(channel_eigs, n_streams, power):
    """Closed-form active-set solution of  min sum_j 1/(1 + lam_j x_j),  sum x_j <= power.

    Unit weights.  Returns the optimal objective including the flat
    contribution (one per stream) of modes with a zero channel eigenvalue or
    no power.  Derivation: stationarity lam/(1+lam x)^2 = mu on active modes
    gives x_j = 1/sqrt(mu lam_j) - 1/lam_j, and the budget fixes sqrt(1/mu).
    """
    lam = np.sort(np.asarray(channel_eigs, dtype=float))[::-1]
    lam = lam[: n_streams]
    pos = lam[lam > 0.0]
    n_flat = n_streams - pos.size
    best = None
    for count in range(1, pos.size + 1):
        act = pos[:count]
        inv_sqrt_mu = (power + np.sum(1.0 / act)) / np.sum(1.0 / np.sqrt(act))
        x = inv_sqrt_mu / np.sqrt(act) - 1.0 / act
        if x[-1] < 0.0:
            continue
        obj = np.sum(1.0 / (1.0 + act * x)) + (pos.size - count) + n_flat
        if best is None or obj < best:
            best = obj
    if best is None:
        best = float(n_streams)
    return float(best)


def end_to_end_error_cov(model, forwarding):
    """LMMSE error covariance of the full two-hop chain, information form.

    Treats the cascade as a single linear observation y = A s + v with
    A = H2 Pm H1 and v ~ CN(0, H2 Pm R_n1 Pm^H H2^H + R_n2), then applies
    the standard (prior^-1 + A^H C^-1 A)^-1 identity.  Shares no code with
    the library routines it is checking.
    """
    a = model.channel2 @ forwarding @ model.channel1
    c = model.channel2 @ forwarding @ model.noise1_cov @ forwarding.conj().T @ model.channel2.conj().T
    c = c + model.noise2_cov
    info = np.linalg.inv(model.source_cov) + a.conj().T @ np.linalg.inv(c) @ a
    err = np.linalg.inv(info)
    return 0.5 * (err + err.conj().T)


def _project_reference(problem, x):
    p = np.maximum(problem.power_of(x), 1e-300)
    return x * np.minimum(1.0, np.sqrt(problem.power / p))[:, None, None]


def _inner_reference(a, b):
    return np.vecdot(a.reshape(a.shape[0], -1), b.reshape(b.shape[0], -1)).real


def _direction_reference(problem, x):
    """d = g M^-1 - (Re<g, X> / p(X)) X with g computed afresh from the point."""
    g = problem.gradient(x)
    gm = g
    if problem.inverse_gram is not None:
        gm = (g.reshape(-1, g.shape[-1]) @ problem.inverse_gram).reshape(g.shape)
    radial = _inner_reference(g, x) / np.maximum(problem.power_of(x), 1e-300)
    return gm - radial[:, None, None] * x


def masked_pgd_reference(problem, starts, max_iter=500, value_rule=True):
    """Projected-gradient refinement as first written: a boolean mask of
    active starts, every start scored on every iteration, and each accepted
    point's direction computed afresh from the point alone.  Steps follow
    the tangent direction d = g M^-1 - (Re<g, X> / p(X)) X with
    Barzilai-Borwein lengths <s, s> / Re<s, y> after an accepted move
    (doubling when Re<s, y> <= 0), clipped to [4 floor, 1e8 eta0], and
    halving on a rejected one; a candidate that reads lower but does not
    move (<s, s> = 0) is rejected.  A start goes inactive once its step is
    below its floor or, with `value_rule`, at a check (iterations 20, 30,
    40, ...) where its value fell by at most 1e-14 max(1, |f|) over the last
    20 iterations.  The library's live-set version must return bitwise the
    same (values, points) with the rule on.
    """
    x = _project_reference(problem, np.array(starts, dtype=np.complex128))
    f = problem.objective(x)
    g = problem.gradient(x)
    d = _direction_reference(problem, x)
    gnorm = np.sqrt(np.sum(np.abs(g) ** 2, axis=(1, 2)))
    xnorm = np.sqrt(np.sum(np.abs(x) ** 2, axis=(1, 2)))
    eta0 = 0.25 * np.maximum(xnorm, np.sqrt(problem.power)) / np.maximum(gnorm, 1e-12)
    eta_floor = 1e-14 * np.maximum(eta0, 1e-12)
    eta = eta0.copy()
    active = np.ones(x.shape[0], dtype=bool)
    f_at = {0: f.copy()}
    for k in range(max_iter):
        if not np.any(active):
            break
        cand = _project_reference(problem, x - eta[:, None, None] * d)
        fc = problem.objective(cand)
        s_all = cand - x
        ss_all = _inner_reference(s_all, s_all)
        improved = active & (fc < f) & (ss_all > 0.0)
        rejected = active & ~improved
        eta[rejected] *= 0.5
        if np.any(improved):
            s = s_all[improved]
            x[improved] = cand[improved]
            f[improved] = fc[improved]
            d_new = _direction_reference(problem, x[improved])
            sy = _inner_reference(s, d_new - d[improved])
            ss = ss_all[improved]
            step = 2.0 * eta[improved]
            bb = sy > 0.0
            with np.errstate(over="ignore"):
                step[bb] = ss[bb] / sy[bb]
            lo = 4.0 * eta_floor[improved]
            hi = 1e8 * eta0[improved]
            eta[improved] = np.minimum(np.maximum(step, lo), hi)
            d[improved] = d_new
        active &= eta > eta_floor
        if value_rule and (k + 1) % 10 == 0:
            if k + 1 >= 20:
                active &= f_at[k + 1 - 20] - f > 1e-14 * np.maximum(1.0, np.abs(f))
            f_at[k + 1] = f.copy()
    return f, x


def waterfill_decimal_reference(a, b, power, kind, digits=60):
    """Water-filling allocation in `digits`-digit decimal arithmetic.

    Bisects lam = 1 / mu on the textbook per-mode allocations, trace
    x = (sqrt(a b lam) - 1) / b and log-det x = (t - 1) / b with
    t = (-a + sqrt(a^2 + 4 a b lam)) / 2, whose cancellations are harmless
    at this precision.  Modes with a b = 0 get nothing.  Returns floats.
    """
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = digits
        av = [Decimal(float(v)) for v in a]
        bv = [Decimal(float(v)) for v in b]
        p = Decimal(float(power))

        def alloc(lam):
            out = []
            for aj, bj in zip(av, bv):
                if aj * bj == 0:
                    out.append(Decimal(0))
                    continue
                if kind == "trace":
                    t = (aj * bj * lam).sqrt()
                else:
                    t = (-aj + (aj * aj + 4 * aj * bj * lam).sqrt()) / 2
                out.append(max(Decimal(0), (t - 1) / bj))
            return out

        lo, hi = Decimal(0), Decimal(1)
        while sum(alloc(hi)) < p:
            lo, hi = hi, 2 * hi
        for _ in range(4 * digits):
            mid = (lo + hi) / 2
            if sum(alloc(mid)) < p:
                lo = mid
            else:
                hi = mid
        return np.array([float(v) for v in alloc(hi)])
