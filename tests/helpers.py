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


def _real_reference(a):
    return a.view(np.float64).reshape(a.shape[0], -1)


def _search_gradient_reference(problem, y, power, g):
    """Gradient in Y of f(sqrt(P / p(Y)) Y), given the gradient g of f there."""
    scale = np.sqrt(problem.power / power)
    ym = y
    if problem.gram is not None:
        ym = (y.reshape(-1, y.shape[-1]) @ problem.gram).reshape(y.shape)
    radial = _inner_reference(g, y) / power
    return _real_reference(scale[:, None, None] * (g - radial[:, None, None] * ym))


def masked_pgd_reference(problem, starts, max_iter=500, value_rule=True):
    """The oracle's L-BFGS refinement as first written: a boolean mask of
    active starts, every start scored on every iteration, and each accepted
    point's gradient computed afresh from the point alone.

    Each start is a point Y with X = sqrt(P / p(Y)) Y.  A candidate
    Y + t d is accepted when it meets the Armijo condition
    f <= f(Y) + 1e-4 t f'(Y; d), lowers f and moves (<s, s> > 0); a
    rejected one halves t, an accepted one sets t = 1.  The direction is
    -H g for the L-BFGS inverse Hessian of the newest min(2 rows cols, 16)
    pairs with positive curvature, in the compact form of Byrd, Nocedal and
    Schnabel (1994) with the pairs in round-robin slots and R^-1 updated by
    blocks; the first direction is -g scaled to move a quarter of the
    radius.  With `value_rule`, a start goes inactive at a check
    (iterations 6, 9, 12, ...) where its value fell by at most
    1e-14 max(1, |f|) over the last 6 iterations; the library's live-set
    version must return bitwise the same (values, points).  Without it,
    every start runs `max_iter` iterations.
    """
    x = _project_reference(problem, np.array(starts, dtype=np.complex128))
    count, rows, cols = x.shape
    f = problem.objective(x)[0]
    y = _real_reference(x).copy()
    power = np.maximum(problem.power_of(x), 1e-300)
    grad = _search_gradient_reference(problem, x, power, problem.gradient(*problem.objective(x)[1]))
    size = y.shape[1]
    mem = min(size, 16)
    # rows 0 .. mem-1 hold the steps s, rows mem .. 2 mem-1 the gradient
    # changes y, written round-robin from slot 0
    pairs = np.zeros((count, 2 * mem, size))
    r_inv = np.tile(np.eye(mem), (count, 1, 1))
    diag, yy_mem = np.zeros((count, mem)), np.zeros((count, mem, mem))
    slot = np.zeros(count, dtype=np.intp)
    gnorm = np.sqrt(np.vecdot(grad, grad))
    ynorm = np.sqrt(np.vecdot(y, y))
    gamma = 0.25 * np.maximum(ynorm, np.sqrt(problem.power)) / np.maximum(gnorm, 1e-12)
    d = -gamma[:, None] * grad
    slope = 2.0 * np.vecdot(grad, d)
    t = np.ones(count)
    active = np.ones(count, dtype=bool)
    f_at = {0: f.copy()}
    for k in range(max_iter):
        if not np.any(active):
            break
        yc = y + t[:, None] * d
        cand = yc.view(np.complex128).reshape(-1, rows, cols)
        pc = np.maximum(problem.power_of(cand), 1e-300)
        xc = cand * np.sqrt(problem.power / pc)[:, None, None]
        fc = problem.objective(xc)[0]
        s_all = yc - y
        armijo = fc <= f + 1e-4 * t * slope
        improved = active & armijo & (fc < f) & (np.vecdot(s_all, s_all) > 0.0)
        t[active & ~improved] *= 0.5
        if np.any(improved):
            g_new = _search_gradient_reference(
                problem, cand[improved], pc[improved], problem.gradient(*problem.objective(xc[improved])[1])
            )
            s, dg = s_all[improved], g_new - grad[improved]
            sy, yy = np.vecdot(s, dg), np.vecdot(dg, dg)
            c = sy > 0.0
            pair = np.flatnonzero(improved)[c]
            s, dg, sy, yy = s[c], dg[c], sy[c], yy[c]
            # the new pair overwrites each pushing start's oldest one
            j, at = slot[pair], np.arange(pair.size)
            pairs[pair, j] = s
            pairs[pair, mem + j] = dg
            diag[pair, j] = sy
            sy_yy = np.matvec(pairs[pair], dg)
            yy_mem[pair, j] = sy_yy[:, mem:]
            yy_mem[pair, :, j] = sy_yy[:, mem:]
            r = r_inv[pair]
            r[at, j] = 0.0
            r[at, :, j] = 0.0
            col = np.matvec(r, sy_yy[:, :mem]) / -sy[:, None]
            col[at, j] = 1.0 / sy
            r[at, :, j] = col
            r_inv[pair] = r
            slot[pair] = (j + 1) % mem
            gamma[pair] = sy / yy
            y[improved], x[improved], f[improved], grad[improved], t[improved] = (
                yc[improved], xc[improved], fc[improved], g_new, 1.0
            )
            # d = -H g in the compact form
            pm, ri, ga = pairs[improved], r_inv[improved], gamma[improved][:, None]
            sg_yg = np.matvec(pm, g_new)
            w = np.matvec(ri, sg_yg[:, :mem])
            u = np.vecmat(diag[improved] * w + ga * (np.matvec(yy_mem[improved], w) - sg_yg[:, mem:]), ri)
            d[improved] = np.vecmat(np.concatenate([-u, ga * w], axis=1), pm) - ga * g_new
            slope[improved] = 2.0 * np.vecdot(g_new, d[improved])
        if value_rule and (k + 1) % 3 == 0:
            if k + 1 >= 6:
                active &= f_at[k + 1 - 6] - f > 1e-14 * np.maximum(1.0, np.abs(f))
            f_at[k + 1] = f.copy()
    return f, x


def lbfgs_two_loop_reference(g, gamma, pairs):
    """-H g by the two-loop recursion (Nocedal and Wright, Algorithm 7.4),
    for one real gradient g, H0 = gamma I and the (s, y) pairs oldest first."""
    q = np.array(g, dtype=float)
    alphas = []
    for s, y in reversed(pairs):
        alpha = (s @ q) / (s @ y)
        q = q - alpha * y
        alphas.append(alpha)
    r = gamma * q
    for (s, y), alpha in zip(pairs, reversed(alphas)):
        beta = (y @ r) / (s @ y)
        r = r + (alpha - beta) * s
    return -r


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
