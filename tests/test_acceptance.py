"""Acceptance gate: twelve numbered behavioral criteria, one test each.

Every test prints one machine-greppable pass/fail line; a module teardown
repeats the twelve lines on the real stdout so they are visible even when
pytest captures output.  Tolerances and trial counts are written out
literally in each test rather than imported, so a regression in the library
constants cannot silently relax the gate.
"""

import sys
import time

import numpy as np

from matfield import (
    WeightingOperator,
    design_det_min,
    design_relay_capacity,
    design_relay_sum_mse,
    design_trace_min,
    det_sum_lower_bound,
    forwarding_to_precoder,
    from_classical_weights,
    lmmse_equalizer,
    loewner_leq,
    logdet_kkt_residual,
    logdet_pd,
    mse_lmmse,
    mse_matrix,
    ordered_evd,
    ordered_svd,
    precoder_to_forwarding,
    relay_capacity,
    relay_to_weighted,
    relay_transmit_power,
    relay_weighted_mse,
    trace_kkt_residual,
    trace_product_lower_bound,
    transmit_power,
    weighted_mse_of_precoder,
    whiten_channel,
)
from matfield.baselines import (
    logdet_problem,
    random_search_oracle,
    relay_logdet_problem,
    relay_mse_problem,
    trace_problem,
)
from matfield.instances import generate_relay, generate_system, generate_weighting
from matfield.rng import derive_seed

import helpers

SEED = 7

# desk scale: every matrix dimension at most 4 (criteria 1-3, 9-10)
DIMS_LE4 = [
    (2, 2, 2, 2),
    (3, 2, 2, 3),
    (2, 3, 3, 2),
    (4, 4, 4, 4),
    (3, 4, 2, 2),
    (4, 3, 3, 4),
    (2, 4, 4, 3),
    (3, 3, 2, 2),
]
# optimality sweeps stay at dimension <= 3 (criteria 4-8, 12)
DIMS_LE3 = [
    (2, 2, 2, 2),
    (3, 2, 2, 3),
    (2, 3, 2, 2),
    (3, 3, 3, 3),
    (3, 3, 2, 3),
    (2, 2, 1, 2),
]

_RESULTS = []


def _report(label, ok, detail):
    _RESULTS.append((label, ok, detail))
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def teardown_module(module):
    lines = [""]
    lines.append("================ acceptance summary ================")
    for label, ok, detail in _RESULTS:
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    lines.append("====================================================")
    sys.__stdout__.write("\n".join(lines) + "\n")
    sys.__stdout__.flush()


def _system_pair(trial, dims_table):
    dims = dims_table[trial % len(dims_table)]
    model = generate_system(derive_seed(SEED, 0, trial), dims, 4.0)
    op = generate_weighting(derive_seed(SEED, 1, trial), dims)
    return model, op


def _padded(values, n):
    out = np.zeros(n)
    k = min(n, len(values))
    out[:k] = values[:k]
    return out


def _trace_spectra(model, op):
    lam_h = _padded(whiten_channel(model).eigenvalues, model.n_streams)
    lam_w = _padded(ordered_svd(op.weights[0]).s ** 2, model.n_streams)
    return lam_w, lam_h


def _theta_spectra(model, op):
    lam_h = _padded(whiten_channel(model).eigenvalues, model.n_streams)
    w = op.weights[0]
    theta = w @ np.linalg.solve(op.offset, w.conj().T)
    lam_t = _padded(np.clip(ordered_evd(theta).values, 0.0, None), model.n_streams)
    return lam_t, lam_h


def test_criterion_01_lmmse_dominance():
    t0 = time.perf_counter()
    checks = 0
    violations = 0
    for trial in range(200):
        model, _ = _system_pair(trial, DIMS_LE4)
        gen = np.random.default_rng(trial)
        f = helpers.boundary_precoder(gen, model.n_tx, model.n_streams, model.power)
        best = mse_matrix(model, lmmse_equalizer(model, f), f)
        for _ in range(100):
            g = helpers.crandn(gen, model.n_streams, model.n_rx)
            checks += 1
            if not loewner_leq(best, mse_matrix(model, g, f), 1e-8):
                violations += 1
    dt = time.perf_counter() - t0
    _report(
        "criterion 01 lmmse dominance",
        violations == 0 and dt < 60,
        f"{violations} violations in {checks} ordered pairs, {dt:.1f}s",
    )
    assert violations == 0
    assert dt < 60


def test_criterion_02_two_route_mse_consistency():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        model, _ = _system_pair(trial, DIMS_LE4)
        gen = np.random.default_rng(1000 + trial)
        f = helpers.boundary_precoder(gen, model.n_tx, model.n_streams, model.power)
        direct = mse_lmmse(model, f)
        explicit = mse_matrix(model, lmmse_equalizer(model, f), f)
        worst = max(worst, helpers.rel_err(direct, explicit))
    dt = time.perf_counter() - t0
    _report(
        "criterion 02 two-route mse consistency",
        worst <= 1e-10 and dt < 60,
        f"max rel discrepancy {worst:.2e} over 200 instances, {dt:.1f}s",
    )
    assert worst <= 1e-10
    assert dt < 60


def test_criterion_03_matrix_inequalities():
    t0 = time.perf_counter()
    gen = np.random.default_rng(SEED)
    hold_failures = 0
    for _ in range(1000):
        n = int(gen.integers(2, 5))
        a = helpers.random_psd(gen, n)
        b = helpers.random_psd(gen, n)
        if not trace_product_lower_bound(a, b)[1]:
            hold_failures += 1
        if not det_sum_lower_bound(a, b)[1]:
            hold_failures += 1
    worst_eq = 0.0
    for _ in range(100):
        n = int(gen.integers(2, 5))
        a = helpers.random_psd(gen, n)
        u = ordered_evd(a).vectors
        lam = gen.uniform(0.1, 2.0, size=n)
        b_rev = u @ np.diag(np.sort(lam)) @ u.conj().T  # increasing vs decreasing
        bound, _ = trace_product_lower_bound(a, b_rev)
        tr = np.trace(a @ b_rev).real
        worst_eq = max(worst_eq, abs(bound - tr) / max(1.0, abs(tr)))
        b_ali = u @ np.diag(np.sort(lam)[::-1]) @ u.conj().T  # both decreasing
        bound2, _ = det_sum_lower_bound(a, b_ali)
        det = np.linalg.det(a + b_ali).real
        worst_eq = max(worst_eq, abs(bound2 - det) / max(1.0, abs(det)))
    dt = time.perf_counter() - t0
    _report(
        "criterion 03 trace/determinant inequalities",
        hold_failures == 0 and worst_eq <= 1e-9 and dt < 60,
        f"{hold_failures} bound violations in 1000 pairs, equality error {worst_eq:.2e}, {dt:.1f}s",
    )
    assert hold_failures == 0
    assert worst_eq <= 1e-9
    assert dt < 60


def test_criterion_04_trace_design_optimality():
    t0 = time.perf_counter()
    worst_gap = np.inf
    for trial in range(50):
        model, op = _system_pair(trial, DIMS_LE3)
        design = design_trace_min(model, op)
        oracle = random_search_oracle(
            trace_problem(model, op), budget=10000, seed=trial, refinements=100
        )
        worst_gap = min(worst_gap, oracle - design.objective_value)
    dt = time.perf_counter() - t0
    _report(
        "criterion 04 trace design optimality",
        worst_gap >= -1e-6 and dt < 60,
        f"min oracle gap {worst_gap:.2e} over 50 instances, {dt:.1f}s",
    )
    assert worst_gap >= -1e-6
    assert dt < 60


def test_criterion_05_logdet_design_optimality():
    t0 = time.perf_counter()
    worst_gap = np.inf
    for trial in range(50):
        model, op = _system_pair(trial, DIMS_LE3)
        design = design_det_min(model, op)
        oracle = random_search_oracle(
            logdet_problem(model, op), budget=10000, seed=trial, refinements=100
        )
        worst_gap = min(worst_gap, oracle - design.objective_value)
    dt = time.perf_counter() - t0
    _report(
        "criterion 05 log-det design optimality",
        worst_gap >= -1e-6 and dt < 60,
        f"min oracle gap {worst_gap:.2e} over 50 instances, {dt:.1f}s",
    )
    assert worst_gap >= -1e-6
    assert dt < 60


def test_criterion_06_rotation_necessity():
    t0 = time.perf_counter()
    worst_improvement = 0.0
    for trial in range(50):
        model, op = _system_pair(trial, DIMS_LE3)
        gen = np.random.default_rng(2000 + trial)
        d_tr = design_trace_min(model, op)
        d_ld = design_det_min(model, op)
        lam_tr = np.zeros((model.n_tx, model.n_streams))
        lam_ld = np.zeros((model.n_tx, model.n_streams))
        for j in range(d_tr.gains.size):
            lam_tr[j, j] = d_tr.gains[j]
            lam_ld[j, j] = d_ld.gains[j]
        for _ in range(100):
            q = helpers.haar_unitary(gen, model.n_streams)
            f_tr = d_tr.channel_basis @ lam_tr @ q.conj().T
            alt_tr = np.trace(weighted_mse_of_precoder(op, model, f_tr)).real
            worst_improvement = max(worst_improvement, d_tr.objective_value - alt_tr)
            f_ld = d_ld.channel_basis @ lam_ld @ q.conj().T
            alt_ld = logdet_pd(weighted_mse_of_precoder(op, model, f_ld))
            worst_improvement = max(worst_improvement, d_ld.objective_value - alt_ld)
    dt = time.perf_counter() - t0
    _report(
        "criterion 06 rotation necessity",
        worst_improvement <= 1e-9 and dt < 60,
        f"best random-rotation improvement {worst_improvement:.2e} over 50x100x2 trials, {dt:.1f}s",
    )
    assert worst_improvement <= 1e-9
    assert dt < 60


def test_criterion_07_scalarization_consistency():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        model, op = _system_pair(trial, DIMS_LE3)
        d_tr = design_trace_min(model, op)
        lam_w, lam_h = _trace_spectra(model, op)
        x = _padded(d_tr.gains**2, model.n_streams)
        scalar_tr = np.sum(lam_w / (1.0 + lam_h * x)) + np.trace(op.offset).real
        mat_tr = np.trace(weighted_mse_of_precoder(op, model, d_tr.precoder)).real
        worst = max(worst, abs(scalar_tr - mat_tr) / max(1.0, abs(mat_tr)))

        d_ld = design_det_min(model, op)
        lam_t, lam_h2 = _theta_spectra(model, op)
        x2 = _padded(d_ld.gains**2, model.n_streams)
        scalar_ld = logdet_pd(op.offset) + np.sum(np.log(lam_t / (lam_h2 * x2 + 1.0) + 1.0))
        mat_ld = logdet_pd(weighted_mse_of_precoder(op, model, d_ld.precoder))
        worst = max(worst, abs(scalar_ld - mat_ld) / max(1.0, abs(mat_ld)))
    dt = time.perf_counter() - t0
    _report(
        "criterion 07 scalarization consistency",
        worst <= 1e-8 and dt < 60,
        f"max scalar-vs-matrix relative error {worst:.2e} over 50 instances, {dt:.1f}s",
    )
    assert worst <= 1e-8
    assert dt < 60


def test_criterion_08_classical_embedding():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        dims = DIMS_LE3[trial % len(DIMS_LE3)]
        model = generate_system(derive_seed(SEED, 2, trial), dims, 4.0)
        d = design_trace_min(model, from_classical_weights(np.ones(model.n_streams)))
        want = helpers.sum_mse_waterfill_reference(
            whiten_channel(model).eigenvalues, model.n_streams, model.power
        )
        worst = max(worst, abs(d.objective_value - want) / max(1.0, abs(want)))
    dt = time.perf_counter() - t0
    _report(
        "criterion 08 classical sum-mse embedding",
        worst <= 1e-8 and dt < 60,
        f"max deviation from closed-form water-filling {worst:.2e} over 50 instances, {dt:.1f}s",
    )
    assert worst <= 1e-8
    assert dt < 60


def test_criterion_09_relay_equivalence():
    t0 = time.perf_counter()
    worst_route = 0.0
    worst_end = 0.0
    for trial in range(200):
        dims = DIMS_LE4[trial % len(DIMS_LE4)]
        m = generate_relay(derive_seed(SEED, 3, trial), dims, 4.0)
        gen = np.random.default_rng(3000 + trial)
        pm = helpers.crandn(gen, m.n_relay_tx, m.n_relay_rx)
        pm = pm * np.sqrt(m.power / relay_transmit_power(m, pm))
        chain = relay_weighted_mse(m, pm)
        sysm, op = relay_to_weighted(m)
        mapped = weighted_mse_of_precoder(op, sysm, forwarding_to_precoder(m, pm))
        worst_route = max(worst_route, helpers.rel_err(chain, mapped))
        worst_end = max(worst_end, helpers.rel_err(chain, helpers.end_to_end_error_cov(m, pm)))
    dt = time.perf_counter() - t0
    _report(
        "criterion 09 relay weighting equivalence",
        worst_route <= 1e-9 and worst_end <= 1e-9 and dt < 60,
        f"max mapped-route discrepancy {worst_route:.2e}, max end-to-end discrepancy {worst_end:.2e}, {dt:.1f}s",
    )
    assert worst_route <= 1e-9
    assert worst_end <= 1e-9
    assert dt < 60


def test_criterion_10_relay_objective_identities():
    t0 = time.perf_counter()
    worst_cap = 0.0
    worst_pow = 0.0
    for trial in range(200):
        dims = DIMS_LE4[trial % len(DIMS_LE4)]
        m = generate_relay(derive_seed(SEED, 4, trial), dims, 4.0)
        gen = np.random.default_rng(4000 + trial)
        pm = helpers.crandn(gen, m.n_relay_tx, m.n_relay_rx)
        pm = pm * np.sqrt(m.power / relay_transmit_power(m, pm))
        # error-covariance route vs direct mutual-information form
        cap = relay_capacity(m, pm)
        a = m.channel2 @ pm @ m.channel1
        s_sig = a @ m.source_cov @ a.conj().T
        s_noise = (
            m.channel2 @ pm @ m.noise1_cov @ pm.conj().T @ m.channel2.conj().T + m.noise2_cov
        )
        mi = np.linalg.slogdet(np.linalg.solve(s_noise, s_sig) + np.eye(m.n_dst))[1]
        worst_cap = max(worst_cap, abs(cap - mi) / max(1.0, abs(cap)))
        # power carried by the forwarding matrix equals precoder power
        f = helpers.crandn(gen, m.n_relay_tx, m.n_relay_rx)
        pf = transmit_power(f)
        pr = relay_transmit_power(m, precoder_to_forwarding(m, f))
        worst_pow = max(worst_pow, abs(pf - pr) / max(1.0, pf))
    dt = time.perf_counter() - t0
    _report(
        "criterion 10 relay objective identities",
        worst_cap <= 1e-9 and worst_pow <= 1e-9 and dt < 60,
        f"max capacity-route discrepancy {worst_cap:.2e}, max power-map discrepancy {worst_pow:.2e}, {dt:.1f}s",
    )
    assert worst_cap <= 1e-9
    assert worst_pow <= 1e-9
    assert dt < 60


def test_criterion_11_relay_design_optimality():
    t0 = time.perf_counter()
    worst_gap = np.inf
    for trial in range(20):
        m = generate_relay(derive_seed(SEED, 5, trial), (2, 2, 2, 2), 4.0)
        _, obj, _ = design_relay_sum_mse(m)
        oracle = random_search_oracle(
            relay_mse_problem(m), budget=10000, seed=trial, refinements=100
        )
        worst_gap = min(worst_gap, oracle - obj)
        _, cap, _ = design_relay_capacity(m)
        oracle_ld = random_search_oracle(
            relay_logdet_problem(m), budget=10000, seed=trial, refinements=100
        )
        cap_oracle = logdet_pd(m.source_cov) - oracle_ld
        worst_gap = min(worst_gap, cap - cap_oracle)
    # scalar chains against a dense one-dimensional scan
    worst_grid = 0.0
    for trial in range(10):
        m = generate_relay(derive_seed(SEED, 6, trial), (1, 1, 1, 1), 3.0)
        c1 = m.c1[0, 0].real
        p2 = np.append(np.arange(0.0, 3.0 / c1, 1e-4), 3.0 / c1)
        h1s = abs(m.channel1[0, 0]) ** 2
        h2s = abs(m.channel2[0, 0]) ** 2
        rs = m.source_cov[0, 0].real
        t = h2s * p2
        psi = rs - rs**2 * h1s * t / (t * c1 + m.noise2_cov[0, 0].real)
        _, obj, _ = design_relay_sum_mse(m)
        worst_grid = max(worst_grid, obj - float(np.min(psi)))
        _, cap, _ = design_relay_capacity(m)
        worst_grid = max(worst_grid, float(np.max(np.log(rs) - np.log(psi))) - cap)
    dt = time.perf_counter() - t0
    _report(
        "criterion 11 relay design optimality",
        worst_gap >= -1e-6 and worst_grid <= 1e-6 and dt < 60,
        f"min oracle gap {worst_gap:.2e} over 2x20 instances, scalar grid excess {worst_grid:.2e}, {dt:.1f}s",
    )
    assert worst_gap >= -1e-6
    assert worst_grid <= 1e-6
    assert dt < 60


def test_criterion_12_kkt_residuals():
    t0 = time.perf_counter()
    worst_res = 0.0
    worst_pow = 0.0

    def note(design, spectra, kind, power):
        nonlocal worst_res, worst_pow
        a, b = spectra
        # the spectra the design reports are the ones derived here independently
        assert np.array_equal(design.weight_eigs, a)
        assert np.array_equal(design.channel_eigs, b)
        n = design.gains.size
        x = design.gains**2
        if kind == "trace":
            res = trace_kkt_residual(a[:n], b[:n], x, design.multiplier)
        else:
            res = logdet_kkt_residual(a[:n], b[:n], x, design.multiplier)
        worst_res = max(worst_res, res)
        if np.any(a[:n] * b[:n] > 0):
            worst_pow = max(worst_pow, abs(np.sum(x) - power) / power)

    for trial in range(50):
        model, op = _system_pair(trial, DIMS_LE3)
        note(design_trace_min(model, op), _trace_spectra(model, op), "trace", model.power)
        note(design_det_min(model, op), _theta_spectra(model, op), "logdet", model.power)
    # fewer transmit antennas than streams, more streams than outputs, and a
    # singular offset regularized by jitter_pi
    for trial in range(10):
        model, op = _system_pair(trial, [(1, 2, 2, 2), (2, 2, 3, 2)])
        note(design_trace_min(model, op), _trace_spectra(model, op), "trace", model.power)
        note(design_det_min(model, op), _theta_spectra(model, op), "logdet", model.power)
        m = op.offset.shape[0]
        singular = WeightingOperator(weights=op.weights, offset=np.diag([1.0] + [0.0] * (m - 1)))
        d = design_det_min(model, singular, jitter_pi=True)
        assert not np.array_equal(d.offset, singular.offset)
        jittered = WeightingOperator(weights=op.weights, offset=d.offset)
        note(d, _theta_spectra(model, jittered), "logdet", model.power)
    for trial in range(20):
        m = generate_relay(derive_seed(SEED, 5, trial), (2, 2, 2, 2), 4.0)
        sysm, op = relay_to_weighted(m)
        _, _, d_mse = design_relay_sum_mse(m)
        note(d_mse, _trace_spectra(sysm, op), "trace", m.power)
        _, _, d_cap = design_relay_capacity(m)
        note(d_cap, _theta_spectra(sysm, op), "logdet", m.power)
    dt = time.perf_counter() - t0
    _report(
        "criterion 12 water-filling kkt residuals",
        worst_res <= 1e-8 and worst_pow <= 1e-9 and dt < 60,
        f"max stationarity residual {worst_res:.2e}, max power residual {worst_pow:.2e}, {dt:.1f}s",
    )
    assert worst_res <= 1e-8
    assert worst_pow <= 1e-9
    assert dt < 60
