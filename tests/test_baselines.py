import dataclasses

import numpy as np
import pytest

from matfield import baselines, design_relay_sum_mse, design_trace_min, design_det_min
from matfield.instances import generate_relay, generate_system, generate_weighting
from matfield.mimo import lmmse_error, precoder_power, transmit_power
from matfield.relay import (
    forwarding_power,
    relay_chain,
    relay_error,
    relay_trace,
    relay_transmit_power,
    relay_weighted_mse,
)
from matfield.spectral import Congruence, _logdet
from matfield.weighting import weighted_mse_of_precoder
from matfield.baselines import (
    logdet_problem,
    projected_gradient_descent,
    random_search_oracle,
    relay_logdet_problem,
    relay_mse_problem,
    trace_problem,
)

import helpers


def finite_diff_gradient(problem, x, h=1e-6):
    g = np.zeros_like(x, dtype=complex)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            e = np.zeros_like(x)
            e[i, j] = h
            d_re = (
                problem.objective(np.stack([x + e]))[0]
                - problem.objective(np.stack([x - e]))[0]
            ) / (2 * h)
            d_im = (
                problem.objective(np.stack([x + 1j * e]))[0]
                - problem.objective(np.stack([x - 1j * e]))[0]
            ) / (2 * h)
            # objective differential is 2 Re tr(G^H dX)
            g[i, j] = (d_re + 1j * d_im) / 2.0
    return g


# point-to-point (n_tx, n_rx, n_streams, m, weights), relay (n_src, n_relay, n_dst)
CASES = {
    "square": ((2, 2, 2, 2, 1), (2, 2, 2)),
    "non-square": ((3, 4, 2, 3, 2), (2, 3, 4)),
    "scalar": ((1, 1, 1, 1, 1), (1, 1, 1)),
}


def case_models(seed, case):
    (n_tx, n_rx, n_streams, m, k), relay_dims = CASES[case]
    gen = helpers.rng(seed)
    model = helpers.random_system(gen, n_tx, n_rx, n_streams, 4.0)
    op = helpers.random_operator(gen, n_streams=n_streams, m=m, k=k)
    relay = helpers.random_relay(gen, *relay_dims, 4.0)
    return model, op, relay


def all_problems(seed, cases=tuple(CASES)):
    problems = []
    for case in cases:
        m, op, r = case_models(seed, case)
        problems += [trace_problem(m, op), logdet_problem(m, op)]
        problems += [relay_mse_problem(r), relay_logdet_problem(r)]
    return problems


def test_gradients_match_finite_differences():
    gen = helpers.rng(0)
    for problem in all_problems(1):
        x = helpers.crandn(gen, *problem.shape)
        got = problem.gradient(np.stack([x]))[0]
        want = finite_diff_gradient(problem, x)
        assert helpers.rel_err(got, want) < 1e-5


def test_objective_batch_matches_single():
    gen = helpers.rng(2)
    for problem in all_problems(3):
        stack = np.stack([helpers.crandn(gen, *problem.shape) for _ in range(4)])
        batch = problem.objective(stack)
        single = [problem.objective(stack[k : k + 1])[0] for k in range(4)]
        assert np.allclose(batch, single, rtol=1e-12)


def test_oracle_with_planted_optimum_has_zero_gap():
    gen = helpers.rng(4)
    m = helpers.random_system(gen, 2, 2, 2, 4.0)
    op = helpers.random_operator(gen, n_streams=2, m=2)
    d = design_trace_min(m, op)
    problem = trace_problem(m, op)
    # the design precoder, scored through the oracle's objective, is the best candidate
    planted = problem.objective(d.precoder)[0]
    found = min(random_search_oracle(problem, budget=1, seed=0, refinements=0), planted)
    assert abs(found - d.objective_value) < 1e-10 * max(1.0, d.objective_value)


def test_oracle_refinement_cannot_beat_optimum():
    gen = helpers.rng(5)
    m = helpers.random_system(gen, 2, 2, 2, 4.0)
    op = helpers.random_operator(gen, n_streams=2, m=2)
    d = design_det_min(m, op)
    problem = logdet_problem(m, op)
    found = random_search_oracle(problem, budget=500, seed=1, refinements=20)
    assert found >= d.objective_value - 1e-6
    assert found <= d.objective_value + 0.5  # refinement should get close


def test_descent_is_monotone_and_feasible():
    gen = helpers.rng(6)
    for problem in all_problems(7):
        starts = np.stack([helpers.crandn(gen, *problem.shape) for _ in range(5)])
        scale = np.sqrt(problem.power / problem.power_of(starts))
        starts = starts * scale[:, None, None]
        before = problem.objective(starts)
        values, points = projected_gradient_descent(problem, starts, max_iter=100)
        assert np.all(values <= before + 1e-12)
        assert np.all(problem.power_of(points) <= problem.power * (1.0 + 1e-9))


def test_oracle_matches_scalar_closed_form():
    gen = helpers.rng(8)
    m = helpers.random_system(gen, 1, 1, 1, 2.0)
    op = helpers.random_operator(gen, n_streams=1, m=1)
    d = design_trace_min(m, op)
    problem = trace_problem(m, op)
    found = random_search_oracle(problem, budget=200, seed=3, refinements=10)
    assert abs(found - d.objective_value) < 1e-6


def test_relay_oracle_agrees_with_design_value():
    r = helpers.random_relay(helpers.rng(9), 2, 2, 2, 4.0)
    _, obj, _ = design_relay_sum_mse(r)
    found = random_search_oracle(relay_mse_problem(r), budget=1000, seed=4, refinements=20)
    assert found >= obj - 1e-6


def _feasible_starts(problem, gen, count):
    starts = np.stack([helpers.crandn(gen, *problem.shape) for _ in range(count)])
    return starts * np.sqrt(problem.power / problem.power_of(starts))[:, None, None]


@pytest.mark.parametrize("max_iter", [100, 500])
def test_live_set_descent_matches_masked_reference_bitwise(max_iter):
    gen = helpers.rng(10)
    # Bitwise equality needs each row's value to be independent of the batch
    # it is scored in.  numpy multiplies a one-row operand through gemv or dot
    # instead of gemm, which rounds differently for some shapes (the
    # non-square cases); the 2x2 problems keep their bits in a batch of one
    # with the pinned numpy and OpenBLAS, so they are the ones compared.
    for problem in all_problems(11, cases=("square",)):
        # fresh starts plus refined ones, which freeze within max_iter
        _, converged = helpers.masked_pgd_reference(problem, _feasible_starts(problem, gen, 4))
        starts = np.concatenate([_feasible_starts(problem, gen, 8), converged])
        scored = []

        def counting_objective(x, **kwargs):
            scored.append(x.shape[0])
            return problem.objective(x, **kwargs)

        counted = dataclasses.replace(problem, objective=counting_objective)
        values, points = projected_gradient_descent(counted, starts, max_iter=max_iter)
        want_values, want_points = helpers.masked_pgd_reference(problem, starts, max_iter=max_iter)
        assert np.array_equal(values, want_values)
        assert np.array_equal(points, want_points)
        # the first call scores the starts; each later one is an iteration
        iterations = len(scored) - 1
        assert sum(scored[1:]) < iterations * starts.shape[0]


def test_a_settled_start_leaves_the_live_set():
    gen = helpers.rng(21)
    model = helpers.random_system(gen, 2, 2, 2, 4.0)
    op = helpers.random_operator(gen, n_streams=2, m=2)
    problem = trace_problem(model, op)
    optimum = design_trace_min(model, op).precoder
    starts = np.concatenate([optimum[None], _feasible_starts(problem, gen, 4)])
    near_optimum, scored = [], []

    def counting_objective(x, **kwargs):
        # the random starts settle on other points of the optimal set (other
        # column phases), so a row this close to the design is its own start
        dist = np.linalg.norm(x - optimum, axis=(1, 2))
        near_optimum.append(bool(np.any(dist <= 1e-6 * np.linalg.norm(optimum))))
        out = problem.objective(x, **kwargs)
        scored.append(out[0] if kwargs.get("with_state") else out)
        return out

    counted = dataclasses.replace(problem, objective=counting_objective)
    values, _ = projected_gradient_descent(counted, starts)
    # call 0 scores the starts and call k is iteration k; the optimal start's
    # value is flat at once, so it leaves at the second checkpoint
    assert near_optimum[0]
    last_live = max(k for k, hit in enumerate(near_optimum) if hit)
    assert last_live <= 2 * baselines._SETTLE_EVERY
    assert len(scored) > last_live + 1  # the random starts were still descending
    assert np.all(values <= scored[0])


def test_a_zero_move_is_rejected():
    gen = helpers.rng(22)
    problem = trace_problem(helpers.random_system(gen, 2, 2, 2, 4.0), helpers.random_operator(gen, 2, 2))
    # inside the budget the rescale leaves a point as it is, so with a zero
    # gradient every candidate is its own start; the drift below meets the
    # Armijo condition (its slope is 0) and lowers the value, so only the
    # zero-move test rejects it
    starts = 0.5 * _feasible_starts(problem, gen, 4)
    calls = []

    def drifting_objective(x, with_state=False):
        # each re-score of the same point reads one ulp lower, as batch rounding can
        values, state = problem.objective(x, with_state=True)
        for _ in calls:
            values = np.nextafter(values, -np.inf)
        calls.append(x.shape[0])
        return (values, state) if with_state else values

    flat = dataclasses.replace(
        problem, objective=drifting_objective, gradient=lambda x, state=None: np.zeros_like(x)
    )
    values, points = projected_gradient_descent(flat, starts)
    assert len(calls) > 1
    assert np.array_equal(points, starts)
    assert np.array_equal(values, problem.objective(starts))


def _oracle_with_and_without_value_rule(monkeypatch, problems):
    """Oracle values of (problem, seed) pairs with the live-set descent, then
    with the masked reference and no value rule, every start running
    `max_iter` iterations (budget 300, 20 refinements)."""

    def values():
        return np.array([random_search_oracle(p, budget=300, seed=s, refinements=20) for p, s in problems])

    got = values()
    monkeypatch.setattr(
        baselines,
        "projected_gradient_descent",
        lambda problem, starts: helpers.masked_pgd_reference(problem, starts, value_rule=False),
    )
    return got, values()


def test_value_rule_keeps_the_oracle_as_strong(monkeypatch):
    problems = []
    for dims in ((2, 2, 2, 2), (3, 4, 2, 3)):
        for seed in range(10):
            model = generate_system(seed, dims, 4.0)
            op = generate_weighting(seed + 1000, dims)
            relay = generate_relay(seed, dims, 4.0)
            problems += [
                (trace_problem(model, op), seed),
                (logdet_problem(model, op), seed),
                (relay_mse_problem(relay), seed),
                (relay_logdet_problem(relay), seed),
            ]
    got, want = _oracle_with_and_without_value_rule(monkeypatch, problems)
    assert np.all(got - want <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_value_rule_waits_out_a_rejection_streak(monkeypatch):
    # with more streams than transmit antennas at high power, a start still
    # descending can reject several candidates in a row before its next
    # accepted move; the rule judges a start over two checks, so such a
    # streak does not freeze it
    dims = (2, 3, 3, 2)
    problems = [
        (trace_problem(generate_system(seed, dims, 1e6), generate_weighting(seed + 1000, dims)), seed)
        for seed in range(4)
    ]
    got, want = _oracle_with_and_without_value_rule(monkeypatch, problems)
    assert np.all(got - want <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_search_gradient_matches_central_differences():
    gen = helpers.rng(19)
    # the square and non-square cases hold all four families; relay problems
    # carry the power form's Gram M = C1
    problems = all_problems(20, cases=("square", "non-square"))
    assert sum(p.gram is not None for p in problems) == 4
    for problem in problems:
        gram = np.eye(problem.shape[1]) if problem.gram is None else problem.gram

        def on_sphere(v):
            return v * np.sqrt(problem.power / problem.power_of(v))[:, None, None]

        # off the power sphere: f(sqrt(P / p(Y)) Y) does not depend on the scale of Y
        y = 0.7 * _feasible_starts(problem, gen, 3)
        power = problem.power_of(y)
        np.testing.assert_allclose(power, np.sum(np.conj(y) * (y @ gram), axis=(1, 2)).real, rtol=1e-12)
        got = baselines._search_gradient(problem, y, power, problem.gradient(on_sphere(y)))
        scale_free = dataclasses.replace(problem, objective=lambda v: problem.objective(on_sphere(v)))
        for yi, gi in zip(y, got):
            assert helpers.rel_err(gi, finite_diff_gradient(scale_free, yi)) < 1e-5
        # the objective is flat along Y, so the gradient has no radial part
        radial = np.sum(np.conj(got) * y, axis=(1, 2)).real
        assert np.all(np.abs(radial) <= 1e-12 * np.linalg.norm(got, axis=(1, 2)) * np.linalg.norm(y, axis=(1, 2)))


def test_compact_direction_matches_two_loop_recursion():
    # more pairs than the memory holds, so new pairs overwrite the oldest
    gen = helpers.rng(23)
    size, count = 6, 3
    mem = min(size, baselines._MEMORY)
    memory = baselines._Memory.empty(count, mem, size)
    a = gen.standard_normal((count, size, size))
    hessians = a @ a.transpose(0, 2, 1) + np.eye(size)
    pairs = [[] for _ in range(count)]
    for n_pairs in range(1, 2 * mem + 2):
        # one start skips every third pair, so the starts' slots drift apart
        rows = np.array([k for k in range(count) if k != 1 or n_pairs % 3])
        s = gen.standard_normal((rows.size, size))
        y = np.einsum("kij,kj->ki", hessians[rows], s)
        memory.push(rows, s, y, np.vecdot(s, y))
        for i, k in enumerate(rows):
            pairs[k] = (pairs[k] + [(s[i], y[i])])[-mem:]
        g = gen.standard_normal((count, size))
        gamma = gen.uniform(0.5, 2.0, count)
        memory.gamma = gamma
        got = memory.direction(g)
        for k in range(count):
            want = helpers.lbfgs_two_loop_reference(g[k], gamma[k], pairs[k])
            assert helpers.rel_err(got[k], want) < 1e-10, n_pairs


def test_direction_of_a_row_subset_is_the_full_stacks_bitwise():
    # projected_gradient_descent recomputes every live row's direction each
    # iteration, so a row's direction must not depend on the rows beside it
    gen = helpers.rng(29)
    size, count = 8, 7
    mem = min(size, baselines._MEMORY)
    memory = baselines._Memory.empty(count, mem, size, gen.uniform(0.5, 2.0, count))
    a = gen.standard_normal((count, size, size))
    hessians = a @ a.transpose(0, 2, 1) + np.eye(size)
    for n_pairs in range(2 * mem + 3):
        # starts skip pairs at different rates, so their slots drift apart
        rows = np.array([k for k in range(count) if n_pairs % (k % 3 + 1) == 0])
        s = gen.standard_normal((rows.size, size))
        y = np.einsum("kij,kj->ki", hessians[rows], s)
        memory.push(rows, s, y, np.vecdot(s, y))
        g = gen.standard_normal((count, size))
        full = memory.direction(g)
        for subset in (np.array([n_pairs % count]), np.array([0, 3, 6]), np.arange(1, count, 2)):
            assert np.array_equal(memory.take(subset).direction(g[subset]), full[subset]), n_pairs
    assert len(set(memory.slot)) > 1


def test_gradient_from_objective_state_is_exact():
    gen = helpers.rng(12)
    for problem in all_problems(13):
        x = _feasible_starts(problem, gen, 6)
        values, state = problem.objective(x, with_state=True)
        assert np.array_equal(values, problem.objective(x))
        assert np.array_equal(problem.gradient(x, state), problem.gradient(x))
        mask = np.array([True, False, True, True, False, True])
        sliced = tuple(s[mask] for s in state)
        assert np.array_equal(problem.gradient(x[mask], sliced), problem.gradient(x[mask]))


@pytest.mark.parametrize("case", sorted(CASES))
def test_objectives_match_model_layer(case):
    model, op, relay = case_models(14, case)
    gen = helpers.rng(15)
    families = (
        # (error covariance, trace problem, log-det problem, power) of one variable
        (
            lambda f: weighted_mse_of_precoder(op, model, f),
            trace_problem(model, op),
            logdet_problem(model, op),
            transmit_power,
        ),
        (
            lambda p: relay_weighted_mse(relay, p),
            relay_mse_problem(relay),
            relay_logdet_problem(relay),
            lambda p: relay_transmit_power(relay, p),
        ),
    )
    for psi_of, trace_p, logdet_p, power in families:
        x = _feasible_starts(trace_p, gen, 5)
        psis = [psi_of(xi) for xi in x]
        want_trace = [np.real(np.trace(psi)) for psi in psis]
        want_logdet = [np.linalg.slogdet(psi)[1] for psi in psis]
        np.testing.assert_allclose(trace_p.objective(x), want_trace, rtol=1e-12)
        # log det is compared on the scale max(1, |v|), as it may be near 0
        np.testing.assert_allclose(logdet_p.objective(x), want_logdet, rtol=1e-12, atol=1e-12)
        for problem in (trace_p, logdet_p):
            np.testing.assert_allclose(problem.power_of(x), [power(xi) for xi in x], rtol=1e-12)


def assert_stack_matches_members(kernel, stack, rtol=1e-13):
    """kernel(stack) agrees with the kernel on each member alone and as a one-member stack.

    A member alone (a 2-D matrix) takes a kernel's one-matrix path, so the
    congruence's factor products are checked against its Kronecker GEMM.
    """
    whole = kernel(stack)
    whole = whole if isinstance(whole, tuple) else (whole,)
    for i in range(stack.shape[0]):
        for member in (stack[i], stack[i : i + 1]):
            got = kernel(member)
            got = got if isinstance(got, tuple) else (got,)
            for g, w in zip(got, whole, strict=True):
                g = g[0] if member.ndim == 3 else g
                assert np.shape(g) == np.shape(w[i])
                assert helpers.rel_err(g, w[i]) < rtol


def hermitian_stack(gen, n, count=4):
    return np.stack([helpers.random_pd(gen, n) for _ in range(count)])


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_point_kernels_on_a_stack_match_its_members(case, k):
    (n_tx, n_rx, n_streams, m, _), _ = CASES[case]
    gen = helpers.rng(16)
    model = helpers.random_system(gen, n_tx, n_rx, n_streams, 4.0)
    op = helpers.random_operator(gen, n_streams=n_streams, m=m, k=k)
    f = np.stack([helpers.crandn(gen, n_tx, n_streams) for _ in range(4)])
    assert_stack_matches_members(lambda x: lmmse_error(model.k_gram, x), f)
    assert_stack_matches_members(precoder_power, f)
    phi = hermitian_stack(gen, n_streams)
    assert_stack_matches_members(op.psi, phi)
    assert_stack_matches_members(op.psi_trace, phi)
    assert_stack_matches_members(op.adjoint, hermitian_stack(gen, m))


@pytest.mark.parametrize("case", sorted(CASES))
def test_relay_kernels_on_a_stack_match_its_members(case):
    _, relay_dims = CASES[case]
    gen = helpers.rng(17)
    relay = helpers.random_relay(gen, *relay_dims, 4.0)
    p = np.stack([helpers.crandn(gen, relay.n_relay_tx, relay.n_relay_rx) for _ in range(4)])
    assert_stack_matches_members(lambda x: forwarding_power(relay, x), p)
    assert_stack_matches_members(lambda x: relay_chain(relay, x), p)
    assert_stack_matches_members(lambda x: relay_error(relay, *relay_chain(relay, x)), p)
    assert_stack_matches_members(lambda x: relay_trace(relay, *relay_chain(relay, x)), p)
    assert_stack_matches_members(relay.s_congruence.adjoint, hermitian_stack(gen, relay.n_src))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (1, 1), (40, 40)])
def test_congruence_takes_the_kronecker_gemm_only_for_stacks(shape, k):
    gen = helpers.rng(18)
    factors = [helpers.crandn(gen, *shape) for _ in range(k)]
    x = hermitian_stack(gen, shape[0])
    y = hermitian_stack(gen, shape[1])
    single = Congruence(factors)
    for i in range(x.shape[0]):
        # one matrix goes through the factor products, (A^H X) A, bit for bit
        assert np.array_equal(single(x[i]), sum(a.conj().T @ x[i] @ a for a in factors))
        assert np.array_equal(single.adjoint(y[i]), sum(a @ y[i] @ a.conj().T for a in factors))
    # one-matrix calls never build the (rows * cols)^2 matrix of the map
    assert "_vec" not in vars(single)
    stacked = Congruence(factors)
    assert_stack_matches_members(stacked, x)
    assert_stack_matches_members(stacked.adjoint, y)
    # above the crossover a stack goes through the factor products too
    assert ("_vec" in vars(stacked)) == (shape != (40, 40))


@pytest.mark.parametrize("n", [2, 3])
def test_logdet_is_slogdet_where_re_det_is_positive_else_inf(n):
    # the closed form on 2x2 members and slogdet on larger ones follow one
    # rule: log |det| where Re det > 0, +inf elsewhere, with no warning (the
    # suite turns warnings into errors)
    gen = helpers.rng(90 + n)
    psi = np.stack(
        [helpers.random_pd(gen, n), -helpers.random_pd(gen, n), np.zeros((n, n)), np.diag([1.0] + [-1.0] * (n - 1))]
        + [helpers.crandn(gen, n, n) for _ in range(12)]
    ).astype(np.complex128)
    sign, ld = np.linalg.slogdet(psi)
    positive = np.real(sign) > 0.0
    assert positive.any() and not positive.all()
    got = _logdet(psi)
    assert np.array_equal(np.isinf(got), ~positive)
    np.testing.assert_allclose(got[positive], ld[positive], rtol=1e-13, atol=1e-13)
