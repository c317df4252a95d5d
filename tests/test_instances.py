import re

import numpy as np
import pytest

from matfield import ConfigError, RelayModel, SystemModel, WeightingOperator, symmetrize
from matfield.instances import (
    generate_relay,
    generate_system,
    generate_weighting,
    matrix_from_json,
    matrix_to_json,
    relay_from_json,
    system_from_json,
    weighting_from_json,
)
from matfield.rng import SplitMix64

DIMS = (2, 3, 2, 2)


def test_same_seed_bit_identical():
    a = generate_system(99, DIMS, 4.0)
    b = generate_system(99, DIMS, 4.0)
    assert np.array_equal(a.channel, b.channel)
    assert np.array_equal(a.noise_cov, b.noise_cov)
    c = generate_relay(99, DIMS, 4.0)
    d = generate_relay(99, DIMS, 4.0)
    assert np.array_equal(c.channel1, d.channel1)
    assert np.array_equal(c.noise2_cov, d.noise2_cov)


def test_different_seeds_differ():
    a = generate_system(1, DIMS, 4.0)
    b = generate_system(2, DIMS, 4.0)
    assert not np.array_equal(a.channel, b.channel)


def test_covariances_have_ridge():
    for seed in range(50):
        m = generate_system(seed, DIMS, 4.0)
        assert np.min(np.linalg.eigvalsh(m.noise_cov)) >= 0.1 - 1e-12
        op = generate_weighting(seed, DIMS)
        assert np.min(np.linalg.eigvalsh(op.offset)) >= 0.1 - 1e-12


def test_generated_shapes():
    m = generate_system(3, DIMS, 4.0)
    assert m.channel.shape == (3, 2) and m.n_streams == 2
    r = generate_relay(3, DIMS, 4.0)
    assert r.channel1.shape == (2, 2)
    assert r.channel2.shape == (3, 2)
    op = generate_weighting(3, DIMS)
    assert op.weights[0].shape == (2, 2) and op.offset.shape == (2, 2)


def test_instance_sweep_valid():
    # every generated model passes its own construction validation
    for seed in range(1000):
        generate_system(seed, (2, 2, 2, 2), 4.0)
    for seed in range(100):
        generate_relay(seed, (2, 2, 2, 2), 4.0)


def _per_matrix_draws(seed, *shapes):
    # the documented order, one complex_normal call per matrix
    stream = SplitMix64(seed)
    return [stream.complex_normal(rows, cols) for rows, cols in shapes]


def _cov(b):
    return symmetrize(b.conj().T @ b + 0.1 * np.eye(b.shape[0]))


def _bytes(*arrays):
    return [a.tobytes() for a in arrays]


DRAW_DIMS = [(d,) * 4 for d in range(1, 9)] + [
    (1, 8, 3, 5), (8, 1, 5, 3), (2, 7, 4, 6), (7, 2, 6, 4),
    (3, 5, 8, 1), (5, 3, 1, 8), (6, 4, 2, 7), (4, 6, 7, 2),
]


@pytest.mark.parametrize("dims", DRAW_DIMS, ids=lambda d: "x".join(map(str, d)))
def test_one_draw_per_instance_is_the_per_matrix_stream(dims):
    # each generator draws once and slices; the models must be bitwise those
    # built from one complex_normal call per matrix in the docstring's order
    n_tx, n_rx, n_streams, m = dims
    for seed in range(4):
        h, b = _per_matrix_draws(seed, (n_rx, n_tx), (n_rx, n_rx))
        want = SystemModel(channel=h, noise_cov=_cov(b), n_streams=n_streams, power=4.0)
        got = generate_system(seed, dims, 4.0)
        assert _bytes(got.channel, got.noise_cov) == _bytes(want.channel, want.noise_cov)

        w, b = _per_matrix_draws(seed, (n_streams, m), (m, m))
        want = WeightingOperator(weights=(w,), offset=_cov(b))
        got = generate_weighting(seed, dims)
        assert _bytes(got.weights[0], got.offset) == _bytes(want.weights[0], want.offset)

        h1, h2, b_s, b_1, b_2 = _per_matrix_draws(
            seed, (n_streams, m), (n_rx, n_tx), (m, m), (n_streams, n_streams), (n_rx, n_rx)
        )
        want = RelayModel(channel1=h1, channel2=h2, source_cov=_cov(b_s), noise1_cov=_cov(b_1),
                          noise2_cov=_cov(b_2), power=4.0)
        got = generate_relay(seed, dims, 4.0)
        fields = ("channel1", "channel2", "source_cov", "noise1_cov", "noise2_cov", "c1")
        assert _bytes(*(getattr(got, f) for f in fields)) == _bytes(*(getattr(want, f) for f in fields))


def test_bad_dims_rejected():
    with pytest.raises(ConfigError):
        generate_system(0, (2, 2, 2), 4.0)
    with pytest.raises(ConfigError):
        generate_system(0, (2, 2, 0, 2), 4.0)


def test_matrix_json_roundtrip():
    a = (np.arange(6).reshape(2, 3) + 1j * np.arange(6, 12).reshape(2, 3)).astype(complex)
    back = matrix_from_json(matrix_to_json(a), "x")
    assert np.array_equal(a, back)


def test_matrix_json_errors_name_the_field():
    with pytest.raises(ConfigError, match="inst.H"):
        matrix_from_json([], "inst.H")
    with pytest.raises(ConfigError, match=r"x\[1\]"):
        matrix_from_json([[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]], "x")
    with pytest.raises(ConfigError, match=r"x\[0\]\[0\]"):
        matrix_from_json([[[1.0]]], "x")
    with pytest.raises(ConfigError, match=r"x\[0\]\[1\]"):
        matrix_from_json([[[1.0, 0.0], "no"]], "x")


def test_matrix_json_rejects_booleans():
    # bool subclasses int in Python; JSON true/false must not parse as 1/0
    for cell in ([True, False], [1.0, False], [True, 0.0]):
        with pytest.raises(ConfigError, match=r"x\[0\]\[0\]"):
            matrix_from_json([[cell]], "x")


def test_system_from_json():
    obj = {"H": matrix_to_json(np.eye(2)), "R_n": matrix_to_json(np.eye(2))}
    m = system_from_json(obj, 4.0)
    assert m.n_streams == 2 and m.power == 4.0
    m2 = system_from_json({**obj, "n_streams": 1}, 4.0)
    assert m2.n_streams == 1
    with pytest.raises(ConfigError, match="R_n"):
        system_from_json({"H": matrix_to_json(np.eye(2))}, 4.0)


def test_weighting_from_json_single_and_list():
    w = matrix_to_json(np.eye(2))
    pi = matrix_to_json(0.5 * np.eye(2))
    single = weighting_from_json({"W": w, "Pi": pi})
    assert single.k == 1
    multi = weighting_from_json({"W": [w, w], "Pi": pi})
    assert multi.k == 2
    with pytest.raises(ConfigError, match=r"^instance\.Pi: missing"):
        weighting_from_json({"W": w})
    # the system's fields may ride along, as in a point instance; any other is rejected
    weighting_from_json({"W": w, "Pi": pi, "H": w, "R_n": pi, "n_streams": 2})
    with pytest.raises(ConfigError, match=r"^instance\.H1: unknown field"):
        weighting_from_json({"W": w, "Pi": pi, "H1": w})



@pytest.mark.parametrize(
    "w, message",
    [
        ([[]], "instance.W[0]: expected a nonempty row list"),
        ([[[]]], "instance.W[0][0]: expected an [re, im] pair"),
        ([[[[]]]], "instance.W[0][0][0]: expected an [re, im] pair"),
        ([[[[[]]]]], "instance.W[0][0][0]: expected an [re, im] pair"),
    ],
    ids=["empty-row", "matrix-with-empty-cell", "list-of-one-such-matrix", "deeper"],
)
def test_weight_list_is_told_from_a_matrix_by_nesting(w, message):
    # four lists deep along the first entries is a list of matrices, fewer is one matrix
    with pytest.raises(ConfigError, match=re.escape(message)):
        weighting_from_json({"W": w, "Pi": matrix_to_json(np.eye(1))})

def test_relay_from_json():
    eye = matrix_to_json(np.eye(2))
    obj = {"H1": eye, "H2": eye, "R_s": eye, "R_n1": eye, "R_n2": eye}
    r = relay_from_json(obj, 2.0)
    assert r.power == 2.0
    with pytest.raises(ConfigError, match="R_n2"):
        relay_from_json({k: v for k, v in obj.items() if k != "R_n2"}, 2.0)


def test_reading_an_instance_hermitizes_each_covariance_once(monkeypatch):
    import matfield

    model = generate_system(3, DIMS, 4.0)
    op = generate_weighting(4, DIMS)
    relay = generate_relay(5, DIMS, 4.0)
    point = {"H": model.channel, "R_n": model.noise_cov, "W": op.weights[0], "Pi": op.offset}
    relay_obj = {"H1": relay.channel1, "H2": relay.channel2, "R_s": relay.source_cov,
                 "R_n1": relay.noise1_cov, "R_n2": relay.noise2_cov}
    point, relay_obj = ({k: matrix_to_json(v) for k, v in d.items()} for d in (point, relay_obj))
    calls = []
    real = matfield.spectral.hermitize

    def counting(a):
        calls.append(np.shape(a))
        return real(a)

    # patch every module that binds the name, so a reader's own call would count too
    for module in (matfield.spectral, matfield.instances, matfield.mimo, matfield.weighting, matfield.relay):
        if hasattr(module, "hermitize"):
            monkeypatch.setattr(module, "hermitize", counting)
    system_from_json(point, 4.0)
    weighting_from_json(point)
    assert len(calls) == 2
    relay_from_json(relay_obj, 4.0)
    assert len(calls) == 5
