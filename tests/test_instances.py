import numpy as np
import pytest

from matfield import ConfigError
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
    with pytest.raises(ConfigError):
        weighting_from_json({"W": w})


def test_relay_from_json():
    eye = matrix_to_json(np.eye(2))
    obj = {"H1": eye, "H2": eye, "R_s": eye, "R_n1": eye, "R_n2": eye}
    r = relay_from_json(obj, 2.0)
    assert r.power == 2.0
    with pytest.raises(ConfigError, match="R_n2"):
        relay_from_json({k: v for k, v in obj.items() if k != "R_n2"}, 2.0)
