"""Seeded experiment instances and JSON (de)serialization of matrices.

Dimension quadruples are (n_tx, n_rx, n_streams, m).  A point-to-point
instance uses an n_rx x n_tx channel; the relay reading of the same
quadruple is: second hop n_rx x n_tx, first hop n_streams x m, so the
equivalent weighted model has the same shapes as the point-to-point case.

Draw order is fixed so seeds reproduce across implementations:
  system  : H (n_rx x n_tx), then B (n_rx x n_rx) with R_n = B^H B + 0.1 I
  weighting: W (n_streams x m), then B (m x m) with Pi = B^H B + 0.1 I
  relay   : H1 (n_streams x m), H2 (n_rx x n_tx), then B_s (m x m),
            B_1 (n_streams x n_streams), B_2 (n_rx x n_rx) for
            R_s, R_n1, R_n2, each B^H B + 0.1 I
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, InvalidMatrix, NotPD, NotPSD, ShapeError
from .mimo import SystemModel
from .relay import RelayModel
from .rng import SplitMix64
from .spectral import hermitize, symmetrize
from .weighting import WeightingOperator

# minimum eigenvalue of every generated covariance
_COV_RIDGE = 0.1


def _pd_cov(stream: SplitMix64, n: int) -> np.ndarray:
    b = stream.complex_normal(n, n)
    return symmetrize(b.conj().T @ b + _COV_RIDGE * np.eye(n))


def is_integer(value) -> bool:
    """True for an integer or an integral float; False for a bool, a string or 2.7."""
    if isinstance(value, (int, np.integer)):
        return not isinstance(value, bool)
    return isinstance(value, float) and value.is_integer()


def check_dims(dims) -> tuple[int, int, int, int]:
    """The quadruple (n_tx, n_rx, n_streams, m) as ints; ConfigError unless four positive integers."""
    try:
        t = tuple(dims)
    except TypeError:
        t = ()
    if len(t) != 4 or not all(map(is_integer, t)) or min(t) < 1:
        raise ConfigError(f"dims: expected four positive integers, got {dims!r}")
    return tuple(map(int, t))


def generate_system(seed: int, dims, power: float) -> SystemModel:
    """Deterministic point-to-point instance for (seed, dims, power)."""
    n_tx, n_rx, n_streams, _ = check_dims(dims)
    stream = SplitMix64(seed)
    h = stream.complex_normal(n_rx, n_tx)
    r_n = _pd_cov(stream, n_rx)
    return SystemModel(channel=h, noise_cov=r_n, n_streams=n_streams, power=power)


def generate_weighting(seed: int, dims) -> WeightingOperator:
    """Deterministic single-factor weighting operator with a PD offset."""
    _, _, n_streams, m = check_dims(dims)
    stream = SplitMix64(seed)
    w = stream.complex_normal(n_streams, m)
    pi = _pd_cov(stream, m)
    return WeightingOperator(weights=(w,), offset=pi)


def generate_relay(seed: int, dims, power: float) -> RelayModel:
    """Deterministic two-hop relay instance for (seed, dims, power)."""
    n_tx, n_rx, n_streams, m = check_dims(dims)
    stream = SplitMix64(seed)
    h1 = stream.complex_normal(n_streams, m)
    h2 = stream.complex_normal(n_rx, n_tx)
    r_s = _pd_cov(stream, m)
    r_n1 = _pd_cov(stream, n_streams)
    r_n2 = _pd_cov(stream, n_rx)
    return RelayModel(
        channel1=h1, channel2=h2, source_cov=r_s, noise1_cov=r_n1, noise2_cov=r_n2, power=power
    )


def generate_instance(seed: int, dims, power: float, kind: str = "system"):
    """Dispatching helper: kind is "system" or "relay"."""
    if kind == "system":
        return generate_system(seed, dims, power)
    if kind == "relay":
        return generate_relay(seed, dims, power)
    raise ConfigError(f"unknown instance kind {kind!r}")


# ---------------------------------------------------------------------------
# JSON matrix representation: nested lists of [re, im] pairs


def matrix_to_json(a) -> list:
    m = np.asarray(a, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(obj, field: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{field}: expected a nonempty list of rows")
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise ConfigError(f"{field}[{i}]: expected a nonempty row list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ConfigError(f"{field}[{i}]: ragged row (expected {width} entries)")
        vals = []
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, (list, tuple))
                or len(cell) != 2
                # bool is an int subclass, but JSON true/false is no number
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in cell)
            ):
                raise ConfigError(f"{field}[{i}][{j}]: expected an [re, im] pair")
            vals.append(complex(float(cell[0]), float(cell[1])))
        rows.append(vals)
    m = np.asarray(rows, dtype=np.complex128)
    if not np.all(np.isfinite(m)):
        raise ConfigError(f"{field}: entries must be finite")
    return m


def _hermitian_from_json(obj, key: str) -> np.ndarray:
    """Square Hermitian matrix field `key` of an instance object."""
    try:
        return hermitize(matrix_from_json(obj[key], f"instance.{key}"))
    except InvalidMatrix as exc:
        raise ConfigError(f"instance.{key}: {exc}") from None


def _model_from_json(make, **fields):
    """Build a model from parsed instance fields; a model the fields cannot
    make is a configuration error, and the model's message names the field."""
    try:
        return make(**fields)
    except (ShapeError, NotPD, NotPSD) as exc:
        raise ConfigError(f"instance: {exc}") from None


def _instance_fields(obj, required: tuple, optional: tuple = ()) -> None:
    """ConfigError unless obj is an object with every required field and no
    field outside required + optional; a missing field is named first."""
    if not isinstance(obj, dict):
        raise ConfigError("instance: expected an object")
    allowed = required + optional
    for key in (*required, *obj):
        if key not in obj:
            raise ConfigError(f"instance.{key}: missing")
        if key not in allowed:
            raise ConfigError(f"instance.{key}: unknown field, expected one of {', '.join(allowed)}")


def system_from_json(obj, power: float) -> SystemModel:
    """Build a SystemModel from config fields H, R_n (+ optional n_streams);
    the point instance may also carry the weighting's W and Pi."""
    _instance_fields(obj, ("H", "R_n"), ("n_streams", "W", "Pi"))
    h = matrix_from_json(obj["H"], "instance.H")
    r_n = _hermitian_from_json(obj, "R_n")
    streams = obj.get("n_streams")
    if streams is None:
        streams = h.shape[1]
    if not is_integer(streams) or streams < 1:
        raise ConfigError(f"instance.n_streams: expected a positive integer, got {streams!r}")
    return _model_from_json(SystemModel, channel=h, noise_cov=r_n, n_streams=int(streams), power=power)


def weighting_from_json(obj) -> WeightingOperator:
    """Build a WeightingOperator from config fields W (matrix or list) and Pi."""
    if not isinstance(obj, dict) or "W" not in obj or "Pi" not in obj:
        raise ConfigError("instance weighting: need W and Pi")
    w_obj = obj["W"]
    if isinstance(w_obj, list) and w_obj and isinstance(w_obj[0], list) and w_obj[0] and isinstance(w_obj[0][0], list) and w_obj[0][0] and isinstance(w_obj[0][0][0], list):
        weights = tuple(
            matrix_from_json(wk, f"instance.W[{i}]") for i, wk in enumerate(w_obj)
        )
    else:
        weights = (matrix_from_json(w_obj, "instance.W"),)
    pi = _hermitian_from_json(obj, "Pi")
    return _model_from_json(WeightingOperator, weights=weights, offset=pi)


def relay_from_json(obj, power: float) -> RelayModel:
    """Build a RelayModel from config fields H1, H2, R_s, R_n1, R_n2."""
    keys = ("H1", "H2", "R_s", "R_n1", "R_n2")
    _instance_fields(obj, keys)
    mats = {}
    for key in keys:
        if key.startswith("H"):
            mats[key] = matrix_from_json(obj[key], f"instance.{key}")
        else:
            mats[key] = _hermitian_from_json(obj, key)
    return _model_from_json(
        RelayModel,
        channel1=mats["H1"],
        channel2=mats["H2"],
        source_cov=mats["R_s"],
        noise1_cov=mats["R_n1"],
        noise2_cov=mats["R_n2"],
        power=power,
    )
