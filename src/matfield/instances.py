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
Each instance is one complex_normal draw of all its entries, sliced row-major
into the matrices in this order: the same stream as one draw per matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, InvalidMatrix, NotPD, NotPSD, ShapeError
from .mimo import SystemModel, as_float, is_integer, is_real
from .relay import RelayModel
from .rng import SplitMix64
from .spectral import symmetrize
from .weighting import WeightingOperator

# minimum eigenvalue of every generated covariance
_COV_RIDGE = 0.1


def _draw(seed: int, *shapes) -> list:
    """Matrices of the given shapes, in order, from one draw of the seed's stream."""
    flat = SplitMix64(seed).complex_normal(1, sum(r * c for r, c in shapes))[0]
    out, at = [], 0
    for r, c in shapes:
        out.append(flat[at : at + r * c].reshape(r, c))
        at += r * c
    return out


def _pd_cov(b: np.ndarray) -> np.ndarray:
    return symmetrize(b.conj().T @ b + _COV_RIDGE * np.eye(b.shape[0]))


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
    h, b = _draw(seed, (n_rx, n_tx), (n_rx, n_rx))
    return SystemModel(channel=h, noise_cov=_pd_cov(b), n_streams=n_streams, power=power)


def generate_weighting(seed: int, dims) -> WeightingOperator:
    """Deterministic single-factor weighting operator with a PD offset."""
    _, _, n_streams, m = check_dims(dims)
    w, b = _draw(seed, (n_streams, m), (m, m))
    return WeightingOperator(weights=(w,), offset=_pd_cov(b))


def generate_relay(seed: int, dims, power: float) -> RelayModel:
    """Deterministic two-hop relay instance for (seed, dims, power)."""
    n_tx, n_rx, n_streams, m = check_dims(dims)
    h1, h2, b_s, b_1, b_2 = _draw(seed, (n_streams, m), (n_rx, n_tx), (m, m),
                                  (n_streams, n_streams), (n_rx, n_rx))
    return RelayModel(channel1=h1, channel2=h2, source_cov=_pd_cov(b_s), noise1_cov=_pd_cov(b_1),
                      noise2_cov=_pd_cov(b_2), power=power)


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
                or not all(is_real(x) for x in cell)
            ):
                raise ConfigError(f"{field}[{i}][{j}]: expected an [re, im] pair")
            vals.append(complex(as_float(cell[0]), as_float(cell[1])))
        rows.append(vals)
    m = np.asarray(rows, dtype=np.complex128)
    if not np.all(np.isfinite(m)):
        raise ConfigError(f"{field}: entries must be finite")
    return m


def _model_from_json(make, **fields):
    """Build a model from parsed instance fields; a model the fields cannot
    make is a configuration error, and the model's message names the field."""
    try:
        return make(**fields)
    except (InvalidMatrix, ShapeError, NotPD, NotPSD) as exc:
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
    r_n = matrix_from_json(obj["R_n"], "instance.R_n")
    streams = obj.get("n_streams")
    if streams is None:
        streams = h.shape[1]
    if not is_integer(streams) or streams < 1:
        raise ConfigError(f"instance.n_streams: expected a positive integer, got {streams!r}")
    return _model_from_json(SystemModel, channel=h, noise_cov=r_n, n_streams=int(streams), power=power)


def weighting_from_json(obj) -> WeightingOperator:
    """Build a WeightingOperator from config fields W (matrix or list) and Pi, which come together;
    the point instance may also carry the system's H, R_n and n_streams."""
    _instance_fields(obj, ("W", "Pi"), ("H", "R_n", "n_streams"))
    w_obj = first = obj["W"]
    depth = 0  # lists nested along the first entries: 3 for a matrix, 4 for a list of them
    while isinstance(first, list) and depth < 4:
        first, depth = (first[0] if first else None), depth + 1
    if depth == 4:
        weights = tuple(matrix_from_json(wk, f"instance.W[{i}]") for i, wk in enumerate(w_obj))
    else:
        weights = (matrix_from_json(w_obj, "instance.W"),)
    pi = matrix_from_json(obj["Pi"], "instance.Pi")
    return _model_from_json(WeightingOperator, weights=weights, offset=pi)


def relay_from_json(obj, power: float) -> RelayModel:
    """Build a RelayModel from config fields H1, H2, R_s, R_n1, R_n2."""
    keys = ("H1", "H2", "R_s", "R_n1", "R_n2")
    _instance_fields(obj, keys)
    h1, h2, r_s, r_n1, r_n2 = (matrix_from_json(obj[key], f"instance.{key}") for key in keys)
    return _model_from_json(RelayModel, channel1=h1, channel2=h2, source_cov=r_s,
                            noise1_cov=r_n1, noise2_cov=r_n2, power=power)
