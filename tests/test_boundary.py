"""Public entry points check their own inputs; models own what they checked.

Inside the package, the designs pass arrays that are already checked (and
exactly Hermitian) between layers without checking them again.  Each public
function below still checks what a caller hands it, and each model keeps
read-only copies of its arrays, so no caller can change a model after its
constructor checked it.
"""

import numpy as np
import pytest

from matfield import (
    InvalidMatrix,
    PreconditionError,
    RelayModel,
    ShapeError,
    SystemModel,
    WeightingOperator,
    design_det_min,
    generate_relay,
    generate_system,
    generate_weighting,
    logdet_pd,
    mse_lmmse,
    ordered_evd,
    relay_capacity,
    relay_to_weighted,
    relay_weighted_mse,
    waterfill_logdet,
    waterfill_trace,
    weighted_mse_of_precoder,
)
from matfield.spectral import as_matrix, pd_roots

DIMS = (3, 2, 2, 3)
MODEL = generate_system(1, DIMS, 4.0)
OP = generate_weighting(2, DIMS)
RELAY = generate_relay(3, DIMS, 4.0)
ASYMMETRIC = np.array([[1.0, 1.0], [0.0, 1.0]])
NAN = np.array([[1.0, np.nan], [np.nan, 1.0]])
SORTED = np.array([2.0, 1.0])

BAD_INPUTS = {
    "as_matrix-nan-imag": (lambda: as_matrix(np.array([[1.0, complex(0.0, np.nan)]])), InvalidMatrix),
    "as_matrix-inf-imag": (lambda: as_matrix(np.array([[complex(1.0, np.inf)]])), InvalidMatrix),
    "as_matrix-minus-inf-imag": (lambda: as_matrix(np.array([[complex(1.0, -np.inf)]])), InvalidMatrix),
    "pd_roots-asymmetric": (lambda: pd_roots(ASYMMETRIC), InvalidMatrix),
    "pd_roots-nan": (lambda: pd_roots(NAN), InvalidMatrix),
    "logdet_pd-asymmetric": (lambda: logdet_pd(ASYMMETRIC), InvalidMatrix),
    "logdet_pd-inf-imag": (lambda: logdet_pd(np.array([[1.0, complex(0.0, np.inf)], [0.0, 1.0]])), InvalidMatrix),
    "ordered_evd-nan": (lambda: ordered_evd(NAN), InvalidMatrix),
    "apply-asymmetric": (lambda: OP.apply(ASYMMETRIC), InvalidMatrix),
    "apply-nan": (lambda: OP.apply(NAN), InvalidMatrix),
    "mse_lmmse-shape": (lambda: mse_lmmse(MODEL, np.ones((2, 2))), ShapeError),
    "mse_lmmse-nan": (lambda: mse_lmmse(MODEL, np.full((3, 2), np.nan)), InvalidMatrix),
    "weighted_mse-shape": (lambda: weighted_mse_of_precoder(OP, MODEL, np.ones((2, 2))), ShapeError),
    "weighted_mse-inf": (lambda: weighted_mse_of_precoder(OP, MODEL, np.full((3, 2), np.inf)), InvalidMatrix),
    "relay_weighted_mse-shape": (lambda: relay_weighted_mse(RELAY, np.ones((2, 2))), ShapeError),
    "relay_weighted_mse-inf": (lambda: relay_weighted_mse(RELAY, np.full((3, 2), np.inf)), InvalidMatrix),
    "relay_capacity-shape": (lambda: relay_capacity(RELAY, np.ones((2, 3))), ShapeError),
    "relay_capacity-nan": (lambda: relay_capacity(RELAY, np.full((3, 2), np.nan)), InvalidMatrix),
}
for _name, _solve in (("waterfill_trace", waterfill_trace), ("waterfill_logdet", waterfill_logdet)):
    BAD_INPUTS.update({
        f"{_name}-negative": (lambda s=_solve: s(np.array([1.0, -1.0]), SORTED, 1.0), PreconditionError),
        f"{_name}-nan": (lambda s=_solve: s(SORTED, np.array([np.nan, 1.0]), 1.0), PreconditionError),
        f"{_name}-inf": (lambda s=_solve: s(np.array([np.inf, 1.0]), SORTED, 1.0), PreconditionError),
        f"{_name}-unsorted": (lambda s=_solve: s(SORTED, SORTED[::-1], 1.0), PreconditionError),
        f"{_name}-lengths": (lambda s=_solve: s(SORTED, np.ones(3), 1.0), ShapeError),
        f"{_name}-2d": (lambda s=_solve: s(np.ones((2, 2)), np.ones((2, 2)), 1.0), ShapeError),
    })


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_public_entry_points_still_reject_bad_input(case):
    call, error = BAD_INPUTS[case]
    with pytest.raises(error):
        call()


def _model_arrays():
    """(name, array) of every array a model keeps, derived ones included."""
    sysmodel, relay_op = relay_to_weighted(RELAY)
    singular = WeightingOperator(weights=OP.weights, offset=np.diag([1.0, 1.0, 0.0]))
    jittered = design_det_min(MODEL, singular, jitter_pi=True).offset
    return [
        ("channel", MODEL.channel), ("noise_cov", MODEL.noise_cov),
        ("whitened", MODEL.whitened), ("k_gram", MODEL.k_gram),
        ("weights[0]", OP.weights[0]), ("offset", OP.offset), ("offset_eigs", OP.offset_eigs),
        ("stream_gram", OP.stream_gram),
        ("channel1", RELAY.channel1), ("channel2", RELAY.channel2), ("source_cov", RELAY.source_cov),
        ("noise1_cov", RELAY.noise1_cov), ("noise2_cov", RELAY.noise2_cov), ("c1", RELAY.c1),
        ("s_map", RELAY.s_congruence.factors[0]), ("q_gram", RELAY.q_gram),
        ("c1_inv_root", RELAY.c1_inv_root),
        ("relay channel", sysmodel.channel), ("relay noise_cov", sysmodel.noise_cov),
        ("relay whitened", sysmodel.whitened), ("relay k_gram", sysmodel.k_gram),
        ("relay W", relay_op.weights[0]), ("relay Pi", relay_op.offset),
        ("relay Pi eigs", relay_op.offset_eigs), ("jittered Pi", jittered),
    ]


@pytest.mark.parametrize("index", range(len(_model_arrays())), ids=[n for n, _ in _model_arrays()])
def test_model_arrays_are_read_only(index):
    _, array = _model_arrays()[index]
    with pytest.raises(ValueError, match="read-only"):
        array[(0,) * array.ndim] = 7.0


def test_models_copy_the_callers_arrays():
    h = np.array([[1.0, 0.5], [0.0, 2.0]], dtype=np.complex128)
    r = np.eye(2, dtype=np.complex128)
    w = np.eye(2, dtype=np.complex128)
    callers = (h, r, w)
    before = [a.copy() for a in callers]
    model = SystemModel(channel=h, noise_cov=r, n_streams=2, power=1.0)
    op = WeightingOperator(weights=(w,), offset=r)
    relay = RelayModel(channel1=h, channel2=h, source_cov=r, noise1_cov=r, noise2_cov=r, power=1.0)
    for a in callers:
        assert a.flags.writeable
        a[0, 0] = 9.0
    assert np.array_equal(model.channel, before[0]) and np.array_equal(model.noise_cov, before[1])
    assert np.array_equal(op.weights[0], before[2]) and np.array_equal(op.offset, before[1])
    assert np.array_equal(relay.channel1, before[0]) and np.array_equal(relay.source_cov, before[1])
