"""Matrix-field weighted-MSE models for MIMO transceiver design.

The package covers the full pipeline: deterministic spectral kernels, the
point-to-point MIMO error-covariance model, matrix-field weighting
operators, structured trace/log-det precoder designs via scalar
water-filling, the amplify-and-forward relay equivalence, and a seeded
experiment harness with a random-search optimality oracle.
"""

from ._version import __version__
from .baselines import (
    SearchProblem,
    logdet_problem,
    projected_gradient_descent,
    random_search_oracle,
    relay_logdet_problem,
    relay_mse_problem,
    trace_problem,
)
from .design import (
    PrecoderDesign,
    WhitenedChannel,
    assemble_precoder,
    design_det_min,
    design_trace_min,
    det_sum_lower_bound,
    logdet_kkt_residual,
    trace_kkt_residual,
    trace_product_lower_bound,
    waterfill_logdet,
    waterfill_trace,
    whiten_channel,
)
from .errors import (
    ConfigError,
    InvalidMatrix,
    InvalidWeight,
    MatfieldError,
    NotPD,
    NotPSD,
    NumericalError,
    PreconditionError,
    ShapeError,
    Unsupported,
)
from .experiments import DEFAULT_TOLERANCES, ExperimentConfig, build_config, run
from .instances import (
    generate_relay,
    generate_system,
    generate_weighting,
    matrix_from_json,
    matrix_to_json,
)
from .mimo import (
    SystemModel,
    classical_weighted_mse,
    lmmse_equalizer,
    mse_lmmse,
    mse_matrix,
    transmit_power,
)
from .relay import (
    RelayModel,
    design_relay_capacity,
    design_relay_sum_mse,
    forwarding_to_precoder,
    precoder_to_forwarding,
    relay_capacity,
    relay_capacity_routes,
    relay_to_weighted,
    relay_transmit_power,
    relay_weighted_mse,
)
from .rng import SplitMix64, derive_seed
from .spectral import (
    OrderedEVD,
    OrderedSVD,
    hermitize,
    loewner_leq,
    logdet_pd,
    ordered_evd,
    ordered_svd,
    symmetrize,
)
from .weighting import (
    WeightingOperator,
    from_classical_weights,
    weighted_mse_of_precoder,
)

__all__ = [name for name in dir() if not name.startswith("_")]
