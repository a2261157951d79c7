"""Banded vector autoregressions: estimation, bandwidth selection,
autocovariance banding, simulation and forecasting for high-dimensional
time series whose coefficient matrices vanish away from the diagonal."""

__version__ = "0.1.0"

from .autocov import (
    AutocovEstimate,
    BootstrapRisk,
    band,
    bootstrap_select_band,
    bootstrap_select_threshold,
    default_band_width,
    estimate_autocov,
    hard_threshold,
    sample_autocov,
)
from .errors import (
    BandedVarError,
    ConvergenceError,
    DataFormatError,
    NonStationaryError,
    SingularDesignError,
)
from .estimation import (
    FitReport,
    fit_banded_var,
    row_regressor_count,
)
from .forecast import (
    FitSpec,
    ForecastReport,
    deseasonalize,
    predict,
    rolling_evaluation,
)
from .linalg import (
    BandedMatrix,
    band_product,
    frobenius_norm,
    l1_norm,
    linf_norm,
    spectral_norm,
    spectral_radius,
)
from .model import (
    BandedVarModel,
    TimeSeries,
    banded_approximation_gap,
    companion_matrix,
    is_stationary,
    theoretical_autocov_var1,
)
from .rng import substream
from .selection import (
    OrderingScore,
    SelectionTrace,
    joint_bic_select,
    ordering_candidates,
    ordering_score,
    select_bandwidth,
    select_bandwidth_and_order,
)
from .simulate import (
    SimConfig,
    gen_coeff_mixture,
    gen_coeff_uniform,
    gen_sigma_eps_structured,
    simulate_var,
)

__all__ = [name for name in dir() if not name.startswith("_")]
