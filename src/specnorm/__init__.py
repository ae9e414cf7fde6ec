"""Self-normalized inference for time-varying spectral density operators.

The package estimates time-varying spectral density operators of locally
stationary multivariate time series on sequential sample fractions, evaluates
deviation measures against structural hypotheses (low effective dimension,
separability, block coherence, stationarity), and performs pivotal inference
via self-normalization, so no long-run variance or bandwidth-dependent
nuisance parameter is ever estimated.

Typical flow::

    from specnorm import (IidSpec, simulate, default_bandwidth_plan,
                          estimate_sequential_sdo, tvdfpca_sequential,
                          self_norm_V, mc_quantiles, confidence_interval)

    sample = simulate(IidSpec(T=4096, sigma=np.diag([8., 4., 2., 1.]), seed=1))
    plan = default_bandwidth_plan(T=sample.T)
    sdo = estimate_sequential_sdo(sample, plan)
    path = tvdfpca_sequential(sdo, d=1)
    v = self_norm_V([path]).values[0]
    law = mc_quantiles(path.f_exponent, path.g_exponent)
    ci = confidence_interval(path.point_estimate, v, law, alpha=0.05)
"""

from ._version import __version__
from .errors import ConfigError, DataError, NumericalError, SpecnormError
from .estimator import (
    FLAT_TOP,
    PARZEN,
    BandwidthPlan,
    Kernel,
    SequentialSDO,
    TimeSeriesSample,
    default_bandwidth_plan,
    estimate_sequential_sdo,
    kernel_by_name,
    midpoint_grid,
    sequential_estimate_at,
    stream_sequential_sdo,
)
from .hermitian import (
    ProductStructure,
    frechet_derivative,
    hermitian_part,
    kron_rearrange,
    matrix_sqrt_psd,
    psd_project,
    require_hermitian,
)
from .inference import (
    ALPHA_GRID,
    DEFAULT_QUANTILE_SEED,
    ConfidenceInterval,
    JointTestResult,
    OrderLowerResult,
    OrderSelection,
    OrderStatistic,
    PivotLaw,
    RelevantTestResult,
    SelfNormV,
    confidence_interval,
    estimate_dstar,
    joint_statistic,
    load_pivot_law,
    mc_quantiles,
    mc_quantiles_joint,
    pivot_cache_path,
    quantile_se,
    relevant_test,
    save_pivot_law,
    self_norm_V,
    test_order_lower,
    test_order_upper,
)
from .measures import (
    SCALING_EXPONENTS,
    SequentialFunctional,
    coherence_sequential,
    measure_population,
    stationarity_sequential,
    tvdfpca_sequential,
    tvdpsca_sequential,
)
from .simulate import (
    CoherentPairSpec,
    IidSpec,
    ProcessSpec,
    SeparableSpec,
    TvFar1Spec,
    simulate,
    true_sdo,
)

__all__ = [
    "__version__",
    "SpecnormError",
    "ConfigError",
    "DataError",
    "NumericalError",
    "ProductStructure",
    "hermitian_part",
    "require_hermitian",
    "psd_project",
    "matrix_sqrt_psd",
    "kron_rearrange",
    "frechet_derivative",
    "Kernel",
    "PARZEN",
    "FLAT_TOP",
    "kernel_by_name",
    "BandwidthPlan",
    "default_bandwidth_plan",
    "midpoint_grid",
    "TimeSeriesSample",
    "SequentialSDO",
    "stream_sequential_sdo",
    "estimate_sequential_sdo",
    "sequential_estimate_at",
    "SequentialFunctional",
    "SCALING_EXPONENTS",
    "tvdfpca_sequential",
    "tvdpsca_sequential",
    "coherence_sequential",
    "stationarity_sequential",
    "measure_population",
    "ALPHA_GRID",
    "DEFAULT_QUANTILE_SEED",
    "PivotLaw",
    "mc_quantiles",
    "mc_quantiles_joint",
    "quantile_se",
    "pivot_cache_path",
    "save_pivot_law",
    "load_pivot_law",
    "SelfNormV",
    "self_norm_V",
    "ConfidenceInterval",
    "confidence_interval",
    "RelevantTestResult",
    "relevant_test",
    "OrderStatistic",
    "OrderSelection",
    "estimate_dstar",
    "test_order_upper",
    "OrderLowerResult",
    "test_order_lower",
    "JointTestResult",
    "joint_statistic",
    "IidSpec",
    "TvFar1Spec",
    "SeparableSpec",
    "CoherentPairSpec",
    "ProcessSpec",
    "simulate",
    "true_sdo",
]
