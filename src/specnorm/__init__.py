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
                          self_norm_V, exact_quantiles, confidence_interval)

    sample = simulate(IidSpec(T=4096, sigma=np.diag([8., 4., 2., 1.]), seed=1))
    plan = default_bandwidth_plan(T=sample.T)
    sdo = estimate_sequential_sdo(sample, plan)
    path = tvdfpca_sequential(sdo, d=1)
    v = self_norm_V([path]).values[0]
    law = exact_quantiles(path.f_exponent, path.g_exponent)
    ci = confidence_interval(path.point_estimate, v, law, alpha=0.05)
"""

from . import errors, estimator, hermitian, inference, measures, simulate
from ._version import __version__

# The package exports each library module's own __all__, nothing else.
__all__ = ["__version__"]
for _module in (errors, hermitian, estimator, measures, inference, simulate):
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
    __all__ += _module.__all__
del _module
