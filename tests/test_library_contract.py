"""The library's error contract, fuzzed: every public call returns finite numbers or
raises ValueError or a SpecnormError, with its message. It never raises TypeError,
IndexError, LinAlgError, ZeroDivisionError or OverflowError, and never emits a
RuntimeWarning (the suite turns one into an error).

Each case feeds one drawn value into one argument of one public call, the others
valid. Counts are drawn as ints, non-integral and non-finite floats, numpy integers,
bools, None and huge and negative values; reals as floats (NaN and +-inf included),
numpy floats and integers, and non-reals: None, strings, complex numbers, Decimals,
bools, 0-d arrays and integers past the float range; arrays with NaN and infinite
entries and of wrong shapes. A size that passes its check makes an array that large,
so sizes are drawn at most a few thousand, and a spec longer than that is built but
not drawn. Finite entries stay within 1e50: the measures multiply and square spectra,
and an operator with entries past about 1e154 still overflows in them with a
RuntimeWarning (an open item of the numerics at any scale). Each escape this contract
has had is pinned as an example.
"""

import dataclasses
import decimal
import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import specnorm as sn

EYE2 = np.eye(2)
DIAG4 = np.diag([4.0, 3.0, 2.0, 1.0])
PS = sn.ProductStructure(2, 2)

INT_TYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def numpy_ints(hi=2**64):
    """numpy integers of every width over their range, up to ``hi``."""
    return st.sampled_from(INT_TYPES).flatmap(lambda kind: st.integers(
        int(np.iinfo(kind).min), min(int(np.iinfo(kind).max), hi)).map(kind))


NOT_INTS = st.one_of(st.floats(), st.booleans(), st.sampled_from([np.True_, np.float64(2.0), None]))
HUGE = st.sampled_from([2**63 - 1, 2**63, 2**64 + 1, 10**400, -(10**400), -(2**63)])


def sizes(hi):
    """Counts up to ``hi``: past it, a size that passes its check would allocate that much."""
    return st.one_of(st.integers(max_value=hi), numpy_ints(hi), NOT_INTS,
                     st.sampled_from([-(10**400), -(2**63)]))


COUNTS = st.one_of(st.integers(-3, 5000), st.integers(), numpy_ints(), NOT_INTS, HUGE)
NOT_REALS = st.one_of(
    st.none(), st.text(max_size=4), st.complex_numbers(), st.complex_numbers().map(np.complex128),
    st.decimals(), st.booleans(), st.sampled_from([np.True_, np.array(0.5), 10**400, -(10**400)]))
# a real argument: any float, numpy float or integer, or a value that is no real
FLOATS = st.one_of(st.floats(), st.floats().map(np.float64), st.floats(width=32).map(np.float32),
                   st.integers(-3, 3), numpy_ints(), st.sampled_from([2**63, -(2**64)]), NOT_REALS)
# a frequency band: a pair of drawn reals, mostly inside [0, pi], or something that is no pair
BANDS = st.one_of(st.tuples(st.floats(0, 4), st.floats(0, 4)), st.tuples(FLOATS, FLOATS),
                  st.lists(st.floats(0, 4), max_size=3), FLOATS)
# exponent pairs: a list of pairs, some of them no pair, or something that is no list
SMALL = st.integers(0, 3)
PAIRS = st.one_of(st.lists(st.one_of(st.tuples(SMALL, COUNTS), st.tuples(SMALL), COUNTS,
                                     st.tuples(COUNTS, COUNTS, COUNTS)), max_size=2),
                  COUNTS, st.text(max_size=3))
ELEMENTS = st.one_of(st.floats(-1e50, 1e50), st.sampled_from([math.nan, math.inf, -math.inf]))
ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
                    elements=ELEMENTS)


def gram(a):
    with np.errstate(all="ignore"):  # a drawn inf or NaN may warn here; only the call may not
        return a @ a.T


def square(p):
    """p x p matrices of any floats, mostly symmetric positive semidefinite."""
    entries = hnp.arrays(np.float64, (p, p), elements=ELEMENTS)
    return st.one_of(entries, entries.map(gram), st.just(np.eye(p)))


@functools.lru_cache(maxsize=None)
def sample():
    return sn.simulate(sn.IidSpec(T=256, sigma=DIAG4, seed=3))


@functools.lru_cache(maxsize=None)
def sdo4():
    return sn.estimate_sequential_sdo(sample(), sn.default_bandwidth_plan(256), k_omega=2)


@functools.lru_cache(maxsize=None)
def law():
    return sn.exact_quantiles(3, 2, bm_steps=500)


@functools.lru_cache(maxsize=None)
def mc_law():
    return sn.mc_quantiles(3, 2, replications=10_000, bm_steps=500, use_cache=False)


@functools.lru_cache(maxsize=None)
def selection():
    paths = [sn.tvdfpca_sequential(sdo4(), d) for d in (1, 2)]
    return sn.estimate_dstar(paths, law(), 0.5)


def drawn(spec):
    """The spec's sample if it is short enough to draw here, else the spec."""
    return sn.simulate(spec) if spec.T + spec.burn_in <= 5000 else spec


SPECS = {
    "IidSpec": (sn.IidSpec, dict(T=128, sigma=EYE2)),
    "TvFar1Spec": (sn.TvFar1Spec, dict(T=128, a=0.5 * EYE2, sigma_eps=EYE2)),
    "SeparableSpec": (sn.SeparableSpec, dict(T=128, sigma_x=EYE2, sigma_y=EYE2)),
    "CoherentPairSpec": (sn.CoherentPairSpec, dict(T=128, p1=2, p2=2)),
}
SEQUENTIAL = {
    "tvdfpca": lambda d: sn.tvdfpca_sequential(sdo4(), d),
    "tvdpsca": lambda d: sn.tvdpsca_sequential(sdo4(), d, PS),
    "coherence": lambda d: sn.coherence_sequential(sdo4(), d, PS),
    "stationarity": lambda d: sn.stationarity_sequential(sdo4(), d),
}

# name -> (the drawn value's strategy, the call on it)
CASES = {
    "default_bandwidth_plan.T": (COUNTS, sn.default_bandwidth_plan),
    "default_bandwidth_plan.M": (COUNTS, lambda x: sn.default_bandwidth_plan(4096, M=x)),
    "default_bandwidth_plan.alpha": (FLOATS, lambda x: sn.default_bandwidth_plan(1024, alpha=x)),
    "default_bandwidth_plan.kappa": (FLOATS, lambda x: sn.default_bandwidth_plan(1024, kappa=x)),
    "ProductStructure.tvdpsca": (COUNTS, lambda x: sn.tvdpsca_sequential(
        sdo4(), 1, sn.ProductStructure(x, x))),
    "ProductStructure.coherence": (COUNTS, lambda x: sn.coherence_sequential(
        sdo4(), 1, sn.ProductStructure(2, x))),
    "estimate_sequential_sdo.k_omega": (sizes(16), lambda x: sn.tvdfpca_sequential(
        sn.estimate_sequential_sdo(sample(), sn.default_bandwidth_plan(256), k_omega=x), 1)),
    "estimate_sequential_sdo.threads": (COUNTS, lambda x: sn.tvdfpca_sequential(
        sn.estimate_sequential_sdo(sample(), sn.default_bandwidth_plan(256), k_omega=2,
                                   threads=x), 1)),
    "estimate_sequential_sdo.band": (BANDS, lambda x: sn.tvdfpca_sequential(
        sn.estimate_sequential_sdo(sample(), sn.default_bandwidth_plan(256), band=x, k_omega=2), 1)),
    "TimeSeriesSample.data": (ARRAYS, lambda x: sn.TimeSeriesSample(data=x)),
    "measure_population.d": (COUNTS, lambda x: sn.measure_population(
        lambda u, w: DIAG4, "stationarity", x, m_u=3, k_omega=2)),
    "measure_population.m_u": (sizes(12), lambda x: sn.measure_population(
        lambda u, w: DIAG4, "tvdfpca", 1, m_u=x, k_omega=2)),
    "measure_population.k_omega": (sizes(12), lambda x: sn.measure_population(
        lambda u, w: DIAG4, "tvdfpca", 1, m_u=3, k_omega=x)),
    "measure_population.band": (BANDS, lambda x: sn.measure_population(
        lambda u, w: DIAG4, "tvdfpca", 1, m_u=3, k_omega=2, band=x)),
    "measure_population.truth": (st.one_of(ARRAYS, square(4)), lambda x: sn.measure_population(
        lambda u, w: x, "tvdfpca", 1, m_u=3, k_omega=2)),
    "SequentialFunctional.values": (
        hnp.arrays(np.float64, st.integers(0, 6), elements=ELEMENTS),
        lambda x: sn.SequentialFunctional("tvdfpca", 1, np.arange(1, x.size + 1) / x.size, x,
                                          np.ones(x.size, bool), 3, 2)),
    "exact_quantiles.f": (COUNTS, lambda x: sn.exact_quantiles(x, 2, 500, use_cache=False)),
    "exact_quantiles.g": (COUNTS, lambda x: sn.exact_quantiles(3, x, 500, use_cache=False)),
    "exact_quantiles.bm_steps": (sizes(600), lambda x: sn.exact_quantiles(3, 2, bm_steps=x,
                                                                           use_cache=False)),
    "mc_quantiles.replications": (sizes(10_010), lambda x: sn.mc_quantiles(
        3, 2, replications=x, bm_steps=500, use_cache=False)),
    "mc_quantiles.seed": (COUNTS, lambda x: sn.mc_quantiles(3, 2, 10_000, 500, seed=x,
                                                             use_cache=False)),
    "mc_quantiles_joint.g": (COUNTS, lambda x: sn.mc_quantiles_joint(
        [(3, 2), (2, x)], replications=10_000, bm_steps=500)),
    "mc_quantiles_joint.pairs": (PAIRS, lambda x: sn.mc_quantiles_joint(
        x, replications=10_000, bm_steps=500)),
    "confidence_interval.estimate": (FLOATS, lambda x: sn.confidence_interval(x, 0.1, law())),
    "confidence_interval.v": (FLOATS, lambda x: sn.confidence_interval(0.5, x, law())),
    "confidence_interval.alpha": (FLOATS, lambda x: sn.confidence_interval(0.5, 0.1, law(), x)),
    "relevant_test.estimate": (FLOATS, lambda x: sn.relevant_test(x, 0.1, law(), 0.1)),
    "relevant_test.v": (FLOATS, lambda x: sn.relevant_test(0.5, x, law(), 0.1)),
    "relevant_test.delta": (FLOATS, lambda x: sn.relevant_test(0.5, 0.1, law(), x)),
    "relevant_test.alpha": (FLOATS, lambda x: sn.relevant_test(0.5, 0.1, law(), 0.1, x)),
    "PivotLaw.quantile": (FLOATS, lambda x: law().quantile(x)),
    "quantile_se.alpha": (FLOATS, lambda x: sn.quantile_se(law(), x)),
    "quantile_se.alpha.mc": (FLOATS, lambda x: sn.quantile_se(mc_law(), x)),
    "estimate_dstar.nu": (FLOATS, lambda x: sn.estimate_dstar(
        [sn.tvdfpca_sequential(sdo4(), 1)], law(), x)),
    "estimate_dstar.alpha": (FLOATS, lambda x: sn.estimate_dstar(
        [sn.tvdfpca_sequential(sdo4(), 1)], law(), 0.5, x)),
    "test_order_upper.d0": (COUNTS, lambda x: sn.test_order_upper(selection(), x)),
    "require_hermitian": (ARRAYS, sn.require_hermitian),
    "psd_project": (st.one_of(ARRAYS, square(3)), sn.psd_project),
    "matrix_sqrt_psd": (st.one_of(ARRAYS, square(3)), sn.matrix_sqrt_psd),
    "frechet_derivative": (st.one_of(ARRAYS, square(2)), lambda x: sn.frechet_derivative(
        x, EYE2, "sqrt")),
    "joint_statistic.deviations": (ARRAYS, lambda x: sn.joint_statistic(
        x, sn.self_norm_V([sn.tvdfpca_sequential(sdo4(), 1)]),
        dataclasses.replace(law(), joint=True))),
}
for _kind, _call in SEQUENTIAL.items():
    CASES[f"{_kind}_sequential.d"] = (COUNTS, _call)
for _name, (_spec, _valid) in SPECS.items():
    for _field in ("T", "burn_in", "seed", *(("p1", "p2") if _name == "CoherentPairSpec" else ())):
        _values = sizes(8) if _field in ("p1", "p2") else COUNTS  # a block allocates p1 x p2
        CASES[f"{_name}.{_field}"] = (_values, lambda x, spec=_spec, valid=_valid, field=_field:
                                      drawn(spec(**{**valid, field: x})))
CASES["IidSpec.sigma"] = (st.one_of(ARRAYS, square(2)), lambda x: drawn(sn.IidSpec(T=128, sigma=x)))
CASES["TvFar1Spec.a"] = (st.one_of(ARRAYS, square(2)), lambda x: drawn(
    sn.TvFar1Spec(T=128, a=x, sigma_eps=EYE2)))


def finite(obj) -> bool:
    """Whether every float in a result, its fields and items included, is finite."""
    if dataclasses.is_dataclass(obj):
        return all(finite(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return all(map(finite, obj))
    if isinstance(obj, (float, complex, np.ndarray, np.number)):
        return bool(np.isfinite(obj).all()) if np.asarray(obj).dtype.kind in "fc" else True
    return True


def case_and_value():
    return st.sampled_from(sorted(CASES)).flatmap(lambda name: st.tuples(st.just(name),
                                                                         CASES[name][0]))


@settings(max_examples=600, deadline=None, suppress_health_check=list(HealthCheck))
@given(case_and_value())
@example(("IidSpec.T", 100.5))
@example(("IidSpec.burn_in", 150.5))
@example(("TvFar1Spec.T", 100.5))
@example(("TvFar1Spec.burn_in", 150.5))
@example(("SeparableSpec.seed", 1.5))
@example(("CoherentPairSpec.p1", 1.5))
@example(("ProductStructure.tvdpsca", 2.0))
@example(("ProductStructure.coherence", "a"))
@example(("ProductStructure.coherence", True))
@example(("default_bandwidth_plan.T", 100.5))
@example(("default_bandwidth_plan.T", math.inf))
@example(("default_bandwidth_plan.T", 10**400))
@example(("exact_quantiles.g", 2**1023))
@example(("IidSpec.T", np.int8(100)))
@example(("ProductStructure.tvdpsca", np.int8(16)))
@example(("frechet_derivative", np.zeros((0, 0))))
@example(("psd_project", np.full((2, 2), np.nan)))
@example(("measure_population.truth", np.full((4, 4), np.nan)))
@example(("measure_population.truth", np.zeros((4, 4))))
@example(("default_bandwidth_plan.alpha", None))
@example(("default_bandwidth_plan.alpha", "0.5"))
@example(("default_bandwidth_plan.kappa", 0.4 + 0j))
@example(("estimate_sequential_sdo.band", (None, 1.0)))
@example(("estimate_sequential_sdo.band", 3))
@example(("confidence_interval.estimate", None))
@example(("confidence_interval.v", None))
@example(("confidence_interval.alpha", None))
@example(("confidence_interval.estimate", 0.5 + 1j))
@example(("relevant_test.delta", None))
@example(("relevant_test.delta", "x"))
@example(("estimate_dstar.nu", None))
@example(("estimate_dstar.alpha", None))
@example(("PivotLaw.quantile", None))
@example(("measure_population.band", None))
@example(("mc_quantiles_joint.pairs", 3))
@example(("mc_quantiles_joint.pairs", [3]))
@example(("mc_quantiles_joint.pairs", [(3,)]))
@example(("SequentialFunctional.values", np.zeros(0)))
@example(("confidence_interval.v", 9.579891367614551e+306))
@example(("relevant_test.v", 1e308))
def test_library_calls_return_finite_numbers_or_raise_in_the_taxonomy(case):
    name, value = case
    _, call = CASES[name]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = call(value)
    except (ValueError, sn.SpecnormError):
        return
    assert finite(result), (name, value, result)


@pytest.mark.parametrize("call, message", [
    (lambda: sn.simulate(sn.IidSpec(T=100.5, sigma=EYE2)), "T = 100.5 must be an integer"),
    (lambda: sn.TvFar1Spec(T=128, a=0.5 * EYE2, sigma_eps=EYE2, burn_in=150.5),
     "burn_in = 150.5 must be an integer"),
    (lambda: sn.SeparableSpec(T=128, sigma_x=EYE2, sigma_y=EYE2, seed=1.5),
     "seed = 1.5 must be an integer"),
    (lambda: sn.CoherentPairSpec(T=128, p1=1.5, p2=2), "p1 = 1.5 must be an integer"),
    (lambda: sn.ProductStructure(2.0, 2.0), "p1 = 2.0 must be an integer"),
    (lambda: sn.ProductStructure("a", 2), "p1 = 'a' must be an integer"),
    (lambda: sn.ProductStructure(True, 2), "p1 = True must be an integer"),
    (lambda: sn.ProductStructure(2, 0), "p2 = 0 must be at least 1"),
    (lambda: sn.default_bandwidth_plan(100.5), "T = 100.5 must be an integer"),
    (lambda: sn.default_bandwidth_plan(math.inf), "T = inf must be an integer"),
    (lambda: sn.default_bandwidth_plan(32), "T = 32 must be at least 64"),
    (lambda: sn.default_bandwidth_plan(2**63), f"T = {2**63} must be below 2**63"),
    (lambda: sn.exact_quantiles(3, 2, bm_steps=None), "bm_steps = None must be an integer"),
    (lambda: sn.default_bandwidth_plan(1024, alpha=None), "alpha = None must be a real number"),
    (lambda: sn.default_bandwidth_plan(1024, alpha="0.5"), "alpha = '0.5' must be a real number"),
    (lambda: sn.default_bandwidth_plan(1024, alpha=1.5), "alpha = 1.5 must lie in (0, 1)"),
    (lambda: sn.default_bandwidth_plan(1024, kappa=0.4 + 0j),
     "kappa = (0.4+0j) must be a real number"),
    (lambda: sn.default_bandwidth_plan(1024, kappa=0.1), "kappa = 0.1 must lie in (0.2, 1)"),
    (lambda: sn.estimate_sequential_sdo(sample(), sn.default_bandwidth_plan(256), band=(None, 1.0)),
     "band[0] = None must be a real number"),
    (lambda: sn.estimate_sequential_sdo(sample(), sn.default_bandwidth_plan(256), band=3),
     "band = 3 must be a pair (a, b)"),
    (lambda: sn.confidence_interval(None, 0.1, law()), "estimate = None must be a real number"),
    (lambda: sn.confidence_interval(0.5, None, law()), "V = None must be a real number"),
    (lambda: sn.confidence_interval(0.5, 0.1, law(), alpha=None),
     "alpha = None must be a real number"),
    (lambda: sn.confidence_interval(0.5 + 1j, 0.1, law()),
     "estimate = (0.5+1j) must be a real number"),
    (lambda: sn.confidence_interval(10**400, 0.1, law()),
     f"estimate = {10**400} must lie in (-inf, inf)"),
    (lambda: sn.confidence_interval(np.array(0.5), 0.1, law()),
     "estimate = array(0.5) must be a real number"),
    (lambda: sn.relevant_test(0.5, 0.1, law(), delta=None), "delta = None must be a real number"),
    (lambda: sn.relevant_test(0.5, 0.1, law(), delta="x"), "delta = 'x' must be a real number"),
    (lambda: sn.relevant_test(0.5, 0.1, law(), 0.1, decimal.Decimal("0.05")),
     "alpha = Decimal('0.05') must be a real number"),
    (lambda: sn.estimate_dstar([sn.tvdfpca_sequential(sdo4(), 1)], law(), None),
     "nu = None must be a real number"),
    (lambda: sn.estimate_dstar([sn.tvdfpca_sequential(sdo4(), 1)], law(), 0.5, alpha=None),
     "alpha = None must be a real number"),
    (lambda: law().quantile(None), "alpha = None must be a real number"),
    (lambda: sn.quantile_se(law(), True), "alpha = True must be a real number"),
    (lambda: sn.measure_population(lambda u, w: DIAG4, "tvdfpca", 1, m_u=3, k_omega=2, band=None),
     "band = None must be a pair (a, b)"),
    (lambda: sn.mc_quantiles_joint(3), "pairs = 3 must be a sequence of pairs (f, g)"),
    (lambda: sn.mc_quantiles_joint([3]), "pairs = [3] must be a sequence of pairs (f, g)"),
    (lambda: sn.mc_quantiles_joint([(3,)]), "pairs = [(3,)] must be a sequence of pairs (f, g)"),
], ids=["IidSpec-T", "TvFar1Spec-burn_in", "SeparableSpec-seed", "CoherentPairSpec-p1",
        "ProductStructure-float", "ProductStructure-str", "ProductStructure-bool",
        "ProductStructure-zero", "plan-float", "plan-inf", "plan-short", "plan-huge",
        "bm_steps-none", "plan-alpha-none", "plan-alpha-str", "plan-alpha-range",
        "plan-kappa-complex", "plan-kappa-range", "band-edge-none", "band-not-pair",
        "interval-estimate-none", "interval-v-none", "interval-alpha-none",
        "interval-estimate-complex", "interval-estimate-huge", "interval-estimate-0d-array",
        "test-delta-none", "test-delta-str", "test-alpha-decimal", "dstar-nu-none",
        "dstar-alpha-none", "quantile-none", "quantile_se-bool", "population-band-none",
        "pairs-int", "pairs-of-ints", "pairs-of-singletons"])
def test_each_escape_is_a_config_error_naming_its_argument(call, message):
    with pytest.raises(sn.ConfigError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("eta, values, valid, message", [
    (np.zeros(0), np.zeros(0), np.zeros(0, bool), "values must be a non-empty 1-D array"),
    (np.ones(4), np.ones((2, 2)), np.ones(4, bool), "values must be a non-empty 1-D array"),
    (np.ones(2), np.ones(3), np.ones(3, bool), "eta must have the shape (3,) of values"),
    (np.ones(3), np.ones(3), np.ones(4, bool), "valid must have the shape (3,) of values"),
], ids=["empty", "2-D", "short-eta", "long-valid"])
def test_a_path_that_is_empty_or_ragged_is_refused_by_name(eta, values, valid, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        sn.SequentialFunctional("tvdfpca", 1, eta, values, valid, 3, 2)


def test_numpy_reals_are_stored_as_floats():
    plan = sn.default_bandwidth_plan(1024, alpha=np.float32(0.5), kappa=np.float64(0.4))
    assert plan == sn.default_bandwidth_plan(1024)
    assert type(plan.alpha) is float and type(plan.kappa) is float
    ci = sn.confidence_interval(np.float64(0.5), np.float32(0.125), law(), np.float64(0.05))
    assert ci == sn.confidence_interval(0.5, 0.125, law(), 0.05) and type(ci.lo) is float
    assert sn.relevant_test(np.int64(1), 0.125, law(), np.int8(0)) == sn.relevant_test(
        1.0, 0.125, law(), 0.0)


def test_numpy_integer_counts_are_stored_as_ints():
    ps = sn.ProductStructure(np.int64(2), np.uint8(3))
    spec = sn.IidSpec(T=np.int8(100), sigma=EYE2, burn_in=np.uint16(300), seed=np.int32(4))
    assert ps == sn.ProductStructure(2, 3) and type(ps.p1) is int and type(ps.p2) is int
    assert all(type(getattr(spec, name)) is int for name in ("T", "burn_in", "seed"))
    assert sn.simulate(spec).data.tobytes() == sn.simulate(
        sn.IidSpec(T=100, sigma=EYE2, burn_in=300, seed=4)).data.tobytes()
