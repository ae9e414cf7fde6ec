"""Synthetic process generators and their closed-form spectral densities."""

import math
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specnorm as sn


def test_iid_sample_shape_and_determinism():
    spec = sn.IidSpec(T=256, sigma=np.diag([2.0, 1.0]), seed=5)
    sample = sn.simulate(spec)
    assert (sample.T, sample.p) == (256, 2)
    assert np.array_equal(sample.data, sn.simulate(spec).data)
    other = sn.simulate(sn.IidSpec(T=256, sigma=np.diag([2.0, 1.0]), seed=6))
    assert not np.array_equal(sample.data, other.data)


def test_zero_coefficient_ar_equals_white_noise_bitwise():
    sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    iid = sn.simulate(sn.IidSpec(T=512, sigma=sigma, seed=9))
    ar = sn.simulate(sn.TvFar1Spec(T=512, a=np.zeros((2, 2)), sigma_eps=sigma, seed=9))
    assert np.array_equal(iid.data, ar.data)


def test_ar_burn_in_reaches_stationarity_from_the_first_row():
    # the burn-in recursion carries AR state into row 0: the sample is lag-1
    # correlated at the coefficient level from the very start
    spec = sn.TvFar1Spec(T=4096, a=0.9 * np.eye(1), sigma_eps=np.eye(1), seed=1)
    x = sn.simulate(spec).data[:, 0]
    lag1 = np.corrcoef(x[1:], x[:-1])[0, 1]
    assert lag1 == pytest.approx(0.9, abs=0.03)
    head_var = np.var(x[:512])
    assert head_var == pytest.approx(1.0 / (1.0 - 0.81), rel=0.35)


def reference_ar_draw(spec):
    """The matrix recursion prev = A(u_j) prev + eps_j, one row at a time."""
    total = spec.burn_in + spec.T
    eps = np.random.default_rng(spec.seed).standard_normal((total, spec.p))
    eps = eps @ np.linalg.cholesky(spec.sigma_eps).T
    x = np.empty((total, spec.p))
    prev = np.zeros(spec.p)
    for j in range(total):
        u = min(max((j - spec.burn_in + 1) / spec.T, 0.0), 1.0)
        prev = spec.a_at(u) @ prev + eps[j]
        x[j] = prev
    return x[spec.burn_in:]


# entries of a diagonal A inside the stability bound, signed zeros and repeats included
AR_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.95, -0.95]),
                       st.floats(-0.95, 0.95))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), T=st.integers(2, 600), data=st.data())
def test_ar_sampler_matches_the_matrix_recursion_bitwise(seed, T, data):
    p = data.draw(st.integers(1, 6), label="p")
    diag = np.array(data.draw(st.lists(AR_ENTRIES, min_size=p, max_size=p), label="diag"))
    rng = np.random.default_rng(seed)
    sigma = np.diag(rng.uniform(0.5, 2.0, p))
    dense = rng.standard_normal((p, p))
    dense *= 0.9 / np.linalg.norm(dense, 2)
    for a in (np.diag(diag), dense, lambda u: (0.5 + 0.5 * u) * np.diag(diag)):
        spec = sn.TvFar1Spec(T=T, a=a, sigma_eps=sigma, seed=seed)
        got = sn.simulate(spec).data
        assert np.array_equal(got.view(np.int64), reference_ar_draw(spec).view(np.int64))


def test_common_validation_errors():
    with pytest.raises(sn.ConfigError, match="burn_in"):
        sn.IidSpec(T=128, sigma=np.eye(2), burn_in=10)
    with pytest.raises(sn.ConfigError, match="T ="):
        sn.IidSpec(T=1, sigma=np.eye(2))
    with pytest.raises(sn.ConfigError, match="seed"):
        sn.IidSpec(T=128, sigma=np.eye(2), seed=-1)
    with pytest.raises(sn.ConfigError, match="positive semidefinite"):
        sn.IidSpec(T=128, sigma=np.diag([1.0, -1.0]))
    with pytest.raises(sn.ConfigError, match="sigma is not Hermitian"):
        sn.IidSpec(T=128, sigma=np.array([[1.0, 0.5], [0.0, 1.0]]))
    # asymmetric by 8e-6 relative: np.allclose's default rtol = 1e-5 once let it through
    with pytest.raises(sn.ConfigError, match="sigma_eps is not Hermitian"):
        sn.TvFar1Spec(T=128, a=0.5 * np.eye(2), sigma_eps=np.array([[1.0, 0.5 + 8e-6], [0.5, 1.0]]))
    with pytest.raises(sn.ConfigError, match=r"sigma must be a square matrix or a stack of them"):
        sn.IidSpec(T=128, sigma=np.ones((2, 3)))
    with pytest.raises(sn.ConfigError, match=r"sigma must be one matrix, got a stack of shape"):
        sn.IidSpec(T=128, sigma=np.ones((2, 2, 2)))
    with pytest.raises(sn.ConfigError, match="sigma is not a finite matrix"):
        sn.IidSpec(T=128, sigma=np.diag([np.inf, 1.0]))
    big = np.diag([1e200, 1.0])  # finite factors whose Kronecker product overflows
    with pytest.raises(sn.ConfigError, match=r"sigma_x \(x\) sigma_y is not a finite matrix"):
        sn.SeparableSpec(T=128, sigma_x=big, sigma_y=big)


def test_lapack_failure_in_a_covariance_factor_is_a_numerical_error(monkeypatch):
    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)  # a singular covariance has no Cholesky factor
    with pytest.raises(sn.NumericalError, match="LAPACK failure in the eigendecomposition of sigma"):
        sn.IidSpec(T=128, sigma=np.diag([1.0, 0.0]))


def test_ar_stability_guard_runs_before_sampling():
    # an unstable family cannot be built, so neither simulate nor true_sdo ever sees one
    with pytest.raises(sn.ConfigError, match="instability"):
        sn.TvFar1Spec(T=128, a=0.99 * np.eye(2), sigma_eps=np.eye(2))
    # time-varying family violating the bound only in the interior
    bump = lambda u: (0.5 + 0.5 * math.sin(math.pi * u)) * np.eye(2)
    with pytest.raises(sn.ConfigError, match="instability"):
        sn.TvFar1Spec(T=128, a=bump, sigma_eps=np.eye(2))
    safe = lambda u: (0.3 + 0.5 * u) * np.eye(2)
    sample = sn.simulate(sn.TvFar1Spec(T=128, a=safe, sigma_eps=np.eye(2)))
    assert sample.T == 128
    with pytest.raises(sn.ConfigError, match="shape"):
        sn.TvFar1Spec(T=128, a=np.eye(3), sigma_eps=np.eye(2))
    # a callable family is shape-checked on the same grid, before simulate or true_sdo
    with pytest.raises(sn.ConfigError, match=r"a at u = 0 has shape \(3, 3\), expected \(2, 2\)"):
        sn.TvFar1Spec(T=128, a=lambda u: 0.5 * np.eye(3), sigma_eps=np.eye(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_ar_coefficient_is_a_config_error(bad):
    # checked before the norm: a NaN fails its SVD, an infinity gives a NaN norm
    # that passes the stability bound
    with pytest.raises(sn.ConfigError, match=r"a at u = 0 must be finite"):
        sn.TvFar1Spec(T=128, a=np.array([[bad]]), sigma_eps=np.eye(1))
    with pytest.raises(sn.ConfigError, match=r"a at u = 0\.5 must be finite"):
        sn.TvFar1Spec(T=128, a=lambda u: np.array([[bad if u == 0.5 else 0.5]]),
                      sigma_eps=np.eye(1))


def test_coherent_pair_coupling_validation():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    spec = sn.CoherentPairSpec(T=128, p1=2, p2=2, coupling=rot, seed=3)
    sample = sn.simulate(spec)
    assert sample.p == 4
    with pytest.raises(sn.ConfigError, match="column-orthonormal"):
        sn.CoherentPairSpec(T=128, p1=2, p2=2, coupling=0.5 * rot)
    with pytest.raises(sn.ConfigError, match="shape"):
        sn.CoherentPairSpec(T=128, p1=2, p2=3, coupling=rot)
    with pytest.raises(sn.ConfigError, match="p1 = 0 must be at least 1"):
        sn.CoherentPairSpec(T=128, p1=0, p2=2)
    with pytest.raises(sn.ConfigError, match=r"has shape \(3, 3\), expected \(2, 2\)"):
        sn.CoherentPairSpec(T=128, p1=2, p2=2, coupling=lambda u: np.eye(3))
    # time-varying rotation stays orthonormal at every checked time
    turning = lambda u: np.array(
        [[math.cos(u), -math.sin(u)], [math.sin(u), math.cos(u)]]
    )
    assert sn.simulate(sn.CoherentPairSpec(T=128, p1=2, p2=2, coupling=turning)).p == 4


def test_uncoupled_pair_blocks_are_independent_streams():
    spec = sn.CoherentPairSpec(T=256, p1=2, p2=3, seed=8)
    sample = sn.simulate(spec)
    corr = np.corrcoef(sample.data, rowvar=False)
    assert np.max(np.abs(corr[:2, 2:])) < 0.2


def test_simulate_and_true_sdo_accept_every_process_spec():
    examples = {
        sn.IidSpec: sn.IidSpec(T=128, sigma=np.eye(2)),
        sn.TvFar1Spec: sn.TvFar1Spec(T=128, a=0.5 * np.eye(2), sigma_eps=np.eye(2)),
        sn.SeparableSpec: sn.SeparableSpec(T=128, sigma_x=np.eye(2), sigma_y=np.eye(3)),
        sn.CoherentPairSpec: sn.CoherentPairSpec(T=128, p1=1, p2=2),
    }
    assert set(typing.get_args(sn.ProcessSpec)) == set(examples)
    for spec in examples.values():
        assert sn.simulate(spec).data.shape == (128, spec.p)
        assert sn.true_sdo(spec)(0.5, 1.0).shape == (spec.p, spec.p)


def test_true_sdo_iid_and_separable_are_flat():
    sigma = np.array([[2.0, 0.4], [0.4, 1.0]])
    f = sn.true_sdo(sn.IidSpec(T=128, sigma=sigma))
    assert np.allclose(f(0.3, 1.0), sigma / (2 * math.pi))
    assert np.allclose(f(0.9, 2.5), f(0.1, 0.1))
    sep = sn.true_sdo(
        sn.SeparableSpec(T=128, sigma_x=np.diag([2.0, 1.0]), sigma_y=np.eye(2))
    )
    assert np.allclose(sep(0.5, 1.0), np.kron(np.diag([2.0, 1.0]), np.eye(2)) / (2 * math.pi))


@pytest.mark.parametrize(
    "sigma_y",
    [np.array([[1.0, -0.3, 0.0], [-0.3, 2.0, 0.4], [0.0, 0.4, 1.5]]),
     np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])],  # singular: eigh factor
    ids=["definite", "singular"],
)
def test_separable_spec_is_iid_noise_with_the_kronecker_covariance(sigma_y):
    sigma_x = np.array([[2.0, 0.5], [0.5, 1.0]])
    sep = sn.SeparableSpec(T=256, sigma_x=sigma_x, sigma_y=sigma_y, seed=9)
    iid = sn.IidSpec(T=256, sigma=np.kron(sigma_x, sigma_y), seed=9)
    assert np.array_equal(sep.sigma, iid.sigma) and sep.p == iid.p == 6
    assert np.array_equal(sn.simulate(sep).data, sn.simulate(iid).data)
    assert np.array_equal(sn.true_sdo(sep)(0.3, 1.0), sn.true_sdo(iid)(0.7, 2.0))


def test_true_sdo_ar_matches_scalar_formula():
    rho, s2 = 0.5, 2.0
    f = sn.true_sdo(sn.TvFar1Spec(T=128, a=rho * np.eye(1), sigma_eps=s2 * np.eye(1)))
    for omega in (0.0, 1.0, math.pi):
        expected = s2 / (2 * math.pi * abs(1 - rho * np.exp(-1j * omega)) ** 2)
        assert f(0.5, omega)[0, 0].real == pytest.approx(expected, rel=1e-12)


def test_true_sdo_is_hermitian_psd_everywhere():
    specs = [
        sn.IidSpec(T=128, sigma=np.diag([3.0, 1.0])),
        sn.TvFar1Spec(
            T=128, a=lambda u: 0.5 * u * np.eye(2), sigma_eps=np.diag([1.0, 2.0])
        ),
        sn.SeparableSpec(T=128, sigma_x=np.eye(2), sigma_y=np.diag([2.0, 1.0])),
        sn.CoherentPairSpec(T=128, p1=2, p2=2, coupling=np.eye(2)),
    ]
    for spec in specs:
        f = sn.true_sdo(spec)
        for u in (0.0, 0.5, 1.0):
            for omega in (0.1, math.pi / 2, math.pi):
                mat = f(u, omega)
                assert np.allclose(mat, mat.conj().T, atol=1e-12)
                assert np.linalg.eigvalsh(mat).min() >= -1e-12


def test_true_sdo_coupled_pair_has_unit_coherence():
    spec = sn.CoherentPairSpec(T=128, p1=2, p2=2, coupling=np.eye(2))
    f = sn.true_sdo(spec)
    val = sn.measure_population(
        f, "coherence", d=1, ps=sn.ProductStructure(2, 2), m_u=10, k_omega=4
    )
    assert val == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    free = sn.true_sdo(sn.CoherentPairSpec(T=128, p1=2, p2=2))
    val = sn.measure_population(
        free, "coherence", d=1, ps=sn.ProductStructure(2, 2), m_u=10, k_omega=4
    )
    assert val == pytest.approx(0.0, abs=1e-12)


def test_sampled_spectra_approach_truth():
    # single cells are noisy at N = 64, so judge the median over grid cells
    spec = sn.TvFar1Spec(T=4096, a=0.5 * np.eye(2), sigma_eps=np.diag([4.0, 1.0]), seed=0)
    truth = sn.true_sdo(spec)
    sample = sn.simulate(spec)
    sdo = sn.estimate_sequential_sdo(sample, sn.default_bandwidth_plan(4096))
    rel = [
        np.linalg.norm(sdo.tensor[i, j, -1] - truth(u, omega)) / np.linalg.norm(truth(u, omega))
        for i, u in enumerate(sdo.u_points)
        for j, omega in enumerate(sdo.omega_points)
    ]
    assert np.median(rel) < 0.5
