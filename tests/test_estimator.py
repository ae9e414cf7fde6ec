"""Sequential spectral estimator: plans, kernels, and partial-sum identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specnorm as sn
from conftest import chunk_rows
from specnorm.estimator import _default_k_omega, _window_starts


def white_noise(T, p, seed=0):
    rng = np.random.default_rng(seed)
    return sn.TimeSeriesSample(data=rng.standard_normal((T, p)))


def test_default_plan_arithmetic():
    plan = sn.default_bandwidth_plan(4096)
    assert (plan.N, plan.M) == (64, 4)
    assert plan.b_f == pytest.approx(64.0 ** -0.4)
    assert plan.rho_sq == pytest.approx(64 * 64.0 ** -0.4 / (151.0 / 280.0))
    assert plan.warnings == ()
    assert np.allclose(plan.eta_points, np.arange(1, 65) / 64)

    plan = sn.default_bandwidth_plan(1024)
    assert (plan.N, plan.b_f) == (32, pytest.approx(0.25))


def test_plan_forces_even_window():
    # round(150**0.5) = 12 is already even; round(175**0.5) = 13 drops to 12
    assert sn.default_bandwidth_plan(175).N % 2 == 0
    for t in (100, 313, 4097):
        assert sn.default_bandwidth_plan(t).N % 2 == 0
    # T = 100 is outside the regime
    assert any("M = 4 > N" in msg for msg in sn.default_bandwidth_plan(100).warnings)


def test_plan_hard_errors():
    with pytest.raises(sn.ConfigError, match="kappa"):
        sn.default_bandwidth_plan(4096, kappa=0.1)
    with pytest.raises(sn.ConfigError, match="kappa"):
        sn.default_bandwidth_plan(4096, kappa=1.0)
    with pytest.raises(sn.ConfigError, match="series too short for M windows"):
        sn.default_bandwidth_plan(256, M=64)
    with pytest.raises(sn.ConfigError, match="series too short"):
        sn.default_bandwidth_plan(32)
    with pytest.raises(sn.ConfigError, match="alpha"):
        sn.default_bandwidth_plan(4096, alpha=1.2)
    with pytest.raises(sn.ConfigError, match="window length N = 0 too small"):
        sn.default_bandwidth_plan(64, alpha=0.05)
    # a smoother kernel admits smaller kappa
    plan = sn.default_bandwidth_plan(4096, kappa=0.1, kernel=sn.FLAT_TOP)
    assert plan.kernel is sn.FLAT_TOP and plan.kernel.iota == 8


def test_plan_regime_warnings_are_stored():
    # stored only: the suite turns any UserWarning into an error
    plan = sn.default_bandwidth_plan(4096, kappa=0.21, M=48)
    assert any("M = 48" in msg for msg in plan.warnings)
    plan = sn.default_bandwidth_plan(4096, M=2)
    assert plan.warnings == ("N^(1 - kappa) = 12.13 > M^3 = 8",)


def test_midpoint_grid_is_symmetric_and_equispaced():
    plan = sn.default_bandwidth_plan(4096)
    u = sn.midpoint_grid(plan)
    assert len(u) == plan.M
    assert u[0] == pytest.approx(plan.N / (2 * plan.T))
    assert u[-1] == pytest.approx(1 - plan.N / (2 * plan.T))
    assert np.allclose(np.diff(u), np.diff(u)[0])
    starts = _window_starts(plan)
    assert starts[0] >= 0 and starts[-1] + plan.N <= plan.T
    # one window is centered
    single = sn.default_bandwidth_plan(4096, M=1)
    assert single.warnings
    assert np.array_equal(sn.midpoint_grid(single), [0.5])


@pytest.mark.parametrize("kernel", [sn.PARZEN, sn.FLAT_TOP])
def test_kernel_shape_and_squared_mass(kernel):
    x = np.linspace(-1.5, 1.5, 7)
    w = kernel(x)
    assert kernel(0.0) == pytest.approx(1.0)
    assert np.all(w[np.abs(x) > 1.0] == 0.0)
    assert np.allclose(kernel(x), kernel(-x))
    # kappa_f equals the integral of w^2 over [-1, 1]
    grid = np.linspace(-1.0, 1.0, 200_001)
    quad = np.trapezoid(kernel(grid) ** 2, grid)
    assert quad == pytest.approx(kernel.kappa_f, rel=1e-6)
    # psd says the spectral window sum_h w(b h) cos(omega h) is nonnegative, at any bandwidth
    omega = np.linspace(0.0, math.pi, 2001)[:, None]
    for b in (0.25, 64.0**-0.4, 0.037):
        lags = np.arange(-math.ceil(1 / b), math.ceil(1 / b) + 1)
        window = (kernel(b * lags) * np.cos(omega * lags)).sum(axis=1)
        assert (window.min() >= -1e-12 * window.max()) == kernel.psd


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 6), alpha=st.sampled_from([0.5, 0.6]))
def test_parzen_partial_sums_are_psd_to_roundoff(seed, p, alpha):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((1024, p)) @ rng.standard_normal((p, p))
    plan = sn.default_bandwidth_plan(1024, alpha=alpha)
    vals = np.linalg.eigvalsh(sn.estimate_sequential_sdo(sn.TimeSeriesSample(data=data), plan).tensor)
    assert np.all(vals[..., 0] >= -8 * p * np.finfo(float).eps * vals[..., -1])


def test_kernel_lookup_and_alias():
    assert sn.kernel_by_name("parzen") is sn.PARZEN
    assert sn.kernel_by_name("truncated_flat_top") is sn.FLAT_TOP
    assert sn.kernel_by_name("flat_top") is sn.FLAT_TOP
    with pytest.raises(sn.ConfigError, match="unknown kernel"):
        sn.kernel_by_name("bartlett")


def test_sample_validation():
    with pytest.raises(sn.DataError, match="row 2, column 1"):
        sn.TimeSeriesSample(data=np.array([[1.0, 2.0], [np.nan, 0.0]]))
    with pytest.raises(sn.DataError, match="T x p"):
        sn.TimeSeriesSample(data=np.zeros(5))
    with pytest.raises(sn.DataError, match="T >= 2"):
        sn.TimeSeriesSample(data=np.zeros((1, 2)))
    sample = sn.TimeSeriesSample(data=np.zeros((4, 2)))
    assert (sample.T, sample.p) == (4, 2)


def direct_partial_sum(window, k, omega, kernel, b_f):
    """Literal double-sum spectral estimate from the first k window rows."""
    p = window.shape[1]
    acc = np.zeros((p, p), dtype=complex)
    for s in range(k):
        for t in range(k):
            acc += (
                kernel(b_f * (s - t))
                * np.exp(1j * omega * (s - t))
                * np.outer(window[s], window[t])
            )
    acc /= 2.0 * math.pi * k
    return (acc + acc.conj().T) / 2.0


def test_partial_sum_identity_against_direct_double_sum():
    sample = white_noise(100, 2, seed=3)
    plan = sn.default_bandwidth_plan(100)
    sdo = sn.estimate_sequential_sdo(sample, plan)
    centered = sample.data - sample.data.mean(axis=0)
    starts = _window_starts(plan)
    for i, off in enumerate(starts):
        window = centered[off : off + plan.N]
        for j, omega in enumerate(sdo.omega_points):
            for k in range(1, plan.N + 1):
                ref = direct_partial_sum(window, k, omega, sn.PARZEN, plan.b_f)
                assert np.allclose(sdo.tensor[i, j, k - 1], ref, rtol=0, atol=1e-12)


def test_estimates_are_hermitian_and_full_window_slice_psd():
    sample = white_noise(256, 3, seed=6)
    clips = []
    for kernel in (sn.PARZEN, sn.FLAT_TOP):
        plan = sn.default_bandwidth_plan(256, kernel=kernel)
        sdo = sn.estimate_sequential_sdo(sample, plan)
        # exactly Hermitian, bit for bit, including the PSD-projected eta = 1 slices
        assert np.array_equal(sdo.tensor, np.conj(np.swapaxes(sdo.tensor, -1, -2)))
        final = sdo.tensor[:, :, -1]
        assert np.linalg.eigvalsh(final).min() >= -1e-12
        clips.append(sdo.diagnostics["psd_clip_max"])
    assert clips[1] > 0  # the flat-top kernel is not PSD, so the projection ran


def lag_cumsum_estimate(sample, plan, kernel):
    """The sequential estimate by per-lag cumulative sums S_h(k) = sum_t x_{t+h} x_t^T
    and one sum over the lags per cell, eta = 1 slices PSD-projected."""
    x = sample.data - sample.data.mean(axis=0)
    n, p = plan.N, sample.p
    k_omega = _default_k_omega(plan, (0.0, math.pi))
    lags = np.arange(min(n - 1, int(math.floor(1.0 / plan.b_f + 1e-12))) + 1)
    ks = np.arange(1, n + 1)[:, None, None]
    out = np.empty((plan.M, k_omega, n, p, p), dtype=complex)
    for i, off in enumerate(_window_starts(plan)):
        w = x[off : off + n]
        s = np.zeros((len(lags), n, p, p))
        for h in lags:
            s[h, h:] = np.cumsum(np.einsum("ti,tj->tij", w[h:], w[: n - h]), axis=0)
        for j in range(k_omega):
            omega = (j + 0.5) * math.pi / k_omega
            coef = kernel(plan.b_f * lags) * np.exp(1j * omega * lags) / (2 * math.pi)
            upper = np.tensordot(coef[1:], s[1:], axes=(0, 0))
            out[i, j] = (coef[0].real * s[0] + upper + upper.conj().transpose(0, 2, 1)) / ks
            out[i, j, -1] = sn.psd_project(out[i, j, -1])
    return out


@pytest.mark.parametrize("kernel", [sn.PARZEN, sn.FLAT_TOP])
def test_recursion_matches_the_lag_cumsum_formula(kernel):
    rng = np.random.default_rng(10)
    data = rng.standard_normal((1024, 3)) @ rng.standard_normal((3, 3))
    plan = sn.default_bandwidth_plan(1024, kernel=kernel)
    sample = sn.TimeSeriesSample(data=data)
    tensor = sn.estimate_sequential_sdo(sample, plan).tensor
    oracle = lag_cumsum_estimate(sample, plan, kernel)
    assert np.max(np.abs(tensor - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    assert np.array_equal(tensor, np.conj(np.swapaxes(tensor, -1, -2)))


@pytest.mark.parametrize(
    "T, p, alpha, rows", [(16384, 16, 0.6, 64), (1024, 64, 0.5, 32), (1024, 4, 0.5, 1536)]
)
def test_chunks_hold_about_one_and_a_half_mebibytes_and_at_least_32_rows(T, p, alpha, rows):
    plan = sn.default_bandwidth_plan(T, alpha=alpha)
    sdo = sn.estimate_sequential_sdo(white_noise(T, p), plan)
    assert sdo.blocks.rows == rows


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_an_overflowing_chunk_is_refused_before_a_block_pass_reads_it(monkeypatch):
    chunk_rows(monkeypatch, 7)
    plan = sn.default_bandwidth_plan(1024)
    data = np.random.default_rng(5).standard_normal((1024, 2))
    # row 10 of the last window, in the second chunk of every block: its square overflows
    data[-plan.N + 9, 0] = 1e155
    sdo = sn.estimate_sequential_sdo(sn.TimeSeriesSample(data=data), plan)
    finite = []

    def work(f):
        finite.append(bool(np.isfinite(f).all()))
        return (f.real,)

    message = f"non-finite spectral estimate in window {plan.M}, frequency cell 1: "
    with pytest.raises(sn.NumericalError, match=message):
        sdo.map_blocks(work)
    assert finite == [True]  # the first chunk of block 1, and no later one


def test_white_noise_recovers_flat_spectrum():
    sigma = np.diag([4.0, 1.0])
    sample = sn.simulate(sn.IidSpec(T=4096, sigma=sigma, seed=0))
    sdo = sn.estimate_sequential_sdo(sample, sn.default_bandwidth_plan(4096))
    est = sdo.tensor[:, :, -1].real.mean(axis=(0, 1))
    assert np.allclose(est, sigma / (2 * math.pi), atol=0.12)


def test_band_and_frequency_cell_defaults():
    plan = sn.default_bandwidth_plan(1024)
    assert _default_k_omega(plan, (0.0, math.pi)) == math.ceil(plan.N ** plan.kappa)
    assert _default_k_omega(plan, (0.0, math.pi / 2)) == math.ceil(0.5 * plan.N ** plan.kappa)
    sample = white_noise(1024, 2, seed=8)
    sdo = sn.estimate_sequential_sdo(sample, plan, band=(0.5, 2.5), k_omega=5)
    assert sdo.k_omega == 5
    assert sdo.band == (0.5, 2.5)
    oms = 0.5 + (np.arange(5) + 0.5) * 2.0 / 5
    assert np.allclose(sdo.omega_points, oms)
    with pytest.raises(sn.ConfigError, match="band"):
        sn.estimate_sequential_sdo(sample, plan, band=(2.0, 1.0))
    with pytest.raises(sn.ConfigError, match="plan built for"):
        sn.estimate_sequential_sdo(white_noise(512, 2), plan)
    with pytest.raises(sn.ConfigError, match="threads = 0 must be at least 1"):
        sn.estimate_sequential_sdo(sample, plan, threads=0)


def test_from_tensor_wraps_analytic_input():
    tensor = np.tile(np.eye(2, dtype=complex), (3, 4, 5, 1, 1))
    sdo = sn.SequentialSDO.from_tensor(tensor)
    assert (sdo.m, sdo.k_omega, sdo.n_window, sdo.p) == (3, 4, 5, 2)
    assert np.allclose(sdo.eta_points, np.arange(1, 6) / 5)
    with pytest.raises(ValueError, match="shape"):
        sn.SequentialSDO.from_tensor(np.zeros((3, 4, 5, 2, 3)))
