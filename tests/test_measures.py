"""Deviation measures: shares, coherence, stationarity, and their invariances."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specnorm as sn
from conftest import make_path
from specnorm.hermitian import eig_reconstruct


@pytest.fixture(scope="module")
def iid_sdo():
    sample = sn.simulate(sn.IidSpec(T=512, sigma=np.diag([3.0, 2.0, 1.0]), seed=11))
    return sn.estimate_sequential_sdo(sample, sn.default_bandwidth_plan(512))


def analytic_sdo(matrix, m=2, k=3, n=6):
    """Constant-in-(u, omega, eta) tensor wrapping one analytic operator."""
    tensor = np.tile(np.asarray(matrix, dtype=complex), (m, k, n, 1, 1))
    return sn.SequentialSDO.from_tensor(tensor)


def test_exponent_table_matches_measure_kinds():
    assert sn.SCALING_EXPONENTS == {
        "tvdfpca": (3, 2),
        "tvdpsca": (3, 2),
        "coherence": (4, 3),
        "stationarity": (2, 1),
    }


def test_eigenvalue_share_bounds_and_monotonicity(iid_sdo):
    paths = [sn.tvdfpca_sequential(iid_sdo, d) for d in (1, 2, 3)]
    for pth in paths:
        ok = pth.values[pth.valid]
        assert np.all(ok >= 0) and np.all(ok <= 1 + 1e-12)
        assert pth.point_estimate == pth.values[-1]
    # explained share grows with d and saturates at d = p
    assert np.all(paths[1].values[paths[1].valid] >= paths[0].values[paths[0].valid])
    assert np.allclose(paths[2].values[paths[2].valid], 1.0, atol=1e-12)
    assert (paths[0].f_exponent, paths[0].g_exponent) == (3, 2)


def test_eigenvalue_share_on_analytic_diagonal():
    sdo = analytic_sdo(np.diag([8.0, 4.0, 2.0, 1.0]) / (2 * math.pi))
    pth = sn.tvdfpca_sequential(sdo, 1)
    assert np.allclose(pth.values, 8.0 / 15.0, atol=1e-14)
    with pytest.raises(ValueError, match="d = 5"):
        sn.tvdfpca_sequential(sdo, 5)


def test_degenerate_mass_raises():
    sdo = analytic_sdo(np.zeros((2, 2)))
    with pytest.raises(sn.NumericalError, match="degenerate spectral mass"):
        sn.tvdfpca_sequential(sdo, 1)


def test_availability_mask_tracks_window_rank(iid_sdo):
    pth = sn.tvdfpca_sequential(iid_sdo, 1)
    p, n = iid_sdo.p, iid_sdo.n_window
    expected = np.arange(1, n + 1) >= p
    assert np.array_equal(pth.valid, expected)
    # a window shorter than the dimension cannot ever become available
    tensor = np.tile(np.eye(4, dtype=complex), (2, 2, 3, 1, 1))
    with pytest.raises(sn.ConfigError, match="smaller than the dimension"):
        sn.tvdfpca_sequential(sn.SequentialSDO.from_tensor(tensor), 1)


def test_separable_share_on_analytic_mixture():
    # X (x) Y plus an orthogonal second component with scores (2, 1):
    # the rank-1 explained share is 4 / (4 + 1).
    x1 = np.diag([1.0, 0.0]);  y1 = np.diag([1.0, 0.0])
    x2 = np.diag([0.0, 1.0]);  y2 = np.diag([0.0, 1.0])
    a = 2.0 * np.kron(x1, y1) + 1.0 * np.kron(x2, y2)
    sdo = analytic_sdo(a)
    ps = sn.ProductStructure(2, 2)
    pth = sn.tvdpsca_sequential(sdo, 1, ps)
    assert np.allclose(pth.values, 4.0 / 5.0, atol=1e-12)
    assert pth.diagnostics["isometry_defect_max"] < 1e-12
    full = sn.tvdpsca_sequential(sdo, 2, ps)
    assert np.allclose(full.values, 1.0, atol=1e-12)


def test_separable_share_denominator_is_squared_norm(iid_sdo):
    # p = 3 is prime, so use a 4-dimensional analytic tensor instead
    rng = np.random.default_rng(12)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    sdo = analytic_sdo(b @ b.conj().T)
    pth = sn.tvdpsca_sequential(sdo, 1, sn.ProductStructure(2, 2))
    assert pth.diagnostics["isometry_defect_max"] < 1e-10
    with pytest.raises(ValueError, match="does not factor"):
        sn.tvdpsca_sequential(sdo, 1, sn.ProductStructure(3, 2))


def test_coherence_zero_on_block_diagonal_input():
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = np.diag([2.0, 1.0])
    block[2:, 2:] = np.diag([3.0, 0.5])
    pth = sn.coherence_sequential(analytic_sdo(block), 1, sn.ProductStructure(2, 2))
    assert np.all(pth.values == 0.0)


def test_coherence_one_on_perfectly_coupled_blocks():
    c = np.array([[0.0, -1.0], [1.0, 0.0]])  # rotation, orthonormal columns
    top = np.hstack([np.eye(2), c.T])
    bot = np.hstack([c, c @ c.T + np.eye(2)])
    f = np.vstack([top, bot]).astype(complex) / (2 * math.pi)
    # canonical directions: sigma_d(F12) = 1, lambda_d(F11) = 1, lambda_d(F22) = 2
    pth = sn.coherence_sequential(analytic_sdo(f), 1, sn.ProductStructure(2, 2))
    assert np.allclose(pth.values, 1.0 / math.sqrt(2.0), atol=1e-12)
    assert (pth.f_exponent, pth.g_exponent) == (4, 3)


def test_coherence_bound_on_random_psd_tensors():
    rng = np.random.default_rng(13)
    b = rng.standard_normal((2, 3, 5, 4, 4)) + 1j * rng.standard_normal((2, 3, 5, 4, 4))
    tensor = b @ np.conj(np.swapaxes(b, -1, -2))
    sdo = sn.SequentialSDO.from_tensor(tensor)
    pth = sn.coherence_sequential(sdo, 1, sn.ProductStructure(2, 2))
    assert np.all(pth.values <= 1.0 + 1e-10)
    assert np.all(pth.values >= 0.0)


def test_coherence_rank_deficiency_handling():
    # second marginal eigenvalue vanishes: order d = 2 undefined everywhere
    mat = np.zeros((4, 4), dtype=complex)
    mat[:2, :2] = np.diag([1.0, 0.0])
    mat[2:, 2:] = np.diag([1.0, 1.0])
    with pytest.raises(sn.NumericalError, match="rank-deficient marginal"):
        sn.coherence_sequential(analytic_sdo(mat), 2, sn.ProductStructure(2, 2))
    # deficiency only at interior fractions: those cells are skipped with a warning
    tensor = np.tile(np.eye(4, dtype=complex), (2, 2, 6, 1, 1))
    tensor[:, :, 4] = 0.0
    tensor[:, :, 4, 0, 0] = 1.0
    sdo = sn.SequentialSDO.from_tensor(tensor)
    with pytest.warns(UserWarning, match="skipped"):
        pth = sn.coherence_sequential(sdo, 1, sn.ProductStructure(2, 2))
    assert not pth.valid[4]
    assert pth.valid[-1]


def test_stationarity_zero_for_time_constant_estimates():
    sdo = analytic_sdo(np.diag([2.0, 1.0]), m=3)
    pth = sn.stationarity_sequential(sdo, 2)
    assert np.allclose(pth.values, 0.0, atol=1e-12)
    assert (pth.f_exponent, pth.g_exponent) == (2, 1)


def test_stationarity_closed_form_for_linear_drift():
    # window estimates u_i * A: dispersion of sqrt(u_i) around its mean times Tr A
    a = np.diag([2.0, 1.0])
    m, n = 5, 4
    u = (np.arange(m) + 0.5) / m
    tensor = u[:, None, None, None, None] * np.tile(a.astype(complex), (m, 2, n, 1, 1))
    sdo = sn.SequentialSDO.from_tensor(tensor)
    pth = sn.stationarity_sequential(sdo, 2)
    roots = np.sqrt(u)
    expected = np.mean((roots - roots.mean()) ** 2) * np.trace(a)
    assert np.allclose(pth.values, expected, atol=1e-12)


def test_stationarity_warns_off_full_band():
    sample = sn.simulate(sn.IidSpec(T=256, sigma=np.eye(2), seed=14))
    plan = sn.default_bandwidth_plan(256)
    sdo = sn.estimate_sequential_sdo(sample, plan, band=(0.0, math.pi / 2))
    with pytest.warns(UserWarning, match="full band"):
        sn.stationarity_sequential(sdo, 2)


def test_measures_invariant_under_data_scaling():
    rng = np.random.default_rng(15)
    data = rng.standard_normal((512, 4))
    plan = sn.default_bandwidth_plan(512)
    base = sn.estimate_sequential_sdo(sn.TimeSeriesSample(data=data), plan)
    scaled = sn.estimate_sequential_sdo(sn.TimeSeriesSample(data=3.0 * data), plan)
    ps = sn.ProductStructure(2, 2)
    for make in (
        lambda s: sn.tvdfpca_sequential(s, 1),
        lambda s: sn.tvdpsca_sequential(s, 1, ps),
        lambda s: sn.coherence_sequential(s, 1, ps),
    ):
        a, b = make(base), make(scaled)
        mask = a.valid & b.valid
        assert np.allclose(a.values[mask], b.values[mask], atol=1e-10)
    qa = sn.stationarity_sequential(base, 4)
    qb = sn.stationarity_sequential(scaled, 4)
    assert np.allclose(qb.values, 9.0 * qa.values, rtol=1e-10)


def test_rank_restrict_examples():
    a = np.diag([3.0, 2.0, 1.0])
    assert np.allclose(sn.rank_restrict(a, 2), np.diag([3.0, 2.0, 0.0]), atol=1e-14)
    assert sn.rank_restrict(a, 3) is not None
    assert np.array_equal(sn.rank_restrict(a, 3), a)  # d = p passes through
    v = np.array([[1.0], [2.0]]) / math.sqrt(5.0)
    rank1 = 4.0 * (v @ v.T)
    assert np.allclose(sn.rank_restrict(rank1, 1), rank1, atol=1e-12)
    with pytest.warns(UserWarning, match="near-tie"):
        sn.rank_restrict(np.diag([3.0, 2.0, 2.0 + 1e-12]), 2)
    with pytest.raises(ValueError, match="d = 4"):
        sn.rank_restrict(a, 4)


def test_population_values_on_constant_truths():
    const = np.diag([8.0, 4.0, 2.0, 1.0]) / (2 * math.pi)
    val = sn.measure_population(lambda u, w: const, "tvdfpca", d=1, m_u=40, k_omega=8)
    assert val == pytest.approx(8.0 / 15.0, abs=1e-12)
    x = np.array([[2.0, 0.5], [0.5, 1.0]])
    y = np.array([[1.0, 0.3], [0.3, 2.0]])
    sep = np.kron(x, y) / (2 * math.pi)
    val = sn.measure_population(
        lambda u, w: sep, "tvdpsca", d=1, ps=sn.ProductStructure(2, 2), m_u=40, k_omega=8
    )
    assert val == pytest.approx(1.0, abs=1e-12)
    blocks = np.zeros((4, 4))
    blocks[:2, :2] = np.diag([2.0, 1.0])
    blocks[2:, 2:] = np.diag([1.0, 3.0])
    val = sn.measure_population(
        lambda u, w: blocks, "coherence", d=1, ps=sn.ProductStructure(2, 2), m_u=20, k_omega=4
    )
    assert val == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="unknown measure"):
        sn.measure_population(lambda u, w: const, "spectral", d=1)


def test_population_requires_structure_where_needed():
    const = np.eye(4) / (2 * math.pi)
    with pytest.raises(ValueError, match="product structure"):
        sn.measure_population(lambda u, w: const, "tvdpsca", d=1)
    with pytest.raises(ValueError, match="direct-sum"):
        sn.measure_population(lambda u, w: const, "coherence", d=1)


def test_non_finite_point_estimate_is_rejected():
    for last in (math.nan, math.inf):
        with pytest.raises(sn.NumericalError, match="not finite"):
            make_path([0.5, last])
    make_path([math.nan, 0.5])  # interior values are not checked


def fresh_copy(sdo):
    """The same estimate with empty spectral caches."""
    return sn.SequentialSDO(
        tensor=sdo.tensor, u_points=sdo.u_points, omega_points=sdo.omega_points,
        eta_points=sdo.eta_points, band=sdo.band, plan=sdo.plan,
    )


def assert_same_path(a, b):
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.valid, b.valid)
    assert a.diagnostics == b.diagnostics


def test_measures_do_not_depend_on_what_filled_the_caches():
    rng = np.random.default_rng(16)
    data = rng.standard_normal((1024, 4)) @ rng.standard_normal((4, 4))
    plan = sn.default_bandwidth_plan(1024)
    sdo = sn.estimate_sequential_sdo(sn.TimeSeriesSample(data=data), plan)
    ps = sn.ProductStructure(2, 2)
    alone = sn.tvdfpca_sequential(fresh_copy(sdo), 2)
    shared = fresh_copy(sdo)
    for d in range(1, sdo.p + 1):
        sn.tvdfpca_sequential(shared, d)
    assert_same_path(sn.tvdfpca_sequential(shared, 2), alone)
    alone = sn.tvdpsca_sequential(fresh_copy(sdo), 2, ps)
    shared = fresh_copy(sdo)
    sn.tvdpsca_sequential(shared, 1, ps)
    assert_same_path(sn.tvdpsca_sequential(shared, 2, ps), alone)


def test_cached_spectra_and_tensor_are_read_only():
    tensor = np.broadcast_to(np.diag([4.0, 3.0, 2.0, 1.0]) + 0j, (2, 2, 3, 4, 4)).copy()
    sdo = sn.SequentialSDO.from_tensor(tensor)
    assert sdo.tensor is tensor  # wrapped without a copy, so the caller's array is frozen
    ps = sn.ProductStructure(2, 2)
    scores = sdo.separable_scores(ps)
    for arr in (tensor, sdo.tensor, sdo.eigenvalues, scores):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    assert sdo.separable_scores(ps) is scores  # computed once, then shared
    assert np.array_equal(sdo.eigenvalues[0, 0, 0], [4.0, 3.0, 2.0, 1.0])


def test_eig_reconstruct_matches_einsum_form():
    rng = np.random.default_rng(17)
    b = rng.standard_normal((3, 4, 5, 6, 6)) + 1j * rng.standard_normal((3, 4, 5, 6, 6))
    vals, vecs = np.linalg.eigh(b @ np.conj(np.swapaxes(b, -1, -2)))
    weights = np.sqrt(vals)
    expected = np.einsum("...ij,...j,...kj->...ik", vecs, weights, vecs.conj())
    got = eig_reconstruct(vecs, weights)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
    single = eig_reconstruct(vecs[0, 0, 0], weights[0, 0, 0])
    assert np.max(np.abs(single - expected[0, 0, 0])) <= 1e-12 * np.max(np.abs(expected))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3))
def test_share_paths_always_lie_in_unit_interval(seed, d):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((2, 2, 5, 3, 3)) + 1j * rng.standard_normal((2, 2, 5, 3, 3))
    tensor = b @ np.conj(np.swapaxes(b, -1, -2))
    pth = sn.tvdfpca_sequential(sn.SequentialSDO.from_tensor(tensor), d)
    ok = pth.values[pth.valid]
    assert np.all(ok >= 0.0) and np.all(ok <= 1.0 + 1e-12)
