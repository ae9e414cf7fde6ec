"""Deviation measures: shares, coherence, stationarity, and their invariances."""

import dataclasses
import functools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import specnorm as sn
from conftest import chunk_rows, make_path
from specnorm.hermitian import eig_reconstruct, kron_rearrange, psd_project_batch


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
    with pytest.raises(ValueError, match="d = 5"):
        sn.stationarity_sequential(sdo, 5)


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
    with pytest.raises(ValueError, match=r"d = 5 must lie in \[1, min\(p1\^2, p2\^2\) = 4\]"):
        sn.tvdpsca_sequential(sdo, 5, sn.ProductStructure(2, 2))


def test_coherence_zero_on_block_diagonal_input():
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = np.diag([2.0, 1.0])
    block[2:, 2:] = np.diag([3.0, 0.5])
    pth = sn.coherence_sequential(analytic_sdo(block), 1, sn.ProductStructure(2, 2))
    assert np.all(pth.values == 0.0)
    with pytest.raises(ValueError, match="does not add up"):
        sn.coherence_sequential(analytic_sdo(block), 1, sn.ProductStructure(3, 2))
    with pytest.raises(ValueError, match=r"d = 3 must lie in \[1, min\(p1, p2\) = 2\]"):
        sn.coherence_sequential(analytic_sdo(block), 3, sn.ProductStructure(2, 2))


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
    with pytest.raises(sn.NumericalError, match="rank-deficient marginal"):
        sn.measure_population(
            lambda u, w: mat, "coherence", d=2, ps=sn.ProductStructure(2, 2), m_u=4, k_omega=2
        )
    # deficiency only at interior fractions: those cells are skipped and counted
    tensor = np.tile(np.eye(4, dtype=complex), (2, 2, 6, 1, 1))
    tensor[:, :, 4] = 0.0
    tensor[:, :, 4, 0, 0] = 1.0
    sdo = sn.SequentialSDO.from_tensor(tensor)
    pth = sn.coherence_sequential(sdo, 1, sn.ProductStructure(2, 2))
    assert not pth.valid[4]
    assert pth.valid[-1]
    assert pth.diagnostics["skipped_cells"] == 2 * 2  # the M * K cells at eta = 5/6


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


def test_stationarity_keeps_only_the_d_leading_components():
    # window estimates u_i * diag(2, 1): at d = 1 only the eigenvalue 2 enters,
    # so the dispersion is 2/3 of the full (d = 2) one, which weighs Tr A = 3
    m, n = 5, 4
    u = (np.arange(m) + 0.5) / m
    a = np.diag([2.0, 1.0]).astype(complex)
    tensor = u[:, None, None, None, None] * np.tile(a, (m, 2, n, 1, 1))
    sdo = sn.SequentialSDO.from_tensor(tensor)
    full = sn.stationarity_sequential(sdo, 2).values
    assert np.allclose(sn.stationarity_sequential(sdo, 1).values, full * 2.0 / 3.0, rtol=1e-12)


def test_near_ties_at_the_order_boundary_are_counted():
    sdo = analytic_sdo(np.diag([3.0, 2.0, 2.0 + 1e-12]))
    cells = sdo.m * sdo.k_omega * sdo.n_window
    for measure in (sn.tvdfpca_sequential, sn.stationarity_sequential):
        assert measure(sdo, 1).diagnostics["near_tie_count"] == 0
        assert measure(sdo, 2).diagnostics["near_tie_count"] == cells
        assert measure(sdo, 3).diagnostics["near_tie_count"] == 0


def test_stationarity_warns_off_full_band():
    sample = sn.simulate(sn.IidSpec(T=256, sigma=np.eye(2), seed=14))
    plan = sn.default_bandwidth_plan(256)
    sdo = sn.estimate_sequential_sdo(sample, plan, band=(0.0, math.pi / 2))
    with pytest.warns(UserWarning, match="full band"):
        sn.stationarity_sequential(sdo, 2)


@functools.lru_cache(maxsize=None)
def scaled_paths(scale, kernel):
    """tvdfpca, tvdpsca, coherence and stationarity paths of one iid sample times ``scale``."""
    sample = sn.simulate(sn.IidSpec(T=1024, sigma=np.eye(4), seed=3))
    plan = sn.default_bandwidth_plan(1024, alpha=0.6, kernel=kernel)
    sdo = sn.estimate_sequential_sdo(sn.TimeSeriesSample(data=scale * sample.data), plan)
    ps = sn.ProductStructure(2, 2)
    return (sn.tvdfpca_sequential(sdo, 1), sn.tvdpsca_sequential(sdo, 1, ps),
            sn.coherence_sequential(sdo, 1, ps), sn.stationarity_sequential(sdo, 4))


@settings(max_examples=10, deadline=None)
@given(k=st.integers(-60, 60))
@example(k=60)
@example(k=-60)
def test_measures_invariant_under_data_scaling(k):
    for kernel in (sn.PARZEN, sn.FLAT_TOP):
        base = scaled_paths(1.0, kernel)
        # times 2^k is exact in floating point: the ratio paths keep their bits, and the
        # stationarity path, quadratic in the data, is multiplied by exactly 4^k
        *ratios, stationarity = scaled_paths(2.0**k, kernel)
        for a, b in zip(base, ratios):
            assert np.array_equal(a.values, b.values) and np.array_equal(a.valid, b.valid)
        assert np.array_equal(stationarity.values, 4.0**k * base[-1].values)
        # any other factor leaves them to roundoff
        *ratios, stationarity = scaled_paths(3.0, kernel)
        for a, b in zip(base, ratios):
            mask = a.valid & b.valid
            assert np.allclose(a.values[mask], b.values[mask], atol=1e-10)
        assert np.allclose(stationarity.values, 9.0 * base[-1].values, rtol=1e-10)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       perm=st.integers(2, 4).flatmap(lambda p: st.permutations(range(p))))
@example(seed=861596, perm=[1, 0])  # a flat-top slice eigenvalue lands on the root floor
def test_paths_do_not_depend_on_the_coordinate_order(seed, perm):
    # F -> P F P^T leaves every spectrum, so every tvdfpca and stationarity path, unchanged
    rng = np.random.default_rng(seed)
    p = len(perm)
    data = rng.standard_normal((512, p)) @ rng.standard_normal((p, p))
    for kernel in (sn.PARZEN, sn.FLAT_TOP):
        plan = sn.default_bandwidth_plan(512, kernel=kernel)
        sdo, swapped = (
            sn.estimate_sequential_sdo(sn.TimeSeriesSample(data=x), plan)
            for x in (data, data[:, list(perm)])
        )
        # A slice eigenvalue within roundoff (p eps lam) of zero may fall on either side of
        # the root floor after the swap, and the square root is only Hoelder-1/2 there: a root
        # moves by up to 2 p sqrt(eps lam) in Frobenius norm, a dispersion path value by up
        # to 16 p^1.5 sqrt(eps) lam, and V by twice that (lam: the largest slice eigenvalue).
        lam = np.linalg.eigvalsh(sdo.tensor).max()
        stationarity_tol = 32 * p**1.5 * math.sqrt(np.finfo(float).eps) * lam
        for measure in (sn.tvdfpca_sequential, sn.stationarity_sequential):
            for d in range(1, p + 1):
                a, b = measure(sdo, d), measure(swapped, d)
                # V is compared on the scale of the path: near share 1 it is roundoff itself
                tol = 1e-12 * np.max(np.abs(a.values))
                if measure is sn.stationarity_sequential:
                    tol = stationarity_tol
                assert np.max(np.abs(a.values - b.values)) <= tol
                assert np.array_equal(a.valid, b.valid)
                assert abs(sn.self_norm_V([a]).values[0] - sn.self_norm_V([b]).values[0]) <= tol


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


def fresh_copy(sdo, threads=1):
    """The same estimate on ``threads`` threads, with no block pass kept and no diagnostics."""
    return dataclasses.replace(sdo, diagnostics={}, threads=threads)


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
    sn.tvdpsca_sequential(shared, 1, sn.ProductStructure(1, 4))  # each structure keeps its own
    sn.tvdpsca_sequential(shared, 1, ps)
    assert_same_path(sn.tvdpsca_sequential(shared, 2, ps), alone)


def test_cached_spectra_and_tensor_are_read_only():
    tensor = np.broadcast_to(np.diag([4.0, 3.0, 2.0, 1.0]) + 0j, (2, 2, 3, 4, 4)).copy()
    sdo = sn.SequentialSDO.from_tensor(tensor)
    assert sdo.tensor is tensor  # wrapped without a copy, so the caller's array is frozen
    (vals,) = sdo.map_blocks(lambda f: (np.linalg.eigvalsh(f)[..., ::-1],), key="spectrum")
    for arr in (tensor, sdo.tensor, vals):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    # a kept pass is run once, then shared, whatever the work asked later
    assert sdo.map_blocks(lambda f: (f,), key="spectrum")[0] is vals
    assert np.array_equal(vals[0, 0, 0], [4.0, 3.0, 2.0, 1.0])
    assert sdo.diagnostics == {"psd_clip_max": 0.0}


def test_a_pass_kept_as_tensor_and_the_tensor_are_kept_apart(iid_sdo):
    # the collected tensor is no block pass: no key a caller passes reaches it
    sdo = fresh_copy(iid_sdo)
    kept = sdo.map_blocks(lambda f: (f.real,), key="tensor")
    assert isinstance(kept, tuple) and isinstance(sdo.tensor, np.ndarray)
    assert sdo.map_blocks(lambda f: (f,), key="tensor") is kept
    read_first = fresh_copy(iid_sdo)
    tensor = read_first.tensor
    again = read_first.map_blocks(lambda f: (f.real,), key="tensor")
    assert isinstance(again, tuple) and np.array_equal(again[0], tensor.real)
    assert read_first.tensor is tensor


PS = sn.ProductStructure(2, 2)
MEASURES = {
    "tvdfpca": sn.tvdfpca_sequential,
    "tvdpsca": lambda sdo, d: sn.tvdpsca_sequential(sdo, d, PS),
    "coherence": lambda sdo, d: sn.coherence_sequential(sdo, d, PS),
    "stationarity": sn.stationarity_sequential,
}


@pytest.fixture(scope="module", params=["parzen", "flat_top"])
def kernel_sdo(request):
    """A p = 4 estimate; the flat-top kernel leaves negative eigenvalues to clip."""
    rng = np.random.default_rng(18)
    data = rng.standard_normal((1024, 4)) @ rng.standard_normal((4, 4))
    kernel = sn.kernel_by_name(request.param)
    plan = sn.default_bandwidth_plan(1024, kernel=kernel)
    sdo = sn.estimate_sequential_sdo(sn.TimeSeriesSample(data=data), plan)
    assert sdo.k_omega > 3
    return sdo


def test_only_the_flat_top_kernel_leaves_indefinite_slices(kernel_sdo):
    vals = np.linalg.eigvalsh(kernel_sdo.tensor)
    lowest = (vals[..., 0] / vals[..., -1]).min()
    if kernel_sdo.plan.kernel.psd:
        assert lowest >= -8 * kernel_sdo.p * np.finfo(float).eps
    else:
        assert lowest < -1e-3


@pytest.mark.parametrize("kind", list(MEASURES))
def test_measures_do_not_depend_on_the_thread_count(kernel_sdo, kind):
    for d in (1, 2):
        one = MEASURES[kind](fresh_copy(kernel_sdo), d)
        for threads in (2, 3):
            assert_same_path(MEASURES[kind](fresh_copy(kernel_sdo, threads), d), one)


def whole_tensor_path(sdo, kind, d, project=None):
    """The path of ``kind`` from decompositions of the whole (M, K, N, p, p) tensor.

    Coherence reads every slice PSD-projected when ``project``, by default
    when the estimate's kernel is not PSD.
    """
    t, p1 = sdo.tensor, PS.p1
    if project is None:
        project = not sdo.plan.kernel.psd

    def ratio(num, den):
        return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)

    if kind == "tvdfpca":
        vals = np.maximum(np.linalg.eigvalsh(t)[..., ::-1], 0.0)
        return ratio(vals[..., :d].sum(axis=-1).mean(axis=(0, 1)), vals.sum(axis=-1).mean(axis=(0, 1)))
    if kind == "tvdpsca":
        scores = np.linalg.svd(kron_rearrange(t, PS), compute_uv=False)
        num = (scores[..., :d] ** 2).sum(axis=-1).mean(axis=(0, 1))
        return ratio(num, (np.abs(t) ** 2).sum(axis=(-2, -1)).mean(axis=(0, 1)))
    vals, vecs = np.linalg.eigh(t)
    if kind == "coherence":
        proj = eig_reconstruct(vecs, np.maximum(vals, 0.0)) if project else t
        lam1 = np.maximum(np.linalg.eigvalsh(proj[..., :p1, :p1])[..., p1 - d], 0.0)
        lam2 = np.maximum(np.linalg.eigvalsh(proj[..., p1:, p1:])[..., -d], 0.0)
        sig = np.linalg.svd(proj[..., :p1, p1:], compute_uv=False)[..., d - 1]
        tr1 = np.einsum("...ii->...", proj[..., :p1, :p1]).real
        tr2 = np.einsum("...ii->...", proj[..., p1:, p1:]).real
        defined = (lam1 > 1e-12 * tr1) & (lam2 > 1e-12 * tr2)
        cells = np.where(defined, sig / np.sqrt(np.where(defined, lam1 * lam2, 1.0)), 0.0)
        return ratio(cells.sum(axis=(0, 1)), defined.sum(axis=(0, 1)))
    floor = sdo.p * np.finfo(float).eps * np.maximum(vals[..., -1:], 0.0)
    roots = np.sqrt(np.where(vals > floor, vals, 0.0))  # roundoff-level eigenvalues get a zero root
    roots[..., : sdo.p - d] = 0.0
    s = eig_reconstruct(vecs, roots)
    s -= s.mean(axis=0, keepdims=True)
    return (np.abs(s) ** 2).sum(axis=(-2, -1)).mean(axis=(0, 1))


@pytest.mark.parametrize("kind", list(MEASURES))
def test_blockwise_measures_match_the_whole_tensor(kernel_sdo, kind):
    for d in (1, 2):
        for threads in (1, 2):
            got = MEASURES[kind](fresh_copy(kernel_sdo, threads), d).values
            expected = whole_tensor_path(kernel_sdo, kind, d)
            if kind == "coherence" and not kernel_sdo.plan.kernel.psd:
                # only slices with a negative eigenvalue are rebuilt
                assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
            else:
                assert np.array_equal(got, expected)


def test_coherence_without_projection_moves_only_roundoff(kernel_sdo):
    for d in (1, 2):
        path = sn.coherence_sequential(fresh_copy(kernel_sdo), d, PS)
        projected = whole_tensor_path(kernel_sdo, "coherence", d, project=True)
        gap = np.abs(path.values - projected)[path.valid]
        assert np.all(gap <= 1e-13 * np.abs(projected[path.valid]))


def test_coherence_projects_only_where_the_kernel_is_not_psd(kernel_sdo, monkeypatch):
    calls = []

    def counted(f):
        calls.append(f.shape)
        return psd_project_batch(f)

    monkeypatch.setattr("specnorm.measures.psd_project_batch", counted)
    sn.coherence_sequential(fresh_copy(kernel_sdo), 1, PS)
    assert len(calls) == (0 if kernel_sdo.plan.kernel.psd else kernel_sdo.k_omega)
    calls.clear()
    sn.coherence_sequential(sn.SequentialSDO.from_tensor(kernel_sdo.tensor), 1, PS)
    assert len(calls) == kernel_sdo.k_omega  # no plan, so no kernel to vouch for the slices


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kernel", ["parzen", "flat_top"])
def test_chunk_length_changes_no_bit(monkeypatch, kernel, threads):
    # each chunk carries the undivided partial sum of the chunk before it into
    # its cumulative sum, so any chunk length gives the one-chunk estimate's bits
    rng = np.random.default_rng(18)
    sample = sn.TimeSeriesSample(data=rng.standard_normal((1024, 4)) @ rng.standard_normal((4, 4)))
    plan = sn.default_bandwidth_plan(1024, kernel=sn.kernel_by_name(kernel))
    orders = {"tvdfpca": (1, 2, 4), "tvdpsca": (1, 2), "coherence": (1, 2), "stationarity": (1, 2)}

    def run(rows):
        """The tensor, every path, both diagnostics and the chunk lengths at ``rows``."""
        chunk_rows(monkeypatch, rows)
        lengths = []
        sdo = sn.estimate_sequential_sdo(sample, plan, threads=threads)
        build = sdo.blocks

        def blocks(j):
            for chunk in build(j):
                lengths.append(chunk[1].shape[1])
                yield chunk

        sdo = dataclasses.replace(sdo, blocks=blocks)
        paths = {(kind, d): MEASURES[kind](sdo, d) for kind, ds in orders.items() for d in ds}
        collected = fresh_copy(sdo, threads)
        return collected.tensor, paths, collected.diagnostics, sdo.diagnostics, set(lengths)

    tensor, paths, diagnostics, pass_diagnostics, lengths = run(plan.N)
    assert lengths == {plan.N} and pass_diagnostics == diagnostics
    assert (diagnostics["psd_clip_max"] > 0) == (kernel == "flat_top")
    for rows, expected in ((1, {1}), (7, {7, plan.N % 7}), (plan.N + 5, {plan.N})):
        got = run(rows)
        assert got[4] == expected
        assert got[0].tobytes() == tensor.tobytes()
        assert got[2] == got[3] == diagnostics
        for key, path in paths.items():
            assert_same_path(got[1][key], path)


def test_threads_sharing_a_pass_lose_no_chunk(monkeypatch):
    # more threads than cores, switching as often as the interpreter allows: the
    # outputs are allocated once and every one-row chunk lands in its place
    chunk_rows(monkeypatch, 1)
    rng = np.random.default_rng(19)
    sample = sn.TimeSeriesSample(data=rng.standard_normal((1024, 3)))
    plan = sn.default_bandwidth_plan(1024)
    one = sn.estimate_sequential_sdo(sample, plan, k_omega=16).tensor
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            many = sn.estimate_sequential_sdo(sample, plan, k_omega=16, threads=8)
            real, imag = many.map_blocks(lambda f: (f.real, f.imag))
            assert real.tobytes() == one.real.tobytes() and imag.tobytes() == one.imag.tobytes()
    finally:
        sys.setswitchinterval(interval)


def counted_stream(sample, plan, threads):
    """An estimate on ``threads`` threads that records every block it builds."""
    sdo = sn.estimate_sequential_sdo(sample, plan, threads=threads)
    built = []

    def blocks(j):
        built.append(j)
        return sdo.blocks(j)

    return dataclasses.replace(sdo, blocks=blocks), built


@pytest.mark.parametrize("kernel", ["parzen", "flat_top"])
def test_streamed_and_collected_estimates_give_identical_measures(kernel):
    rng = np.random.default_rng(18)
    data = rng.standard_normal((1024, 4)) @ rng.standard_normal((4, 4))
    plan = sn.default_bandwidth_plan(1024, kernel=sn.kernel_by_name(kernel))
    sample = sn.TimeSeriesSample(data=data)
    collected = sn.estimate_sequential_sdo(sample, plan)
    assert collected.diagnostics == {}  # nothing is built before a block pass or a tensor read
    assert collected.tensor is collected.tensor  # collected once, on the first read
    assert (collected.diagnostics["psd_clip_max"] > 0) == (kernel == "flat_top")
    # blocks collected on several threads carry the same bits and the same clip
    for threads in (2, 3):
        again = sn.estimate_sequential_sdo(sample, plan, threads=threads)
        assert again.threads == threads and again.tensor.tobytes() == collected.tensor.tobytes()
        assert again.diagnostics == collected.diagnostics
    orders = {"tvdfpca": range(1, 5), "tvdpsca": (1, 2), "coherence": (1, 2), "stationarity": (1, 2)}
    for threads in (1, 2, 3):
        for kind, ds in orders.items():
            streamed, built = counted_stream(sample, plan, threads)
            read_first, read_built = counted_stream(sample, plan, threads)
            read_first.tensor
            for d in ds:
                assert_same_path(MEASURES[kind](streamed, d), MEASURES[kind](read_first, d))
            assert streamed.diagnostics == read_first.diagnostics == collected.diagnostics
            # tvdfpca and tvdpsca read every order from one block pass
            passes = 1 if kind in ("tvdfpca", "tvdpsca") else len(ds)
            assert sorted(built) == sorted(list(range(streamed.k_omega)) * passes)
            # a pass after the tensor read still builds its blocks: one block source
            assert sorted(read_built) == sorted(list(range(streamed.k_omega)) * (passes + 1))


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
