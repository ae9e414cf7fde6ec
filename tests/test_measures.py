"""Deviation measures: shares, coherence, stationarity, and their invariances."""

import dataclasses
import functools
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import specnorm as sn
from conftest import chunk_rows, make_path
from specnorm.estimator import cell_midpoints
from specnorm.hermitian import eig_reconstruct, hermitian_part, kron_rearrange, psd_project_batch
from specnorm.measures import _separable_scores, _tie_count


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


@pytest.mark.parametrize("p1, p2", [(2, 2), (2, 3), (3, 2), (4, 4)])
def test_squared_separable_scores_match_the_rearrangement_svd(p1, p2):
    # tvdpsca reads the squared scores as the eigenvalues of the smaller Gram
    # matrix of the Kronecker rearrangement R, never the singular values of R
    ps = sn.ProductStructure(p1, p2)
    rng = np.random.default_rng(31)
    shape = (3, 5, p1 * p2, p1 * p2)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f = b @ b.conj().swapaxes(-1, -2)
    squares, mass = _separable_scores(f, ps)
    expected = np.linalg.svd(kron_rearrange(f, ps), compute_uv=False) ** 2
    assert squares.shape == expected.shape == (3, 5, min(p1, p2) ** 2)
    assert np.all(np.abs(squares - expected) <= 1e-13 * mass[..., None])
    # a separable slice X (x) Y carries all its mass in one score, and the rest tie at zero
    x, y = (c @ c.conj().T for c in (b[1, 0, :p1, :p1], b[1, 1, :p2, :p2]))
    sdo = analytic_sdo(np.kron(x, y), n=p1 * p2)
    one = sn.tvdpsca_sequential(sdo, 1, ps)
    assert np.all(np.abs(one.values - 1.0) <= 1e-14) and one.diagnostics["near_tie_count"] == 0
    slices = sdo.m * sdo.k_omega * sdo.n_window
    for d in range(2, min(p1, p2) ** 2):
        assert sn.tvdpsca_sequential(sdo, d, ps).diagnostics["near_tie_count"] == slices


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
def scaled_paths(scale):
    """tvdfpca, tvdpsca, coherence and stationarity paths of one iid sample times ``scale``."""
    sample = sn.simulate(sn.IidSpec(T=1024, sigma=np.eye(4), seed=3))
    plan = sn.default_bandwidth_plan(1024, alpha=0.6)
    sdo = sn.estimate_sequential_sdo(sn.TimeSeriesSample(data=scale * sample.data), plan)
    ps = sn.ProductStructure(2, 2)
    return (sn.tvdfpca_sequential(sdo, 1), sn.tvdpsca_sequential(sdo, 1, ps),
            sn.coherence_sequential(sdo, 1, ps), sn.stationarity_sequential(sdo, 4))


@settings(max_examples=10, deadline=None)
@given(k=st.integers(-60, 60))
@example(k=60)
@example(k=-60)
def test_measures_invariant_under_data_scaling(k):
    base = scaled_paths(1.0)
    # times 2^k is exact in floating point: the ratio paths keep their bits, and the
    # stationarity path, quadratic in the data, is multiplied by exactly 4^k
    *ratios, stationarity = scaled_paths(2.0**k)
    for a, b in zip(base, ratios):
        assert np.array_equal(a.values, b.values) and np.array_equal(a.valid, b.valid)
    assert np.array_equal(stationarity.values, 4.0**k * base[-1].values)
    # any other factor leaves them to roundoff
    *ratios, stationarity = scaled_paths(3.0)
    for a, b in zip(base, ratios):
        mask = a.valid & b.valid
        assert np.allclose(a.values[mask], b.values[mask], atol=1e-10)
    assert np.allclose(stationarity.values, 9.0 * base[-1].values, rtol=1e-10)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       perm=st.integers(2, 4).flatmap(lambda p: st.permutations(range(p))))
@example(seed=861596, perm=[1, 0])
def test_paths_do_not_depend_on_the_coordinate_order(seed, perm):
    # F -> P F P^T leaves every spectrum, so every tvdfpca and stationarity path, unchanged
    rng = np.random.default_rng(seed)
    p = len(perm)
    data = rng.standard_normal((512, p)) @ rng.standard_normal((p, p))
    plan = sn.default_bandwidth_plan(512)
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
    val = sn.measure_population(
        lambda u, w: sep, "tvdpsca", d=4, ps=sn.ProductStructure(2, 2), m_u=40, k_omega=8
    )
    assert val == 1.0  # at full order the scores carry all the mass, as on the sequential path
    blocks = np.zeros((4, 4))
    blocks[:2, :2] = np.diag([2.0, 1.0])
    blocks[2:, 2:] = np.diag([1.0, 3.0])
    val = sn.measure_population(
        lambda u, w: blocks, "coherence", d=1, ps=sn.ProductStructure(2, 2), m_u=20, k_omega=4
    )
    assert val == pytest.approx(0.0, abs=1e-12)


def test_non_finite_point_estimate_is_rejected():
    for last in (math.nan, math.inf):
        with pytest.raises(sn.NumericalError, match="not finite"):
            make_path([0.5, last])
    # an interior value is refused too, by its fraction: a NaN there would make V NaN
    for bad in (math.nan, -math.inf):
        message = f"path at eta = 2/4 is not finite ({bad})"
        with pytest.raises(sn.NumericalError, match=re.escape(message)):
            make_path([0.5, bad, 0.5, math.nan])


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
    (vals,) = sdo.map_blocks(lambda f: (np.linalg.eigvalsh(f)[..., ::-1],), key="spectrum")
    for arr in (sdo.tensor, vals):
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


DIAG4 = np.diag([4.0, 3.0, 2.0, 1.0])
SEQUENTIAL = {
    "tvdfpca": lambda sdo, d, ps: sn.tvdfpca_sequential(sdo, d),
    "tvdpsca": sn.tvdpsca_sequential,
    "coherence": sn.coherence_sequential,
    "stationarity": lambda sdo, d, ps: sn.stationarity_sequential(sdo, d),
}


@functools.lru_cache(maxsize=None)
def iid4_sample():
    return sn.simulate(sn.IidSpec(T=256, sigma=DIAG4, seed=3))


def on_band(band):
    sample = iid4_sample()
    return sn.estimate_sequential_sdo(sample, sn.default_bandwidth_plan(sample.T), band=band)


@pytest.mark.parametrize(
    "kind, d, ps, grid, error, message, sequential",
    [
        ("tvdfpca", 9, None, {}, ValueError, "d = 9 must lie in [1, 4]", None),
        ("stationarity", 6, None, {}, ValueError, "d = 6 must lie in [1, 4]", None),
        ("coherence", 1, sn.ProductStructure(1, 1), {}, ValueError,
         "direct-sum structure (1, 1) does not add up to p = 4", None),
        ("coherence", 3, PS, {}, ValueError, "d = 3 must lie in [1, min(p1, p2) = 2]", None),
        ("coherence", 1, None, {}, ValueError, "coherence requires a direct-sum structure", None),
        ("tvdpsca", 5, PS, {}, ValueError, "d = 5 must lie in [1, min(p1^2, p2^2) = 4]", None),
        ("tvdpsca", 1, sn.ProductStructure(3, 2), {}, ValueError,
         "product structure (3, 2) does not factor p = 4", None),
        ("tvdpsca", 1, None, {}, ValueError, "tvdpsca requires a product structure", None),
        ("spectral", 1, None, {}, ValueError, "unknown measure kind 'spectral'", None),
        ("tvdfpca", 1, None, {"band": (2.0, 1.0)}, sn.ConfigError,
         "frequency band must satisfy 0 <= a < b <= pi, got (2.0, 1.0)", lambda: on_band((2.0, 1.0))),
        ("tvdfpca", 1, None, {"band": (0.0, 7.0)}, sn.ConfigError,
         "frequency band must satisfy 0 <= a < b <= pi, got (0.0, 7.0)", lambda: on_band((0.0, 7.0))),
        ("tvdfpca", 1, None, {"k_omega": 0}, sn.ConfigError, "k_omega = 0 must be at least 1",
         lambda: sn.estimate_sequential_sdo(iid4_sample(), sn.default_bandwidth_plan(256), k_omega=0)),
        ("tvdfpca", 1, None, {"m_u": 0}, sn.ConfigError, "m_u = 0 must be at least 1", None),
        ("tvdfpca", 1.5, None, {}, ValueError, "d = 1.5 must be an integer", None),
        ("stationarity", 1.5, None, {}, ValueError, "d = 1.5 must be an integer", None),
        ("tvdfpca", 1, None, {"m_u": 2.5}, sn.ConfigError, "m_u = 2.5 must be an integer", None),
        ("tvdfpca", 1, None, {"k_omega": 2.5}, sn.ConfigError, "k_omega = 2.5 must be an integer",
         lambda: sn.estimate_sequential_sdo(iid4_sample(), sn.default_bandwidth_plan(256), k_omega=2.5)),
        ("stationarity", 1, None, {"band": (0.0, 1.0)}, UserWarning,
         "stationarity measure expects the full band [0, pi], got (0, 1)",
         lambda: sn.stationarity_sequential(on_band((0.0, 1.0)), 1)),
    ],
    ids=["tvdfpca-d9", "stationarity-d6", "coherence-1-1", "coherence-d3", "coherence-no-ps",
         "tvdpsca-d5", "tvdpsca-3-2", "tvdpsca-no-ps", "unknown-kind", "band-reversed",
         "band-past-pi", "k_omega-0", "m_u-0", "tvdfpca-d1.5", "stationarity-d1.5", "m_u-2.5",
         "k_omega-2.5", "stationarity-half-band"],
)
def test_population_refuses_what_the_sequential_path_refuses(
    kind, d, ps, grid, error, message, sequential
):
    calls = []

    def truth(u, omega):
        calls.append((u, omega))
        return DIAG4

    expect = pytest.warns if issubclass(error, Warning) else pytest.raises
    with expect(error, match=re.escape(message)):
        sn.measure_population(truth, kind, d, ps, **{"m_u": 3, "k_omega": 2, **grid})
    if expect is pytest.raises:
        assert len(calls) <= 1  # refused before the truth is tabulated
    if sequential is None and kind in SEQUENTIAL and not grid:
        sequential = functools.partial(SEQUENTIAL[kind], analytic_sdo(DIAG4), d, ps)
    if sequential is not None:  # the sequential path refuses the same input in the same words
        with expect(error, match=re.escape(message)):
            sequential()


ZERO4 = np.zeros((4, 4))


@pytest.mark.parametrize(
    "kind, truth, error, message",
    [
        ("tvdfpca", lambda u, w: ZERO4, sn.NumericalError,
         "degenerate spectral mass: the estimate at eta = 1 is zero"),
        ("tvdpsca", lambda u, w: ZERO4, sn.NumericalError,
         "degenerate spectral mass: the estimate at eta = 1 is zero"),
        ("tvdfpca", lambda u, w: np.full((4, 4), np.nan), ValueError,
         "truth slice [0, 0] is not a finite matrix"),
        ("stationarity", lambda u, w: DIAG4 if u < 0.5 else np.diag([np.inf, 3, 2, 1]), ValueError,
         "truth slice [1, 0] is not a finite matrix"),
        ("tvdfpca", lambda u, w: DIAG4 + (w > 1.0) * np.eye(4, k=1), ValueError,
         "truth slice [0, 1] is not Hermitian: (A - A†)/2 has an entry of 5.000e-01 > 1e-12 "
         "times its largest entry 4.000e+00"),
        ("tvdfpca", lambda u, w: np.diagonal(DIAG4), ValueError,
         "truth at (u, omega) = (0.112702, 0.785398) is not a finite square matrix: shape (4,)"),
        ("tvdfpca", lambda u, w: 1.0, ValueError,
         "truth at (u, omega) = (0.112702, 0.785398) is not a finite square matrix: shape ()"),
        ("coherence", lambda u, w: DIAG4 if u < 0.5 else np.eye(2), ValueError,
         "truth at (u, omega) = (0.5, 0.785398) is not a finite 4 x 4 matrix: shape (2, 2)"),
    ],
    ids=["tvdfpca-zero", "tvdpsca-zero", "nan", "inf-later", "not-hermitian", "vector", "scalar",
         "order-changes"],
)
def test_population_refuses_a_truth_that_is_no_finite_p_by_p_operator(kind, truth, error, message):
    with pytest.raises(error, match=re.escape(message)):
        sn.measure_population(truth, kind, 1, PS, m_u=3, k_omega=2)
    if error is sn.NumericalError:  # in the words the sequential path uses for a zero estimate
        with pytest.raises(error, match=re.escape(message)):
            SEQUENTIAL[kind](analytic_sdo(ZERO4), 1, PS)


def test_population_reads_the_hermitian_part_of_a_truth_asymmetric_by_roundoff():
    rng = np.random.default_rng(21)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    raw = b @ DIAG4 @ b.conj().T
    assert not np.array_equal(raw, raw.conj().T)
    for kind in ("tvdfpca", "stationarity"):
        assert sn.measure_population(lambda u, w: raw, kind, 2, m_u=3, k_omega=2) == (
            sn.measure_population(lambda u, w: hermitian_part(raw), kind, 2, m_u=3, k_omega=2))


def test_numpy_integers_pass_as_orders_and_counts_and_bools_do_not():
    def truth(u, omega):
        return DIAG4

    expected = sn.measure_population(truth, "stationarity", 2, m_u=3, k_omega=2)
    assert sn.measure_population(truth, "stationarity", np.int64(2), m_u=np.int32(3),
                                 k_omega=np.uint8(2)) == expected
    sdo = sn.estimate_sequential_sdo(iid4_sample(), sn.default_bandwidth_plan(256), k_omega=3)
    again = sn.estimate_sequential_sdo(iid4_sample(), sn.default_bandwidth_plan(256),
                                       k_omega=np.int64(3), threads=np.int8(2))
    assert_same_path(sn.tvdfpca_sequential(again, np.int64(2)), sn.tvdfpca_sequential(sdo, 2))
    for flag in (True, np.True_):  # a bool indexes as a mask, so it is no order
        with pytest.raises(ValueError, match=f"d = {flag!r} must be an integer"):
            sn.tvdfpca_sequential(sdo, flag)
        with pytest.raises(sn.ConfigError, match=f"m_u = {flag!r} must be an integer"):
            sn.measure_population(truth, "tvdfpca", 1, m_u=flag)


COUPLING = np.array([[0.6, -0.8], [0.8, 0.6]])


@pytest.mark.parametrize(
    "truth",
    [sn.true_sdo(sn.TvFar1Spec(T=128, a=0.5 * np.eye(4), sigma_eps=np.diag([4.0, 3.0, 2.0, 1.0]))),
     sn.true_sdo(sn.CoherentPairSpec(T=128, p1=2, p2=2, coupling=COUPLING))],
    ids=["tvfar1", "coherent-pair"],
)
@pytest.mark.parametrize(
    "kind, ps, d_cap",
    [("tvdfpca", None, 4), ("tvdpsca", PS, 4), ("tvdpsca", sn.ProductStructure(1, 4), 1),
     ("coherence", PS, 2), ("coherence", sn.ProductStructure(1, 3), 1), ("stationarity", None, 4)],
)
def test_population_matches_the_sequential_path_on_a_u_constant_truth(truth, kind, ps, d_cap):
    k_omega = 8
    cells = hermitian_part(np.array([truth(0.5, om) for om in cell_midpoints((0.0, math.pi), k_omega)]))
    tensor = np.broadcast_to(cells[None, :, None], (3, k_omega, 5, 4, 4))
    for d in range(1, d_cap + 1):
        population = sn.measure_population(truth, kind, d, ps, m_u=5, k_omega=k_omega)
        path = SEQUENTIAL[kind](sn.SequentialSDO.from_tensor(tensor), d, ps)
        assert abs(population - path.point_estimate) <= 1e-12, (kind, d)


# Two Parzen plans at T = 1024: the default (N = 32, kappa = 0.4) and a longer window
# (N = 64, kappa = 0.3: below 1/(iota + 1), the other bandwidth case, with k_omega = 4)
PLANS = {"parzen": {}, "parzen_long": dict(alpha=0.6, kappa=0.3)}


@pytest.fixture(scope="module", params=list(PLANS))
def parzen_sdo(request):
    """A p = 4 estimate under each plan of ``PLANS``."""
    rng = np.random.default_rng(18)
    data = rng.standard_normal((1024, 4)) @ rng.standard_normal((4, 4))
    plan = sn.default_bandwidth_plan(1024, **PLANS[request.param])
    sdo = sn.estimate_sequential_sdo(sn.TimeSeriesSample(data=data), plan)
    assert sdo.k_omega > 3
    return sdo


def test_every_slice_of_an_estimate_is_psd(parzen_sdo):
    # Parzen's spectral window is nonnegative, so no slice, at any eta, is indefinite
    # beyond roundoff: coherence reads an estimate's slices without a PSD projection
    vals = np.linalg.eigvalsh(parzen_sdo.tensor)
    lowest = (vals[..., 0] / vals[..., -1]).min()
    assert lowest >= -8 * parzen_sdo.p * np.finfo(float).eps


@pytest.mark.parametrize("kind", list(MEASURES))
def test_measures_do_not_depend_on_the_thread_count(parzen_sdo, kind):
    for d in (1, 2):
        one = MEASURES[kind](fresh_copy(parzen_sdo), d)
        for threads in (2, 3):
            assert_same_path(MEASURES[kind](fresh_copy(parzen_sdo, threads), d), one)


def whole_tensor_path(sdo, kind, d, project=False):
    """The path of ``kind`` from decompositions of the whole (M, K, N, p, p) tensor.

    Coherence reads every slice PSD-projected when ``project``.
    """
    t, p1 = sdo.tensor, PS.p1

    def ratio(num, den):
        return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)

    if kind == "tvdfpca":
        vals = np.maximum(np.linalg.eigvalsh(t)[..., ::-1], 0.0)
        return ratio(vals[..., :d].sum(axis=-1).mean(axis=(0, 1)), vals.sum(axis=-1).mean(axis=(0, 1)))
    if kind == "tvdpsca":
        r = kron_rearrange(t, PS)  # squared scores: eigenvalues of the Gram R R^H (p1 = p2)
        squares = np.maximum(np.linalg.eigvalsh(r @ r.conj().swapaxes(-1, -2))[..., ::-1], 0.0)
        num = squares[..., :d].sum(axis=-1).mean(axis=(0, 1))
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
def test_blockwise_measures_match_the_whole_tensor(parzen_sdo, kind):
    for d in (1, 2):
        for threads in (1, 2):
            got = MEASURES[kind](fresh_copy(parzen_sdo, threads), d).values
            assert np.array_equal(got, whole_tensor_path(parzen_sdo, kind, d))


def test_coherence_without_projection_moves_only_roundoff(parzen_sdo):
    for d in (1, 2):
        path = sn.coherence_sequential(fresh_copy(parzen_sdo), d, PS)
        projected = whole_tensor_path(parzen_sdo, "coherence", d, project=True)
        gap = np.abs(path.values - projected)[path.valid]
        assert np.all(gap <= 1e-13 * np.abs(projected[path.valid]))


def test_only_the_estimator_projects(parzen_sdo, monkeypatch):
    calls = []

    def counted(f):
        calls.append(f.shape)
        return psd_project_batch(f)

    monkeypatch.setattr("specnorm.estimator.psd_project_batch", counted)
    assert not hasattr(sn.measures, "psd_project_batch")
    m, k, n, p = parzen_sdo.m, parzen_sdo.k_omega, parzen_sdo.n_window, parzen_sdo.p
    for kind in MEASURES:  # an estimate's block pass projects its eta = 1 slices, nothing more
        calls.clear()
        MEASURES[kind](fresh_copy(parzen_sdo), 1)
        assert calls == [(m, p, p)] * k, kind

    calls.clear()
    wrapped = sn.SequentialSDO.from_tensor(parzen_sdo.tensor)
    for kind in MEASURES:
        MEASURES[kind](wrapped, 1)
    assert calls == [(m, k, n, p, p)]  # every slice of a wrapped tensor, once, when it is wrapped


def test_a_wrapped_indefinite_tensor_is_measured_on_its_projection():
    rng = np.random.default_rng(33)
    b = rng.standard_normal((2, 3, 6, 4, 4)) + 1j * rng.standard_normal((2, 3, 6, 4, 4))
    tensor = hermitian_part(b) + 1.5 * np.eye(4)  # Hermitian, indefinite in most slices
    lowest = np.linalg.eigvalsh(tensor)[..., 0]
    assert 0 < (lowest < 0).mean() < 1
    projected, _ = psd_project_batch(tensor)
    wrapped = sn.SequentialSDO.from_tensor(tensor)
    assert wrapped.tensor.tobytes() == projected.tobytes()
    assert wrapped.diagnostics["psd_clip_max"] == max(0.0, -float(lowest.min()))
    # the explicit projection, wrapped as is: every block one chunk and no projection
    explicit = dataclasses.replace(wrapped, blocks=lambda j: [(0, projected[:, j], 0.0)],
                                   diagnostics={})
    for kind in MEASURES:
        for d in (1, 2):
            got, want = MEASURES[kind](fresh_copy(wrapped), d), MEASURES[kind](explicit, d)
            assert got.values.tobytes() == want.values.tobytes(), (kind, d)
            assert np.array_equal(got.valid, want.valid) and got.diagnostics == want.diagnostics
    clips = [max(0.0, -float(lowest[:, j].min())) for j in range(3)]
    assert [clip for j in range(3) for _, _, clip in wrapped.blocks(j)] == clips  # per block


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("plan_name", list(PLANS))
def test_chunk_length_changes_no_bit(monkeypatch, plan_name, threads):
    # each chunk carries the undivided partial sum of the chunk before it into
    # its cumulative sum, so any chunk length gives the one-chunk estimate's bits
    rng = np.random.default_rng(18)
    sample = sn.TimeSeriesSample(data=rng.standard_normal((1024, 4)) @ rng.standard_normal((4, 4)))
    plan = sn.default_bandwidth_plan(1024, **PLANS[plan_name])
    orders = {"tvdfpca": (1, 2, 4), "tvdpsca": (1, 2), "coherence": (1, 2),
              "stationarity": (1, 2, 3)}

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
    assert diagnostics["psd_clip_max"] == 0.0
    # stationarity flags its near ties per chunk: the count of the whole eigenvalue array
    vals = np.maximum(np.linalg.eigh(tensor)[0][..., ::-1], 0.0)
    for d in orders["stationarity"]:
        assert paths["stationarity", d].diagnostics["near_tie_count"] == _tie_count(vals, d)
    assert paths["stationarity", 3].diagnostics["near_tie_count"] > 0  # slices of rank < p tie
    for rows, expected in ((1, {1}), (7, {7, plan.N % 7}), (plan.N + 5, {plan.N})):
        got = run(rows)
        assert got[4] == expected
        assert got[0].tobytes() == tensor.tobytes()
        assert got[2] == got[3] == diagnostics
        for key, path in paths.items():
            assert_same_path(got[1][key], path)


def test_a_p64_stationarity_pass_holds_a_few_chunks_per_thread():
    # Chunks here are 8 rows, 2 MiB; a pass on 2 threads peaked at 15 MiB of numpy
    # arrays (2 vCPUs), about four chunk-sized arrays per thread while a chunk is
    # reduced. 32-row chunks (8 MiB) peak at 58 MiB.
    rng = np.random.default_rng(20)
    sample = sn.TimeSeriesSample(data=rng.standard_normal((4096, 64)))
    sdo = sn.estimate_sequential_sdo(sample, sn.default_bandwidth_plan(4096), threads=2)
    tracemalloc.start()
    try:
        sn.stationarity_sequential(sdo, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 << 20


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


@pytest.mark.parametrize("plan_name", list(PLANS))
def test_streamed_and_collected_estimates_give_identical_measures(plan_name):
    rng = np.random.default_rng(18)
    data = rng.standard_normal((1024, 4)) @ rng.standard_normal((4, 4))
    plan = sn.default_bandwidth_plan(1024, **PLANS[plan_name])
    sample = sn.TimeSeriesSample(data=data)
    collected = sn.estimate_sequential_sdo(sample, plan)
    assert collected.diagnostics == {}  # nothing is built before a block pass or a tensor read
    assert collected.tensor is collected.tensor  # collected once, on the first read
    assert collected.diagnostics["psd_clip_max"] == 0.0
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
    # a p x d block of eigenvectors rebuilds the rank-d part, as stationarity's roots do
    d = 2
    block = eig_reconstruct(vecs[..., -d:], weights[..., -d:])
    leading = np.einsum("...ij,...j,...kj->...ik", vecs[..., -d:], weights[..., -d:],
                        vecs[..., -d:].conj())
    assert block.shape == expected.shape
    assert np.max(np.abs(block - leading)) <= 1e-12 * np.max(np.abs(leading))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3))
def test_share_paths_always_lie_in_unit_interval(seed, d):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((2, 2, 5, 3, 3)) + 1j * rng.standard_normal((2, 2, 5, 3, 3))
    tensor = b @ np.conj(np.swapaxes(b, -1, -2))
    pth = sn.tvdfpca_sequential(sn.SequentialSDO.from_tensor(tensor), d)
    ok = pth.values[pth.valid]
    assert np.all(ok >= 0.0) and np.all(ok <= 1.0 + 1e-12)
