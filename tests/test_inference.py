"""Self-normalization, the exact and Monte Carlo pivot tables, and the rules on them."""

import dataclasses
import inspect
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specnorm as sn
from conftest import make_path


def test_self_norm_matches_linear_path_integral():
    # values eta on the grid: D(eta) = eta^3 (eta - 1), and the Riemann sum
    # converges to integral eta^6 (eta - 1)^2 = 1/252
    n = 4000
    eta = np.arange(1, n + 1) / n
    v = sn.self_norm_V([make_path(eta, f_exp=3)])
    direct = np.mean((eta**3 * (eta - 1.0)) ** 2)
    assert v.values[0] ** 2 == pytest.approx(direct, rel=1e-14)
    assert v.values[0] ** 2 == pytest.approx(1.0 / 252.0, rel=1e-4)


def test_self_norm_small_grid_hand_computed():
    values = np.array([0.5, 0.25, 1.0, 0.0])
    eta = np.arange(1, 5) / 4
    dev = eta**2 * (values - values[-1])
    expected = np.sqrt(np.mean(dev**2))
    v = sn.self_norm_V([make_path(values, f_exp=2)])
    assert v.values[0] == pytest.approx(expected, rel=1e-15)


def test_self_norm_degenerate_and_invalid_paths():
    const = make_path(np.full(64, 0.7))
    assert sn.self_norm_V([const]).values[0] == 0.0
    # invalid fractions contribute nothing
    values = np.linspace(0.2, 0.9, 64)
    half = make_path(values, valid=np.arange(64) >= 32)
    full = sn.self_norm_V([make_path(values)]).values[0]
    masked = sn.self_norm_V([half]).values[0]
    dev = (np.arange(1, 65) / 64) ** 3 * (values - values[-1])
    expected = np.sqrt(np.mean(np.where(np.arange(64) >= 32, dev, 0.0) ** 2))
    assert masked == pytest.approx(expected, rel=1e-14)
    assert masked < full


def test_self_norm_multiple_paths_and_grid_mismatch():
    a = make_path(np.linspace(0.0, 1.0, 32))
    b = make_path(np.linspace(1.0, 0.0, 32), f_exp=2)
    v = sn.self_norm_V([a, b])
    assert v.matrix.shape == (2, 2)
    assert v.matrix[0, 1] == pytest.approx(v.matrix[1, 0])
    with pytest.raises(ValueError, match="fraction grid"):
        sn.self_norm_V([a, make_path(np.zeros(16))])
    with pytest.raises(ValueError, match="at least one"):
        sn.self_norm_V([])


# The two scalar engines at (3, 2) on 500 points: the table (cached in d, or
# with use_cache=False not at all), its cache file and the (replications,
# seed) part of its key.
ENGINES = {
    "mc": (
        lambda d, **kw: sn.mc_quantiles(3, 2, replications=10_000, bm_steps=500, cache_dir=d, **kw),
        lambda d: sn.pivot_cache_path(3, 2, 10_000, 500, sn.DEFAULT_QUANTILE_SEED, cache_dir=d),
        (10_000, sn.DEFAULT_QUANTILE_SEED),
    ),
    "exact": (
        lambda d, **kw: sn.exact_quantiles(3, 2, bm_steps=500, cache_dir=d, **kw),
        lambda d: sn.exact_cache_path(3, 2, 500, cache_dir=d),
        (0, 0),
    ),
}


def test_quantile_table_roundtrip_and_cache(tmp_path):
    # a text table of the old format, in the old slot, is never read
    (tmp_path / "pivot_exact_f3_g2_n500.txt").write_text("3 2 0 500 0\n0.001 -3.\n")
    for engine, (build, cache_path, (reps, seed)) in ENGINES.items():
        law = build(tmp_path)
        path = cache_path(tmp_path)
        assert path.name.startswith(f"pivot_{engine}_v2_f3_g2_") and path.suffix == ".npy"
        entry = np.concatenate([[3, 2, reps, 500, seed], law.quantiles])
        assert np.load(path).tobytes() == entry.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the fresh table passes every load check
            again = build(tmp_path)
        # the cached table is the fresh one bit for bit
        fresh = build(None, use_cache=False)
        assert again.quantiles.tobytes() == law.quantiles.tobytes() == fresh.quantiles.tobytes()
        assert again.alphas.tobytes() == sn.ALPHA_GRID.tobytes()
        assert (again.pairs, again.replications, again.bm_steps, again.seed) == (
            ((3, 2),), reps, 500, seed)
    # one entry per engine, and the exact one is keyed on f, g and n only
    assert sn.exact_cache_path(3, 2, 500, cache_dir=tmp_path).name == "pivot_exact_v2_f3_g2_n500.npy"
    assert len(list(tmp_path.glob("pivot_*.npy"))) == 2


def test_failed_cache_write_warns_and_returns_the_built_table(tmp_path, monkeypatch):
    uncached = [build(None, use_cache=False) for build, _, _ in ENGINES.values()]
    (tmp_path / "file").write_text("")
    blocked = tmp_path / "file" / "cache"  # a directory no user, root included, can make
    for (build, _, _), law in zip(ENGINES.values(), uncached):
        with pytest.warns(UserWarning, match="could not write quantile cache"):
            assert np.array_equal(build(blocked).quantiles, law.quantiles)

    # a write that fails partway leaves neither a table nor its temporary file
    def disk_full(fh, values, allow_pickle):
        fh.write(b"\x93NUMPY")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(np, "save", disk_full)
    for (build, cache_path, _), law in zip(ENGINES.values(), uncached):
        with pytest.warns(UserWarning, match="could not write quantile cache"):
            assert np.array_equal(build(tmp_path).quantiles, law.quantiles)
        assert not cache_path(tmp_path).exists()
    assert list(tmp_path.iterdir()) == [tmp_path / "file"]  # no *.tmp left behind


@pytest.mark.parametrize("engine", list(ENGINES))
def test_corrupt_cache_recomputes_with_warning(tmp_path, engine):
    build, cache_path, (reps, seed) = ENGINES[engine]
    law = build(tmp_path)
    path = cache_path(tmp_path)
    written = path.read_bytes()

    def rebuilt(warning: str) -> None:
        with pytest.warns(UserWarning, match=warning):
            again = build(tmp_path)
        assert again.quantiles.tobytes() == law.quantiles.tobytes()
        assert path.read_bytes() == written  # and stored afresh

    for damaged in (written[:-8], written[:40], b"garbage\n"):
        path.write_bytes(damaged)
        rebuilt("unreadable quantile cache")
    # a table for different parameters in the same slot counts as stale, and so
    # does the right key over a table that is not one finite, non-decreasing and
    # antisymmetric quantile per level, or not a float64 vector
    key = np.array([3, 2, reps, 500, seed], dtype=float)
    grid = np.linspace(-1, 1, len(sn.ALPHA_GRID))
    nan_entry, inf_top, swapped = grid.copy(), grid.copy(), grid.copy()
    nan_entry[975] = np.nan
    inf_top[-1] = np.inf
    swapped[[500, 501]] = swapped[[501, 500]]
    off_center = grid + 1e-3  # q(0.5) != 0
    lopsided = np.where(grid > 0, 1.01 * grid, grid)  # q(0.5) = 0, q(a) != -q(1 - a)
    other_key = key.copy()
    other_key[2] = 99
    for entry in (
        np.concatenate([other_key, law.quantiles]),
        np.concatenate([key[:4], law.quantiles]),
        np.concatenate([key, -law.quantiles]),  # sign-flipped: decreasing
        np.concatenate([key, nan_entry]),
        np.concatenate([key, inf_top]),
        np.concatenate([key, swapped]),
        np.concatenate([key, off_center]),
        np.concatenate([key, lopsided]),
        np.concatenate([key, law.quantiles[1:-1]]),  # 997 levels
        np.concatenate([key, law.quantiles]).astype(np.float32),
        np.concatenate([key, law.quantiles])[None],
        np.float64(0.0),
    ):
        np.save(path, entry)
        rebuilt("stale quantile cache")


def test_quantiles_independent_of_thread_count():
    one = sn.mc_quantiles(2, 1, replications=12_000, bm_steps=500, threads=1, use_cache=False)
    three = sn.mc_quantiles(2, 1, replications=12_000, bm_steps=500, threads=3, use_cache=False)
    assert np.array_equal(one.quantiles, three.quantiles)
    pairs = [(3, 2), (2, 1)]
    one = sn.mc_quantiles_joint(pairs, replications=12_000, bm_steps=500, threads=1)
    three = sn.mc_quantiles_joint(pairs, replications=12_000, bm_steps=500, threads=3)
    assert np.array_equal(one.quantiles, three.quantiles)


def test_degenerate_joint_draws_are_redrawn_in_index_order(monkeypatch):
    # declare every U of the first batch singular: each row is then redrawn
    # on its own, in index order, from the same stream, so the chunk equals
    # the second half of a chunk twice its size
    from specnorm import inference

    pairs, size = ((3, 2), (2, 1)), 16
    expected = inference._chunk(pairs, True, 500, 11, 0, 2 * size)[size:]
    det = np.linalg.det
    calls = []

    def first_batch_singular(u):
        calls.append(len(u))
        return np.zeros(len(u)) if len(calls) == 1 else det(u)

    monkeypatch.setattr(np.linalg, "det", first_batch_singular)
    redrawn = inference._chunk(pairs, True, 500, 11, 0, size)
    assert calls == [size] + [1] * size
    assert np.array_equal(redrawn, expected)


@pytest.mark.parametrize("threads", [1, 3])
def test_row_block_size_changes_no_bit(monkeypatch, threads):
    # each row's noise comes from the chunk's one stream in row order and its
    # arithmetic is row by row, so blocks of a few rows (2048 and the last
    # chunk's 1808 rows leave a remainder) or of a whole chunk give the
    # default block's tables
    from specnorm import inference

    def tables():
        scalar = sn.mc_quantiles(2, 1, replications=10_000, bm_steps=500, threads=threads,
                                 use_cache=False)
        joint = sn.mc_quantiles_joint([(3, 2), (2, 1)], replications=10_000, bm_steps=500,
                                      threads=threads)
        return scalar.quantiles, joint.quantiles

    expected = tables()
    for block_bytes in (3 * 2 * 8 * 500, 2 * 8 * 500 * inference._CHUNK):
        monkeypatch.setattr(inference, "_BLOCK_BYTES", block_bytes)
        for got, want in zip(tables(), expected):
            assert np.array_equal(got, want), block_bytes


def test_monte_carlo_memory_is_bounded_by_the_row_block():
    # a 2048-path chunk at 4000 steps is 65.5 MB drawn whole; drawn in row
    # blocks, the engine holds its two block buffers and little else
    import tracemalloc

    from specnorm import inference

    tracemalloc.start()
    try:
        sn.mc_quantiles(2, 1, replications=10_000, bm_steps=4000, threads=1, use_cache=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * inference._BLOCK_BYTES


def test_exact_table_has_no_monte_carlo_error():
    law = sn.exact_quantiles(3, 2, bm_steps=500, use_cache=False)
    assert (law.pairs, law.joint, law.replications, law.bm_steps, law.seed) == (
        ((3, 2),), False, 0, 500, 0)
    assert np.array_equal(law.alphas, sn.ALPHA_GRID)
    q = law.quantiles
    assert q[499] == 0.0 and np.array_equal(q, -q[::-1])
    assert (np.diff(q) > 0).all()
    assert sn.quantile_se(law, 0.05) == 0.0
    # a Monte Carlo table that is flat around alpha has no finite density there
    flat = dataclasses.replace(law, replications=10_000, quantiles=np.zeros_like(q))
    assert sn.quantile_se(flat, 0.05) == math.inf
    # no seed and no thread count enter the exact engine
    assert not {"replications", "seed", "threads"} & set(
        inspect.signature(sn.exact_quantiles).parameters)


@pytest.mark.parametrize("pair, n, pinned", [
    ((3, 2), 500, {600: "0x1.ce2040eba4ccep+0", 950: "0x1.d60590448804ap+3",
                   975: "0x1.2c3e92ea082fdp+4", 999: "0x1.2dbd0801bc937p+5"}),
    ((2, 1), 1000, {600: "0x1.3dd20f4e566b7p+0", 950: "0x1.408143898888dp+3",
                    975: "0x1.989208cb2ecacp+3", 999: "0x1.980fa50f2e614p+4"}),
])
def test_exact_table_keeps_its_bits(pair, n, pinned):
    # a cached exact table is served as long as its key matches, so a change
    # in the engine's numerics must show here rather than as a disagreement
    # between a warm cache and a fresh build; keys are alpha in thousandths
    q = sn.exact_quantiles(*pair, bm_steps=n, use_cache=False).quantiles
    assert {k: q[k - 1].hex() for k in pinned} == pinned


@pytest.mark.parametrize("pair", [(3, 2), (4, 3), (2, 1), (2, 2)])
def test_exact_table_is_converged_in_its_quadrature(pair):
    # a four times finer s step and x grid move no quantile by more than 1e-4
    from specnorm import inference

    base = inference._exact_table(*pair, 500)
    fine = inference._exact_table(*pair, 500, step=inference._S_STEP / 4,
                                  points=4 * inference._X_POINTS)
    nonzero = fine != 0
    assert np.max(np.abs(base - fine)[nonzero] / np.abs(fine[nonzero])) <= 1e-4


@pytest.mark.parametrize("pair", [(3, 2), (2, 2)])
def test_exact_table_against_the_eigendecomposition_formula(pair):
    # Reference: one dense eigh of C = D'D / n, D = diag(eta^g) L - eta^f a',
    # and det(I - 2it(aa' - x^2 C)) by the determinant lemma on C's
    # eigenbasis; at each tabulated quantile the CDF of |T| must read
    # 2 alpha - 1. At (3, 2) the vector a lies in C's null space (C a = 0
    # whenever f = g + 1); at (2, 2) it does not.
    f, g = pair
    n = 500
    eta = np.arange(1, n + 1) / n
    low = np.tril(np.ones((n, n))) / math.sqrt(n)
    a = low[-1]
    dev = eta[:, None] ** g * low - np.outer(eta**f, a)
    lam, vec = np.linalg.eigh(dev.T @ dev / n)
    lam = np.maximum(lam, 0.0)
    b2 = (vec.T @ a) ** 2
    s = np.linspace(-50.0, 30.0, 4001)
    z = 1.0 + 2j * np.exp(s)[:, None] * lam
    logdet = np.log(z).sum(axis=1)
    rank_one = 2j * np.exp(s) * (b2 / z).sum(axis=1)

    law = sn.exact_quantiles(f, g, bm_steps=n, use_cache=False)
    upper = sn.ALPHA_GRID > 0.5
    x = law.quantiles[upper][::7]
    phi = np.exp(-0.5 * (logdet + np.log(1.0 - rank_one / (x * x)[:, None])))
    cdf = 0.5 - (s[1] - s[0]) / math.pi * phi.imag.sum(axis=1)
    assert np.abs(cdf - (2.0 * sn.ALPHA_GRID[upper][::7] - 1.0)).max() <= 1e-8


def test_mc_tables_lie_within_4_se_of_the_exact_table(law_32, law_21, small_law):
    laws = [law_32, law_21, small_law,
            sn.mc_quantiles(2, 2, replications=10_000, bm_steps=500, threads=2, use_cache=False)]
    for mc in laws:
        exact = sn.exact_quantiles(*mc.pairs[0], bm_steps=mc.bm_steps, use_cache=False)
        worst = max(
            abs(mc.quantile(a) - exact.quantile(a)) / sn.quantile_se(mc, a) for a in sn.ALPHA_GRID
        )
        assert worst <= 4.0, (mc.pairs, mc.replications, mc.bm_steps, worst)


def test_quantile_lookup_interpolates_and_guards_range(small_law):
    grid_val = small_law.quantile(0.05)
    assert grid_val == small_law.quantiles[np.searchsorted(small_law.alphas, 0.05)]
    mid = small_law.quantile(0.0505)
    assert min(small_law.quantile(0.05), small_law.quantile(0.051)) <= mid
    assert mid <= max(small_law.quantile(0.05), small_law.quantile(0.051))
    with pytest.raises(sn.ConfigError, match="outside the tabulated range"):
        small_law.quantile(0.0001)
    se = sn.quantile_se(small_law, 0.05)
    assert 0 < se < 1.0


def test_quantile_se_refuses_an_untabulated_alpha_under_its_own_value(small_law):
    # the range is checked before the finite-difference window is clamped to the table
    for alpha in (5.0, -1.0, 0.9995):
        with pytest.raises(sn.ConfigError, match=rf"^alpha = {alpha} outside the tabulated range"):
            small_law.quantile(alpha)
        with pytest.raises(sn.ConfigError, match=rf"^alpha = {alpha} outside the tabulated range"):
            sn.quantile_se(small_law, alpha)
    assert 0 < sn.quantile_se(small_law, 0.999) < math.inf


def test_mc_argument_validation():
    with pytest.raises(sn.ConfigError, match="replications = 100 must be at least 10000"):
        sn.mc_quantiles(3, 2, replications=100)
    with pytest.raises(sn.ConfigError, match="bm_steps = 10 must be at least 500"):
        sn.mc_quantiles(3, 2, bm_steps=10)
    with pytest.raises(sn.ConfigError, match="f_exponent = -1 must be at least 0"):
        sn.mc_quantiles(-1, 2)
    with pytest.raises(sn.ConfigError, match="threads = 0 must be at least 1"):
        sn.mc_quantiles(3, 2, threads=0)
    with pytest.raises(sn.ConfigError, match="seed = -1 must be at least 0"):
        sn.mc_quantiles(3, 2, seed=-1)
    # an exponent, grid size, replication count or seed that is not an integer is refused by
    # name, neither truncated (3.5 read as 3) nor read as a number (True as 1)
    for build in (sn.mc_quantiles, sn.exact_quantiles):
        for args, kwargs, message in [
            ((3.5, 2), {}, "f_exponent = 3.5 must be an integer"),
            ((3, 2.0), {}, "g_exponent = 2.0 must be an integer"),
            ((True, 2), {}, "f_exponent = True must be an integer"),
            ((3, 2), dict(bm_steps=500.7), "bm_steps = 500.7 must be an integer"),
        ]:
            with pytest.raises(sn.ConfigError, match=re.escape(message)):
                build(*args, use_cache=False, **kwargs)
    with pytest.raises(sn.ConfigError, match=re.escape("replications = 10000.5 must be an integer")):
        sn.mc_quantiles(3, 2, replications=10000.5)
    with pytest.raises(sn.ConfigError, match=re.escape("seed = 1.5 must be an integer")):
        sn.mc_quantiles(3, 2, seed=1.5)
    with pytest.raises(sn.ConfigError, match=re.escape("f_exponent = 1.5 must be an integer")):
        sn.mc_quantiles_joint([(3, 2), (1.5, 0)], replications=10_000, bm_steps=500)
    with pytest.raises(sn.ConfigError, match=re.escape("f_exponent = 3.5 must be an integer")):
        sn.exact_quantiles(3.5, 2, bm_steps=500)  # the cache is not read or written
    assert not list(Path(os.environ["SPECNORM_CACHE_DIR"]).glob("pivot_*f3.5_*"))


def test_pivot_law_is_roughly_symmetric(law_32):
    med = law_32.quantile(0.5)
    assert abs(med) <= 3.0 * sn.quantile_se(law_32, 0.5)
    lo, hi = law_32.quantile(0.05), law_32.quantile(0.95)
    tol = 2.0 * math.hypot(sn.quantile_se(law_32, 0.05), sn.quantile_se(law_32, 0.95))
    assert abs(lo + hi) <= tol
    assert lo < 0 < hi


def test_confidence_interval_alignment(law_32):
    ci = sn.confidence_interval(0.5, 0.01, law_32, alpha=0.05)
    assert ci.level == pytest.approx(0.95)
    assert ci.lo == pytest.approx(0.5 + law_32.quantile(0.025) * 0.01)
    assert ci.hi == pytest.approx(0.5 + law_32.quantile(0.975) * 0.01)
    assert ci.lo < 0.5 < ci.hi
    degenerate = sn.confidence_interval(0.5, 0.0, law_32, alpha=0.05)
    assert (degenerate.lo, degenerate.hi) == (0.5, 0.5)
    with pytest.raises(sn.ConfigError, match="alpha"):
        sn.confidence_interval(0.5, 0.01, law_32, alpha=0.001)
    with pytest.raises(sn.ConfigError, match=re.escape("V = -0.1 must lie in [0, inf)")):
        sn.confidence_interval(0.5, -0.1, law_32)
    with pytest.raises(sn.ConfigError, match=re.escape("V = nan must lie in [0, inf)")):
        sn.confidence_interval(0.5, math.nan, law_32)  # NaN lies in no interval


@pytest.mark.parametrize("estimate, v, message", [
    (math.nan, 0.1, "estimate = nan must lie in (-inf, inf)"),
    (math.inf, 0.1, "estimate = inf must lie in (-inf, inf)"),
    (-math.inf, 0.1, "estimate = -inf must lie in (-inf, inf)"),
    (0.5, math.inf, "V = inf must lie in [0, inf)"),
    (0.5, math.nan, "V = nan must lie in [0, inf)"),
], ids=["nan-estimate", "inf-estimate", "minus-inf-estimate", "inf-v", "nan-v"])
def test_interval_and_test_refuse_a_non_finite_estimate_or_v(small_law, estimate, v, message):
    with pytest.raises(sn.ConfigError, match=re.escape(message)):
        sn.confidence_interval(estimate, v, small_law)
    with pytest.raises(sn.ConfigError, match=re.escape(message)):
        sn.relevant_test(estimate, v, small_law, delta=0.1)


def test_relevant_test_threshold_rule(law_32):
    q = law_32.quantile(0.95)
    at_threshold = sn.relevant_test(0.1 + q * 0.02, 0.02, law_32, delta=0.1)
    assert not at_threshold.reject  # strict inequality at the boundary
    above = sn.relevant_test(0.1 + q * 0.02 + 1e-9, 0.02, law_32, delta=0.1)
    assert above.reject
    assert above.threshold == pytest.approx(0.1 + q * 0.02)
    with pytest.raises(sn.ConfigError, match="delta"):
        sn.relevant_test(0.5, 0.1, law_32, delta=-0.2)
    with pytest.raises(sn.ConfigError, match=re.escape("delta = nan must lie in [0, inf)")):
        sn.relevant_test(0.5, 0.1, law_32, delta=math.nan)
    for v in (-1.0, math.nan):  # V is checked as confidence_interval checks it
        with pytest.raises(sn.ConfigError, match=re.escape(f"V = {v} must lie in [0, inf)")):
            sn.relevant_test(0.5, v, law_32, delta=0.1)


def test_order_selection_on_synthetic_shares(law_32):
    wiggle = 1e-9 * np.sin(np.linspace(0.0, 3.0, 64))
    paths = [
        make_path(s + wiggle, d=d)
        for d, s in ((1, 0.2), (2, 0.97), (3, 0.99))
    ]
    sel = sn.estimate_dstar(paths, law_32, nu=0.9, alpha=0.05)
    assert sel.d_hat == 2
    assert sel.stats[0].statistic < sel.quantile
    assert sel.stats[1].statistic > sel.quantile
    assert not sn.test_order_upper(sel, 2)
    assert sn.test_order_upper(sel, 1)
    with pytest.raises(sn.ConfigError, match="d0 = 0 must be at least 1"):
        sn.test_order_upper(sel, 0)


def test_order_selection_sentinel_and_degenerate(law_32):
    low = [make_path(np.full(64, s), d=d) for d, s in ((1, 0.1), (2, 0.2))]
    sel = sn.estimate_dstar(low, law_32, nu=0.9, alpha=0.05)
    assert sel.d_hat is None
    assert all(st.statistic == -math.inf for st in sel.stats)
    high = sn.estimate_dstar([make_path(np.full(64, 0.95))], law_32, nu=0.9)
    assert high.d_hat == 1 and high.stats[0].statistic == math.inf
    with pytest.raises(sn.NumericalError, match="zero self-normalizer"):
        sn.estimate_dstar([make_path(np.full(64, 0.9))], law_32, nu=0.9)
    with pytest.raises(ValueError, match="strictly increasing"):
        sn.estimate_dstar([low[1], low[0]], law_32, nu=0.9)
    with pytest.raises(sn.ConfigError, match="nu"):
        sn.estimate_dstar(low, law_32, nu=1.5)
    with pytest.raises(ValueError, match="at least one candidate order"):
        sn.estimate_dstar([], law_32, nu=0.9)


def test_joint_statistic_against_joint_law(small_law):
    law = sn.mc_quantiles_joint([(3, 2), (2, 1)], replications=10_000, bm_steps=500, threads=2)
    assert law.quantile(0.95) > 0
    a = make_path(np.linspace(0.4, 0.5, 64))
    b = make_path(0.3 + 0.1 * (np.arange(1, 65) / 64) ** 2, f_exp=2, g_exp=1)
    v = sn.self_norm_V([a, b])
    res = sn.joint_statistic(
        np.array([a.values[-1] - 0.45, b.values[-1] - 0.42]), v, law, alpha=0.05
    )
    assert res.statistic >= 0
    assert res.reject == (res.statistic > res.quantile)
    with pytest.raises(ValueError, match="does not match"):
        sn.joint_statistic(np.zeros(3), v, law)
    with pytest.raises(ValueError, match="different number of paths"):
        sn.joint_statistic(np.zeros(1), sn.self_norm_V([a]), law)
    singular = sn.SelfNormV(matrix=np.ones((2, 2)), values=np.ones(2))
    with pytest.raises(sn.NumericalError, match="singular"):
        sn.joint_statistic(np.zeros(2), singular, law)
    with pytest.raises(sn.ConfigError, match="at least one"):
        sn.mc_quantiles_joint([])
    with pytest.raises(ValueError, match="joint pivot law"):
        sn.joint_statistic(np.zeros(1), sn.self_norm_V([a]), small_law)


def test_scalar_law_embeds_in_joint_engine():
    # the same seed and draws drive both engines; a single-pair joint draw is
    # the square of the scalar draw, and the scalar sample is symmetric, so
    # q_joint(a) = q_scalar((1 + a) / 2)^2 up to the interpolation of the table
    joint = sn.mc_quantiles_joint([(3, 2)], replications=20_000, bm_steps=500, threads=2)
    scalar = sn.mc_quantiles(3, 2, replications=20_000, bm_steps=500, use_cache=False, threads=2)
    for a in (0.5, 0.9, 0.95, 0.99):
        assert joint.quantile(a) == pytest.approx(scalar.quantile((1 + a) / 2) ** 2, rel=1e-3)


# Each rule that reads a quantile, called as (scalar law, joint law, path, alpha).
QUANTILE_READERS = {
    "relevant_test": lambda law, joint, path, alpha: sn.relevant_test(
        0.5, 0.1, law, delta=0.1, alpha=alpha),
    "estimate_dstar": lambda law, joint, path, alpha: sn.estimate_dstar(
        [path], law, nu=0.5, alpha=alpha),
    "joint_statistic": lambda law, joint, path, alpha: sn.joint_statistic(
        np.zeros(1), sn.self_norm_V([path]), joint, alpha=alpha),
}


@pytest.mark.parametrize("name", list(QUANTILE_READERS))
def test_alpha_outside_the_table_is_a_config_error(name, small_law):
    joint = sn.mc_quantiles_joint([(3, 2)], replications=10_000, bm_steps=500)
    path = make_path(np.linspace(0.9, 0.95, 64))
    QUANTILE_READERS[name](small_law, joint, path, 0.05)
    # the error names the alpha the caller passed, not the level looked up
    with pytest.raises(sn.ConfigError, match=r"alpha = 0\.0005 outside the tabulated range"):
        QUANTILE_READERS[name](small_law, joint, path, 0.0005)


def test_signatures_the_bench_harness_reads():
    # bench/tracing.py reads these arguments by name; bench/workloads.py calls
    # mc_quantiles_joint and joint_statistic directly, bench/make_reference.py
    # also quantile_se
    from specnorm import inference

    def params(fn):
        return set(inspect.signature(fn).parameters)

    assert {"f_exponent", "g_exponent", "replications", "bm_steps", "seed", "cache_dir",
            "threads"} <= params(inference.mc_quantiles)
    assert {"replications", "threads"} <= params(inference.mc_quantiles_joint)
    for name in ("mc_quantiles_joint", "joint_statistic", "quantile_se"):
        assert callable(getattr(inference, name))


@settings(max_examples=30, deadline=None)
@given(
    shift=st.floats(-5.0, 5.0, allow_nan=False),
    scale=st.floats(0.1, 10.0, allow_nan=False),
    seed=st.integers(0, 2**31),
)
def test_self_norm_shift_invariance_and_scaling(shift, scale, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(32).cumsum() / 8.0
    base = sn.self_norm_V([make_path(values)]).values[0]
    shifted = sn.self_norm_V([make_path(values + shift)]).values[0]
    scaled = sn.self_norm_V([make_path(values * scale)]).values[0]
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)
    assert scaled == pytest.approx(scale * base, rel=1e-9, abs=1e-12)
