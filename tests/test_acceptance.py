"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single visible "acceptance <n> <name>: PASS/FAIL" line with
the measured figure next to its tolerance, then asserts. Monte Carlo designs
use fixed seed ranges, so the whole gate is deterministic.
"""

import math
import time

import numpy as np

import specnorm as sn
from specnorm.cli import RunConfig, dumps_report, run_pipeline
from specnorm.estimator import _window_starts

SIGMA4 = np.diag([8.0, 4.0, 2.0, 1.0])


def announce(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def sequential_path(spec, plan, kind, d, ps=None):
    sample = sn.simulate(spec)
    sdo = sn.estimate_sequential_sdo(sample, plan)
    if kind == "tvdfpca":
        return sn.tvdfpca_sequential(sdo, d)
    if kind == "tvdpsca":
        return sn.tvdpsca_sequential(sdo, d, ps)
    if kind == "coherence":
        return sn.coherence_sequential(sdo, d, ps)
    raise ValueError(kind)


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


def test_criterion_1_white_noise_eigenvalue_share(capsys):
    target = 8.0 / 15.0
    t0 = time.perf_counter()
    plan = sn.default_bandwidth_plan(4096)
    estimates = [
        sequential_path(
            sn.IidSpec(T=4096, sigma=SIGMA4, seed=seed), plan, "tvdfpca", 1
        ).point_estimate
        for seed in range(20)
    ]
    elapsed = time.perf_counter() - t0
    dev = abs(float(np.median(estimates)) - target)
    ok = dev <= 0.05 and elapsed < 60.0
    announce(capsys, 1, "white-noise eigenvalue share", ok,
             f"median deviation {dev:.4f} <= 0.05, {elapsed:.1f}s < 60s")
    assert dev <= 0.05
    assert elapsed < 60.0


def test_criterion_2_separability_score(capsys):
    ps = sn.ProductStructure(p1=2, p2=2)
    sigma_x = np.array([[2.0, 0.5], [0.5, 1.0]])
    sigma_y = np.array([[1.0, 0.3], [0.3, 2.0]])
    plan = sn.default_bandwidth_plan(4096)
    estimates = [
        sequential_path(
            sn.SeparableSpec(T=4096, sigma_x=sigma_x, sigma_y=sigma_y, seed=seed),
            plan, "tvdpsca", 1, ps,
        ).point_estimate
        for seed in range(20)
    ]
    med = float(np.median(estimates))

    rng = np.random.default_rng(2)
    worst_sigma2 = 0.0
    for _ in range(20):
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        r = sn.kron_rearrange(np.kron(x, y), sn.ProductStructure(p1=2, p2=3))
        worst_sigma2 = max(worst_sigma2, float(np.linalg.svd(r, compute_uv=False)[1]))
    ok = med >= 0.95 and worst_sigma2 <= 1e-10
    announce(capsys, 2, "separability score", ok,
             f"median share {med:.4f} >= 0.95, "
             f"rank-1 residual {worst_sigma2:.2e} <= 1e-10")
    assert med >= 0.95
    assert worst_sigma2 <= 1e-10


def test_criterion_3_coherence_nullity(capsys):
    # spurious coherence of independent blocks scales like (N b_f)^(-1/2),
    # so this check runs at a wide window: N = 338 gives N b_f near 100
    ps = sn.ProductStructure(p1=2, p2=2)
    plan = sn.default_bandwidth_plan(4096, alpha=0.7, kappa=0.21)
    estimates = [
        sequential_path(
            sn.CoherentPairSpec(T=4096, p1=2, p2=2, coupling=None, seed=seed),
            plan, "coherence", 1, ps,
        ).point_estimate
        for seed in range(20)
    ]
    med = float(np.median(estimates))
    uncoupled = sn.CoherentPairSpec(T=4096, p1=2, p2=2, coupling=None, seed=0)
    pop = sn.measure_population(sn.true_sdo(uncoupled), "coherence", 1, ps,
                                m_u=40, k_omega=8)
    ok = med < 0.15 and pop == 0.0
    announce(capsys, 3, "coherence nullity", ok,
             f"median coherence {med:.4f} < 0.15, block-diagonal population {pop}")
    assert med < 0.15
    assert pop == 0.0


def test_criterion_4_stationarity_closed_form(capsys):
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    pop = sn.measure_population(lambda u, omega: u * a, "stationarity", 2,
                                m_u=400, k_omega=400)
    target = np.trace(a) / 18.0
    rel = abs(pop - target) / target

    # the frozen-operator barycenter of square roots is never beaten on a
    # cloud of PSD competitors
    rng = np.random.default_rng(4)
    frames = []
    for _ in range(3):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        frames.append(h @ h.conj().T + 0.1 * np.eye(2))
    roots = [sn.matrix_sqrt_psd(f) for f in frames]
    barycenter = sum(roots) / 3.0

    def objective(g):
        return float(np.mean([np.linalg.norm(r - g) ** 2 for r in roots]))

    j_star = objective(barycenter)
    margin = 0.0
    for _ in range(400):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (h + h.conj().T) / 2.0
        cand = sn.psd_project(barycenter + 10.0 ** rng.uniform(-3.0, 0.5) * h)
        margin = max(margin, j_star - objective(cand))
    ok = rel < 1e-4 and margin <= 1e-6
    announce(capsys, 4, "stationarity closed form", ok,
             f"quadrature relative error {rel:.2e} < 1e-4, "
             f"best competitor margin {margin:.2e} <= 1e-6")
    assert rel < 1e-4
    assert margin <= 1e-6


def test_criterion_5_pivot_quantile_tables(capsys):
    details = []
    ok = True
    for f_exp, g_exp in ((3, 2), (4, 3), (2, 1)):
        t0 = time.perf_counter()
        coarse = sn.mc_quantiles(f_exp, g_exp, replications=100_000, bm_steps=1000,
                                 threads=4, use_cache=False)
        t_coarse = time.perf_counter() - t0
        t0 = time.perf_counter()
        fine = sn.mc_quantiles(f_exp, g_exp, replications=100_000, bm_steps=4000,
                               threads=4, use_cache=False)
        t_fine = time.perf_counter() - t0

        center = abs(fine.quantile(0.5)) / sn.quantile_se(fine, 0.5)
        asym = abs(fine.quantile(0.05) + fine.quantile(0.95)) / math.hypot(
            sn.quantile_se(fine, 0.05), sn.quantile_se(fine, 0.95)
        )
        drift = abs(coarse.quantile(0.95) - fine.quantile(0.95)) / abs(fine.quantile(0.95))
        t_max = max(t_coarse, t_fine)
        pair_ok = center <= 3.0 and asym <= 2.0 and drift <= 0.02 and t_max < 30.0
        ok = ok and pair_ok
        details.append(
            f"({f_exp},{g_exp}) center {center:.2f}se<=3, sym {asym:.2f}se<=2, "
            f"drift {100 * drift:.2f}%<=2%, {t_max:.1f}s<30s"
        )
    announce(capsys, 5, "pivot quantile tables", ok, "; ".join(details))
    assert ok, details


def test_criterion_6_ci_coverage(capsys, law_32):
    t0 = time.perf_counter()

    def spec(seed):
        return sn.TvFar1Spec(T=1024, a=0.5 * np.eye(2),
                             sigma_eps=np.diag([4.0, 1.0]), seed=seed)

    pop = sn.measure_population(sn.true_sdo(spec(0)), "tvdfpca", 1)
    plan = sn.default_bandwidth_plan(1024, alpha=0.6, kappa=0.25)
    n_rep = 200
    hits = 0
    for seed in range(n_rep):
        path = sequential_path(spec(seed), plan, "tvdfpca", 1)
        v = sn.self_norm_V([path]).values[0]
        ci = sn.confidence_interval(path.point_estimate, v, law_32, alpha=0.05)
        hits += ci.lo <= pop <= ci.hi
    coverage = hits / n_rep
    elapsed = time.perf_counter() - t0
    ok = 0.88 <= coverage <= 0.995 and elapsed < 1800.0
    announce(capsys, 6, "confidence interval coverage", ok,
             f"coverage {coverage:.3f} in [0.88, 0.995] "
             f"at population {pop:.3f}, {elapsed:.0f}s < 1800s")
    assert 0.88 <= coverage <= 0.995
    assert elapsed < 1800.0


def test_criterion_7_order_selection(capsys, law_32):
    plan = sn.default_bandwidth_plan(4096, kappa=0.21, M=48)
    n_rep = 100
    correct = 0
    upper_rejects = 0
    for seed in range(n_rep):
        sample = sn.simulate(sn.IidSpec(T=4096, sigma=SIGMA4, seed=seed))
        sdo = sn.estimate_sequential_sdo(sample, plan)
        paths = [sn.tvdfpca_sequential(sdo, d) for d in range(1, 5)]
        sel = sn.estimate_dstar(paths, law_32, nu=0.85, alpha=0.05)
        correct += sel.d_hat == 3
        upper_rejects += sn.test_order_upper(sel, 3)
    reject_budget = int((0.05 + 3.0 * math.sqrt(0.05 * 0.95 / n_rep)) * n_rep)
    ok = correct >= 90 and upper_rejects <= reject_budget
    announce(capsys, 7, "order selection", ok,
             f"d_hat = 3 in {correct}/100 >= 90, "
             f"upper test rejected {upper_rejects} <= {reject_budget}")
    assert correct >= 90
    assert upper_rejects <= reject_budget


def test_criterion_8_matrix_derivative_oracle(capsys):
    rng = np.random.default_rng(8)
    max_rel = 0.0
    max_square = 0.0
    h = 1e-5
    for _ in range(100):
        p = int(rng.integers(2, 9))
        z = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
        q, _ = np.linalg.qr(z)
        vals = 0.5 + np.cumsum(0.1 + rng.uniform(0.0, 1.0, size=p))
        a = (q * vals) @ q.conj().T
        a = (a + a.conj().T) / 2.0
        delta = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
        delta = (delta + delta.conj().T) / 2.0
        delta /= np.linalg.norm(delta)
        for phi, func in (("square", lambda m: m @ m), ("sqrt", sn.matrix_sqrt_psd)):
            dk = sn.frechet_derivative(a, delta, phi)
            fd = (func(a + h * delta) - func(a - h * delta)) / (2.0 * h)
            max_rel = max(max_rel, np.linalg.norm(dk - fd) / np.linalg.norm(fd))
        exact = a @ delta + delta @ a
        residual = sn.frechet_derivative(a, delta, "square") - exact
        max_square = max(max_square, np.linalg.norm(residual) / np.linalg.norm(exact))
    ok = max_rel < 1e-6 and max_square < 1e-12
    announce(capsys, 8, "matrix derivative oracle", ok,
             f"finite-difference relative error {max_rel:.2e} < 1e-6, "
             f"square residual {max_square:.2e} < 1e-12")
    assert max_rel < 1e-6
    assert max_square < 1e-12


def test_criterion_9_exact_identities(capsys):
    rng = np.random.default_rng(9)
    sample = sn.TimeSeriesSample(data=rng.normal(size=(256, 2)))
    plan = sn.default_bandwidth_plan(256)
    sdo = sn.estimate_sequential_sdo(sample, plan)

    centered = sample.data - sample.data.mean(axis=0)
    starts = _window_starts(plan)
    worst_ps = 0.0
    for i in (0, len(starts) - 1):
        window = centered[starts[i]: starts[i] + plan.N]
        for j in (0, sdo.k_omega - 1):
            omega = sdo.omega_points[j]
            for k in (1, 3, plan.N // 2, plan.N):
                ref = direct_partial_sum(window, k, omega, sn.PARZEN, plan.b_f)
                diff = float(np.max(np.abs(sdo.tensor[i, j, k - 1] - ref)))
                worst_ps = max(worst_ps, diff)

    scaled = sn.TimeSeriesSample(data=3.0 * sample.data)
    sdo_scaled = sn.estimate_sequential_sdo(scaled, plan)
    worst_pivot = 0.0
    for build in (lambda s: sn.tvdfpca_sequential(s, 1),
                  lambda s: sn.stationarity_sequential(s, 2)):
        base, other = build(sdo), build(sdo_scaled)
        pivot_base = base.point_estimate / sn.self_norm_V([base]).values[0]
        pivot_other = other.point_estimate / sn.self_norm_V([other]).values[0]
        worst_pivot = max(worst_pivot, abs(pivot_base - pivot_other) / abs(pivot_base))

    ps = sn.ProductStructure(p1=2, p2=3)
    worst_iso = 0.0
    for _ in range(20):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        r = sn.kron_rearrange(m, ps)
        err = abs(np.linalg.norm(r) - np.linalg.norm(m)) / np.linalg.norm(m)
        worst_iso = max(worst_iso, err)

    cfg = RunConfig(process="iid", T=256, p=2, measure="tvdfpca", d=1,
                    quantile_r=10_000, quantile_n=500, seed=3)
    byte_equal = dumps_report(run_pipeline(cfg)) == dumps_report(run_pipeline(cfg))

    ok = (worst_ps <= 1e-12 and worst_pivot <= 1e-10
          and worst_iso <= 1e-12 and byte_equal)
    announce(capsys, 9, "exact identities", ok,
             f"partial-sum {worst_ps:.1e} <= 1e-12, "
             f"pivot scaling {worst_pivot:.1e} <= 1e-10, "
             f"rearrangement isometry {worst_iso:.1e} <= 1e-12, "
             f"byte-identical reports {byte_equal}")
    assert worst_ps <= 1e-12
    assert worst_pivot <= 1e-10
    assert worst_iso <= 1e-12
    assert byte_equal
