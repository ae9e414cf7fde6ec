"""Self-normalized inference for sequential deviation measures.

The studentizer V is built from the measure's own partial-sum path, so no
long-run variance is ever estimated. For a path s_hat(eta) with exponent
pair (f, g) and point estimate s_hat(1),

    D(eta)  = eta^f (s_hat(eta) - s_hat(1)),
    V^2     = (1/N) sum_k D(k/N)^2,

and (s_hat(1) - s) / V converges to the pivot

    T(f, g) = B(1) / sqrt( integral_0^1 (g(eta) B(eta) - f(eta) B(1))^2 deta )

with B standard Brownian motion, f(eta) = eta^f, g(eta) = eta^g. All rate
and nuisance-scale factors cancel in the ratio, so confidence intervals and
tests use the estimate and V directly.

Pivot quantiles are tabulated on a fixed fine alpha grid into one law type,
:class:`PivotLaw`. It holds either the scalar pivot T(f, g) or the joint pivot
B(1)' U^{-1} B(1) of several paths, where B is a vector of independent
Brownian motions and U the matrix form of the denominator integral. The
scalar pivot on the Brownian grid has an exact law, the CDF of a Gaussian
quadratic form, which :func:`exact_quantiles` inverts without simulation.
The Monte Carlo engine draws the paths for both pivots with one chunk kernel,
so a one-pair joint law is the square of the scalar sample; it is chunked with
a fixed chunk size and per-chunk generators, making results independent of
the thread count. Scalar tables of either engine are cached on disk in a
plain text format under a key that names the engine; lookups interpolate the
table, so runs with a warm or cold cache produce identical bytes.
"""

from __future__ import annotations

import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericalError
from .estimator import _check_count, map_ordered
from .measures import SequentialFunctional

__all__ = [
    "ALPHA_GRID",
    "DEFAULT_QUANTILE_SEED",
    "PivotLaw",
    "exact_quantiles",
    "mc_quantiles",
    "mc_quantiles_joint",
    "quantile_se",
    "pivot_cache_path",
    "exact_cache_path",
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
    "JointTestResult",
    "joint_statistic",
]

# Fixed tabulation grid: every lookup interpolates this table, never the raw
# Monte Carlo sample, so cached and fresh laws agree to the last bit.
ALPHA_GRID = np.arange(1, 1000) / 1000.0

DEFAULT_QUANTILE_SEED = 1_000_003

_CHUNK = 2048  # replications per Monte Carlo chunk, fixed for determinism

_Pairs = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PivotLaw:
    """Tabulated quantiles of a self-normalized pivot.

    ``pairs`` holds one exponent pair (f, g) per path. A scalar law
    (``joint=False``) has one pair; a joint law is the quadratic-form pivot
    of ``len(pairs)`` paths. An exact table has ``replications`` and
    ``seed`` 0.
    """

    pairs: _Pairs
    joint: bool
    replications: int
    bm_steps: int
    seed: int
    alphas: np.ndarray
    quantiles: np.ndarray

    def quantile(self, alpha: float, upper: bool = False) -> float:
        """The alpha quantile, or the 1 - alpha quantile when ``upper``; an
        untabulated level is reported as the ``alpha`` passed."""
        level = 1.0 - alpha if upper else alpha
        lo, hi = float(self.alphas[0]), float(self.alphas[-1])
        if not lo <= level <= hi:
            raise ConfigError(
                f"alpha = {alpha} outside the tabulated range [{lo}, {hi}]"
            )
        return float(np.interp(level, self.alphas, self.quantiles))


def _checked_pairs(pairs: Sequence[tuple[int, int]], bm_steps: int) -> _Pairs:
    """The exponent pairs as ints, once they and the Brownian grid size are valid."""
    pairs = tuple((int(f), int(g)) for f, g in pairs)
    if not pairs:
        raise ConfigError("joint pivot needs at least one exponent pair")
    if any(f < 0 or g < 0 for f, g in pairs):
        raise ConfigError("scaling exponents must be non-negative integers")
    if bm_steps < 500:
        raise ConfigError(f"bm_steps = {bm_steps} too small; need at least 500")
    return pairs


def _check_mc(replications: int, seed: int, threads: int) -> None:
    """Raise ConfigError unless the Monte Carlo engine's own arguments are valid."""
    if replications < 10_000:
        raise ConfigError(f"replications = {replications} too small; need at least 10000")
    if seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    _check_count("threads", threads)


def _chunk(
    pairs: _Pairs, joint: bool, bm_steps: int, seed: int, index: int, size: int
) -> np.ndarray:
    """Pivot draws of Monte Carlo chunk ``index``, from a generator of its own.

    Each replication drives one Brownian motion per pair. A joint draw is the
    quadratic form B(1)' U^{-1} B(1); a scalar draw is B(1) / sqrt(U) and also
    enters with its sign flipped.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, index]))
    eta = np.arange(1, bm_steps + 1) / bm_steps
    fmat = np.stack([eta**f for f, _ in pairs])
    gmat = np.stack([eta**g for _, g in pairs])
    scale = 1.0 / math.sqrt(bm_steps)

    def draw(m: int) -> tuple[np.ndarray, np.ndarray]:
        # paths and g B - f B(1) are formed in place, the f B(1) term in row
        # blocks: a chunk holds one path array
        dev = rng.standard_normal((m, len(pairs), bm_steps))
        np.cumsum(dev, axis=2, out=dev)
        dev *= scale
        b1 = dev[:, :, -1].copy()
        dev *= gmat
        for rows in range(0, m, 256):
            dev[rows : rows + 256] -= b1[rows : rows + 256, :, None] * fmat
        if not joint:
            den = np.square(dev, out=dev)[:, 0].mean(axis=1)
            ok = (den > 0) & np.isfinite(den)
            return b1[:, 0] / np.sqrt(np.where(ok, den, 1.0)), ok
        u = np.einsum("mkn,mln->mkl", dev, dev) / bm_steps
        ok = np.linalg.det(u) > 0  # screened, so a singular U cannot abort the solve
        u[~ok] = np.eye(len(pairs))
        x = np.linalg.solve(u, b1[:, :, None])
        val = (b1[:, None, :] @ x)[:, 0, 0]
        return val, ok & np.isfinite(val) & (val >= 0)

    out, ok = draw(size)
    for i in np.flatnonzero(~ok):  # probability-zero degenerate draws, replaced in index order
        while not ok[i]:
            (out[i],), (ok[i],) = draw(1)
    if joint:
        return out
    # the pivot is odd in the driving noise, so each path also contributes
    # its sign flip: the tabulated sample is exactly symmetric (antithetic
    # pairing halves tail variance and pins the median at 0)
    return np.concatenate([out, -out])


def _tabulate(
    pairs: _Pairs, joint: bool, replications: int, bm_steps: int, seed: int, threads: int
) -> PivotLaw:
    """Quantile table of ``replications`` draws on ``ALPHA_GRID``, whatever ``threads``."""
    sizes = [min(_CHUNK, replications - start) for start in range(0, replications, _CHUNK)]
    parts = map_ordered(
        lambda i: _chunk(pairs, joint, bm_steps, seed, i, sizes[i]), len(sizes), threads
    )
    quantiles = np.quantile(np.concatenate(parts), ALPHA_GRID, method="linear")
    return PivotLaw(pairs, joint, replications, bm_steps, seed, ALPHA_GRID.copy(), quantiles)


def pivot_cache_path(
    f_exponent: int,
    g_exponent: int,
    replications: int,
    bm_steps: int,
    seed: int,
    cache_dir: str | os.PathLike | None = None,
) -> Path:
    """Location of the on-disk Monte Carlo quantile table for the given key."""
    name = (
        f"pivot_f{f_exponent}_g{g_exponent}_R{replications}"
        f"_n{bm_steps}_seed{seed}.txt"
    )
    return _cache_root(cache_dir) / name


def exact_cache_path(
    f_exponent: int, g_exponent: int, bm_steps: int, cache_dir: str | os.PathLike | None = None
) -> Path:
    """Location of the on-disk exact quantile table for (f, g) on ``bm_steps`` points."""
    return _cache_root(cache_dir) / f"pivot_exact_f{f_exponent}_g{g_exponent}_n{bm_steps}.txt"


def _cache_root(cache_dir: str | os.PathLike | None) -> Path:
    if cache_dir is None:
        cache_dir = os.environ.get("SPECNORM_CACHE_DIR")
    if cache_dir is None:
        cache_dir = Path.home() / ".cache" / "specnorm"
    return Path(cache_dir)


def save_pivot_law(law: PivotLaw, path: str | os.PathLike) -> None:
    """Write a scalar quantile table as plain text (header line, then alpha/quantile pairs)."""
    if law.joint:
        raise ValueError("only scalar pivot laws have a file format")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ((f_exp, g_exp),) = law.pairs
    header = f"{f_exp} {g_exp} {law.replications} {law.bm_steps} {law.seed}"
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            table = np.column_stack([law.alphas, law.quantiles])
            np.savetxt(fh, table, fmt="%.17g", header=header, comments="")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_pivot_law(path: str | os.PathLike) -> PivotLaw:
    """Read a quantile table written by :func:`save_pivot_law`."""
    with open(path) as fh:
        f_exp, g_exp, reps, steps, seed = (int(x) for x in fh.readline().split())
        alphas, quantiles = np.loadtxt(fh, ndmin=2, unpack=True)
    return PivotLaw(
        pairs=((f_exp, g_exp),),
        joint=False,
        replications=reps,
        bm_steps=steps,
        seed=seed,
        alphas=alphas,
        quantiles=quantiles,
    )


def quantile_se(law: PivotLaw, alpha: float) -> float:
    """Monte Carlo standard error of a tabulated quantile.

    Uses the asymptotic formula sqrt(alpha (1-alpha) / R) / density, with the
    density estimated from neighbouring table entries. R counts simulated
    paths; under the scalar engine's antithetic pairing the formula is
    slightly conservative in the tails. An exact table has none: 0.0.
    """
    if law.replications == 0:
        return 0.0
    lo = max(alpha - 0.005, float(law.alphas[0]))
    hi = min(alpha + 0.005, float(law.alphas[-1]))
    qlo, qhi = law.quantile(lo), law.quantile(hi)
    if not qhi > qlo:
        return math.inf
    density = (hi - lo) / (qhi - qlo)
    return math.sqrt(alpha * (1.0 - alpha) / law.replications) / density


def mc_quantiles(
    f_exponent: int,
    g_exponent: int,
    replications: int = 100_000,
    bm_steps: int = 2000,
    seed: int = DEFAULT_QUANTILE_SEED,
    threads: int = 1,
    use_cache: bool = True,
    cache_dir: str | os.PathLike | None = None,
) -> PivotLaw:
    """Monte Carlo quantile table of the scalar pivot for exponents (f, g).

    Brownian motion is discretized on ``bm_steps`` equidistant points, the
    denominator integral by the left-matching Riemann sum on the same grid.
    Each path enters with both signs (antithetic pairing), so the table is
    exactly symmetric: q(0.5) = 0 and q(a) = -q(1-a) up to rounding.
    Results depend only on the arguments, not on thread count or cache state.
    A cached table is served only if its key matches and it is the grid
    table, finite, non-decreasing and antisymmetric; otherwise it is
    recomputed.
    """
    pairs = _checked_pairs([(f_exponent, g_exponent)], bm_steps)
    _check_mc(replications, seed, threads)
    path = pivot_cache_path(
        f_exponent, g_exponent, replications, bm_steps, seed, cache_dir
    )
    return _cached_or_built(
        path if use_cache else None,
        (pairs, replications, bm_steps, seed),
        lambda: _tabulate(pairs, False, replications, bm_steps, seed, threads),
    )


def _cached_or_built(path: Path | None, key: tuple, build: Callable[[], PivotLaw]) -> PivotLaw:
    """The table cached at ``path`` if it is valid for ``key``, else ``build()``,
    stored at ``path``; with no ``path`` the cache is neither read nor written."""
    if path is not None and (law := _cached_law(path, key)):
        return law
    law = build()
    if path is not None:
        try:
            save_pivot_law(law, path)
        except OSError as exc:
            warnings.warn(f"could not write quantile cache {path}: {exc}", stacklevel=3)
    return law


def _cached_law(path: Path, key: tuple) -> PivotLaw | None:
    """The scalar table cached at ``path``, if it is valid for ``key``.

    ``key`` is (pairs, replications, bm_steps, seed). The table must also be
    the ``ALPHA_GRID`` table, finite, non-decreasing and antisymmetric
    (q(0.5) = 0 and q(a) = -q(1 - a) up to rounding), as both engines build
    it. Anything else is reported as a warning and not served.
    """
    if not path.is_file():
        return None
    try:
        law = load_pivot_law(path)
    except (ValueError, OSError):
        warnings.warn(f"unreadable quantile cache at {path}; recomputing", stacklevel=4)
        return None
    q = law.quantiles
    if (
        (law.pairs, law.replications, law.bm_steps, law.seed) == key
        and np.array_equal(law.alphas, ALPHA_GRID)
        and np.isfinite(q).all()
        and (np.diff(q) >= 0).all()
        and q[len(q) // 2] == 0.0
        and (np.abs(q + q[::-1]) <= 1e-10 * np.abs(q).max()).all()
    ):
        return law
    warnings.warn(f"stale quantile cache at {path}; recomputing", stacklevel=4)
    return None


def exact_quantiles(
    f_exponent: int,
    g_exponent: int,
    bm_steps: int = 2000,
    use_cache: bool = True,
    cache_dir: str | os.PathLike | None = None,
) -> PivotLaw:
    """Exact quantile table of the scalar pivot for exponents (f, g).

    The pivot is the one :func:`mc_quantiles` samples: Brownian motion on
    ``bm_steps`` equidistant points and the left-matching Riemann sum. Its
    law is computed, not simulated (see :func:`_exact_table`), so the table
    has no Monte Carlo error, no seed and no thread count; it is exactly
    antisymmetric. It is cached at :func:`exact_cache_path` and, like a Monte
    Carlo table, served only if it passes the checks of :func:`mc_quantiles`.
    """
    pairs = _checked_pairs([(f_exponent, g_exponent)], bm_steps)
    path = exact_cache_path(f_exponent, g_exponent, bm_steps, cache_dir)
    return _cached_or_built(
        path if use_cache else None,
        (pairs, 0, bm_steps, 0),
        lambda: PivotLaw(
            pairs, False, 0, bm_steps, 0, ALPHA_GRID.copy(), _exact_table(*pairs[0], bm_steps)
        ),
    )


# The exact engine's trapezoid rule in s, in units where E[Z'CZ] = 1 so that
# one range serves every (f, g): the integrand is analytic within pi/2 of the
# real axis, so the step's error is about exp(-pi^2 / step). Then the x grid
# that brackets each quantile before the Newton steps.
_S_RANGE = (-40.0, 15.0)
_S_STEP = 0.4
_X_MAX = 64.0
_X_POINTS = 128


def _exact_table(
    f: int, g: int, n: int, step: float = _S_STEP, points: int = _X_POINTS
) -> np.ndarray:
    """Quantiles on ``ALPHA_GRID`` of the pivot on the ``n``-point grid.

    There T = a'Z / sqrt(Z'CZ) with Z ~ N(0, I_n), L the lower-triangular
    matrix of ones over sqrt(n), a its last row, C = D'D / n and
    D = diag(eta^g) L - eta^f a'.
    By Gil-Pelaez (Imhof 1961),

        P(|T| <= x) = P(Z'(aa' - x^2 C)Z <= 0) = 1/2 - (1/pi) int Im phi ds,

    phi = det(I - 2it(aa' - x^2 C))^(-1/2) at t = e^s / x^2. In the path
    coordinates B = LZ, whose inverse covariance over n is the tridiagonal
    T_n (2 on the diagonal, 1 in the corner, -1 beside it), the determinant
    is det(T_n + eps H'H) (1 - 2i e^s [(T_n + eps H'H)^{-1}]_nn / (n x^2))
    with eps = 2i e^s / n^2 and H = diag(eta^g) - eta^f e_n'. H'H is diagonal
    plus its last row and column, so one LDL' sweep per node gives both
    factors in O(n), and neither depends on x: each x then costs one sum over
    the nodes. Every pivot of the sweep lies in the closed first quadrant (a
    Schur complement of a matrix with positive definite real part and
    semidefinite imaginary part), so their principal logs sum to the
    continuous log det. Each quantile is bracketed on an x grid and polished
    by safeguarded Newton steps on the CDF and its derivative.
    """
    eta = np.arange(1, n + 1) / n
    tau = np.mean(eta ** (2 * g + 1) - 2 * eta ** (f + g + 1) + eta ** (2 * f))  # E[Z'CZ]
    lo, hi = _S_RANGE
    s = lo + step * np.arange(round((hi - lo) / step) + 1)
    eps = 2j * np.exp(s) / (n * n * tau)
    # diagonal of T_n + eps H'H and its last column, rows 1 .. n-1; the sweep
    # turns them into the LDL' pivots and the forward-substituted column
    pivots = 2.0 + np.multiply.outer(eta[:-1] ** (2 * g), eps)
    column = -np.multiply.outer(eta[:-1] ** (f + g), eps)
    column[-1] -= 1.0
    for k in range(1, n - 1):
        column[k] += column[k - 1] / pivots[k - 1]
        pivots[k] -= 1.0 / pivots[k - 1]
    corner = 1.0 + eps * np.sum(eta[:-1] ** (2 * f)) - (column * column / pivots).sum(axis=0)
    phi_c = np.exp(-0.5 * (np.log(pivots).sum(axis=0) + np.log(corner)))
    c = 2j * np.exp(s) / (n * corner)

    def cdf(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P(|T| sqrt(tau) <= x) and its derivative, by the trapezoid rule in s."""
        w = 1.0 - c / (x * x)[:, None]  # Im w < 0: the principal root is the continuous one
        phi = phi_c / np.sqrt(w)
        dphi = phi * c / (w * (x**3)[:, None])  # -d phi / dx
        return 0.5 - step / math.pi * phi.imag.sum(axis=1), step / math.pi * dphi.imag.sum(axis=1)

    p = 2.0 * ALPHA_GRID[ALPHA_GRID > 0.5] - 1.0  # P(|T| <= q(alpha)) for alpha above 1/2
    grid = _X_MAX * (np.arange(points + 1) / points) ** 2
    # the quadrature's rounding near 1 is clipped so that the grid CDF is monotone
    cum = np.maximum.accumulate(np.concatenate([[0.0], cdf(grid[1:])[0]]))
    if not cum[-1] > p[-1]:
        raise NumericalError(f"exact pivot law ({f}, {g}) reaches beyond its x grid")
    k = np.searchsorted(cum, p)
    below, above = grid[k - 1], grid[k]
    x = np.interp(p, cum, grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(64):  # a Newton step inside the bracket, else bisection
            cdf_x, dens = cdf(x)
            short = cdf_x < p
            below = np.where(short, x, below)
            above = np.where(short, above, x)
            newton = x - (cdf_x - p) / dens
            inside = (newton >= below) & (newton <= above)
            x, prev = np.where(inside, newton, 0.5 * (below + above)), x
            if (np.abs(x - prev) <= 1e-13 * x).all():
                break
    upper = x / math.sqrt(tau)
    if not (np.isfinite(upper).all() and (np.diff(upper) >= 0).all()):
        raise NumericalError(f"exact pivot law ({f}, {g}): quantile inversion failed")
    return np.concatenate([-upper[::-1], [0.0], upper])


def mc_quantiles_joint(
    pairs: Sequence[tuple[int, int]],
    replications: int = 100_000,
    bm_steps: int = 2000,
    seed: int = DEFAULT_QUANTILE_SEED,
    threads: int = 1,
) -> PivotLaw:
    """Quantile table of the joint pivot B(1)' U^{-1} B(1) for several paths.

    Components use independent Brownian motions; cross-correlations of the
    underlying estimates cancel from the quadratic form. Not cached on disk.
    """
    pairs = _checked_pairs(pairs, bm_steps)
    _check_mc(replications, seed, threads)
    return _tabulate(pairs, True, replications, bm_steps, seed, threads)


@dataclass(frozen=True)
class SelfNormV:
    """Self-normalization matrix for one or more measure paths.

    ``matrix`` is V^2 (k x k, positive semidefinite), ``values`` its diagonal
    square roots, one scalar V per path.
    """

    matrix: np.ndarray
    values: np.ndarray


def self_norm_V(paths: Sequence[SequentialFunctional]) -> SelfNormV:
    """Self-normalizer from the partial-sum paths of one or more measures.

    Each path contributes D(k/N) = (k/N)^f (s_hat(k/N) - s_hat(1)); entries
    where the path is undefined contribute zero (their weight vanishes in
    the limit). V^2_{ij} averages D_i D_j over the grid, a left-matching
    Riemann sum of the limiting integral.
    """
    if not paths:
        raise ValueError("need at least one path")
    n = len(paths[0].eta)
    for pth in paths[1:]:
        if len(pth.eta) != n or not np.allclose(pth.eta, paths[0].eta):
            raise ValueError("paths must share the same fraction grid")
    d_rows = np.empty((len(paths), n))
    for i, pth in enumerate(paths):
        dev = pth.eta ** pth.f_exponent * (pth.values - pth.values[-1])
        dev = np.where(pth.valid, dev, 0.0)
        d_rows[i] = dev
    v2 = (d_rows @ d_rows.T) / n
    diag = np.maximum(np.diag(v2), 0.0)
    return SelfNormV(matrix=v2, values=np.sqrt(diag))


@dataclass(frozen=True)
class ConfidenceInterval:
    level: float
    lo: float
    hi: float


def confidence_interval(
    estimate: float, v: float, law: PivotLaw, alpha: float = 0.05
) -> ConfidenceInterval:
    """Two-sided confidence interval [estimate + q_{a/2} V, estimate + q_{1-a/2} V]."""
    if not 0.002 <= alpha < 1.0:
        raise ConfigError(f"alpha = {alpha} outside the supported range [0.002, 1)")
    if v < 0:
        raise ValueError("V must be non-negative")
    lo = estimate + law.quantile(alpha / 2.0) * v
    hi = estimate + law.quantile(1.0 - alpha / 2.0) * v
    return ConfidenceInterval(level=1.0 - alpha, lo=lo, hi=hi)


@dataclass(frozen=True)
class RelevantTestResult:
    reject: bool
    delta: float
    alpha: float
    quantile: float
    threshold: float


def relevant_test(
    estimate: float, v: float, law: PivotLaw, delta: float, alpha: float = 0.05
) -> RelevantTestResult:
    """One-sided test of 'deviation at most delta' against 'larger than delta'.

    Rejects when estimate > delta + q_{1-alpha} V.
    """
    if delta < 0:
        raise ConfigError(f"delta = {delta} must be non-negative")
    q = law.quantile(alpha, upper=True)
    threshold = delta + q * v
    return RelevantTestResult(
        reject=bool(estimate > threshold),
        delta=delta,
        alpha=alpha,
        quantile=q,
        threshold=threshold,
    )


@dataclass(frozen=True)
class OrderStatistic:
    d: int
    estimate: float
    v: float
    statistic: float


@dataclass(frozen=True)
class OrderSelection:
    d_hat: int | None
    nu: float
    alpha: float
    quantile: float
    stats: tuple[OrderStatistic, ...]


def _order_statistic(path: SequentialFunctional, nu: float) -> OrderStatistic:
    s = path.point_estimate
    v = self_norm_V([path]).values[0]
    if v == 0.0:
        if s == nu:
            raise NumericalError(
                f"order statistic undefined at d = {path.d}: zero self-normalizer "
                "with estimate exactly at the threshold"
            )
        stat = math.inf if s > nu else -math.inf
    else:
        stat = (s - nu) / v
    return OrderStatistic(d=path.d, estimate=s, v=float(v), statistic=stat)


def estimate_dstar(
    paths: Sequence[SequentialFunctional],
    law: PivotLaw,
    nu: float,
    alpha: float = 0.05,
) -> OrderSelection:
    """Smallest d whose explained-share statistic clears the threshold nu.

    d_hat is the first d with (s_hat_d - nu) / V_d strictly above the lower
    alpha quantile of the pivot; if no candidate clears it, d_hat is None
    (the candidate list was too short or the data contradict every order).
    """
    if not paths:
        raise ValueError("need at least one candidate order")
    if not 0.0 < nu < 1.0:
        raise ConfigError(f"nu = {nu} must lie strictly between 0 and 1")
    ds = [pth.d for pth in paths]
    if any(b <= a for a, b in zip(ds, ds[1:])):
        raise ValueError("candidate paths must have strictly increasing d")
    q = law.quantile(alpha)
    stats = tuple(_order_statistic(pth, nu) for pth in paths)
    d_hat = next((st.d for st in stats if st.statistic > q), None)
    return OrderSelection(d_hat=d_hat, nu=nu, alpha=alpha, quantile=q, stats=stats)


def test_order_upper(selection: OrderSelection, d0: int) -> bool:
    """Reject 'true order at most d0' when the selected order exceeds d0."""
    _check_count("d0", d0)
    return selection.d_hat is not None and selection.d_hat > d0


@dataclass(frozen=True)
class JointTestResult:
    statistic: float
    alpha: float
    quantile: float
    reject: bool


def joint_statistic(
    deviations: np.ndarray,
    v: SelfNormV,
    law: PivotLaw,
    alpha: float = 0.05,
) -> JointTestResult:
    """Joint quadratic-form test across several measures.

    ``deviations`` holds estimate minus hypothesized value per path, in the
    order the paths were passed to :func:`self_norm_V`; the statistic is
    deviations' (V^2)^{-1} deviations, compared against the joint pivot law.

    :raises NumericalError: if V^2 is numerically singular (condition number
        above 1e12), in which case the quadratic form is meaningless.
    """
    if not law.joint:
        raise ValueError("the joint statistic needs a joint pivot law, got a scalar one")
    dev = np.asarray(deviations, dtype=float)
    v2 = v.matrix
    if dev.shape != (v2.shape[0],):
        raise ValueError(
            f"deviation vector of length {dev.shape} does not match V^2 of shape {v2.shape}"
        )
    if len(law.pairs) != v2.shape[0]:
        raise ValueError("joint law was tabulated for a different number of paths")
    cond = np.linalg.cond(v2)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError(
            "self-normalizer matrix is numerically singular; the joint statistic "
            "requires it positive definite"
        )
    stat = float(dev @ np.linalg.solve(v2, dev))
    q = law.quantile(alpha, upper=True)
    return JointTestResult(statistic=stat, alpha=alpha, quantile=q, reject=bool(stat > q))
