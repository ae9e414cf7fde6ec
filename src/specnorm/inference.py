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
the thread count. Each chunk is drawn and reduced in row blocks of about
4 MiB of paths; a row's noise and arithmetic do not depend on the block, so
the bits do not depend on the block size either. Scalar tables of either
engine are cached on disk as ``.npy`` entries, a float64 vector of the key
then the quantiles, under a name that carries the engine and the format tag;
lookups interpolate the table, so runs with a warm or cold cache produce
identical bytes.
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

from .errors import ConfigError, NumericalError, _check_count, _check_real
from .estimator import map_ordered
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
_BLOCK_BYTES = 1 << 22  # Brownian paths a chunk draws and reduces at a time

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
        alpha = _check_real("alpha", alpha)
        level = 1.0 - alpha if upper else alpha
        lo, hi = float(self.alphas[0]), float(self.alphas[-1])
        if not lo <= level <= hi:
            raise ConfigError(
                f"alpha = {alpha} outside the tabulated range [{lo}, {hi}]"
            )
        return float(np.interp(level, self.alphas, self.quantiles))


def _checked_pairs(pairs: Sequence[tuple[int, int]], bm_steps: int) -> tuple[_Pairs, int]:
    """The exponent pairs and the Brownian grid size as ints, once they are valid."""
    try:
        pairs = tuple((f, g) for f, g in pairs)
    except (TypeError, ValueError):  # no iterable, or an item that is no pair
        raise ConfigError(f"pairs = {pairs!r} must be a sequence of pairs (f, g)") from None
    pairs = tuple((_check_count("f_exponent", f, 0), _check_count("g_exponent", g, 0))
                  for f, g in pairs)
    if not pairs:
        raise ConfigError("joint pivot needs at least one exponent pair")
    return pairs, _check_count("bm_steps", bm_steps, 500)


def _check_mc(replications: int, seed: int, threads: int) -> tuple[int, int, int]:
    """The Monte Carlo engine's own arguments as ints, once they are valid."""
    return (_check_count("replications", replications, 10_000), _check_count("seed", seed, 0),
            _check_count("threads", threads))


def _chunk(
    pairs: _Pairs, joint: bool, bm_steps: int, seed: int, index: int, size: int
) -> np.ndarray:
    """Pivot draws of Monte Carlo chunk ``index``, from a generator of its own.

    Each replication drives one Brownian motion per pair. A joint draw is the
    quadratic form B(1)' U^{-1} B(1); a scalar draw is B(1) / sqrt(U) and also
    enters with its sign flipped. The paths are drawn and reduced in row
    blocks of about ``_BLOCK_BYTES``; a row's noise and arithmetic do not
    depend on the block it falls in, so neither do the draws.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, index]))
    eta = np.arange(1, bm_steps + 1) / bm_steps
    fmat = np.stack([eta**f for f, _ in pairs])
    gmat = np.stack([eta**g for _, g in pairs])
    scale = 1.0 / math.sqrt(bm_steps)
    rows = max(1, _BLOCK_BYTES // (8 * len(pairs) * bm_steps))
    paths = np.empty((min(rows, size), len(pairs), bm_steps))
    term = np.empty_like(paths)  # f B(1)

    def draw(m: int) -> tuple[np.ndarray, np.ndarray]:
        # the next m paths and g B - f B(1), formed in place in the buffers
        dev = paths[:m]
        rng.standard_normal(out=dev)
        np.cumsum(dev, axis=2, out=dev)
        dev *= scale
        b1 = dev[:, :, -1].copy()
        dev *= gmat
        dev -= np.multiply(b1[:, :, None], fmat, out=term[:m])
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

    out, ok = np.empty(size), np.empty(size, dtype=bool)
    for start in range(0, size, len(paths)):
        stop = min(start + len(paths), size)
        out[start:stop], ok[start:stop] = draw(stop - start)
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


# Names the layout of a pivot entry and what the engines compute: a change to either must bump it.
_PIVOT_TAG = "v2"


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
        f"pivot_mc_{_PIVOT_TAG}_f{f_exponent}_g{g_exponent}_R{replications}"
        f"_n{bm_steps}_seed{seed}.npy"
    )
    return _cache_root(cache_dir) / name


def exact_cache_path(
    f_exponent: int, g_exponent: int, bm_steps: int, cache_dir: str | os.PathLike | None = None
) -> Path:
    """Location of the on-disk exact quantile table for (f, g) on ``bm_steps`` points."""
    name = f"pivot_exact_{_PIVOT_TAG}_f{f_exponent}_g{g_exponent}_n{bm_steps}.npy"
    return _cache_root(cache_dir) / name


def _cache_root(cache_dir: str | os.PathLike | None) -> Path:
    if cache_dir is None:  # an empty variable means the default, not the working directory
        cache_dir = os.environ.get("SPECNORM_CACHE_DIR") or Path.home() / ".cache" / "specnorm"
    return Path(cache_dir)


def _read_entry(
    path: Path, valid: Callable[[np.ndarray], bool], unreadable: str, stale: str, stacklevel: int
) -> np.ndarray | None:
    """The array of the cache entry at ``path``, if there is one and ``valid``
    accepts it. An entry that is not a ``.npy`` array warns ``unreadable``, one
    that ``valid`` refuses warns ``stale``; neither is served. ``stacklevel`` is
    the caller's, as it would pass it to ``warnings.warn``."""
    if not path.is_file():
        return None
    try:
        with open(path, "rb") as fh:
            values = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        warnings.warn(unreadable, stacklevel=stacklevel + 1)
        return None
    if valid(values):
        return values
    warnings.warn(stale, stacklevel=stacklevel + 1)
    return None


def _write_entry(path: Path, values: np.ndarray, what: str, stacklevel: int) -> None:
    """Store ``values`` as the cache entry at ``path``, through a temporary file
    beside it that replaces ``path`` only once it is complete, so a reader never
    sees half an entry. A failed write warns, with the caller's ``stacklevel``,
    and leaves no temporary file."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, values, allow_pickle=False)
        os.replace(tmp, path)
    except OSError as exc:
        warnings.warn(f"could not write {what} cache {path}: {exc}", stacklevel=stacklevel + 1)
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def quantile_se(law: PivotLaw, alpha: float) -> float:
    """Monte Carlo standard error of a tabulated quantile.

    Uses the asymptotic formula sqrt(alpha (1-alpha) / R) / density, with the
    density estimated from neighbouring table entries. R counts simulated
    paths; under the scalar engine's antithetic pairing the formula is
    slightly conservative in the tails. An exact table has none: 0.0. An
    alpha outside the tabulated range is refused as :meth:`PivotLaw.quantile`
    refuses it, before the window is clamped to the table.
    """
    alpha = _check_real("alpha", alpha)
    law.quantile(alpha)
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
    A cached table is served only if its stored key matches and it is a
    full, finite, non-decreasing and antisymmetric table; otherwise it is
    recomputed.
    """
    pairs, bm_steps = _checked_pairs([(f_exponent, g_exponent)], bm_steps)
    replications, seed, threads = _check_mc(replications, seed, threads)
    path = pivot_cache_path(*pairs[0], replications, bm_steps, seed, cache_dir)
    return _cached_or_built(
        path if use_cache else None, pairs, replications, bm_steps, seed,
        lambda: _tabulate(pairs, False, replications, bm_steps, seed, threads),
    )


def _cached_or_built(
    path: Path | None, pairs: _Pairs, replications: int, bm_steps: int, seed: int,
    build: Callable[[], PivotLaw],
) -> PivotLaw:
    """The scalar table cached at ``path`` if it is valid for its key, else
    ``build()``, stored at ``path``; with no ``path`` the cache is neither read
    nor written. An entry is the float64 vector (f, g, replications, bm_steps,
    seed, quantiles on ``ALPHA_GRID``), served only if its key is this key and
    its table is finite, non-decreasing and antisymmetric (q(0.5) = 0 and
    q(a) = -q(1 - a) up to rounding), as both engines build it."""
    if path is None:
        return build()
    key = np.array([*pairs[0], replications, bm_steps, seed], dtype=float)

    def valid(entry: np.ndarray) -> bool:
        if entry.dtype != np.float64 or entry.shape != (len(key) + len(ALPHA_GRID),):
            return False
        q = entry[len(key):]
        return (
            np.array_equal(entry[: len(key)], key)
            and np.isfinite(q).all()
            and (np.diff(q) >= 0).all()
            and q[len(q) // 2] == 0.0
            and (np.abs(q + q[::-1]) <= 1e-10 * np.abs(q).max()).all()
        )

    entry = _read_entry(path, valid, f"unreadable quantile cache at {path}; recomputing",
                        f"stale quantile cache at {path}; recomputing", stacklevel=3)
    if entry is not None:
        quantiles = entry[len(key):]
        return PivotLaw(pairs, False, replications, bm_steps, seed, ALPHA_GRID.copy(), quantiles)
    law = build()
    _write_entry(path, np.concatenate([key, law.quantiles]), "quantile", stacklevel=3)
    return law


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
    pairs, bm_steps = _checked_pairs([(f_exponent, g_exponent)], bm_steps)
    path = exact_cache_path(*pairs[0], bm_steps, cache_dir)
    return _cached_or_built(
        path if use_cache else None, pairs, 0, bm_steps, 0,
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
    p = 2.0 * ALPHA_GRID[ALPHA_GRID > 0.5] - 1.0  # P(|T| <= q(alpha)) for alpha above 1/2
    grid = _X_MAX * (np.arange(points + 1) / points) ** 2
    # three arrays, not one stacked one: glibc raises its mmap threshold to
    # the largest block freed, and one 3.3 MB block lifted the peak RSS of a
    # later run of warm reports by 3.4 MB
    buffers = [np.empty((max(points, len(p)), len(s)), dtype=complex) for _ in range(3)]

    def cdf(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P(|T| sqrt(tau) <= x) and its derivative, by the trapezoid rule in s."""
        w, phi, dphi = (b[: len(x)] for b in buffers)
        # Im w < 0: the principal root is the continuous one
        np.subtract(1.0, np.divide(c, (x * x)[:, None], out=w), out=w)
        np.divide(phi_c, np.sqrt(w, out=phi), out=phi)
        np.multiply(phi, c, out=dphi)
        dphi /= np.multiply(w, (x**3)[:, None], out=w)  # -d phi / dx
        return 0.5 - step / math.pi * phi.imag.sum(axis=1), step / math.pi * dphi.imag.sum(axis=1)

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
    pairs, bm_steps = _checked_pairs(pairs, bm_steps)
    replications, seed, threads = _check_mc(replications, seed, threads)
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
    alpha = _check_real("alpha", alpha, 0.002, 1.0, open_high=True)
    estimate, v = _check_real("estimate", estimate), _check_real("V", v, 0.0)
    lo = estimate + law.quantile(alpha / 2.0) * v
    hi = estimate + law.quantile(1.0 - alpha / 2.0) * v
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NumericalError(f"interval [{lo}, {hi}] overflows: estimate = {estimate}, V = {v}")
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
    delta = _check_real("delta", delta, 0.0)
    estimate, v = _check_real("estimate", estimate), _check_real("V", v, 0.0)
    q = law.quantile(alpha, upper=True)
    threshold = delta + q * v
    if not math.isfinite(threshold):
        raise NumericalError(f"threshold delta + q V overflows: delta = {delta}, V = {v}")
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


def _studentized(x: float, c: float, v: float) -> float:
    """(x - c) / V; for V = 0, +-inf by the sign of x - c, and NaN at x = c."""
    if v > 0:
        return (x - c) / v
    return math.inf if x > c else -math.inf if x < c else math.nan


def _order_statistic(path: SequentialFunctional, nu: float) -> OrderStatistic:
    s = path.point_estimate
    v = self_norm_V([path]).values[0]
    stat = _studentized(s, nu, v)
    if math.isnan(stat):
        raise NumericalError(f"order statistic undefined at d = {path.d}: zero self-normalizer "
                             "with estimate exactly at the threshold")
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
    nu = _check_real("nu", nu, 0.0, 1.0, True, True)
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
        raise ValueError(f"deviation vector of length {dev.shape} does not match V^2 "
                         f"of shape {v2.shape}")
    if not np.isfinite(dev).all():
        raise ValueError(f"deviations must be finite, got {dev}")
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
