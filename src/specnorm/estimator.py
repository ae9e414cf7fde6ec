"""Sequential time-varying spectral density estimation.

Implements the partial-sum, kernel-smoothed estimator of the time-varying
spectral density operator on a discretized grid: lag-window weights
w_tilde(omega, s, t) = (2 pi)^{-1} w(b_f (s-t)) e^{i omega (s-t)}, windows of
length N centered at the equidistant midpoints u_1 = N/(2T), ...,
u_M = 1 - N/(2T), and the full sequential path eta -> F_hat_{u,omega}(eta)
over the fraction grid {k/N}, where each slice is an exact partial-sum
estimate; the self-normalization layer integrates over that grid.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, NumericalError, _check_count, _check_real
from .hermitian import _lapack_errors, psd_project_batch, require_hermitian

__all__ = [
    "PARZEN",
    "BandwidthPlan",
    "default_bandwidth_plan",
    "midpoint_grid",
    "TimeSeriesSample",
    "SequentialSDO",
    "estimate_sequential_sdo",
]

TWO_PI = 2.0 * math.pi


def PARZEN(x: np.ndarray | float) -> np.ndarray:
    """Parzen's lag window w(x), for a scalar or an array: even, supported on [-1, 1], w(0) = 1.

    Its spectral window (the Fourier transform of w) is nonnegative, so the Toeplitz matrix
    of w(b_f h) e^{i omega h} and every partial-sum slice of an estimate are PSD up to
    roundoff (Priestley, *Spectral Analysis and Time Series*, 1981, 6.2.3).
    """
    ax = np.abs(np.asarray(x, dtype=float))
    inner = 1.0 - 6.0 * ax**2 + 6.0 * ax**3
    outer = 2.0 * (1.0 - ax) ** 3
    return np.where(ax <= 0.5, inner, np.where(ax <= 1.0, outer, 0.0))


# Parzen's characteristic exponent (w - 1 = O(x^iota)), and kappa_f = 151/280, the exact
# integral of w^2 over [-1, 1] (checked by quadrature in tests) in rho_T^2 = N * b_f / kappa_f.
_IOTA = 2
_KAPPA_F = 151.0 / 280.0


@dataclass(frozen=True)
class BandwidthPlan:
    """Resolved estimation plan: window length N, bandwidth b_f, midpoint count M.

    ``warnings`` lists any asymptotic-regime inequality the finite-sample
    choice violates; violations degrade the quality of the normal
    approximation but do not invalidate the computation.
    """

    T: int
    alpha: float
    kappa: float
    N: int
    b_f: float
    M: int
    warnings: tuple[str, ...] = field(default=())

    @property
    def rho_sq(self) -> float:
        """Normalizing constant rho_T^2 = N * b_f / kappa_f."""
        return self.N * self.b_f / _KAPPA_F

    @property
    def eta_points(self) -> np.ndarray:
        return np.arange(1, self.N + 1) / self.N


def default_bandwidth_plan(
    T: int,
    *,
    alpha: float = 0.5,
    kappa: float = 0.4,
    M: int | None = None,
) -> BandwidthPlan:
    """Window/bandwidth plan N = T^alpha (forced even), b_f = N^-kappa, Parzen lag window.

    Defaults: alpha = 0.5, kappa = 0.4, M = max(4, round(N^0.3)). The hard
    constraints kappa in (1/(2 iota + 1), 1) = (1/5, 1) and M * N <= T raise; the
    asymptotic-regime inequalities (alpha bound of the relevant bandwidth
    case, M = o(N^{1-kappa}), N^{1-kappa} = o(M^3)) are only listed in
    ``plan.warnings``, since no finite T can satisfy an o(.) literally.

    :param T: series length, at least 64.
    """
    T = _check_count("T", T, 64)
    alpha, kappa = _check_exponents(alpha, kappa)
    N = int(round(T**alpha))
    N -= N % 2
    if N < 2:
        raise ConfigError(f"window length N = {N} too small (T = {T}, alpha = {alpha})")
    b_f = float(N ** (-kappa))
    M = max(4, int(round(N**0.3))) if M is None else _check_count("M", M)
    if M * N > T:
        raise ConfigError(f"series too short for M windows: M * N = {M * N} > T = {T}")

    regime: list[str] = []
    if kappa >= 1.0 / (_IOTA + 1):
        if alpha >= 2.0 / (4.0 - kappa):
            regime.append(f"alpha = {alpha} >= 2/(4 - kappa) = {2.0 / (4.0 - kappa):.4g}")
    else:
        bound = 2.0 / ((2 * _IOTA + 1) * kappa + 2.0)
        if alpha >= bound:
            regime.append(f"alpha = {alpha} >= 2/((2 iota + 1) kappa + 2) = {bound:.4g}")
        if M > N ** ((2 * _IOTA + 1) * kappa - 1.0):
            regime.append(f"M = {M} > N^((2 iota + 1) kappa - 1)")
    if M > N ** (1.0 - kappa):
        regime.append(f"M = {M} > N^(1 - kappa) = {N ** (1.0 - kappa):.4g}")
    if N ** (1.0 - kappa) > M**3:
        regime.append(f"N^(1 - kappa) = {N ** (1.0 - kappa):.4g} > M^3 = {M**3}")
    return BandwidthPlan(T=T, alpha=alpha, kappa=kappa, N=N, b_f=b_f, M=M, warnings=tuple(regime))


def _check_exponents(alpha: float, kappa: float) -> tuple[float, float]:
    """alpha in (0, 1) and kappa in (1/(2 iota + 1), 1) = (1/5, 1) as floats, else ConfigError."""
    kappa = _check_real("kappa", kappa, 1.0 / (2 * _IOTA + 1), 1.0, True, True)
    return _check_real("alpha", alpha, 0.0, 1.0, True, True), kappa


def midpoint_grid(plan: BandwidthPlan) -> np.ndarray:
    """Equidistant window midpoints u_1 = N/(2T) < ... < u_M = 1 - N/(2T).

    For M = 1 the two endpoint formulas coincide only when N = T; a single
    centered window at u = 1/2 is returned in that case.
    """
    if plan.M == 1:
        return np.array([0.5])
    half = plan.N / (2.0 * plan.T)
    return np.linspace(half, 1.0 - half, plan.M)


def _window_starts(plan: BandwidthPlan) -> np.ndarray:
    # floor(u T) - floor(N/2), nudged so exact integers survive FP rounding.
    u = midpoint_grid(plan)
    starts = np.floor(u * plan.T + 1e-9).astype(int) - plan.N // 2
    if starts[0] < 0 or starts[-1] + plan.N > plan.T:
        raise ConfigError(
            f"window of length {plan.N} at the boundary midpoints falls outside the sample"
        )
    return starts


@dataclass(frozen=True)
class TimeSeriesSample:
    """T x p real sample of a discretized functional time series."""

    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.ascontiguousarray(np.asarray(self.data, dtype=float))
        if data.ndim != 2:
            raise DataError(f"sample must be a T x p array, got shape {data.shape}")
        T, p = data.shape
        if T < 2 or p < 1:
            raise DataError(f"sample needs T >= 2 and p >= 1, got T = {T}, p = {p}")
        if not np.all(np.isfinite(data)):
            bad = np.argwhere(~np.isfinite(data))[0]
            raise DataError(f"non-finite value at row {bad[0] + 1}, column {bad[1] + 1}")
        object.__setattr__(self, "data", data)

    @property
    def T(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


def map_ordered(work: Callable[[int], object], n: int, threads: int = 1) -> list:
    """``[work(0), ..., work(n - 1)]``, on up to ``threads`` worker threads.

    Results are taken in index order, so the exception raised is always the
    one of the lowest failing index, whatever the thread count.
    """
    if min(threads, n) <= 1:
        return [work(j) for j in range(n)]
    with ThreadPoolExecutor(min(threads, n)) as pool:
        return list(pool.map(work, range(n)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# The key of the tensor's collection among the block passes: no caller's key equals it.
_TENSOR = object()


@dataclass(frozen=True)
class SequentialSDO:
    """Sequential spectral density estimates on the (u, omega, eta) grid.

    Frequency block j, (M, N, p, p), holds at ``[i, k-1]`` the Hermitian
    estimate at u_points[i], omega_points[j] and eta = k/N from the first k
    observations of the window; its eta = 1 slices are PSD-projected.
    ``blocks(j)`` yields block j in eta chunks, each as (k0, the block's rows
    k0.., the largest eigenvalue the projection clipped in them), built where
    they are read: every block pass (:meth:`map_blocks`) builds the chunks it
    reduces on the estimate's ``threads`` worker threads, so besides its outputs
    it holds one chunk and its temporaries per thread, never a whole block, and
    the read-only ``tensor`` (M, K, N, p, p) is collected from them on first
    read. Results depend on neither the thread count, the chunk length, nor
    whether the tensor was read. A block pass run under a ``key`` is kept
    read-only and shared by later passes under the same key.
    """

    u_points: np.ndarray
    omega_points: np.ndarray
    eta_points: np.ndarray
    band: tuple[float, float]
    p: int
    blocks: Callable[[int], Iterable[tuple[int, np.ndarray, float]]] = field(repr=False)
    plan: BandwidthPlan | None = None
    threads: int = 1
    diagnostics: dict = field(default_factory=dict)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def map_blocks(
        self, work: Callable[[np.ndarray], tuple], key: object = None
    ) -> tuple[np.ndarray, ...]:
        """``work`` on every frequency block, its per-cell arrays stacked to (M, K, N, ...).

        ``work`` maps one read-only chunk of a block, (M, rows, p, p), to arrays
        with leading axes (M, rows), each slice reduced on its own. Blocks run
        on ``self.threads`` threads, one block per thread at a time, and each
        chunk is reduced as soon as it is built and written to its fractions.
        The pass records ``diagnostics["psd_clip_max"]``, the largest eta = 1
        clip. With a ``key``, the first pass is kept and returned again. A
        LAPACK failure in ``work`` is raised as a NumericalError naming the block.
        """
        if key in self._memo:
            return self._memo[key]
        outs: list[np.ndarray] = []
        alloc = threading.Lock()

        def run(j: int) -> float:
            clip = 0.0
            for k0, chunk, chunk_clip in self.blocks(j):
                with _lapack_errors(f"frequency cell {j + 1}"):
                    parts = work(_read_only(chunk))
                with alloc:
                    if not outs:
                        outs.extend(np.empty((self.m, self.k_omega, self.n_window, *part.shape[2:]),
                                             part.dtype) for part in parts)
                for out, part in zip(outs, parts):
                    out[:, j, k0 : k0 + chunk.shape[1]] = part
                clip = max(clip, chunk_clip)
                del chunk, parts  # before the next chunk is built
            return clip

        self.diagnostics["psd_clip_max"] = max(map_ordered(run, self.k_omega, self.threads))
        result = tuple(_read_only(out) for out in outs)
        if key is not None:
            self._memo[key] = result
        return result

    @property
    def tensor(self) -> np.ndarray:
        """The read-only (M, K, N, p, p) tensor; the first read fills it in place from
        the blocks' chunks, on ``self.threads`` threads, and records ``psd_clip_max``."""
        return self.map_blocks(lambda f: (f,), key=_TENSOR)[0]

    @property
    def m(self) -> int:
        return self.u_points.size

    @property
    def k_omega(self) -> int:
        return self.omega_points.size

    @property
    def n_window(self) -> int:
        return self.eta_points.size

    @classmethod
    def from_tensor(cls, tensor: np.ndarray) -> "SequentialSDO":
        """Wrap the Hermitian part of an explicit (M, K, N, p, p) tensor, a new array with every
        slice PSD-projected, on midpoint grids over [0, 1] and [0, pi]; each block is one chunk
        and carries the largest eigenvalue its projection clipped. Another number of axes raises
        ConfigError, as does a tensor that :func:`require_hermitian` refuses."""
        tensor = np.asarray(tensor, dtype=complex)
        if tensor.ndim != 5:
            raise ConfigError(f"tensor must have shape (M, K, N, p, p), got {tensor.shape}")
        tensor = require_hermitian(tensor, what="tensor")
        m, k, n, p = tensor.shape[:4]
        with _lapack_errors("the wrapped tensor"):
            tensor, lowest = psd_project_batch(tensor)
        clips = [max(0.0, -float(low)) for low in lowest.min(axis=(0, 2))]
        sdo = cls(
            u_points=cell_midpoints((0.0, 1.0), m),
            omega_points=cell_midpoints((0.0, math.pi), k), eta_points=np.arange(1, n + 1) / n,
            band=(0.0, math.pi), p=p,
            blocks=lambda j: [(0, tensor[:, j], clips[j])],
            diagnostics={"psd_clip_max": max(clips)},
        )
        sdo._memo[_TENSOR] = (_read_only(tensor),)
        return sdo


def cell_midpoints(band: tuple[float, float], k: int) -> np.ndarray:
    """Midpoints a + (j + 1/2)(b - a)/k, j = 0..k-1, of k equal cells of [a, b]."""
    a, b = band
    return a + (np.arange(k) + 0.5) * (b - a) / k


def _validate_band(band: tuple[float, float]) -> tuple[float, float]:
    """The band's edges as floats, once ``band`` is a pair of reals with 0 <= a < b <= pi."""
    try:
        a, b = band
    except (TypeError, ValueError):
        raise ConfigError(f"band = {band!r} must be a pair (a, b)") from None
    a, b = _check_real("band[0]", a), _check_real("band[1]", b)
    if not (0.0 <= a < b <= math.pi + 1e-12):
        raise ConfigError(f"frequency band must satisfy 0 <= a < b <= pi, got ({a}, {b})")
    return a, min(b, math.pi)


def _default_k_omega(plan: BandwidthPlan, band: tuple[float, float]) -> int:
    a, b = band
    return max(1, math.ceil((b - a) / math.pi * plan.N**plan.kappa))


# A block is built and reduced in chunks of rows along eta: about this many bytes of
# partial sums per chunk, and never fewer rows than this, as tiny chunks are slow.
_CHUNK_BYTES = 1 << 19
_CHUNK_ROWS = 8


class _BlockKernel:
    """Builds frequency block j of the sequential estimate for all M windows, in eta chunks.

    With lag coefficients c_h = w(b_f h) e^{i omega h} / (2 pi) and the
    filtered series y_k = sum_{h=1..L} c_h x_{k-h} (zero before the window
    starts), the partial sums F_num(k) = sum_{s,t <= k} c_{s-t} x_s x_t^T
    grow by the rank-2 increment a_k + a_k^H with a_k = x_k (c_0 x_k / 2 + y_k)^T.
    Forming it as a + a^H keeps every slice Hermitian bit for bit. The chunk of
    slices k = k0+1..k1 adds the undivided F_num(k0) to its first increment
    before its cumulative sum, which adds in sequence, so every slice has the
    bits of a whole-block sum. Building a chunk takes it, its increments and its
    own lag windows; between chunks the kernel keeps the M centred windows only.
    """

    def __init__(self, x: np.ndarray, starts: np.ndarray, n: int, coef: np.ndarray) -> None:
        self.lags = coef.shape[1] - 1
        # the M windows centred per grid point, after L zero rows: (M, L + N, p)
        windows = np.stack([x[o : o + n] for o in starts]) - x.mean(axis=0)
        self.padded = np.concatenate([np.zeros((len(starts), self.lags, x.shape[1])), windows], 1)
        # c_L, ..., c_1 per frequency as (real, imag) columns, matching the lag order of a chunk
        self.coef = np.stack([coef[:, :0:-1].real, coef[:, :0:-1].imag], axis=-1)  # (K, L, 2)
        self.half_c0 = coef[0, 0].real / 2.0
        self.ks = np.arange(1, n + 1, dtype=float)[:, None, None]
        self.rows = max(_CHUNK_ROWS, _CHUNK_BYTES // (16 * len(starts) * x.shape[1] ** 2))

    def _partial_sums(self, j: int, k0: int, k1: int, carry: np.ndarray | None) -> np.ndarray:
        """F_num(k) of block j for k = k0+1..k1, from ``carry`` = F_num(k0) (None at k0 = 0)."""
        # lagged[i, k-k0-1, :, l] = x_{k-L+l} of window i, the L observations before row k
        lagged = sliding_window_view(self.padded[:, k0 : k1 + self.lags - 1], self.lags, axis=1)
        z = np.ascontiguousarray(lagged) @ self.coef[j]  # (M, rows, p, 2): y_k as (real, imag)
        windows = self.padded[:, self.lags + k0 : self.lags + k1]
        z[..., 0] += self.half_c0 * windows
        a = (windows[..., :, None, None] * z[..., None, :, :]).view(complex)[..., 0]
        f = np.empty_like(a)  # the increments F_num(k) - F_num(k-1)
        np.conjugate(a.swapaxes(-1, -2), out=f)
        f += a
        if carry is not None:
            f[:, 0] += carry
        return np.cumsum(f, axis=1, out=f)

    def __call__(self, j: int) -> Iterator[tuple[int, np.ndarray, float]]:
        """The chunks of block j in eta order, each as (k0, the block's rows k0..k1-1, the
        largest eigenvalue clipped by the eta = 1 PSD projection, 0 before the last chunk)."""
        n = self.ks.shape[0]
        carry = None
        for k0 in range(0, n, self.rows):
            k1 = min(k0 + self.rows, n)
            f = self._partial_sums(j, k0, k1, carry)
            carry = f[:, -1].copy()
            f /= self.ks[k0:k1]
            # Partial sums are cumulative, so an overflow in a chunk reaches its last row.
            bad = ~np.isfinite(f[:, -1]).all(axis=(-2, -1))
            if bad.any():
                raise NumericalError(
                    f"non-finite spectral estimate in window {int(np.argmax(bad)) + 1}, frequency "
                    f"cell {j + 1}: the lag products of the data overflow"
                )
            clip = 0.0
            if k1 == n:  # PSD projection of the full-window slices; slices at eta < 1 stay raw
                with _lapack_errors(f"frequency cell {j + 1}"):
                    f[:, -1], lowest = psd_project_batch(f[:, -1])
                clip = max(0.0, -float(lowest.min()))
            yield k0, f, clip
            del f  # the reader drops the chunk, so it is gone before the next one is built


def estimate_sequential_sdo(
    sample: TimeSeriesSample,
    plan: BandwidthPlan,
    band: tuple[float, float] = (0.0, math.pi),
    k_omega: int | None = None,
    threads: int = 1,
) -> SequentialSDO:
    """Sequential spectral density estimator over the full (u, omega, eta) grid.

    For eta = k/N the value is the exact partial-sum estimate

        F_hat(eta) = (1/k) sum_{s,t <= k} w_tilde(omega, s, t) x_{o+s} x_{o+t}^T

    with Parzen's lag window w = :func:`PARZEN`, on the centered window starting at
    offset o = floor(u T) - N/2. Every stored slice is exactly Hermitian; the
    eta = 1 slices are additionally PSD-projected.
    No block is built here: each block pass builds the blocks it reduces, in eta
    chunks of about 512 KiB and at least 8 rows, so it holds its outputs and,
    per thread, one chunk and its temporaries; ``.tensor`` collects the chunks
    on first read. The first of these sets ``psd_clip_max``.

    :param band: frequency band [a, b] inside [0, pi].
    :param k_omega: number of midpoint frequency cells; default
        ceil((b - a)/pi * N^kappa), matching frequency resolution to the
        smoothing bandwidth.
    :param threads: worker threads of every block pass and of the tensor's collection.
    :raises ConfigError: for invalid band, cell or thread count, or plan/sample mismatch.
    :raises NumericalError: from a block pass or the tensor's collection, if
        the data are so large that the lag products overflow, or LAPACK fails on a block.
    """
    a, b = _validate_band(band)
    if plan.T != sample.T:
        raise ConfigError(f"plan built for T = {plan.T} but sample has T = {sample.T}")
    k_omega = (_default_k_omega(plan, (a, b)) if k_omega is None
               else _check_count("k_omega", k_omega))
    threads = _check_count("threads", threads)
    omegas = cell_midpoints((a, b), k_omega)
    lags = np.arange(min(plan.N - 1, int(math.floor(1.0 / plan.b_f + 1e-12))) + 1)
    coef = PARZEN(plan.b_f * lags) * np.exp(1j * omegas[:, None] * lags) / TWO_PI
    return SequentialSDO(
        u_points=midpoint_grid(plan), omega_points=omegas,
        eta_points=plan.eta_points, band=(a, b), plan=plan,
        p=sample.p, threads=threads,
        blocks=_BlockKernel(sample.data, _window_starts(plan), plan.N, coef),
    )
