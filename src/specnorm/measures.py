"""Deviation-from-structure measures of spectral density operators.

Four functionals of a sequential spectral density tensor, each evaluated on
the whole fraction grid eta in {1/N, ..., 1}:

* ``tvdfpca_sequential``: share of total spectral mass carried by the d
  leading eigenvalues (band and time averaged).
* ``tvdpsca_sequential``: share of squared Hilbert-Schmidt mass carried by
  the d leading separable components, via the Kronecker rearrangement whose
  singular values are the component scores.
* ``coherence_sequential``: band average of the d-th order canonical
  coherence between two direct-sum blocks.
* ``stationarity_sequential``: band average of the dispersion of matrix
  square roots around their time average, the squared square-root distance
  from the best time-constant approximation.

Values are stored unscaled; each functional carries the analytic exponent
pair (f, g) of its self-normalization law, and the inference layer applies
the eta^{x_f} factor when integrating. Frequency integrals are band
averages (midpoint rule divided by band length), so ratio measures are
unaffected, perfect coherence reads 1, and the stationarity measure is
reported per unit band.

Each measure works one frequency block at a time, on the estimate's
``threads`` worker threads, and reduces each block in eta chunks as they are
built. Every slice is reduced on its own, so a path depends on neither the
thread count nor the chunk length.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError
from .estimator import SequentialSDO, cell_midpoints
from .hermitian import (
    TIE_TOL, ProductStructure, eig_reconstruct, hermitian_part, kron_rearrange, psd_project_batch,
)

__all__ = [
    "SequentialFunctional",
    "tvdfpca_sequential",
    "tvdpsca_sequential",
    "coherence_sequential",
    "stationarity_sequential",
    "measure_population",
    "SCALING_EXPONENTS",
]

# (f, g) exponent pairs of the pivot law per measure kind.
SCALING_EXPONENTS = {
    "tvdfpca": (3, 2),
    "tvdpsca": (3, 2),
    "coherence": (4, 3),
    "stationarity": (2, 1),
}


@dataclass(frozen=True)
class SequentialFunctional:
    """A scalar deviation-measure path over the fraction grid.

    ``values[k-1]`` is the unscaled measure computed from the first k window
    observations; ``valid`` marks fractions where the measure is well defined
    (rank-deficient partial estimates can make coherence undefined for small
    k). The pair (f_exponent, g_exponent) identifies the pivot law of the
    self-normalized statistic built from this path. A non-finite point
    estimate raises :class:`NumericalError`.
    """

    kind: str
    d: int
    eta: np.ndarray
    values: np.ndarray
    valid: np.ndarray
    f_exponent: int
    g_exponent: int
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.point_estimate):
            raise NumericalError(
                f"{self.kind} estimate at eta = 1 is not finite ({self.point_estimate}): "
                "the data scale over- or underflows; rescale the data"
            )

    @property
    def point_estimate(self) -> float:
        return float(self.values[-1])


def _available(sdo: SequentialSDO) -> np.ndarray:
    """Fractions with at least p window observations; earlier partial
    estimates have rank too low for spectral functionals and are marked
    unavailable (they contribute zero to the self-normalizer)."""
    avail = np.arange(1, sdo.n_window + 1) >= sdo.p
    if not avail[-1]:
        raise ConfigError(
            f"window length N = {sdo.n_window} is smaller than the dimension p = {sdo.p}"
        )
    return avail


def _functional(
    kind: str, sdo: SequentialSDO, d: int, values: np.ndarray, valid: np.ndarray, diag: dict
) -> SequentialFunctional:
    f_exponent, g_exponent = SCALING_EXPONENTS[kind]
    return SequentialFunctional(
        kind=kind, d=d, eta=sdo.eta_points, values=values, valid=valid,
        f_exponent=f_exponent, g_exponent=g_exponent, diagnostics=diag,
    )


def _tie_count(desc_vals: np.ndarray, d: int) -> int:
    """Number of slices with a numerically tied eigenvalue pair at the d boundary."""
    if d >= desc_vals.shape[-1]:
        return 0
    gap = desc_vals[..., d - 1] - desc_vals[..., d]
    scale = np.maximum(1.0, desc_vals[..., 0])
    return int(np.count_nonzero(gap < TIE_TOL * scale))


def _share(sdo: SequentialSDO, num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The path num / den (0 where den is 0) and its valid fractions."""
    valid = (den > 0) & _available(sdo)
    if not den[-1] > 0:
        raise NumericalError("degenerate spectral mass: the estimate at eta = 1 is zero")
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0), valid


def tvdfpca_sequential(sdo: SequentialSDO, d: int) -> SequentialFunctional:
    """Fraction of spectral mass explained by the d leading eigenvalues.

    s_hat_d(eta) is the ratio of the time/band average of the d largest
    eigenvalues to the time/band average of the trace, both taken on the
    PSD-projected slices (negative noise eigenvalues clamped to zero, which
    is the spectrum of the Frobenius PSD projection). The clamped eigenvalues
    come from one block pass per estimate, shared by every order d.

    :raises NumericalError: if the full-window estimate carries no spectral
        mass at all.
    """
    p = sdo.p
    if not 1 <= d <= p:
        raise ValueError(f"d = {d} must lie in [1, {p}]")
    (vals,) = sdo.map_blocks(
        lambda f: (np.maximum(np.linalg.eigvalsh(f)[..., ::-1], 0.0),), key="tvdfpca"
    )
    num = vals[..., :d].sum(axis=-1).mean(axis=(0, 1))
    values, valid = _share(sdo, num, vals.sum(axis=-1).mean(axis=(0, 1)))
    return _functional("tvdfpca", sdo, d, values, valid, {"near_tie_count": _tie_count(vals, d)})


def tvdpsca_sequential(sdo: SequentialSDO, d: int, ps: ProductStructure) -> SequentialFunctional:
    """Fraction of squared Hilbert-Schmidt mass in the d leading separable terms.

    Each slice is rearranged so Kronecker products become rank one; the
    singular values of the rearrangement are the separable component scores,
    and the denominator is computed directly as ||F_hat||_F^2, which equals
    the full sum of squared scores because the rearrangement is a Frobenius
    isometry. Scores and masses come from one block pass per estimate and
    product structure, shared by every order d.
    """
    p = sdo.p
    if ps.p1 * ps.p2 != p:
        raise ValueError(f"product structure ({ps.p1}, {ps.p2}) does not factor p = {p}")
    d_cap = min(ps.p1**2, ps.p2**2)
    if not 1 <= d <= d_cap:
        raise ValueError(f"d = {d} must lie in [1, min(p1^2, p2^2) = {d_cap}]")

    def work(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        svals = np.linalg.svd(kron_rearrange(f, ps), compute_uv=False)
        return svals, (np.abs(f) ** 2).sum(axis=(-2, -1))

    scores, mass = sdo.map_blocks(work, key=("tvdpsca", ps))
    den = mass.mean(axis=(0, 1))
    # at d_cap the scores carry all the mass: the share is 1 exactly, not up to roundoff
    num = den if d == d_cap else (scores[..., :d] ** 2).sum(axis=-1).mean(axis=(0, 1))
    values, valid = _share(sdo, num, den)
    total = (scores**2).sum(axis=-1).mean(axis=(0, 1))
    diag = {
        "isometry_defect_max": float(np.max(np.abs(total - den))),
        "near_tie_count": _tie_count(scores, d),
    }
    return _functional("tvdpsca", sdo, d, values, valid, diag)


def _canonical_parts(f: np.ndarray, d: int, p1: int) -> tuple[np.ndarray, ...]:
    """Per slice: the d-th eigenvalues of both diagonal blocks (clamped at 0)
    and the d-th singular value of the off-diagonal block."""
    p2 = f.shape[-1] - p1
    lam1 = np.maximum(np.linalg.eigvalsh(f[..., :p1, :p1])[..., p1 - d], 0.0)
    lam2 = np.maximum(np.linalg.eigvalsh(f[..., p1:, p1:])[..., p2 - d], 0.0)
    sig = np.linalg.svd(f[..., :p1, p1:], compute_uv=False)[..., d - 1]
    return lam1, lam2, sig


def coherence_sequential(sdo: SequentialSDO, d: int, ps: ProductStructure) -> SequentialFunctional:
    """Band average of the d-th order canonical coherence between two blocks.

    The operator dimension splits as p = p1 + p2 (direct sum). Per cell,
    R_hat_d = sigma_d(F12) / sqrt(lambda_d(F11) lambda_d(F22)) on a PSD
    slice. A lag window with a nonnegative spectral window (``kernel.psd``,
    Parzen) already gives PSD slices, so they are read as estimated; other
    kernels and estimates without a plan (``from_tensor``) are PSD-projected
    first, rebuilding only the slices with a negative eigenvalue. Cells
    whose d-th marginal eigenvalue is numerically zero (below 1e-12 of the
    marginal trace) are undefined: at eta = 1 that is an error, at interior
    eta the cell is skipped, counted in ``diagnostics["skipped_cells"]``, and
    the average runs over the remaining cells.
    """
    p = sdo.p
    if ps.p1 + ps.p2 != p:
        raise ValueError(f"direct-sum structure ({ps.p1}, {ps.p2}) does not add up to p = {p}")
    if not 1 <= d <= min(ps.p1, ps.p2):
        raise ValueError(f"d = {d} must lie in [1, min(p1, p2) = {min(ps.p1, ps.p2)}]")
    p1 = ps.p1
    project = sdo.plan is None or not sdo.plan.kernel.psd

    def work(f: np.ndarray) -> tuple[np.ndarray, ...]:
        if project:
            f, _ = psd_project_batch(f)
        lam1, lam2, sig = _canonical_parts(f, d, p1)
        tr1 = np.einsum("...ii->...", f[..., :p1, :p1]).real
        tr2 = np.einsum("...ii->...", f[..., p1:, p1:]).real
        defined = (lam1 > 1e-12 * tr1) & (lam2 > 1e-12 * tr2)
        ratio = np.where(defined, sig / np.sqrt(np.where(defined, lam1 * lam2, 1.0)), 0.0)
        return ratio, defined

    ratio, defined = sdo.map_blocks(work)
    if not bool(defined[..., -1].all()):
        raise NumericalError(f"rank-deficient marginal spectrum at order d = {d}")
    avail = _available(sdo)
    count = defined.sum(axis=(0, 1))
    values = np.where(count > 0, ratio.sum(axis=(0, 1)) / np.maximum(count, 1), 0.0)
    cells = sdo.m * sdo.k_omega
    valid = (count == cells) & avail
    skipped = int(cells * int(avail.sum()) - int(count[avail].sum()))
    return _functional("coherence", sdo, d, values, valid, {"skipped_cells": skipped})


def _restricted_roots(vals: np.ndarray, vecs: np.ndarray, d: int) -> np.ndarray:
    """Square roots of the PSD-clamped slices restricted to their d leading
    components, from eigenpairs in ascending order."""
    p = vals.shape[-1]
    # eigenvalues within roundoff of zero (rank-deficient slices) get a zero root, not sqrt(noise)
    floor = p * np.finfo(float).eps * np.maximum(vals[..., -1:], 0.0)
    roots = np.sqrt(np.where(vals > floor, vals, 0.0))
    if d < p:
        roots[..., : p - d] = 0.0  # ascending order: drop the p - d smallest
    return eig_reconstruct(vecs, roots)


def stationarity_sequential(sdo: SequentialSDO, d: int) -> SequentialFunctional:
    """Dispersion of d-restricted square roots around their time average.

    Per frequency block, each window slice is rank-restricted to its d leading
    components, PSD-clamped, and replaced by its matrix square root S_u; the
    path value is the band average of mean_u ||S_u - mean_v S_v||_F^2. The
    eta scaling factors out of the square root analytically (sqrt(eta A) =
    sqrt(eta) sqrt(A)), so the stored path q_hat satisfies r_hat(eta) =
    eta * q_hat(eta); in particular the point estimate is q_hat(1) = r_hat(1).
    """
    p = sdo.p
    if not 1 <= d <= p:
        raise ValueError(f"d = {d} must lie in [1, {p}]")
    a, b = sdo.band
    if abs(a) > 1e-12 or abs(b - math.pi) > 1e-9:
        warnings.warn(
            f"stationarity measure expects the full band [0, pi], got ({a:.6g}, {b:.6g})",
            stacklevel=2,
        )

    def work(f: np.ndarray) -> tuple[np.ndarray, ...]:
        vals, vecs = np.linalg.eigh(f)
        s = _restricted_roots(vals, vecs, d)
        s -= s.mean(axis=0, keepdims=True)
        return (np.abs(s) ** 2).sum(axis=(-2, -1)), vals

    dispersion, vals = sdo.map_blocks(work)
    diag = {"near_tie_count": _tie_count(np.maximum(vals[..., ::-1], 0.0), d)}
    return _functional("stationarity", sdo, d, dispersion.mean(axis=(0, 1)), _available(sdo), diag)


def _truth_tensor(
    truth: Callable[[float, float], np.ndarray],
    us: np.ndarray,
    k_omega: int,
    band: tuple[float, float],
) -> np.ndarray:
    oms = cell_midpoints(band, k_omega)
    p = np.asarray(truth(float(us[0]), float(oms[0]))).shape[0]
    out = np.empty((us.size, k_omega, p, p), dtype=complex)
    for i, u in enumerate(us):
        for j, om in enumerate(oms):
            out[i, j] = truth(float(u), float(om))
    return hermitian_part(out)


def measure_population(
    truth: Callable[[float, float], np.ndarray],
    kind: str,
    d: int,
    ps: ProductStructure | None = None,
    m_u: int = 400,
    k_omega: int = 400,
    band: tuple[float, float] = (0.0, math.pi),
) -> float:
    """Population value of a deviation measure by numerical quadrature.

    ``truth`` maps (u, omega) to the exact spectral density matrix; the
    measure is evaluated with the same conventions as the sequential
    estimators (band averages, rank restriction for stationarity). The time
    integral uses Gauss-Legendre nodes (matrix square roots are not smooth
    at a vanishing spectrum, where midpoint rules lose accuracy); the
    frequency band average uses a midpoint rule. Used as the oracle in
    simulation and coverage studies.
    """
    nodes, gl_w = np.polynomial.legendre.leggauss(m_u)
    us = (nodes + 1.0) / 2.0
    w_u = gl_w / 2.0
    tensor = _truth_tensor(truth, us, k_omega, band)
    if kind == "tvdfpca":
        vals = np.maximum(np.linalg.eigvalsh(tensor)[..., ::-1], 0.0)
        num = (w_u @ vals[..., :d].sum(-1)).mean()
        return float(num / (w_u @ vals.sum(-1)).mean())
    if kind == "tvdpsca":
        if ps is None:
            raise ValueError("tvdpsca requires a product structure")
        scores = np.linalg.svd(kron_rearrange(tensor, ps), compute_uv=False)
        den = (w_u @ (np.abs(tensor) ** 2).sum(axis=(-2, -1))).mean()
        return float((w_u @ (scores[..., :d] ** 2).sum(-1)).mean() / den)
    if kind == "coherence":
        if ps is None:
            raise ValueError("coherence requires a direct-sum structure")
        lam1, lam2, sig = _canonical_parts(tensor, d, ps.p1)
        if not bool(np.all(lam1 > 0) and np.all(lam2 > 0)):
            raise NumericalError(f"rank-deficient marginal spectrum at order d = {d}")
        return float((w_u @ (sig / np.sqrt(lam1 * lam2))).mean())
    if kind == "stationarity":
        s = _restricted_roots(*np.linalg.eigh(tensor), d)
        mean_s = np.tensordot(w_u, s, axes=(0, 0))[None]
        dev_sq = (np.abs(s - mean_s) ** 2).sum(axis=(-2, -1))
        return float((w_u @ dev_sq).mean())
    raise ValueError(f"unknown measure kind {kind!r}")
