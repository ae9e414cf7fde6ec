"""Deviation-from-structure measures of spectral density operators.

Four functionals of a sequential spectral density tensor, each evaluated on
the whole fraction grid eta in {1/N, ..., 1}:

* ``tvdfpca_sequential``: share of total spectral mass carried by the d
  leading eigenvalues (band and time averaged).
* ``tvdpsca_sequential``: share of squared Hilbert-Schmidt mass carried by
  the d leading separable components, via the Kronecker rearrangement whose
  singular values are the component scores (their squares are read as the
  eigenvalues of its Gram matrix).
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
thread count nor the chunk length. ``measure_population`` runs each measure's
own argument check and per-slice reducer on the true operator, so it refuses
what the sequential function refuses and tvdpsca at full order reads exactly
1; only the time average differs (Gauss-Legendre weights, not equal ones).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError, _check_count
from .estimator import SequentialSDO, _validate_band, cell_midpoints
from .hermitian import (TIE_TOL, ProductStructure, _lapack_errors, eig_reconstruct, kron_rearrange,
                        require_hermitian)

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
    self-normalized statistic built from this path. Empty or non-1-D
    ``values``, or ``eta`` or ``valid`` of another shape, raise ValueError; a
    non-finite value at any fraction raises :class:`NumericalError`.
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
        shape = np.shape(self.values)
        if len(shape) != 1 or not shape[0]:
            raise ValueError(f"values must be a non-empty 1-D array, got shape {shape}")
        for name in ("eta", "valid"):
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(f"{name} must have the shape {shape} of values")
        if (bad := np.flatnonzero(~np.isfinite(self.values))).size:
            raise NumericalError(
                f"{self.kind} path at eta = {bad[0] + 1}/{len(self.values)} is not finite "
                f"({self.values[bad[0]]}): the data scale over- or underflows; rescale the data")

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


def _near_ties(desc_vals: np.ndarray, d: int) -> np.ndarray:
    """Per slice: whether its eigenvalue pair at the d boundary is numerically tied."""
    gap = desc_vals[..., d - 1] - desc_vals[..., d] if d < desc_vals.shape[-1] else np.inf
    return gap < TIE_TOL * np.maximum(1.0, desc_vals[..., 0])


def _tie_count(desc_vals: np.ndarray, d: int) -> int:
    """Number of slices with a numerically tied eigenvalue pair at the d boundary."""
    return int(np.count_nonzero(_near_ties(desc_vals, d)))


def _share(num: np.ndarray, den: np.ndarray, avail=True) -> tuple[np.ndarray, np.ndarray]:
    """The path num / den (0 where den is 0) and where it is valid (den > 0 and ``avail``);
    raises NumericalError unless the last den, at eta = 1, or a scalar den is positive."""
    if not np.ravel(den)[-1] > 0:
        raise NumericalError("degenerate spectral mass: the estimate at eta = 1 is zero")
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0), (den > 0) & avail


def _checked(kind: str, p: int, d: int, ps: ProductStructure | None) -> int:
    """The largest order of a ``kind`` measure on p x p operators split by ``ps``;
    raises ValueError unless ``kind`` is known, ``ps`` fits p and d lies in [1, cap]."""
    if kind in ("tvdfpca", "stationarity"):
        cap, name = p, ""
    elif kind == "tvdpsca":
        if ps is None:
            raise ValueError("tvdpsca requires a product structure")
        if ps.p1 * ps.p2 != p:
            raise ValueError(f"product structure ({ps.p1}, {ps.p2}) does not factor p = {p}")
        cap, name = min(ps.p1**2, ps.p2**2), "min(p1^2, p2^2) = "
    elif kind == "coherence":
        if ps is None:
            raise ValueError("coherence requires a direct-sum structure")
        if ps.p1 + ps.p2 != p:
            raise ValueError(f"direct-sum structure ({ps.p1}, {ps.p2}) does not add up to p = {p}")
        cap, name = min(ps.p1, ps.p2), "min(p1, p2) = "
    else:
        raise ValueError(f"unknown measure kind {kind!r}")
    if _check_count("d", d) > cap:
        raise ValueError(f"d = {d} must lie in [1, {name}{cap}]")
    return cap


def _warn_off_full_band(a: float, b: float) -> None:
    if abs(a) > 1e-12 or abs(b - math.pi) > 1e-9:
        msg = f"stationarity measure expects the full band [0, pi], got ({a:.6g}, {b:.6g})"
        warnings.warn(msg, stacklevel=3)


def _eigenvalues(f: np.ndarray) -> tuple[np.ndarray]:
    """Per slice: the eigenvalues in descending order, clamped at 0."""
    return (np.maximum(np.linalg.eigvalsh(f)[..., ::-1], 0.0),)


def _separable_scores(f: np.ndarray, ps: ProductStructure) -> tuple[np.ndarray, np.ndarray]:
    """Per slice: the squared separable component scores, descending and clamped at 0
    (the eigenvalues of the rearrangement's smaller Gram matrix), and the squared
    Frobenius norm. The Gram matrix is built one window at a time, so only one
    window's conjugate copy of R is held at once."""
    r = kron_rearrange(f, ps)
    gram = np.empty(r.shape[:-2] + (min(ps.p1, ps.p2) ** 2,) * 2, complex)
    for r_i, gram_i in zip(r, gram):
        rh = r_i.conj().swapaxes(-1, -2)
        np.matmul(*((r_i, rh) if ps.p1 <= ps.p2 else (rh, r_i)), out=gram_i)
    (squares,) = _eigenvalues(gram)
    return squares, (np.abs(f) ** 2).sum(axis=(-2, -1))


def _coherences(f: np.ndarray, d: int, p1: int) -> tuple[np.ndarray, np.ndarray]:
    """Per slice: the d-th canonical coherence between the two blocks (0 where
    undefined) and whether it is defined."""
    p2 = f.shape[-1] - p1
    lam1 = np.maximum(np.linalg.eigvalsh(f[..., :p1, :p1])[..., p1 - d], 0.0)
    lam2 = np.maximum(np.linalg.eigvalsh(f[..., p1:, p1:])[..., p2 - d], 0.0)
    sig = np.linalg.svd(f[..., :p1, p1:], compute_uv=False)[..., d - 1]
    tr1 = np.einsum("...ii->...", f[..., :p1, :p1]).real
    tr2 = np.einsum("...ii->...", f[..., p1:, p1:]).real
    defined = (lam1 > 1e-12 * tr1) & (lam2 > 1e-12 * tr2)
    return np.where(defined, sig / np.sqrt(np.where(defined, lam1 * lam2, 1.0)), 0.0), defined


def _restricted_roots(vals: np.ndarray, vecs: np.ndarray, d: int) -> np.ndarray:
    """Square roots of the PSD-clamped slices restricted to their d leading
    components, rebuilt from the d leading eigenpairs alone (eigenpairs come in
    ascending order)."""
    p = vals.shape[-1]
    # eigenvalues within roundoff of zero (rank-deficient slices) get a zero root, not sqrt(noise)
    floor = p * np.finfo(float).eps * np.maximum(vals[..., -1:], 0.0)
    roots = np.sqrt(np.where(vals > floor, vals, 0.0))
    return eig_reconstruct(vecs[..., p - d:], roots[..., p - d:])  # ascending: the d largest


def _dispersions(f: np.ndarray, d: int, w_u: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Per slice: ||S - S_bar||_F^2 for the d-restricted square root S and its mean S_bar
    over time (axis 0), weighted by ``w_u`` if given, and whether the PSD-clamped
    eigenvalues are near-tied at the d boundary."""
    vals, vecs = np.linalg.eigh(f)
    s = _restricted_roots(vals, vecs, d)
    s -= s.mean(axis=0, keepdims=True) if w_u is None else np.tensordot(w_u, s, axes=(0, 0))[None]
    return (np.abs(s) ** 2).sum(axis=(-2, -1)), _near_ties(np.maximum(vals[..., ::-1], 0.0), d)


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
    _checked("tvdfpca", sdo.p, d, None)
    (vals,) = sdo.map_blocks(_eigenvalues, key="tvdfpca")
    num = vals[..., :d].sum(axis=-1).mean(axis=(0, 1))
    values, valid = _share(num, vals.sum(axis=-1).mean(axis=(0, 1)), _available(sdo))
    return _functional("tvdfpca", sdo, d, values, valid, {"near_tie_count": _tie_count(vals, d)})


def tvdpsca_sequential(sdo: SequentialSDO, d: int, ps: ProductStructure) -> SequentialFunctional:
    """Fraction of squared Hilbert-Schmidt mass in the d leading separable terms.

    Each slice is rearranged so Kronecker products become rank one; the
    singular values of the rearrangement R are the separable component scores.
    Only their squares enter, so they are taken as the eigenvalues of the
    smaller Gram matrix R R^H (R^H R when p1 > p2), and no SVD is formed. The
    denominator is computed directly as ||F_hat||_F^2, which equals the full
    sum of squared scores because the rearrangement is a Frobenius isometry.
    A slice counts in ``diagnostics["near_tie_count"]`` when its squared
    scores at the d boundary are tied, tvdfpca's rule for eigenvalues.
    Squared scores and masses come from one block pass per estimate and
    product structure, shared by every order d.
    """
    d_cap = _checked("tvdpsca", sdo.p, d, ps)
    squares, mass = sdo.map_blocks(lambda f: _separable_scores(f, ps), key=("tvdpsca", ps))
    den = mass.mean(axis=(0, 1))
    # at d_cap the scores carry all the mass: the share is 1 exactly, not up to roundoff
    num = den if d == d_cap else squares[..., :d].sum(axis=-1).mean(axis=(0, 1))
    values, valid = _share(num, den, _available(sdo))
    total = squares.sum(axis=-1).mean(axis=(0, 1))
    diag = {
        "isometry_defect_max": float(np.max(np.abs(total - den))),
        "near_tie_count": _tie_count(squares, d),
    }
    return _functional("tvdpsca", sdo, d, values, valid, diag)


def coherence_sequential(sdo: SequentialSDO, d: int, ps: ProductStructure) -> SequentialFunctional:
    """Band average of the d-th order canonical coherence between two blocks.

    The operator dimension splits as p = p1 + p2 (direct sum). Per cell,
    R_hat_d = sigma_d(F12) / sqrt(lambda_d(F11) lambda_d(F22)) on a PSD
    slice, read as the estimate holds it: Parzen's lag window gives PSD
    slices, and ``SequentialSDO.from_tensor`` projects what it wraps. Cells
    whose d-th marginal eigenvalue is numerically zero (below 1e-12 of the
    marginal trace) are undefined: at eta = 1 that is an error, at interior
    eta the cell is skipped, counted in ``diagnostics["skipped_cells"]``, and
    the average runs over the remaining cells.
    """
    _checked("coherence", sdo.p, d, ps)
    ratio, defined = sdo.map_blocks(lambda f: _coherences(f, d, ps.p1))
    if not bool(defined[..., -1].all()):
        raise NumericalError(f"rank-deficient marginal spectrum at order d = {d}")
    avail = _available(sdo)
    count = defined.sum(axis=(0, 1))
    values = np.where(count > 0, ratio.sum(axis=(0, 1)) / np.maximum(count, 1), 0.0)
    cells = sdo.m * sdo.k_omega
    valid = (count == cells) & avail
    skipped = int(cells * int(avail.sum()) - int(count[avail].sum()))
    return _functional("coherence", sdo, d, values, valid, {"skipped_cells": skipped})


def stationarity_sequential(sdo: SequentialSDO, d: int) -> SequentialFunctional:
    """Dispersion of d-restricted square roots around their time average.

    Per frequency block, each window slice is rank-restricted to its d leading
    components, PSD-clamped, and replaced by its matrix square root S_u; the
    path value is the band average of mean_u ||S_u - mean_v S_v||_F^2. The
    eta scaling factors out of the square root analytically (sqrt(eta A) =
    sqrt(eta) sqrt(A)), so the stored path q_hat satisfies r_hat(eta) =
    eta * q_hat(eta); in particular the point estimate is q_hat(1) = r_hat(1).
    """
    _checked("stationarity", sdo.p, d, None)
    _warn_off_full_band(*sdo.band)
    dispersion, ties = sdo.map_blocks(lambda f: _dispersions(f, d, None))
    diag = {"near_tie_count": int(np.count_nonzero(ties))}
    return _functional("stationarity", sdo, d, dispersion.mean(axis=(0, 1)), _available(sdo), diag)


def _truth_at(truth: Callable, u: float, omega: float, p: int | None) -> np.ndarray:
    """truth(u, omega) as a complex matrix; ValueError unless a square (p x p) one."""
    f = np.asarray(truth(float(u), float(omega)), dtype=complex)
    if f.ndim != 2 or f.shape != (p or f.shape[0],) * 2:
        raise ValueError(f"truth at (u, omega) = ({u:.6g}, {omega:.6g}) is not a finite "
                         f"{'square' if p is None else f'{p} x {p}'} matrix: shape {f.shape}")
    return f


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

    ``truth`` maps (u, omega) to the exact spectral density matrix. Its values
    on m_u Gauss-Legendre nodes u_i (matrix square roots are not smooth at a
    vanishing spectrum, where midpoint rules lose accuracy) and k_omega band
    midpoints omega_j, a stack whose slice [i, j] :func:`require_hermitian`
    checks, go as their Hermitian part through the measure's own argument
    check and per-slice reducer; the time averages take the Gauss-Legendre
    weights. A value that is no p x p matrix raises ValueError; an undefined
    coherence cell (see ``coherence_sequential``), a zero truth of a share
    measure or a LAPACK failure raise NumericalError. Used as the oracle in
    simulation and coverage studies.
    """
    band = _validate_band(band)
    m_u = _check_count("m_u", m_u)
    k_omega = _check_count("k_omega", k_omega)
    nodes, gl_w = np.polynomial.legendre.leggauss(m_u)
    us, w_u, oms = (nodes + 1.0) / 2.0, gl_w / 2.0, cell_midpoints(band, k_omega)
    p = _truth_at(truth, us[0], oms[0], None).shape[0]
    d_cap = _checked(kind, p, d, ps)
    tensor = np.empty((m_u, k_omega, p, p), dtype=complex)
    for i, j in np.ndindex(m_u, k_omega):
        tensor[i, j] = _truth_at(truth, us[i], oms[j], p)
    tensor = require_hermitian(tensor, what="truth")

    def mean(x: np.ndarray) -> float:
        return (w_u @ x).mean()

    with _lapack_errors("the population tensor"):
        if kind == "tvdfpca":
            (vals,) = _eigenvalues(tensor)
            return float(_share(mean(vals[..., :d].sum(axis=-1)), mean(vals.sum(axis=-1)))[0])
        if kind == "tvdpsca":
            squares, mass = _separable_scores(tensor, ps)
            den = mean(mass)
            num = den if d == d_cap else mean(squares[..., :d].sum(axis=-1))
            return float(_share(num, den)[0])
        if kind == "coherence":
            ratio, defined = _coherences(tensor, d, ps.p1)
            if not bool(defined.all()):
                raise NumericalError(f"rank-deficient marginal spectrum at order d = {d}")
            return float(mean(ratio))
        _warn_off_full_band(*band)
        return float(mean(_dispersions(tensor, d, w_u)[0]))
