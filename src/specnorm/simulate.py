"""Synthetic processes with known spectral structure.

Four generators used for calibration and testing, each paired with a closed
form for its true time-varying spectral density:

* ``IidSpec``: Gaussian white noise with covariance Sigma, F = Sigma / 2 pi.
* ``TvFar1Spec``: time-varying first-order autoregression X_t = A(t/T)
  X_{t-1} + eps_t with F_{u, omega} = (1/2 pi) B Sigma_eps B* for
  B = (I - A(u) e^{-i omega})^{-1}.
* ``SeparableSpec``: white noise with Kronecker covariance
  Sigma_x (x) Sigma_y, so the spectral density is exactly separable (one
  component in the Kronecker rearrangement).
* ``CoherentPairSpec``: a pair (Z_t, C(u) Z_t + xi_t) with perfectly coherent
  common part; with unitary C every canonical coherence of the first
  min(p1, p2) orders equals 1 at all (u, omega).

Each spec draws its own sample and states its own density. Every draw takes
burn_in + T innovations from one stream and keeps the last T rows, so specs
sharing a seed share innovations; a time-varying AR with A identically zero
reproduces the white-noise sample bit for bit. Up to the sample start, A and
a pair's coupling are held at their u = 0 values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Union

import numpy as np

from .errors import ConfigError
from .estimator import TWO_PI, TimeSeriesSample
from .hermitian import hermitian_part

__all__ = [
    "IidSpec",
    "TvFar1Spec",
    "SeparableSpec",
    "CoherentPairSpec",
    "ProcessSpec",
    "simulate",
    "true_sdo",
]

_MAX_AR_NORM = 0.95
_STABILITY_GRID = 201


def _as_psd_factor(sigma: np.ndarray, name: str) -> np.ndarray:
    """Validate a covariance matrix and return L with L L' = sigma."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ConfigError(f"{name} must be a square matrix, got shape {sigma.shape}")
    if not np.all(np.isfinite(sigma)):
        raise ConfigError(f"{name} must be finite")
    scale = max(1.0, float(np.abs(sigma).max()))
    if not np.allclose(sigma, sigma.T, atol=1e-10 * scale):
        raise ConfigError(f"{name} must be symmetric")
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(sigma)
        if vals.min() < -1e-10 * scale:
            raise ConfigError(
                f"{name} must be positive semidefinite; smallest eigenvalue {vals.min():.3g}"
            ) from None
        return vecs * np.sqrt(np.maximum(vals, 0.0))


def _validate_common(T: int, burn_in: int, seed: int) -> None:
    if T < 2:
        raise ConfigError(f"T = {T} must be at least 2")
    if burn_in < 100:
        raise ConfigError(f"burn_in = {burn_in} must be at least 100")
    if seed < 0:
        raise ConfigError("seed must be a non-negative integer")


def _row_times(T: int, burn_in: int) -> list[float]:
    """Rescaled time u = clip((j - burn_in + 1) / T, 0, 1) of each generated row j."""
    return np.clip(np.arange(1 - burn_in, T + 1) / T, 0.0, 1.0).tolist()


@dataclass(frozen=True)
class IidSpec:
    """Gaussian white noise with covariance ``sigma``."""

    T: int
    sigma: np.ndarray
    burn_in: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        _validate_common(self.T, self.burn_in, self.seed)
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        _as_psd_factor(self.sigma, "sigma")

    @property
    def p(self) -> int:
        return self.sigma.shape[0]

    def _draw(self, rng: np.random.Generator, total: int) -> np.ndarray:
        return rng.standard_normal((total, self.p)) @ _as_psd_factor(self.sigma, "sigma").T

    def _truth(self) -> Callable[[float, float], np.ndarray]:
        f0 = np.asarray(self.sigma, dtype=complex) / TWO_PI
        return lambda u, omega: f0


@dataclass(frozen=True)
class TvFar1Spec:
    """Time-varying AR(1): X_t = A(t/T) X_{t-1} + eps_t, eps ~ N(0, sigma_eps).

    ``a`` is either a constant matrix or a callable u -> matrix on [0, 1].
    The family must have shape (p, p) and satisfy sup_u ||A(u)||_op <= 0.95,
    both checked on a fixed grid when the spec is built, so no explosive or
    ill-shaped family exists to sample.
    """

    T: int
    a: Union[np.ndarray, Callable[[float], np.ndarray]]
    sigma_eps: np.ndarray
    burn_in: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        _validate_common(self.T, self.burn_in, self.seed)
        object.__setattr__(self, "sigma_eps", np.asarray(self.sigma_eps, dtype=float))
        _as_psd_factor(self.sigma_eps, "sigma_eps")
        if not callable(self.a):
            object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        # a constant A needs one check, not one per grid point
        grid = np.linspace(0.0, 1.0, _STABILITY_GRID) if callable(self.a) else (0.0,)
        worst = 0.0
        for u in grid:
            a = self.a_at(float(u))
            if a.shape != (self.p, self.p):
                raise ConfigError(f"a at u = {u:g} has shape {a.shape}, expected {(self.p,) * 2}")
            worst = max(worst, float(np.linalg.norm(a, 2)))
        if worst > _MAX_AR_NORM:
            raise ConfigError("autoregressive family is too close to instability: "
                              f"sup ||A(u)|| = {worst:.4g} > {_MAX_AR_NORM}")

    @property
    def p(self) -> int:
        return self.sigma_eps.shape[0]

    def a_at(self, u: float) -> np.ndarray:
        if callable(self.a):
            return np.asarray(self.a(u), dtype=float)
        return self.a

    def _draw(self, rng: np.random.Generator, total: int) -> np.ndarray:
        eps = rng.standard_normal((total, self.p)) @ _as_psd_factor(self.sigma_eps, "sigma_eps").T
        # a constant A costs no per-row time or call
        coeffs = (map(self.a_at, _row_times(self.T, self.burn_in)) if callable(self.a)
                  else repeat(self.a, total))
        x = np.empty((total, self.p))
        prev = np.zeros(self.p)
        for j, a in enumerate(coeffs):
            prev = a @ prev + eps[j]
            x[j] = prev
        return x

    def _truth(self) -> Callable[[float, float], np.ndarray]:
        eye = np.eye(self.p, dtype=complex)
        sig = np.asarray(self.sigma_eps, dtype=complex)

        def f_ar(u: float, omega: float) -> np.ndarray:
            b = np.linalg.inv(eye - self.a_at(u) * np.exp(-1j * omega))
            return hermitian_part(b @ sig @ b.conj().T / TWO_PI)

        return f_ar


@dataclass(frozen=True)
class SeparableSpec:
    """White noise with Kronecker covariance sigma_x (x) sigma_y."""

    T: int
    sigma_x: np.ndarray
    sigma_y: np.ndarray
    burn_in: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        _validate_common(self.T, self.burn_in, self.seed)
        object.__setattr__(self, "sigma_x", np.asarray(self.sigma_x, dtype=float))
        object.__setattr__(self, "sigma_y", np.asarray(self.sigma_y, dtype=float))
        _as_psd_factor(self.sigma_x, "sigma_x")
        _as_psd_factor(self.sigma_y, "sigma_y")
        _as_psd_factor(self.sigma, "sigma_x (x) sigma_y")  # finite factors can overflow

    @property
    def p1(self) -> int:
        return self.sigma_x.shape[0]

    @property
    def p2(self) -> int:
        return self.sigma_y.shape[0]

    @property
    def p(self) -> int:
        return self.p1 * self.p2

    @property
    def sigma(self) -> np.ndarray:
        """The covariance sigma_x (x) sigma_y; samples and truth read it as an IidSpec's."""
        with np.errstate(over="ignore"):  # an overflow fails the finiteness check when built
            return np.kron(self.sigma_x, self.sigma_y)

    _draw = IidSpec._draw
    _truth = IidSpec._truth


@dataclass(frozen=True)
class CoherentPairSpec:
    """A block pair (Z_t, C(t/T) Z_t + xi_t) with unit-coherence common part.

    ``coupling`` is None (zero coupling, independent blocks), a constant real
    (p2, p1) matrix, or a callable u -> matrix. Each coupling value must be
    zero or have orthonormal columns, which keeps every canonical coherence
    of the coupled directions exactly one.
    """

    T: int
    p1: int
    p2: int
    coupling: Union[None, np.ndarray, Callable[[float], np.ndarray]] = None
    burn_in: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        _validate_common(self.T, self.burn_in, self.seed)
        if self.p1 < 1 or self.p2 < 1:
            raise ConfigError("block dimensions must be at least 1")
        if self.coupling is not None and not callable(self.coupling):
            object.__setattr__(self, "coupling", np.asarray(self.coupling, dtype=float))
        for u in (0.0, 0.25, 0.5, 0.75, 1.0):
            _check_coupling(self.coupling_at(u), self.p1, self.p2, u)

    @property
    def p(self) -> int:
        return self.p1 + self.p2

    def coupling_at(self, u: float) -> np.ndarray:
        if self.coupling is None:
            return np.zeros((self.p2, self.p1))
        if callable(self.coupling):
            return np.asarray(self.coupling(u), dtype=float)
        return self.coupling

    def _draw(self, rng: np.random.Generator, total: int) -> np.ndarray:
        z = rng.standard_normal((total, self.p1))
        xi = rng.standard_normal((total, self.p2))
        if callable(self.coupling):
            times = _row_times(self.T, self.burn_in)
            cz = np.array([self.coupling_at(u) @ z_j for u, z_j in zip(times, z)])
        else:
            cz = z @ self.coupling_at(0.0).T  # constant (or zero) coupling
        return np.hstack([z, cz + xi])

    def _truth(self) -> Callable[[float, float], np.ndarray]:
        eye1, eye2 = np.eye(self.p1), np.eye(self.p2)

        def f_pair(u: float, omega: float) -> np.ndarray:
            c = self.coupling_at(u)
            top = np.hstack([eye1, c.T])
            bot = np.hstack([c, c @ c.T + eye2])
            return np.vstack([top, bot]).astype(complex) / TWO_PI

        return f_pair


def _check_coupling(c: np.ndarray, p1: int, p2: int, u: float) -> None:
    if c.shape != (p2, p1):
        raise ConfigError(f"coupling at u = {u} has shape {c.shape}, expected ({p2}, {p1})")
    if not (np.allclose(c, 0.0, atol=1e-12) or np.allclose(c.T @ c, np.eye(p1), atol=1e-8)):
        raise ConfigError(f"coupling at u = {u} is neither zero nor column-orthonormal")


ProcessSpec = Union[IidSpec, TvFar1Spec, SeparableSpec, CoherentPairSpec]


def simulate(spec: ProcessSpec) -> TimeSeriesSample:
    """Draw one sample path of length ``spec.T``.

    Innovations for burn-in and sample are drawn in a single call, and the
    first ``burn_in`` rows are discarded, so two specs with the same seed and
    innovation dimension consume the same random numbers.
    """
    x = spec._draw(np.random.default_rng(spec.seed), spec.burn_in + spec.T)
    return TimeSeriesSample(data=x[spec.burn_in :])


def true_sdo(spec: ProcessSpec) -> Callable[[float, float], np.ndarray]:
    """Closed-form time-varying spectral density of a process spec.

    Returns a callable (u, omega) -> Hermitian PSD matrix of size p x p.
    """
    return spec._truth()
