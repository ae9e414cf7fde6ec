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

All generators draw burn_in + T innovations from a single stream and keep
the last T rows, so processes sharing a seed share innovations; a
time-varying AR with A identically zero reproduces the white-noise sample
bit for bit. For times at or before the sample start the AR coefficient is
held at A(0).
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class TvFar1Spec:
    """Time-varying AR(1): X_t = A(t/T) X_{t-1} + eps_t, eps ~ N(0, sigma_eps).

    ``a`` is either a constant matrix or a callable u -> matrix on [0, 1].
    The family must satisfy sup_u ||A(u)||_op <= 0.95, checked on a fixed
    grid before any sampling.
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
        p = self.sigma_eps.shape[0]
        if not callable(self.a):
            a = np.asarray(self.a, dtype=float)
            if a.shape != (p, p):
                raise ConfigError(f"a must have shape ({p}, {p}), got {a.shape}")
            object.__setattr__(self, "a", a)

    @property
    def p(self) -> int:
        return self.sigma_eps.shape[0]

    def a_at(self, u: float) -> np.ndarray:
        if callable(self.a):
            return np.asarray(self.a(u), dtype=float)
        return self.a


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
        return np.kron(self.sigma_x, self.sigma_y)


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
            c = np.asarray(self.coupling, dtype=float)
            if c.shape != (self.p2, self.p1):
                raise ConfigError(
                    f"coupling must have shape ({self.p2}, {self.p1}), got {c.shape}"
                )
            object.__setattr__(self, "coupling", c)
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


def _check_coupling(c: np.ndarray, p1: int, p2: int, u: float) -> None:
    if c.shape != (p2, p1):
        raise ConfigError(f"coupling at u = {u} has shape {c.shape}, expected ({p2}, {p1})")
    if np.allclose(c, 0.0, atol=1e-12):
        return
    gram = c.T @ c
    if not np.allclose(gram, np.eye(p1), atol=1e-8):
        raise ConfigError(
            f"coupling at u = {u} is neither zero nor column-orthonormal"
        )


ProcessSpec = Union[IidSpec, TvFar1Spec, SeparableSpec, CoherentPairSpec]


def _stability_check(spec: TvFar1Spec) -> None:
    # a constant A needs one norm, not one per grid point
    grid = np.linspace(0.0, 1.0, _STABILITY_GRID) if callable(spec.a) else (0.0,)
    worst = 0.0
    for u in grid:
        a = spec.a_at(float(u))
        worst = max(worst, float(np.linalg.norm(a, 2)))
    if worst > _MAX_AR_NORM:
        raise ConfigError(
            f"autoregressive family is too close to instability: "
            f"sup ||A(u)|| = {worst:.4g} > {_MAX_AR_NORM}"
        )


def simulate(spec: ProcessSpec) -> TimeSeriesSample:
    """Draw one sample path of length ``spec.T``.

    Innovations for burn-in and sample are drawn in a single call, and the
    first ``burn_in`` rows are discarded, so two specs with the same seed and
    innovation dimension consume the same random numbers.
    """
    rng = np.random.default_rng(spec.seed)
    total = spec.burn_in + spec.T

    if isinstance(spec, (IidSpec, SeparableSpec)):
        l = _as_psd_factor(spec.sigma, "sigma")
        x = rng.standard_normal((total, spec.p)) @ l.T
        return TimeSeriesSample(data=x[spec.burn_in :])

    if isinstance(spec, TvFar1Spec):
        _stability_check(spec)
        l = _as_psd_factor(spec.sigma_eps, "sigma_eps")
        eps = rng.standard_normal((total, spec.p)) @ l.T
        constant_a = None if callable(spec.a) else spec.a
        x = np.empty((total, spec.p))
        prev = np.zeros(spec.p)
        for j in range(total):
            tau = j - spec.burn_in + 1  # time index; <= 0 during burn-in
            if constant_a is not None:
                a = constant_a
            else:
                u = min(max(tau / spec.T, 0.0), 1.0)
                a = spec.a_at(u)
            prev = a @ prev + eps[j]
            x[j] = prev
        return TimeSeriesSample(data=x[spec.burn_in :])

    if isinstance(spec, CoherentPairSpec):
        z = rng.standard_normal((total, spec.p1))
        xi = rng.standard_normal((total, spec.p2))
        x = np.empty((total, spec.p))
        x[:, : spec.p1] = z
        if spec.coupling is None or not callable(spec.coupling):
            c = spec.coupling_at(0.0)  # constant (or zero) coupling
            x[:, spec.p1 :] = z @ c.T + xi
        else:
            for j in range(total):
                tau = j - spec.burn_in + 1
                u = min(max(tau / spec.T, 0.0), 1.0)
                x[j, spec.p1 :] = spec.coupling_at(u) @ z[j] + xi[j]
        return TimeSeriesSample(data=x[spec.burn_in :])

    raise TypeError(f"unknown process spec {type(spec).__name__}")


def true_sdo(spec: ProcessSpec) -> Callable[[float, float], np.ndarray]:
    """Closed-form time-varying spectral density of a process spec.

    Returns a callable (u, omega) -> Hermitian PSD matrix of size p x p.
    """
    if isinstance(spec, (IidSpec, SeparableSpec)):
        f0 = np.asarray(spec.sigma, dtype=complex) / TWO_PI

        def f_white(u: float, omega: float) -> np.ndarray:
            return f0

        return f_white

    if isinstance(spec, TvFar1Spec):
        eye = np.eye(spec.p, dtype=complex)
        sig = np.asarray(spec.sigma_eps, dtype=complex)

        def f_ar(u: float, omega: float) -> np.ndarray:
            b = np.linalg.inv(eye - spec.a_at(u) * np.exp(-1j * omega))
            f = b @ sig @ b.conj().T / TWO_PI
            return hermitian_part(f)

        return f_ar

    if isinstance(spec, CoherentPairSpec):
        eye1 = np.eye(spec.p1)
        eye2 = np.eye(spec.p2)

        def f_pair(u: float, omega: float) -> np.ndarray:
            c = spec.coupling_at(u)
            top = np.hstack([eye1, c.T])
            bot = np.hstack([c, c @ c.T + eye2])
            return np.vstack([top, bot]).astype(complex) / TWO_PI

        return f_pair

    raise TypeError(f"unknown process spec {type(spec).__name__}")
