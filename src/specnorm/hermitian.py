"""Dense complex Hermitian linear algebra.

Positive semidefinite projections (one batched kernel) and square roots,
the Kronecker rearrangement that turns Kronecker products into rank-1
matrices, and Frechet derivatives of matrix functions in Daleckii-Krein
form. Operators are plain complex ``numpy`` arrays; every matrix argument passes
:func:`require_hermitian`, every LAPACK failure :func:`_lapack_errors`.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

import numpy as np

from .errors import ConfigError, NumericalError, _check_count

__all__ = [
    "ProductStructure",
    "hermitian_part",
    "require_hermitian",
    "psd_project",
    "matrix_sqrt_psd",
    "kron_rearrange",
    "frechet_derivative",
]

# Relative scale for eigenvalue tie detection; effective threshold is
# TIE_TOL * max(1, lambda_1).
TIE_TOL = 1e-8

_HERM_TOL = 1e-12

_R = TypeVar("_R")


@dataclass(frozen=True)
class ProductStructure:
    """Factor dimensions (p1, p2) of a tensor-product or direct-sum split."""

    p1: int
    p2: int

    def __post_init__(self) -> None:
        for name in ("p1", "p2"):  # stored as ints, whatever integer type they came in
            object.__setattr__(self, name, _check_count(name, getattr(self, name)))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A†)/2 as a new array, summed from halves so no finite entry overflows."""
    half = np.asarray(a) / 2.0
    return half + half.conj().swapaxes(-1, -2)


def _largest_entry(a: np.ndarray) -> np.ndarray:
    """Each matrix's largest max(|Re|, |Im|) (NaN or inf where an entry is); a modulus squares."""
    return np.abs(np.ascontiguousarray(a).view(a.real.dtype)).max(axis=(-2, -1))


def _named(what: str, bad: np.ndarray) -> str:
    """``what``, with the index of its first matrix flagged in ``bad`` when it is a stack."""
    return what if bad.ndim == 0 else f"{what} slice {np.argwhere(bad)[0].tolist()}"


def require_hermitian(a: np.ndarray, *, what: str = "matrix") -> np.ndarray:
    """The Hermitian part, as a new array, of one square matrix or a stack of them, each
    non-empty, finite and Hermitian within 1e-12 of its own scale: no entry of (A - A†)/2 above
    1e-12 times A's largest, sizes taken as max(|Re|, |Im|). Nothing is squared, so 2^k A passes
    exactly when A does and nothing finite overflows; exactly Hermitian input keeps its bits.
    Else a ConfigError names ``what`` and, in a stack, the first matrix refused."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or not a.size:
        raise ConfigError(f"{what} must be a square matrix or a stack of them, with no empty "
                          f"axis, got shape {a.shape}")
    scale = _largest_entry(a)
    if not (finite := np.isfinite(scale)).all():
        raise ConfigError(f"{_named(what, ~finite)} is not a finite matrix")
    herm = hermitian_part(a)
    skew = _largest_entry(a - herm)  # (A - A†)/2; H lies between A and A†, so nothing overflows
    if (bad := skew > _HERM_TOL * scale).any():
        raise ConfigError(f"{_named(what, bad)} is not Hermitian: (A - A†)/2 has an entry of "
                          f"{skew[bad][0]:.3e} > 1e-12 times its largest entry {scale[bad][0]:.3e}")
    return np.where(a == a.conj().swapaxes(-1, -2), a, herm)


@contextmanager
def _lapack_errors(where: str) -> Iterator[None]:
    """Raise a LAPACK failure as a NumericalError naming ``where`` it happened."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK failure in {where}: {exc}") from exc


def _decompose(a: np.ndarray, decompose: Callable[[np.ndarray], _R]) -> _R:
    """``decompose`` of the Hermitian part of one matrix ``a`` that the rule accepts."""
    a = require_hermitian(a)
    if a.ndim != 2:
        raise ConfigError(f"expected one matrix, got a stack of shape {a.shape}")
    with _lapack_errors(f"a {a.shape[0]}x{a.shape[0]} Hermitian eigendecomposition"):
        return decompose(a)


def psd_project_batch(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frobenius PSD projection of a stack of Hermitian matrices.

    One ``eigvalsh`` over the stack finds each member's smallest eigenvalue;
    only members with a negative one are decomposed and rebuilt with their
    eigenvalues clamped at zero. The others come back bit for bit (``a``
    itself when no member is indefinite). Returns the projected stack and
    the smallest eigenvalue of every input member.
    """
    lowest = np.linalg.eigvalsh(a)[..., 0]
    neg = lowest < 0
    if neg.any():
        vals, vecs = np.linalg.eigh(a[neg])
        a = a.copy()
        a[neg] = hermitian_part(eig_reconstruct(vecs, np.maximum(vals, 0.0)))
    return a, lowest


def psd_project(a: np.ndarray) -> np.ndarray:
    """Nearest positive semidefinite matrix in Frobenius norm.

    Symmetrizes, clamps negative eigenvalues to zero, reconstructs. Already
    PSD input comes back as its exact Hermitian part.
    """
    return _decompose(a, lambda h: psd_project_batch(h)[0])


def matrix_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Unique PSD square root of a PSD matrix.

    Eigenvalues inside the numerical-noise band [-1e-8 * lambda_max, 0), which
    squares nothing, are clamped to zero; anything more negative means
    genuinely indefinite input, at any scale.

    :raises NumericalError: if the smallest eigenvalue is below the noise band.
    """
    vals, vecs = _decompose(a, np.linalg.eigh)
    lam_min = float(vals[0])
    if lam_min < -1e-8 * float(vals[-1]):
        raise NumericalError(
            f"matrix is not positive semidefinite (lambda_min = {lam_min:.3e})"
        )
    return hermitian_part(eig_reconstruct(vecs, np.sqrt(np.maximum(vals, 0.0))))


def kron_rearrange(a: np.ndarray, ps: ProductStructure) -> np.ndarray:
    """Rearrange (p1*p2) x (p1*p2) matrices into the (p1^2) x (p2^2) layout.

    Entry A[(i-1)p2+j, (k-1)p2+l] moves to R[(i-1)p1+k, (j-1)p2+l] (1-based).
    The map is a linear Frobenius isometry, and A = X (x) Y becomes the rank-1
    matrix vec(X) vec(Y)^T, so the singular values of R are the separable
    component scores of A. Batches over leading axes.

    :raises ValueError: if p1 * p2 does not match the matrix dimension.
    """
    a = np.asarray(a)
    p1, p2 = ps.p1, ps.p2
    if a.ndim < 2 or a.shape[-2] != a.shape[-1] or a.shape[-1] != p1 * p2:
        raise ValueError(
            f"product structure ({p1}, {p2}) incompatible with matrix of shape {a.shape}"
        )
    lead = a.shape[:-2]
    r = a.reshape(*lead, p1, p2, p1, p2)
    k = len(lead)
    order = tuple(range(k)) + (k, k + 2, k + 1, k + 3)
    return r.transpose(order).reshape(*lead, p1 * p1, p2 * p2)


def eig_reconstruct(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(w) V† from eigenvector columns V and weights w.

    Batches over leading axes. A batch is rebuilt with ``matmul`` one
    leading-axis slice at a time into one preallocated output, so no
    temporary is larger than a slice. The result is not symmetrized; wrap it
    in :func:`hermitian_part` where exact symmetry is needed.
    """
    if vectors.ndim == 2:
        return (vectors * values) @ vectors.conj().T
    p = vectors.shape[-2]
    out = np.empty(vectors.shape[:-1] + (p,), dtype=np.result_type(vectors, values))
    for i in range(vectors.shape[0]):
        v = vectors[i]
        np.matmul(v * values[i][..., None, :], v.conj().swapaxes(-1, -2), out=out[i])
    return out


def frechet_derivative(a: np.ndarray, delta: np.ndarray, phi: str) -> np.ndarray:
    """First Frechet derivative of a matrix function at A, applied to Delta.

    In the eigenbasis of A the derivative acts entrywise through the Loewner
    matrix of first divided differences,

        phi'_A(Delta) = U ( L ∘ (U† Delta U) ) U†,
        L_ij = (phi(l_i) - phi(l_j)) / (l_i - l_j),

    with the analytic limit phi'(l) on the diagonal and at ties. For the
    supported functions the divided difference has an exact closed form with
    no cancellation: l_i + l_j for the square, 1/(sqrt(l_i) + sqrt(l_j)) for
    the square root, 1 for the identity, so ties need no special casing.

    :param a: Hermitian base point.
    :param delta: Hermitian direction.
    :param phi: one of ``"square"``, ``"sqrt"``, ``"identity"``.
    :raises NumericalError: for ``phi="sqrt"`` when the smallest eigenvalue is
        within ``TIE_TOL * max(1, lambda_1)`` of zero or negative, or when the
        decomposition does not converge.
    """
    delta = require_hermitian(delta, what="direction")
    lam, u = _decompose(a, np.linalg.eigh)
    if phi == "square":
        loewner = lam[:, None] + lam[None, :]
    elif phi == "sqrt":
        if float(lam[0]) <= TIE_TOL * max(1.0, float(lam[-1])):
            raise NumericalError("sqrt derivative undefined at singular point")
        root = np.sqrt(lam)
        loewner = 1.0 / (root[:, None] + root[None, :])
    elif phi == "identity":
        return delta
    else:
        raise ValueError(f"unsupported matrix function {phi!r}")
    mixed = u.conj().T @ delta.astype(complex) @ u
    return hermitian_part(u @ (loewner * mixed) @ u.conj().T)
