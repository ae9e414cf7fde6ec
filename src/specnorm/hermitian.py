"""Dense complex Hermitian linear algebra.

Positive semidefinite projections (one batched kernel) and square roots,
the Kronecker rearrangement that turns Kronecker products into rank-1
matrices, and Frechet derivatives of matrix functions in Daleckii-Krein
form. Operators are plain complex ``numpy`` arrays; every function validates
Hermitian symmetry where the contract requires it and returns exactly
Hermitian output.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .errors import NumericalError, _check_count

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

_HERM_ATOL = 1e-12

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
    """(A + A†)/2 as a new complex array."""
    a = np.asarray(a)
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def require_hermitian(a: np.ndarray, *, what: str = "matrix") -> np.ndarray:
    """Validate a non-empty square Hermitian matrix of finite norm, return its Hermitian part.

    Symmetry is accepted up to absolute deviation 1e-12 * max(1, ||A||_F),
    the contract for matrices produced by floating-point arithmetic.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValueError(f"{what} must be square and non-empty, got shape {a.shape}")
    with np.errstate(over="ignore"):  # a norm past the float range reads inf
        norm = float(np.linalg.norm(a))
    if not np.isfinite(norm):  # NaN and inf entries included
        raise ValueError(f"{what} must be finite, with a Frobenius norm inside the float range")
    defect = float(np.max(np.abs(a - a.conj().T)))
    if defect > _HERM_ATOL * max(1.0, norm):
        raise ValueError(f"{what} is not Hermitian: max|A - A†| = {defect:.3e}")
    return hermitian_part(a)


def _decompose(a: np.ndarray, decompose: Callable[[np.ndarray], _R]) -> _R:
    """``decompose`` applied to the validated Hermitian part of ``a``.

    :raises ValueError: if ``a`` is not square and Hermitian.
    :raises NumericalError: if the decomposition does not converge.
    """
    a = require_hermitian(a)
    try:
        return decompose(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition failed for {a.shape[0]}x{a.shape[1]} Hermitian matrix"
        ) from exc


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

    Eigenvalues inside the numerical-noise band [-1e-8 * ||A||_F, 0) are
    clamped to zero; anything more negative means genuinely indefinite input.

    :raises NumericalError: if the smallest eigenvalue is below the noise band.
    """
    vals, vecs = _decompose(a, np.linalg.eigh)
    lam_min = float(vals[0])
    if lam_min < -1e-8 * float(np.linalg.norm(np.asarray(a))):
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
    delta = require_hermitian(np.asarray(delta), what="direction")
    lam, u = _decompose(a, np.linalg.eigh)
    if phi == "square":
        loewner = lam[:, None] + lam[None, :]
    elif phi == "sqrt":
        scale = max(1.0, float(lam[-1])) if lam.size else 1.0
        if float(lam[0]) <= TIE_TOL * scale:
            raise NumericalError("sqrt derivative undefined at singular point")
        root = np.sqrt(lam)
        loewner = 1.0 / (root[:, None] + root[None, :])
    elif phi == "identity":
        return delta
    else:
        raise ValueError(f"unsupported matrix function {phi!r}")
    mixed = u.conj().T @ delta.astype(complex) @ u
    return hermitian_part(u @ (loewner * mixed) @ u.conj().T)
