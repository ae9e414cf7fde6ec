"""Dense complex Hermitian linear algebra.

Eigendecompositions with a deterministic phase convention, positive
semidefinite projections and square roots, the Kronecker rearrangement that
turns Kronecker products into rank-1 matrices, and Frechet derivatives of
matrix functions in Daleckii-Krein form. Operators are plain complex
``numpy`` arrays; every function validates Hermitian symmetry where the
contract requires it and returns exactly Hermitian output.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "EigenSystem",
    "ProductStructure",
    "TIE_TOL",
    "hermitian_part",
    "require_hermitian",
    "eigh_descending",
    "psd_project",
    "matrix_sqrt_psd",
    "kron_rearrange",
    "eig_reconstruct",
    "frechet_derivative",
]

# Relative scale for eigenvalue tie detection; effective threshold is
# TIE_TOL * max(1, lambda_1).
TIE_TOL = 1e-8

_HERM_ATOL = 1e-12


@dataclass(frozen=True)
class EigenSystem:
    """Full eigensystem of a Hermitian matrix, eigenvalues descending.

    ``vectors[:, j]`` belongs to ``values[j]``; columns are orthonormal and
    phase-fixed so the largest-modulus entry of each is real positive.
    ``near_tie_flags[j]`` marks the adjacent pair (j, j+1) as numerically
    degenerate.
    """

    values: np.ndarray
    vectors: np.ndarray
    near_tie_flags: np.ndarray


@dataclass(frozen=True)
class ProductStructure:
    """Factor dimensions (p1, p2) of a tensor-product or direct-sum split."""

    p1: int
    p2: int

    def __post_init__(self) -> None:
        if self.p1 < 1 or self.p2 < 1:
            raise ValueError(f"factor dimensions must be positive, got ({self.p1}, {self.p2})")


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A†)/2 as a new complex array."""
    a = np.asarray(a)
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def require_hermitian(a: np.ndarray, *, what: str = "matrix") -> np.ndarray:
    """Validate square shape and Hermitian symmetry, return the exact Hermitian part.

    Symmetry is accepted up to absolute deviation 1e-12 * max(1, ||A||_F),
    the contract for matrices produced by floating-point arithmetic.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square, got shape {a.shape}")
    scale = max(1.0, float(np.linalg.norm(a)))
    defect = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if defect > _HERM_ATOL * scale:
        raise ValueError(f"{what} is not Hermitian: max|A - A†| = {defect:.3e}")
    return hermitian_part(a)


def eigh_descending(a: np.ndarray, tie_tol: float = TIE_TOL) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues in descending order.

    Each eigenvector is rotated so that its largest-modulus entry (first such
    entry on ties) is real and positive, which makes the output deterministic
    across runs. Adjacent eigenvalue pairs closer than
    ``tie_tol * max(1, lambda_1)`` are flagged; within a flagged block the
    individual eigenvectors are an arbitrary orthonormal basis of the
    eigenspace and downstream consumers should treat them as such.

    :param a: Hermitian matrix.
    :param tie_tol: relative near-tie threshold.
    :raises NumericalError: if the decomposition does not converge.
    """
    a = require_hermitian(a)
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition failed for {a.shape[0]}x{a.shape[1]} Hermitian matrix"
        ) from exc
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1]
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    mod = np.abs(lead)
    phase = np.where(mod > 0, lead / np.where(mod > 0, mod, 1.0), 1.0)
    vecs = vecs * phase.conj()
    gap_scale = max(1.0, float(vals[0])) if vals.size else 1.0
    flags = (vals[:-1] - vals[1:]) < tie_tol * gap_scale
    return EigenSystem(values=vals, vectors=vecs, near_tie_flags=flags)


def psd_project(a: np.ndarray) -> np.ndarray:
    """Nearest positive semidefinite matrix in Frobenius norm.

    Symmetrizes, clamps negative eigenvalues to zero, reconstructs. Already
    PSD input passes through unchanged up to decomposition roundoff.
    """
    es = eigh_descending(a)
    if bool(np.all(es.values >= 0)):
        return hermitian_part(np.asarray(a))
    return hermitian_part(eig_reconstruct(es.vectors, np.maximum(es.values, 0.0)))


def matrix_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Unique PSD square root of a PSD matrix.

    Eigenvalues inside the numerical-noise band [-1e-8 * ||A||_F, 0) are
    clamped to zero; anything more negative means genuinely indefinite input.

    :raises NumericalError: if the smallest eigenvalue is below the noise band.
    """
    es = eigh_descending(a)
    lam_min = float(es.values[-1])
    if lam_min < -1e-8 * float(np.linalg.norm(np.asarray(a))):
        raise NumericalError(
            f"matrix is not positive semidefinite (lambda_min = {lam_min:.3e})"
        )
    return hermitian_part(eig_reconstruct(es.vectors, np.sqrt(np.maximum(es.values, 0.0))))


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


def frechet_derivative(
    a: np.ndarray,
    delta: np.ndarray,
    phi: str,
    tie_tol: float = TIE_TOL,
) -> np.ndarray:
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
    :param tie_tol: relative threshold below which the sqrt spectrum counts
        as singular.
    :raises NumericalError: for ``phi="sqrt"`` when the smallest eigenvalue is
        within ``tie_tol * max(1, lambda_1)`` of zero or negative.
    """
    delta = require_hermitian(np.asarray(delta), what="direction")
    es = eigh_descending(a, tie_tol=tie_tol)
    lam = es.values
    if phi == "square":
        loewner = lam[:, None] + lam[None, :]
    elif phi == "sqrt":
        scale = max(1.0, float(lam[0])) if lam.size else 1.0
        if float(lam[-1]) <= tie_tol * scale:
            raise NumericalError("sqrt derivative undefined at singular point")
        root = np.sqrt(lam)
        loewner = 1.0 / (root[:, None] + root[None, :])
    elif phi == "identity":
        return delta
    else:
        raise ValueError(f"unsupported matrix function {phi!r}")
    u = es.vectors
    mixed = u.conj().T @ delta.astype(complex) @ u
    return hermitian_part(u @ (loewner * mixed) @ u.conj().T)
