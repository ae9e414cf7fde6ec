"""Dense Hermitian linear algebra: decompositions, projections, rearrangement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specnorm as sn
from specnorm.hermitian import eig_reconstruct, psd_project_batch


def rand_hermitian(rng, p, complex_=True):
    a = rng.standard_normal((p, p))
    if complex_:
        a = a + 1j * rng.standard_normal((p, p))
    return (a + a.conj().T) / 2.0


def rand_psd(rng, p):
    b = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return b @ b.conj().T


def test_hermitian_part_projects_onto_hermitian():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = sn.hermitian_part(a)
    assert np.array_equal(h, h.conj().T)
    # idempotent on already-Hermitian input
    assert np.allclose(sn.hermitian_part(h), h, rtol=0, atol=0)


def test_require_hermitian_accepts_roundoff_and_rejects_structure():
    rng = np.random.default_rng(1)
    h = rand_hermitian(rng, 5)
    wiggled = h + 1e-14 * rng.standard_normal((5, 5))
    out = sn.require_hermitian(wiggled)
    assert np.array_equal(out, out.conj().T)
    with pytest.raises(ValueError, match="not Hermitian"):
        sn.require_hermitian(h + 1e-3 * np.eye(5, k=1))
    with pytest.raises(ValueError, match="square"):
        sn.require_hermitian(np.ones((2, 3)))


def test_psd_project_clamps_and_preserves_psd_input():
    rng = np.random.default_rng(3)
    a = rand_hermitian(rng, 5)
    proj = sn.psd_project(a)
    assert np.linalg.eigvalsh(proj).min() >= -1e-12
    psd = rand_psd(rng, 5)
    assert np.allclose(sn.psd_project(psd), psd, atol=1e-12)
    # Frobenius optimality: no eigenvalue clamp beats the projection
    vals = np.linalg.eigvalsh(a)
    expected = np.linalg.norm(np.minimum(vals, 0.0))
    assert np.linalg.norm(proj - a) == pytest.approx(expected, abs=1e-12)


def test_psd_project_batch_rebuilds_only_indefinite_members():
    rng = np.random.default_rng(5)
    stack = np.stack([make(rng, 4) for make in (rand_psd, rand_hermitian) * 2])
    proj, lowest = psd_project_batch(stack)
    assert np.array_equal(lowest, np.linalg.eigvalsh(stack)[:, 0])
    indefinite = lowest < 0
    assert indefinite.tolist() == [False, True] * 2
    assert np.array_equal(proj[~indefinite], stack[~indefinite])
    for i in np.flatnonzero(indefinite):
        assert np.array_equal(proj[i], sn.psd_project(stack[i]))
    psd = stack[[0, 2]]
    assert psd_project_batch(psd)[0] is psd  # nothing to rebuild: no copy


# the single-matrix entry points that validate their input and decompose it
DECOMPOSING_CALLS = pytest.mark.parametrize(
    "call",
    [
        lambda a: sn.psd_project(a),
        lambda a: sn.matrix_sqrt_psd(a),
        lambda a: sn.frechet_derivative(a, np.eye(2), "square"),
    ],
    ids=["psd_project", "matrix_sqrt_psd", "frechet_derivative"],
)


@DECOMPOSING_CALLS
def test_non_hermitian_input_is_rejected(call):
    with pytest.raises(ValueError, match="not Hermitian"):
        call(np.array([[1.0, 1.0], [0.0, 1.0]]))


@DECOMPOSING_CALLS
def test_lapack_failure_surfaces_as_numerical_error(monkeypatch, call):
    def failing_eigh(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(sn.NumericalError, match="eigendecomposition failed for 2x2") as info:
        call(np.diag([2.0, -1.0]))  # indefinite, so psd_project reaches eigh too
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_matrix_sqrt_psd_squares_back():
    rng = np.random.default_rng(4)
    a = rand_psd(rng, 6)
    root = sn.matrix_sqrt_psd(a)
    assert np.allclose(root @ root, a, atol=1e-10 * np.linalg.norm(a))
    with pytest.raises(sn.NumericalError, match="not positive semidefinite"):
        sn.matrix_sqrt_psd(np.diag([1.0, -0.5]))


def test_kron_rearrange_rank_one_on_kronecker_products():
    rng = np.random.default_rng(6)
    x = rand_hermitian(rng, 3)
    y = rand_hermitian(rng, 2)
    ps = sn.ProductStructure(3, 2)
    r = sn.kron_rearrange(np.kron(x, y), ps)
    assert r.shape == (9, 4)
    assert np.allclose(r, np.outer(x.ravel(), y.ravel()), atol=1e-13)
    s = np.linalg.svd(r, compute_uv=False)
    assert s[1] <= 1e-12 * s[0]


def test_kron_rearrange_is_a_frobenius_isometry():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    r = sn.kron_rearrange(a, sn.ProductStructure(2, 3))
    assert np.linalg.norm(r) == pytest.approx(np.linalg.norm(a), rel=1e-14)
    with pytest.raises(ValueError, match="incompatible"):
        sn.kron_rearrange(a, sn.ProductStructure(2, 2))


def test_frechet_derivative_square_closed_form():
    rng = np.random.default_rng(9)
    a = rand_hermitian(rng, 5)
    delta = rand_hermitian(rng, 5)
    lhs = sn.frechet_derivative(a, delta, "square")
    assert np.allclose(lhs, a @ delta + delta @ a, atol=1e-12)


def test_frechet_derivative_sqrt_solves_sylvester():
    # L is the sqrt derivative iff sqrt(A) L + L sqrt(A) = Delta
    rng = np.random.default_rng(10)
    a = rand_psd(rng, 5) + 0.5 * np.eye(5)
    delta = rand_hermitian(rng, 5)
    l = sn.frechet_derivative(a, delta, "sqrt")
    root = sn.matrix_sqrt_psd(a)
    assert np.allclose(root @ l + l @ root, delta, atol=1e-10)


def test_frechet_derivative_identity_and_errors():
    rng = np.random.default_rng(11)
    a = rand_psd(rng, 3)
    delta = rand_hermitian(rng, 3)
    assert np.allclose(sn.frechet_derivative(a, delta, "identity"), delta)
    with pytest.raises(ValueError, match="unsupported"):
        sn.frechet_derivative(a, delta, "exp")
    with pytest.raises(sn.NumericalError, match="singular"):
        sn.frechet_derivative(np.diag([1.0, 0.0]), np.eye(2), "sqrt")


def test_product_structure_rejects_nonpositive_factors():
    with pytest.raises(ValueError):
        sn.ProductStructure(0, 2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 6))
def test_psd_project_always_psd_and_hermitian(seed, p):
    rng = np.random.default_rng(seed)
    a = rand_hermitian(rng, p)
    proj = sn.psd_project(a)
    assert np.array_equal(proj, proj.conj().T)
    assert np.linalg.eigvalsh(proj).min() >= -1e-10 * max(1.0, np.linalg.norm(a))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p1=st.integers(1, 4), p2=st.integers(1, 4))
def test_rearrangement_preserves_frobenius_norm(seed, p1, p2):
    rng = np.random.default_rng(seed)
    n = p1 * p2
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    r = sn.kron_rearrange(a, sn.ProductStructure(p1, p2))
    assert np.linalg.norm(r) == pytest.approx(np.linalg.norm(a), rel=1e-12)
