"""Eigensolver kernel tests: frozen values, oracle cross-checks, invariances."""
import numpy as np
import pytest

from cartanfinsler import domains, numkernel
from cartanfinsler.errors import DomainError, NumericError, StructureError


def random_hermitian(rng, n, scale=1.0):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (b + b.conj().T)


def test_eigs_diagonal_matrix():
    w, u = numkernel.hermitian_eigs(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(w, [3.0, 1.0], atol=1e-14)
    # eigenvectors of a diagonal matrix are coordinate axes up to phase
    np.testing.assert_allclose(np.abs(u), np.eye(2), atol=1e-14)


def test_eigs_identity():
    w, u = numkernel.hermitian_eigs(np.eye(3))
    np.testing.assert_allclose(w, [1.0, 1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-14)


def test_eigs_known_two_by_two():
    # [[0,1],[1,0]] has eigenvalues +-1
    w, _ = numkernel.hermitian_eigs(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-14)


def test_eigs_reconstruction_random():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5, 8):
        m = random_hermitian(rng, n)
        w, u = numkernel.hermitian_eigs(m)
        scale = np.linalg.norm(m)
        assert np.all(np.diff(w) <= 1e-13 * scale)  # descending
        rec = (u * w) @ u.conj().T
        assert np.max(np.abs(rec - m)) <= 1e-10 * scale
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-12


def test_eigs_match_numpy_oracle():
    rng = np.random.default_rng(1)
    for n in (2, 4, 7):
        m = random_hermitian(rng, n)
        w, _ = numkernel.hermitian_eigs(m)
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        np.testing.assert_allclose(w, ref, atol=1e-12)


def test_eigs_unitary_invariance():
    # spectrum of V M V^H equals spectrum of M
    rng = np.random.default_rng(2)
    m = random_hermitian(rng, 4)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    w1, _ = numkernel.hermitian_eigs(m)
    w2, _ = numkernel.hermitian_eigs(q @ m @ q.conj().T)
    np.testing.assert_allclose(w1, w2, atol=1e-12)


def test_batch_matches_single():
    rng = np.random.default_rng(3)
    mats = np.stack([random_hermitian(rng, 3) for _ in range(6)])
    w, u = numkernel.eigh_batch(mats)
    for k in range(6):
        wk, _ = numkernel.hermitian_eigs(mats[k])
        np.testing.assert_allclose(w[k], wk, atol=1e-12)
        rec = (u[k] * w[k]) @ u[k].conj().T
        assert np.max(np.abs(rec - mats[k])) < 1e-12


def test_eigs_rejects_non_hermitian():
    with pytest.raises(StructureError):
        numkernel.hermitian_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_non_finite_matrix_is_a_numeric_error():
    bad = np.array([[[1.0, np.nan], [np.nan, 1.0]]])
    with pytest.raises(NumericError):
        numkernel.eigh_batch(bad)
    with pytest.raises(NumericError):
        numkernel.eigvalsh_batch(bad)


@pytest.mark.parametrize(
    "spec", [domains.type_i(2, 3), domains.type_ii(3), domains.type_iii(4)], ids=str
)
def test_membership_at_the_boundary(spec):
    # I - ZZ* has smallest eigenvalue 1 - g^2 ~ 2e-10 at g = 1 - 1e-10, far
    # above the 1e-12 membership margin in absolute terms, so the verdict
    # needs no more than backward-stable (not relatively accurate) eigenvalues
    for i in range(5):
        z = domains.sample_point(spec, seed=40 + i)
        z = z / np.linalg.svd(z, compute_uv=False)[0]
        for k in range(2, 11):
            assert domains.contains(spec, (1.0 - 10.0**-k) * z), (i, k)
            assert not domains.contains(spec, (1.0 + 10.0**-k) * z), (i, k)
        eps = 10.0 ** -np.arange(2, 11)[:, None, None]
        assert domains.contains_many(spec, (1.0 - eps) * z).all(), i
        assert not domains.contains_many(spec, (1.0 + eps) * z).any(), i


def test_pd_sqrt_identity_and_diagonal():
    np.testing.assert_allclose(numkernel.pd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(
        numkernel.pd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-13
    )


def test_pd_sqrt_squares_back():
    rng = np.random.default_rng(5)
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = b @ b.conj().T + 0.5 * np.eye(3)
    a = numkernel.pd_sqrt(m)
    np.testing.assert_allclose(a @ a, m, atol=1e-12)
    np.testing.assert_allclose(a, a.conj().T, atol=1e-12)


def test_pd_sqrt_cayley_style_factor():
    # A = ((I - Z Z^H)^{-1})^{1/2} satisfies A^H A (I - Z Z^H) = I
    rng = np.random.default_rng(6)
    z = 0.2 * (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
    assert np.linalg.svd(z, compute_uv=False)[0] < 1.0
    g = np.linalg.inv(np.eye(2) - z @ z.conj().T)
    a = numkernel.pd_sqrt(g)
    np.testing.assert_allclose(
        a.conj().T @ a @ (np.eye(2) - z @ z.conj().T), np.eye(2), atol=1e-12
    )


def test_pd_sqrt_rejects_indefinite():
    with pytest.raises(DomainError):
        numkernel.pd_sqrt(np.diag([1.0, -0.5]))


def test_power_trace_frozen_values():
    assert numkernel.power_trace(np.eye(4), 1) == pytest.approx(4.0, abs=1e-14)
    assert numkernel.power_trace(np.eye(4), 3) == pytest.approx(4.0, abs=1e-14)
    # diag(2,3): tr M^2 = 4 + 9 = 13
    assert numkernel.power_trace(np.diag([2.0, 3.0]), 2) == pytest.approx(13.0, abs=1e-12)


def test_power_trace_matches_eigenvalue_sum():
    rng = np.random.default_rng(7)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = b @ b.conj().T
    w = np.linalg.eigvalsh(m)
    for alpha in (1, 2, 3, 5):
        want = float(np.sum(w ** alpha))
        got = numkernel.power_trace(m, alpha)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_power_trace_rejects_negative_matrix():
    with pytest.raises(DomainError):
        numkernel.power_trace(np.diag([1.0, -1.0]), 2)
    with pytest.raises(DomainError):
        numkernel.power_trace(np.eye(2), 0)


def test_singular_values_basic():
    np.testing.assert_allclose(
        numkernel.singular_values(np.zeros((2, 3))), [0.0, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(
        numkernel.singular_values(np.diag([3.0, 2.0])), [3.0, 2.0], atol=1e-13
    )
    # row vector: single singular value = euclidean norm
    np.testing.assert_allclose(
        numkernel.singular_values(np.array([3.0, 4.0])), [5.0], atol=1e-13
    )


def test_singular_values_match_numpy():
    rng = np.random.default_rng(8)
    for shape in ((2, 5), (4, 3)):
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = numkernel.singular_values(v)
        ref = np.linalg.svd(v, compute_uv=False)
        np.testing.assert_allclose(got, ref, atol=1e-11)


def test_newton_identities_frozen():
    # eigenvalues (1, 1): S = (2, 2), sigma = (2, 1)
    np.testing.assert_allclose(
        numkernel.newton_power_to_elementary([2.0, 2.0], 2), [2.0, 1.0], atol=1e-14
    )
    # k = 1 is just sigma_1 = S_1
    np.testing.assert_allclose(
        numkernel.newton_power_to_elementary([7.5], 1), [7.5], atol=1e-15
    )


def test_newton_identities_round_trip():
    rng = np.random.default_rng(9)
    for k in (2, 3, 4):
        lam = rng.uniform(0.1, 2.0, size=k)
        s = np.array([np.sum(lam ** a) for a in range(1, k + 1)])
        sigma = numkernel.newton_power_to_elementary(s, k)
        # compare against elementary symmetric polynomials via poly coefficients
        coeffs = np.poly(lam)  # x^k - sigma_1 x^{k-1} + sigma_2 x^{k-2} - ...
        want = np.array([(-1.0) ** a * coeffs[a] for a in range(1, k + 1)])
        np.testing.assert_allclose(sigma, want, atol=1e-9)
