"""Kernel tests: eigensolver values, oracle cross-checks and invariances, and
the stack kernels against numpy's BLAS/LAPACK calls."""
import itertools

import numpy as np
import pytest

from cartanfinsler import domains, numkernel
from cartanfinsler.errors import DomainError, NumericError


def random_hermitian(rng, n, scale=1.0):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (b + b.conj().T)


def _eigvals(m):
    """eigvalsh_batch on one matrix."""
    return numkernel.eigvalsh_batch(np.asarray(m)[None])[0]


def test_eigs_diagonal_matrix():
    np.testing.assert_allclose(_eigvals(np.diag([1.0, 3.0])), [3.0, 1.0], atol=1e-14)


def test_eigs_identity():
    np.testing.assert_allclose(_eigvals(np.eye(3)), [1.0, 1.0, 1.0], atol=1e-15)


def test_eigs_known_two_by_two():
    # [[0,1],[1,0]] has eigenvalues +-1
    w = _eigvals(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-14)


def test_eigs_reconstruction_random():
    # descending values that give back the trace and the Frobenius norm
    rng = np.random.default_rng(0)
    for n in (2, 3, 5, 8):
        m = random_hermitian(rng, n)
        w = _eigvals(m)
        scale = np.linalg.norm(m)
        assert np.all(np.diff(w) <= 1e-13 * scale)  # descending
        assert abs(np.sum(w) - np.trace(m).real) <= 1e-12 * scale
        assert abs(np.sum(w**2) - scale**2) <= 1e-12 * scale**2


def test_eigs_match_numpy_oracle():
    rng = np.random.default_rng(1)
    for n in (2, 4, 7):
        m = random_hermitian(rng, n)
        ref = np.sort(np.linalg.eigvals(m).real)[::-1]
        np.testing.assert_allclose(_eigvals(m), ref, atol=1e-12)


def test_eigs_unitary_invariance():
    # spectrum of V M V^H equals spectrum of M
    rng = np.random.default_rng(2)
    m = random_hermitian(rng, 4)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    np.testing.assert_allclose(_eigvals(m), _eigvals(q @ m @ q.conj().T), atol=1e-12)


def test_batch_matches_single():
    rng = np.random.default_rng(3)
    mats = np.stack([random_hermitian(rng, 3) for _ in range(6)])
    w = numkernel.eigvalsh_batch(mats)
    for k in range(6):
        np.testing.assert_allclose(w[k], _eigvals(mats[k]), atol=1e-12)


def test_non_finite_matrix_is_a_numeric_error():
    bad = np.array([[[1.0, np.nan], [np.nan, 1.0]]])
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


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("batch", [(), (5,), (3, 4)], ids=str)
def test_matmul_matches_numpy(batch):
    rng = np.random.default_rng(4)
    for n, k, p in itertools.product(range(1, 5), repeat=3):
        a, b = _complex(rng, batch + (n, k)), _complex(rng, batch + (k, p))
        np.testing.assert_allclose(numkernel.matmul(a, b), a @ b, rtol=1e-14, atol=1e-14)
    # batch axes broadcast as they do for @, a real factor included
    a, b = _complex(rng, (3, 1, 2, 4)), rng.standard_normal((5, 4, 3))
    np.testing.assert_allclose(numkernel.matmul(a, b), a @ b, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("batch", [(), (5,), (3, 4)], ids=str)
def test_hpd_inv_matches_lapack(batch):
    rng = np.random.default_rng(5)
    for m in range(1, 5):
        for n in range(1, 5):
            z = _complex(rng, batch + (m, n))
            z = 0.9 * z / np.linalg.norm(z, ord=2, axis=(-2, -1), keepdims=True)
            gram = np.eye(m) - z @ np.conj(np.swapaxes(z, -1, -2))
            got = numkernel.hpd_inv(gram)
            want = np.linalg.inv(gram)
            # gauge 0.9: condition number 1/(1 - 0.81)
            assert np.max(np.abs(got - want)) <= 8.0 * np.finfo(float).eps / 0.19 \
                * np.max(np.abs(want))
            np.testing.assert_allclose(got @ gram, np.broadcast_to(np.eye(m), got.shape),
                                       atol=1e-13)


def test_hpd_inv_rejects_a_gram_that_is_not_positive_definite():
    ok = np.eye(2) - 0.25 * np.ones((2, 2))
    for bad in (np.diag([1.0, -1.0]), np.diag([0.0, 1.0]), np.ones((2, 2)),
                np.array([[1.0, 2.0], [2.0, 1.0]]), np.full((1, 1), np.nan)):
        with pytest.raises(DomainError):
            numkernel.hpd_inv(bad)
        if bad.shape == ok.shape:  # one bad gram fails the whole stack
            with pytest.raises(DomainError):
                numkernel.hpd_inv(np.stack([ok, bad, ok]))


EPS = np.finfo(float).eps


@pytest.mark.parametrize("batch", [(), (5,), (3, 4)], ids=str)
def test_solve_matches_lapack(batch):
    rng = np.random.default_rng(6)
    for n in range(1, 5):
        a, b = _complex(rng, batch + (n, n)), _complex(rng, batch + (n, 3))
        if n > 1:
            a[..., 0, 0] = 0.0  # the first pivot needs a row swap
        cond = np.linalg.cond(a)[..., None, None]

        def close(got, want):
            size = np.max(np.abs(want), axis=(-2, -1), keepdims=True)
            return np.all(np.abs(got - want) <= 16.0 * EPS * cond * size)

        assert close(numkernel.solve(a, b), np.linalg.solve(a, b)), n
        eye = np.broadcast_to(np.eye(n), a.shape)
        assert close(numkernel.solve(a, eye), np.linalg.inv(a)), n
    # batch axes broadcast as in np.linalg.solve
    a, b = _complex(rng, (4, 2, 2)), _complex(rng, (3, 1, 2, 5))
    np.testing.assert_allclose(numkernel.solve(a, b), np.linalg.solve(a, b),
                               rtol=1e-12, atol=1e-12)


def test_solve_raises_on_a_singular_matrix():
    ok = np.array([[0.0, 1.0], [1.0, 0.0]])
    for bad in (np.zeros((1, 1)), np.zeros((2, 2)), np.diag([0.0, 1.0]),
                np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([[0.0, 1.0], [0.0, 3.0]])):
        n = bad.shape[-1]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(bad, np.eye(n))
        with pytest.raises(NumericError):
            numkernel.solve(bad, np.eye(n))
        if bad.shape == ok.shape:  # one singular matrix fails the whole stack
            with pytest.raises(NumericError):
                numkernel.solve(np.stack([ok, bad, ok]), np.eye(2))



@pytest.mark.parametrize("batch", [(), (5,), (3, 4)], ids=str)
def test_cholesky_matches_lapack(batch):
    # frames P = (I - ZZ*)^{-1} >= I at gauge 0.9, the matrices the gauge
    # factors; only the lower triangle is read
    rng = np.random.default_rng(9)
    for m in range(1, 5):
        z = _complex(rng, batch + (m, m + 1))
        z = 0.9 * z / np.linalg.norm(z, ord=2, axis=(-2, -1), keepdims=True)
        frame = np.linalg.inv(np.eye(m) - z @ np.conj(np.swapaxes(z, -1, -2)))
        frame = 0.5 * (frame + np.conj(np.swapaxes(frame, -1, -2)))
        want = np.linalg.cholesky(frame)
        got = numkernel.cholesky(np.tril(frame) + np.triu(np.full((m, m), np.nan), 1))
        assert np.all(np.diagonal(got, axis1=-2, axis2=-1).imag == 0.0)
        assert np.max(np.abs(got - want)) <= 8.0 * EPS / 0.19 * np.max(np.abs(want)), m
        # the whole stack at once equals each matrix alone
        flat = frame.reshape((-1, m, m))
        assert np.array_equal(numkernel.cholesky(flat),
                              np.stack([numkernel.cholesky(f) for f in flat]))

@pytest.mark.parametrize(
    "spec", [domains.type_i(2, 2), domains.type_ii(2), domains.type_i(2, 3),
             domains.type_ii(3), domains.type_iii(4)], ids=str)
def test_pivot_test_matches_eigvalsh(spec):
    # grams I - ZZ* whose smallest eigenvalue sits from far above down to
    # within rounding of the membership margin, on both sides
    rng = np.random.default_rng(7)
    count = 4000
    ws = domains.sample_tangents(spec, 0, count)
    ws = ws / domains.minkowski_gauge_many(spec, ws)[:, None, None]
    margin = domains.MEMBERSHIP_MARGIN
    gap = margin * (1.0 + np.sign(rng.standard_normal(count))
                    * 10.0 ** rng.uniform(-5.0, 0.5, count))
    gap[:count // 4] = rng.uniform(0.0, 1.0, count // 4)
    zs = np.sqrt(1.0 - gap)[:, None, None] * ws
    grams = np.eye(zs.shape[1]) - zs @ np.conj(np.swapaxes(zs, 1, 2))
    smallest = np.linalg.eigvalsh(grams)[:, 0]
    got = numkernel.smallest_eig_exceeds(grams, margin)
    assert got.any() and not got.all()
    differ = got != (smallest > margin)
    assert np.all(np.abs(smallest[differ] - margin) <= 1e-15)
    # the whole stack at once equals each matrix alone
    alone = [numkernel.smallest_eig_exceeds(g, margin) for g in grams[:50]]
    assert alone == list(got[:50])


def _exact_gram_top(w):
    """Largest eigenvalue of W W* (two rows) in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        rows = [[mpmath.mpc(complex(x)) for x in row] for row in w]
        a, d = (mpmath.fsum(abs(x) ** 2 for x in row) for row in rows)
        b = mpmath.fsum(x * mpmath.conj(y) for x, y in zip(*rows))
        return float((a + d) / 2 + mpmath.sqrt((a - d) ** 2 / 4 + abs(b) ** 2))


def test_gram_top_matches_lapack():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 5):
        w = _complex(rng, (5000, 2, n))
        w[:500, 1] = _complex(rng, (500, 1)) * w[:500, 0]            # rank 1
        w[500:1000, 1] = 0.0                                          # b = 0, d = 0
        w[1000:1500, 1] = 1j * w[1000:1500, 0]                        # a = d, rank 1
        if n > 1:
            w[1500:2000] = 0.0                                        # a = d, b = 0
            w[1500:2000, 0, 0] = w[1500:2000, 1, 1] = rng.standard_normal(500)
        want = np.linalg.eigvalsh(w @ np.conj(np.swapaxes(w, -1, -2)))[:, -1]
        got = numkernel.gram_top(w)
        # both carry rounding: LAPACK's reaches 4.7 eps against 40 digits,
        # the closed form's stays within 2 eps (below)
        assert np.all(np.abs(got - want) <= 6.0 * EPS * want), n
        exact = np.array([_exact_gram_top(x) for x in w[::50]])
        assert np.all(np.abs(got[::50] - exact) <= 2.0 * EPS * exact), n
        # one row: the squared vector norm
        one = w[:, :1]
        want = np.linalg.eigvalsh(one @ np.conj(np.swapaxes(one, -1, -2)))[:, -1]
        assert np.all(np.abs(numkernel.gram_top(one) - want) <= 6.0 * EPS * want), n
    # from three rows on, the LAPACK eigensolver itself
    w = _complex(rng, (50, 3, 4))
    want = np.linalg.eigvalsh(w @ np.conj(np.swapaxes(w, -1, -2)))[:, -1]
    assert np.array_equal(numkernel.gram_top(w), want)
