"""Origin-norm families: evaluation, certification, and comparison bounds."""
import numpy as np
import pytest

from cartanfinsler import domains, norms
from cartanfinsler.errors import StructureError


def haar_unitary(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def test_family_constructors_validate():
    with pytest.raises(StructureError):
        norms.bergman_family(0.0)
    with pytest.raises(StructureError):
        norms.tk_family(t=-1.0, k=2, c=4.0)
    with pytest.raises(StructureError):
        norms.tk_family(t=1.0, k=1, c=4.0)
    with pytest.raises(StructureError):
        norms.affine_phi(-0.5)


def test_g_norm_zero_vector():
    g = norms.tk_family(t=1.0, k=2, c=4.0)
    assert norms.eval_g_norm(g, np.zeros((2, 2))) == 0.0


def test_g_norm_rank_one_frozen_value():
    # two-term family, t=1, k=2, c=4 on a rank-1 unit: h1 = h2 = 1 -> f^2 = 4
    g = norms.tk_family(t=1.0, k=2, c=4.0)
    v = np.zeros((2, 2), dtype=complex)
    v[0, 0] = 1.0
    assert norms.eval_g_norm(g, v) == pytest.approx(4.0, abs=1e-12)
    # uniform two singular values 1/sqrt(2): h1 = 1, h2 = 1/sqrt(2)
    v = np.diag([1.0, 1.0]).astype(complex) / np.sqrt(2.0)
    want = 2.0 * (1.0 + 1.0 / np.sqrt(2.0))
    assert norms.eval_g_norm(g, v) == pytest.approx(want, abs=1e-12)


def test_g_norm_is_trace_for_bergman():
    g = norms.bergman_family(c=5.0)
    rng = np.random.default_rng(0)
    v = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    want = 5.0 * float(np.sum(np.abs(v) ** 2))
    assert norms.eval_g_norm(g, v) == pytest.approx(want, rel=1e-12)


def test_g_norm_unitary_invariance():
    g = norms.tk_family(t=0.7, k=3, c=2.0)
    rng = np.random.default_rng(1)
    v = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    b = haar_unitary(3, rng)
    c = haar_unitary(4, rng)
    f1 = norms.eval_g_norm(g, v)
    f2 = norms.eval_g_norm(g, b @ v @ c)
    assert f2 == pytest.approx(f1, rel=1e-12)


def test_g_norm_absolute_homogeneity():
    g = norms.tk_family(t=1.0, k=2, c=4.0)
    rng = np.random.default_rng(2)
    v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lam = 1.3 - 0.4j
    assert norms.eval_g_norm(g, lam * v) == pytest.approx(
        abs(lam) ** 2 * norms.eval_g_norm(g, v), rel=1e-12
    )


def test_g_norm_triangle_inequality():
    g = norms.tk_family(t=1.0, k=2, c=4.0)
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        w = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        fv = np.sqrt(norms.eval_g_norm(g, v))
        fw = np.sqrt(norms.eval_g_norm(g, w))
        fvw = np.sqrt(norms.eval_g_norm(g, v + w))
        assert fvw <= fv + fw + 1e-9


def test_g_norm_batched_matches_loop():
    g = norms.tk_family(t=0.5, k=2, c=3.0)
    rng = np.random.default_rng(4)
    vs = rng.standard_normal((20, 2, 3)) + 1j * rng.standard_normal((20, 2, 3))
    batch = norms.eval_g_norm_many(g, vs)
    for i in range(20):
        assert batch[i] == pytest.approx(norms.eval_g_norm(g, vs[i]), rel=1e-11)


def test_phi_norm_constant_is_euclidean():
    phi = norms.constant_phi(1.0)
    rng = np.random.default_rng(5)
    xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    want = float(np.sum(np.abs(xi) ** 2))
    assert norms.eval_phi_norm(phi, xi) == pytest.approx(want, rel=1e-13)
    assert norms.eval_phi_norm(phi, np.zeros(4)) == 0.0


def test_phi_norm_real_vectors_maximize_s():
    phi = norms.affine_phi(0.5)
    xi = np.array([0.3, -0.8, 0.1], dtype=complex)  # real entries: s = 1
    r = float(np.sum(xi.real**2))
    want = r * float(phi.value(1.0))
    assert norms.eval_phi_norm(phi, xi) == pytest.approx(want, rel=1e-12)


def test_phi_norm_rotation_invariance():
    phi = norms.affine_phi(0.5)
    rng = np.random.default_rng(6)
    xi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    q, r = np.linalg.qr(rng.standard_normal((5, 5)))
    q = q * np.sign(np.diagonal(r))
    for theta in (0.3, 1.9, 4.4):
        out = norms.eval_phi_norm(phi, np.exp(1j * theta) * xi @ q)
        assert out == pytest.approx(norms.eval_phi_norm(phi, xi), rel=1e-12)


def test_phi_norm_normalization_factor():
    phi = norms.affine_phi(1.0)
    xi = np.array([0.2, 0.4j], dtype=complex)
    assert norms.eval_phi_norm(phi, xi, normalization=6.0) == pytest.approx(
        6.0 * norms.eval_phi_norm(phi, xi), rel=1e-13
    )


def test_certify_scc_passes_builtins():
    assert norms.certify_scc(norms.bergman_family(4.0)).passed
    cert = norms.certify_scc(norms.tk_family(t=1.0, k=2, c=4.0))
    assert cert.passed
    assert cert.witness is None


def test_certify_scc_rejects_decreasing_direction():
    bad = norms.g_family_from_callable(
        lambda xi: xi[0] - 0.5 * xi[1], k=2, label="decreasing"
    )
    cert = norms.certify_scc(bad)
    assert not cert.passed
    assert cert.failed_condition == "gradient_positivity"
    assert cert.witness is not None
    assert cert.worst_margin < -0.4  # gradient entry is -0.5


def test_certify_sn_passes_builtins():
    assert norms.certify_sn(norms.constant_phi(2.0)).passed
    assert norms.certify_sn(norms.affine_phi(0.5)).passed


def test_certify_sn_rejects_steep_affine():
    cert = norms.certify_sn(norms.affine_phi(2.0))
    assert not cert.passed
    assert cert.failed_condition == "slope_bound"
    assert cert.witness is not None and cert.witness[0] > 0.5


def test_minkowski_bounds_bergman_degenerate():
    b = norms.minkowski_bounds(norms.bergman_family(3.0), domains.type_i(2, 2))
    assert b.c1 == pytest.approx(3.0, abs=1e-9)
    assert b.c2 == pytest.approx(3.0, abs=1e-9)


def test_minkowski_bounds_two_term_frozen():
    # m~ = 2: c1 = c(1 + t/sqrt(2))/(1+t) at the uniform profile, c2 = c at rank 1
    t, c = 1.0, 4.0
    b = norms.minkowski_bounds(norms.tk_family(t, 2, c), domains.type_i(2, 2))
    assert b.c1 == pytest.approx(c * (1 + t / np.sqrt(2)) / (1 + t), abs=1e-8)
    assert b.c2 == pytest.approx(c, abs=1e-8)
    np.testing.assert_allclose(b.argmin_profile, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-5)
    np.testing.assert_allclose(b.argmax_profile, [1.0, 0.0], atol=1e-5)


def test_minkowski_bounds_skew_doubling():
    # skew 4x4 tangents have paired singular values; unit trace means
    # 2(y1+y2) = 1, and the two-term bound constants follow the same formula
    t, c = 1.0, 4.0
    spec = norms.tk_family(t, 2, c)
    b = norms.minkowski_bounds(spec, domains.type_iii(4))
    rng = np.random.default_rng(7)
    worst_lo, worst_hi = np.inf, -np.inf
    for _ in range(300):
        v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        v = 0.5 * (v - v.T)
        v = v / np.linalg.norm(v)
        val = norms.eval_g_norm(spec, v)
        worst_lo = min(worst_lo, val)
        worst_hi = max(worst_hi, val)
    assert b.c1 <= worst_lo + 1e-9
    assert worst_hi <= b.c2 + 1e-9


def test_minkowski_bounds_sandwich_on_samples():
    spec = norms.tk_family(t=0.8, k=3, c=2.0)
    dom = domains.type_i(3, 4)
    b = norms.minkowski_bounds(spec, dom)
    rng = np.random.default_rng(8)
    for _ in range(500):
        v = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        v /= np.linalg.norm(v)
        val = norms.eval_g_norm(spec, v)
        assert b.c1 - 1e-9 <= val <= b.c2 + 1e-9


def test_minkowski_bounds_phi_family():
    # profile range of affine phi times the normalization
    b = norms.minkowski_bounds(norms.affine_phi(0.5), normalization=6.0)
    assert b.c1 == pytest.approx(6.0 / 1.5, rel=1e-9)
    assert b.c2 == pytest.approx(6.0, rel=1e-9)
    assert b.argmin_profile[0] == pytest.approx(0.0, abs=1e-12)
    assert b.argmax_profile[0] == pytest.approx(1.0, abs=1e-12)


def test_norm_equal_for_either_admissible_rotation():
    # two normalizing maps at the same base point differ by outer unitaries,
    # so every rotation-invariant norm pulls back identically
    from cartanfinsler import automorphisms as am

    spec = domains.type_i(2, 2)
    g = norms.tk_family(t=1.0, k=2, c=4.0)
    z0 = domains.sample_point(spec, seed=9)
    phi = am.normalizing_automorphism(spec, z0)
    rng = np.random.default_rng(10)
    wmat = haar_unitary(2, rng)
    ymat = haar_unitary(2, rng)
    rot = am.HoloMap(spec, spec, am.SandwichScale(wmat, ymat))
    phi2 = am.compose(rot, phi)
    assert np.max(np.abs(am.apply(phi2, z0))) < 1e-12
    for seed in range(5):
        v = domains.sample_tangent(spec, seed=20 + seed)
        f1 = norms.eval_g_norm(g, am.differential(phi, z0, v))
        f2 = norms.eval_g_norm(g, am.differential(phi2, z0, v))
        assert f2 == pytest.approx(f1, rel=1e-11)


def _profile_fns():
    rng = np.random.default_rng(11)
    weights = rng.uniform(0.5, 2.0, 4)
    tk = norms._g_profile_batch(norms.tk_family(1.0, 3, 4.0), doubled=False)
    return [
        ("tk_profile", tk),
        ("weighted_squares", lambda y: np.sum(weights[: y.shape[-1]] * y**2, axis=-1)),
        ("ratio", lambda y: (y @ weights[: y.shape[-1]]) / (1.0 + np.sum(y**3, axis=-1))),
    ]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_simplex_max_is_the_scan_maximum(dim):
    for name, fn in _profile_fns():
        for total in (1.0, 0.5):
            (_, _), (ymax, fmax) = norms.simplex_scan(fn, dim, total=total)
            y, f = norms.simplex_max(fn, dim, total=total)
            assert f == fmax, name  # bit for bit: same grid, same polish
            assert np.array_equal(y, ymax), name


def test_simplex_grid_is_ordered_and_cached():
    for dim, total in ((1, 1.0), (2, 1.0), (3, 0.5), (4, 1.0)):
        y, step = norms.simplex_grid(dim, total)
        assert step == total / (200 if dim <= 2 else 60)
        assert y.shape[1] == dim and np.all(y >= 0.0)
        assert np.all(np.diff(y, axis=1) <= 0.0)  # y_1 >= ... >= y_dim
        assert np.allclose(np.sum(y, axis=1), total, rtol=0, atol=1e-12)
        y[:] = -1.0  # the caller owns its copy; the cache is untouched
        again, _ = norms.simplex_grid(dim, total)
        assert np.all(again >= 0.0) and len(again) == len(y)
    # ordered compositions of 6 units into 3 parts: 600, 510, 420, 411, 330, 321, 222
    assert len(norms.simplex_grid(3, 1.0, resolution=6)[0]) == 7
    assert np.array_equal(norms.simplex_grid(1, 0.5)[0], [[0.5]])


def test_polish_climbs_from_a_grid_point():
    fn = lambda y: -np.sum((y - np.array([0.55, 0.3, 0.15])) ** 2, axis=-1)
    y, f = norms.polish(fn, np.array([1.0, 0.0, 0.0]), +1.0, 0.1)
    np.testing.assert_allclose(y, [0.55, 0.3, 0.15], atol=1e-10)
    assert f == pytest.approx(0.0, abs=1e-18)
    y, f = norms.polish(lambda y: -fn(y), np.array([1.0, 0.0, 0.0]), -1.0, 0.1)
    np.testing.assert_allclose(y, [0.55, 0.3, 0.15], atol=1e-10)


@pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 1, 3)])
def test_grad_rows_any_batch_shape(shape):
    rng = np.random.default_rng(12)
    h = rng.uniform(0.1, 1.0, shape + (3,))
    tk = norms.tk_family(1.0, 3, 4.0)
    g = norms.grad_rows(tk, h)
    assert g.shape == h.shape
    assert np.array_equal(g, np.broadcast_to(tk.grad(h[(0,) * len(shape)]), h.shape))
    # a family whose gradient depends on the point
    quad = norms.GFamilySpec(
        k=3, value=lambda xi: np.sum(xi**2, axis=-1),
        grad=lambda xi: 2.0 * np.asarray(xi), hess=lambda xi: 2.0 * np.eye(3),
        label="quadratic")
    assert np.array_equal(norms.grad_rows(quad, h), 2.0 * h)
    # a wrapped callable that only understands one point at a time
    custom = norms.g_family_from_callable(
        lambda xi: xi[0] + 0.5 * xi[1] ** 2 + xi[2] ** 3, k=3)
    rows = np.array([custom.grad(row) for row in h.reshape(-1, 3)])
    assert np.array_equal(norms.grad_rows(custom, h), rows.reshape(h.shape))
