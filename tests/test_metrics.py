import numpy as np
import pytest

import cartanfinsler.automorphisms as am
import cartanfinsler.curvature as curv
import cartanfinsler.domains as dom
import cartanfinsler.metrics as met
import cartanfinsler.norms as nrm
from cartanfinsler.errors import DomainError, StructureError


def _wirt(f, x, h, conjugate=False):
    def d4(direction):
        return (
            8.0 * (f(x + h * direction) - f(x - h * direction))
            - (f(x + 2 * h * direction) - f(x - 2 * h * direction))
        ) / (12.0 * h)
    sign = 1j if conjugate else -1j
    return 0.5 * (d4(1.0) + sign * d4(1j))


def _all_metrics():
    out = []
    for spec in [dom.type_i(2, 3), dom.type_ii(2), dom.type_iii(4)]:
        out.append(met.bergman_metric(spec))
        out.append(met.tk_metric(spec, 1.0, 2))
    ball = dom.type_iv(3)
    out.append(met.bergman_metric(ball))
    out.append(met.phi_metric(ball, nrm.affine_phi(0.5)))
    return out


def test_default_scales():
    assert met.default_scale(dom.type_i(2, 3)) == 5.0
    assert met.default_scale(dom.type_ii(2)) == 3.0
    assert met.default_scale(dom.type_iii(4)) == 6.0
    assert met.default_scale(dom.type_iv(3)) == 6.0


def test_constructor_domain_mismatch():
    with pytest.raises(StructureError):
        met.tk_metric(dom.type_iv(3), 1.0, 2)
    with pytest.raises(StructureError):
        met.phi_metric(dom.type_i(2, 2), nrm.constant_phi(1.0))


def test_disc_closed_form():
    disc = met.bergman_metric(dom.type_i(1, 1))  # c = 2
    z = np.array([[0.3 + 0.4j]])
    v = np.array([[1.2 - 0.5j]])
    expected = 2.0 * abs(v[0, 0]) ** 2 / (1.0 - abs(z[0, 0]) ** 2) ** 2
    assert met.eval2(disc, z, v) == pytest.approx(expected, rel=1e-13)


def test_origin_matches_origin_norm():
    for metric in _all_metrics():
        spec = metric.domain
        v = dom.sample_tangent(spec, seed=3)
        z0 = np.zeros(spec.ambient_shape, dtype=complex)
        got = met.eval2(metric, z0, v)
        if spec.kind == "IV":
            ref = nrm.eval_phi_norm(
                metric.family, v, normalization=metric.normalization
            )
        else:
            ref = metric.normalization * nrm.eval_g_norm(metric.family, v)
        assert got == pytest.approx(ref, rel=1e-12)


def test_lie_ball_origin_hermitian_value():
    ball = met.bergman_metric(dom.type_iv(3))  # phi = 1, normalization 6
    v = np.array([0.2 + 0.1j, -0.4j, 0.3])
    z0 = np.zeros(3, dtype=complex)
    assert met.eval2(ball, z0, v) == pytest.approx(
        6.0 * float(np.sum(np.abs(v) ** 2)), rel=1e-13
    )


def test_scaling_homogeneity():
    rng = np.random.default_rng(0)
    for metric in _all_metrics():
        spec = metric.domain
        z = dom.sample_point(spec, seed=5)
        v = dom.sample_tangent(spec, seed=6)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        f2 = met.eval2(metric, z, v)
        assert met.eval2(metric, z, lam * v) == pytest.approx(
            abs(lam) ** 2 * f2, rel=1e-12
        )


def test_eval2_many_matches_loop():
    for metric in _all_metrics():
        spec = metric.domain
        zs = np.stack([dom.sample_point(spec, seed=i) for i in range(6)])
        vs = np.stack([dom.sample_tangent(spec, seed=100 + i) for i in range(6)])
        batched = met.eval2_many(metric, zs, vs)
        single = np.array(
            [met.eval2(metric, zs[i], vs[i]) for i in range(6)]
        )
        assert np.allclose(batched, single, rtol=1e-13)


def test_eval_checks_inputs():
    metric = met.bergman_metric(dom.type_ii(2))
    outside = 1.5 * np.eye(2, dtype=complex)
    v = np.eye(2, dtype=complex)
    with pytest.raises(DomainError):
        met.eval2(metric, outside, v)
    z = np.zeros((2, 2), dtype=complex)
    with pytest.raises(StructureError):
        met.eval2(metric, z, np.array([[0.0, 1.0], [-1.0, 0.0]]))  # skew, not sym
    with pytest.raises(StructureError):
        met.eval2(metric, z, np.ones((2, 3)))
    with pytest.raises(DomainError):
        met.fundamental_tensor(metric, z, np.zeros((2, 2)))


def test_grad_vbar_matches_fd():
    for metric in [met.tk_metric(dom.type_i(2, 2), 1.0, 2),
                   met.tk_metric(dom.type_ii(2), 0.5, 3),
                   met.phi_metric(dom.type_iv(3), nrm.affine_phi(0.5))]:
        spec = metric.domain
        z = dom.sample_point(spec, seed=11)
        v = dom.sample_tangent(spec, seed=12)
        grad = met.grad_vbar(metric, z, v)
        coords = v if spec.kind == "IV" else dom.pack(spec, v)

        def value_at(c, s):
            w = coords.copy()
            w[s] = c
            vv = w if spec.kind == "IV" else dom.unpack(spec, w)
            return met.eval2(metric, z, vv, checked=False)

        fd = np.array(
            [_wirt(lambda c: value_at(c, s), coords[s], 1e-5, conjugate=True)
             for s in range(spec.dim)]
        )
        assert np.max(np.abs(grad - fd)) < 1e-7


@pytest.mark.parametrize(
    "metric", _all_metrics() + [met.tk_metric(dom.type_iii(4), 0.5, 3)],
    ids=lambda m: m.label)
def test_grad_vbar_many_matches_single_items(metric):
    spec = metric.domain
    zs = dom.sample_points(spec, range(5))
    vs = dom.sample_tangents(spec, range(10, 15))
    single = np.array([[met.grad_vbar(metric, z, v) for v in vs] for z in zs])
    assert single.shape == (5, 5, spec.dim)
    scale = np.max(np.abs(single))
    # paired stacks, and leading axes that broadcast against each other
    paired = met.grad_vbar_many(metric, zs, vs)
    diag = single[np.arange(5), np.arange(5)]
    assert np.max(np.abs(paired - diag)) <= 1e-13 * scale
    grid = met.grad_vbar_many(metric, zs[:, None], vs[None])
    assert np.max(np.abs(grid - single)) <= 1e-13 * scale


def test_wrapped_callable_family_runs_the_batched_paths():
    # g_family_from_callable differentiates numerically, one point at a time
    spec = dom.type_i(2, 2)
    tk = met.tk_metric(spec, 1.0, 2)
    w = 4.0 / 2.0
    custom = met.MetricSpec(spec, nrm.g_family_from_callable(
        lambda xi: w * (xi[..., 0] + xi[..., 1]), k=2))
    z = dom.sample_point(spec, seed=71)
    v = dom.sample_tangent(spec, seed=72)
    ref = met.grad_vbar(tk, z, v)
    assert np.max(np.abs(met.grad_vbar(custom, z, v) - ref)) <= 1e-8 * np.max(np.abs(ref))
    # one base difference of a numerical gradient: agreement to ~1e-7; the
    # horizontal part differences once more along the fiber and is noisier
    got = met.connection_sample(custom, z, v)
    ref = met.connection_sample(tk, z, v)
    assert np.max(np.abs(got.nonlinear - ref.nonlinear)) <= 1e-5
    assert np.all(np.isfinite(got.horizontal))
    vs = dom.sample_tangents(spec, range(5))
    np.testing.assert_allclose(curv.hsc_origin_many(custom, vs),
                               curv.hsc_origin_many(tk, vs), rtol=1e-8)


def _connection_oracle(metric, z, v):
    """Per-direction stencils: one grad_vbar call per base point and fiber."""
    spec = metric.domain
    basis = dom.tangent_basis(spec)
    h = met.BASE_STEP * (1.0 + np.linalg.norm(z))
    hstep = met.BASE_STEP * (1.0 + np.linalg.norm(v))

    def d4(f, x, step, direction):
        return (
            8.0 * (f(x + step * direction) - f(x - step * direction))
            - (f(x + 2.0 * step * direction) - f(x - 2.0 * step * direction))
        ) / (12.0 * step)

    def gamma_at(vv):
        grad = lambda zz: met.grad_vbar(metric, zz, vv)
        bmat = np.stack([0.5 * (d4(grad, z, h, t) - 1j * d4(grad, z, h, 1j * t))
                         for t in basis])
        hmat = met.fundamental_tensor(metric, z, vv).matrix
        return np.linalg.solve(hmat.T, bmat.T)

    horizontal = np.stack([d4(gamma_at, v, hstep, t) for t in basis], axis=1)
    return gamma_at(v), horizontal


@pytest.mark.parametrize("metric", [
    met.tk_metric(dom.type_i(2, 2), 1.0, 2),
    met.tk_metric(dom.type_ii(2), 1.0, 2),
    met.tk_metric(dom.type_iii(4), 1.0, 2),
    met.phi_metric(dom.type_iv(3), nrm.affine_phi(0.5)),
], ids=lambda m: m.label)
def test_connection_sample_matches_per_direction_oracle(metric):
    spec = metric.domain
    z = dom.sample_point(spec, seed=61)
    v = dom.sample_tangent(spec, seed=62)
    v = v / np.linalg.norm(v)
    cs = met.connection_sample(metric, z, v)
    nonlinear, horizontal = _connection_oracle(metric, z, v)
    assert cs.nonlinear.shape == nonlinear.shape == (spec.dim, spec.dim)
    assert cs.horizontal.shape == horizontal.shape == (spec.dim,) * 3
    assert np.max(np.abs(cs.nonlinear - nonlinear)) <= 1e-8
    assert np.max(np.abs(cs.horizontal - horizontal)) <= 1e-8


def test_fundamental_tensor_properties():
    for metric in _all_metrics():
        spec = metric.domain
        z = dom.sample_point(spec, seed=21)
        v = dom.sample_tangent(spec, seed=22)
        ft = met.fundamental_tensor(metric, z, v)
        h = ft.matrix
        assert ft.mode == "analytic"
        assert np.max(np.abs(h - h.conj().T)) < 1e-9
        eigs = np.linalg.eigvalsh(h)
        assert eigs[0] > 0.0  # strongly pseudoconvex at interior data
        c = v if spec.kind == "IV" else dom.pack(spec, v)
        euler = np.einsum("st,s,t->", h, c, np.conj(c)).real
        assert euler == pytest.approx(met.eval2(metric, z, v), rel=1e-10)


def test_fundamental_tensor_matches_fd_of_grad():
    metric = met.tk_metric(dom.type_iii(4), 1.0, 2)
    spec = metric.domain
    z = dom.sample_point(spec, seed=31)
    v = dom.sample_tangent(spec, seed=32)
    h = met.fundamental_tensor(metric, z, v).matrix
    c = dom.pack(spec, v)
    fd = np.zeros_like(h)
    for i in range(spec.dim):
        def gv(ci, i=i):
            w = c.copy()
            w[i] = ci
            return met.grad_vbar(metric, z, dom.unpack(spec, w))
        fd[i, :] = _wirt(gv, c[i], 1e-5)
    assert np.max(np.abs(h - fd)) < 1e-7


def test_bergman_tensor_is_hermitian_form():
    # quadratic metrics: tensor depends only on the base point
    metric = met.bergman_metric(dom.type_i(2, 2))
    z = dom.sample_point(metric.domain, seed=41)
    h1 = met.fundamental_tensor(metric, z, dom.sample_tangent(metric.domain, seed=1)).matrix
    h2 = met.fundamental_tensor(metric, z, dom.sample_tangent(metric.domain, seed=2)).matrix
    assert np.max(np.abs(h1 - h2)) < 1e-8
    origin = np.zeros((2, 2), dtype=complex)
    h0 = met.fundamental_tensor(metric, origin, np.eye(2, dtype=complex)).matrix
    assert np.allclose(h0, 4.0 * np.eye(4), atol=1e-12)  # c = m + n = 4


def test_two_term_tensor_depends_on_fiber():
    metric = met.tk_metric(dom.type_i(2, 2), 1.0, 2)
    z = np.zeros((2, 2), dtype=complex)
    h1 = met.fundamental_tensor(metric, z, dom.sample_tangent(metric.domain, seed=1)).matrix
    h2 = met.fundamental_tensor(metric, z, dom.sample_tangent(metric.domain, seed=2)).matrix
    assert np.max(np.abs(h1 - h2)) > 1e-3


def test_invariance_under_automorphisms():
    for metric in _all_metrics():
        dev = met.verify_invariance(metric, n_maps=5, n_samples=10, seed=5)
        assert dev < 1e-9


def test_disc_connection_oracle():
    disc = met.bergman_metric(dom.type_i(1, 1))
    z = np.array([[0.3 + 0.2j]])
    v = np.array([[0.7 - 0.4j]])
    gamma = 2.0 * np.conj(z[0, 0]) / (1.0 - abs(z[0, 0]) ** 2)
    cs = met.connection_sample(disc, z, v)
    assert cs.nonlinear[0, 0] == pytest.approx(gamma * v[0, 0], abs=1e-9)
    assert cs.horizontal[0, 0, 0] == pytest.approx(gamma, abs=1e-7)
    ref = met.hermitian_connection(disc, z)
    assert ref[0, 0, 0] == pytest.approx(gamma, abs=1e-10)


def test_kahler_berwald_report():
    metric = met.tk_metric(dom.type_ii(2), 1.0, 2)
    rep = met.verify_kahler_berwald(metric, n_base=1, n_fiber=3, seed=2)
    assert rep.mixed_residual <= 1e-6
    assert rep.gamma_v_variation <= 1e-5
    assert rep.gamma_symmetry <= 1e-5
    assert rep.gamma_vs_hermitian <= 1e-5


def test_geodesic_disc_oracle():
    disc = met.bergman_metric(dom.type_i(1, 1))
    v0 = np.array([[0.5 * np.exp(0.3j)]])
    ts, zs, ws = met.geodesic(disc, np.zeros((1, 1), dtype=complex), v0, 5.0, 2000)
    oracle = np.exp(0.3j) * np.tanh(0.5 * ts)
    assert np.max(np.abs(zs[:, 0, 0] - oracle)) < 1e-8
    speeds = np.sqrt(met.eval2_many(disc, zs, ws))
    assert np.max(np.abs(speeds - speeds[0]) / speeds[0]) < 1e-6


def test_geodesic_speed_constant_matrix_domain():
    metric = met.bergman_metric(dom.type_i(2, 2))
    z0 = dom.sample_point(metric.domain, seed=51)
    v0 = 0.3 * dom.sample_tangent(metric.domain, seed=52)
    ts, zs, ws = met.geodesic(metric, z0, v0, 2.0, 400)
    speeds = np.sqrt(met.eval2_many(metric, zs, ws))
    assert np.max(np.abs(speeds - speeds[0]) / speeds[0]) < 1e-8
    for pt in zs[:: 80]:
        assert dom.contains(metric.domain, pt)
