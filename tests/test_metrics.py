import re

import numpy as np
import pytest

import cartanfinsler.automorphisms as am
import cartanfinsler.curvature as curv
import cartanfinsler.domains as dom
import cartanfinsler.metrics as met
import cartanfinsler.norms as nrm
from cartanfinsler.errors import DomainError, StructureError
from oracles import (g_family_from_callable, kahler_berwald_per_base, lapack_frame,
                     wirtinger_base_fd)

# _frame's P and Q stay within FRAME_C * kappa * eps of the LAPACK frame,
# relative to the largest entry, kappa = 1/(1 - gauge^2); measured at most
# 1.12 on 200 points per type and gauge
FRAME_C = 4.0

# F(Z; V) = F(0; dphi_Z V) for the normalizing map phi at Z holds within
# INVARIANCE_C[type] * kappa * eps relative to F at 200 sampled directions
# scaled to each gauge 0.9, ..., 1 - 1e-8.  Measured at most 1.38 (I),
# 0.36 (II), 0.38 (III) and 64.3 (IV).  The Lie-ball maximum is on IV(3) at
# a near-real direction (spectral values l2/l1 = 0.966); IV(5) bergman reads
# at most 20.8, and the median over the directions is about 1 on both.
INVARIANCE_C = {"I": 3.0, "II": 2.0, "III": 1.2, "IV": 100.0}


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
            ref = float(nrm.eval_phi_norm_many(
                metric.family, v, normalization=metric.normalization
            ))
        else:
            # g at the power means of numpy's singular values
            y = np.linalg.svd(v, compute_uv=False) ** 2
            traces = [np.sum(y**a) for a in range(1, metric.family.k + 1)]
            ref = metric.normalization * float(
                metric.family.value(nrm.power_means(np.array(traces))))
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


@pytest.mark.parametrize(
    "spec", [dom.type_i(1, 3), dom.type_i(2, 3), dom.type_ii(3), dom.type_iii(4)],
    ids=str)
def test_frame_matches_lapack_oracle_up_to_the_boundary(spec):
    zs = dom.sample_points(spec, range(200))
    zs = zs / dom.minkowski_gauge_many(spec, zs)[:, None, None]
    for k in range(1, 9):
        gauge = 1.0 - 10.0**-k
        budget = FRAME_C * np.finfo(float).eps / (1.0 - gauge**2)
        for got, want in zip(met._frame(gauge * zs), lapack_frame(gauge * zs)):
            err = np.max(np.abs(got - want), axis=(-2, -1))
            assert np.all(err <= budget * np.max(np.abs(want), axis=(-2, -1))), k


@pytest.mark.parametrize("metric", [
    met.tk_metric(dom.type_i(2, 3), 1.0, 2),
    met.bergman_metric(dom.type_ii(3)),
    met.tk_metric(dom.type_iii(4), 0.5, 3),
    met.phi_metric(dom.type_iv(3), nrm.affine_phi(0.5)),
    met.bergman_metric(dom.type_iv(5)),
], ids=lambda m: m.label)
def test_invariance_identity_up_to_the_boundary(metric):
    spec = metric.domain
    ds = dom.sample_points(spec, range(200))
    ds = ds / dom.minkowski_gauge_many(spec, ds).reshape((-1,) + (1,) * (ds.ndim - 1))
    vs = dom.sample_tangents(spec, range(1000, 1200))
    for k in range(1, 9):
        gauge = 1.0 - 10.0**-k
        zs = gauge * ds
        _, ws = am.push(am.normalizing_automorphism(spec, zs), zs, vs)
        f = np.sqrt(met.eval2_many(metric, zs, vs))
        f0 = np.sqrt(met.eval2_many(metric, np.zeros_like(zs), ws))
        budget = INVARIANCE_C[spec.kind] * np.finfo(float).eps / (1.0 - gauge**2)
        assert np.max(np.abs(f0 - f) / f) <= budget, k


def test_eval2_many_raises_at_a_point_that_is_not_interior():
    # the contract: interior inputs; a matrix point whose gram I - ZZ* is not
    # positive definite, or a Lie-ball point with Delta <= 0 or |z|^2 >= 1,
    # raises DomainError instead of giving a value
    for metric in _all_metrics():
        spec = metric.domain
        z = dom.sample_point(spec, seed=3)
        v = dom.sample_tangent(spec, seed=4)
        z_out = 1.5 * z / dom.minkowski_gauge(spec, z)
        with pytest.raises(DomainError):
            met.eval2_many(metric, np.stack([z, z_out]), np.stack([v, v]))


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


@pytest.mark.parametrize("spec, word", [(dom.type_ii(2), "symmetric"),
                                        (dom.type_iii(4), "skew-symmetric")], ids=str)
def test_points_and_tangents_share_one_symmetry_rule(spec, word):
    # a base point and a tangent both break their class past SYMMETRY_ATOL
    # times max(1, largest entry), each with its own message
    metric = met.bergman_metric(spec)
    z = dom.sample_point(spec, seed=1)
    v = dom.sample_tangent(spec, seed=2)
    v = 0.5 * v / np.max(np.abs(v))
    bump = np.zeros(spec.ambient_shape)
    bump[0, 1] = dom.SYMMETRY_ATOL
    met.eval2(metric, z + 0.5 * bump, v + 0.5 * bump)
    with pytest.raises(StructureError, match=re.escape(f"Z must be {word} for {spec}")):
        met.eval2(metric, z + 2.0 * bump, v)
    with pytest.raises(StructureError, match=f"^tangent must be {word}$"):
        met.eval2(metric, z, v + 2.0 * bump)


def test_grad_vbar_matches_fd():
    for metric in [met.tk_metric(dom.type_i(2, 2), 1.0, 2),
                   met.tk_metric(dom.type_ii(2), 0.5, 3),
                   met.phi_metric(dom.type_iv(3), nrm.affine_phi(0.5))]:
        spec = metric.domain
        z = dom.sample_point(spec, seed=11)
        v = dom.sample_tangent(spec, seed=12)
        grad = met.grad_vbar_pair(metric, z, v)[0]
        coords = v if spec.kind == "IV" else dom.pack(spec, v)

        def value_at(c, s):
            w = coords.copy()
            w[s] = c
            vv = w if spec.kind == "IV" else dom.unpack(spec, w)
            return met.eval2(metric, z, vv)

        fd = np.array(
            [_wirt(lambda c: value_at(c, s), coords[s], 1e-5, conjugate=True)
             for s in range(spec.dim)]
        )
        assert np.max(np.abs(grad - fd)) < 1e-7


@pytest.mark.parametrize(
    "metric", _all_metrics() + [met.tk_metric(dom.type_iii(4), 0.5, 3)],
    ids=lambda m: m.label)
def test_grad_vbar_many_matches_single_items(metric):
    # both values of grad_vbar_pair; the base derivative's direction axis
    # leads, and is moved next to the packed axis here
    spec = metric.domain
    zs = dom.sample_points(spec, range(5))
    vs = dom.sample_tangents(spec, range(10, 15))
    pairs = [[met.grad_vbar_pair(metric, z, v) for v in vs] for z in zs]
    single = [np.array([[pair[i] for pair in row] for row in pairs]) for i in (0, 1)]
    assert single[0].shape == (5, 5, spec.dim)
    assert single[1].shape == (5, 5, spec.dim, spec.dim)
    # paired stacks, and leading axes that broadcast against each other
    paired = met.grad_vbar_pair(metric, zs, vs)
    grid = met.grad_vbar_pair(metric, zs[:, None], vs[None])
    for i in (0, 1):
        got_paired, got_grid = paired[i], grid[i]
        if i == 1:
            got_paired, got_grid = (np.moveaxis(x, 0, -2) for x in (got_paired, got_grid))
        scale = np.max(np.abs(single[i]))
        diag = single[i][np.arange(5), np.arange(5)]
        assert np.max(np.abs(got_paired - diag)) <= 1e-13 * scale
        assert np.max(np.abs(got_grid - single[i])) <= 1e-13 * scale


def test_wrapped_callable_family_runs_the_batched_paths():
    # g_family_from_callable differentiates numerically, one point at a time
    spec = dom.type_i(2, 2)
    tk = met.tk_metric(spec, 1.0, 2)
    w = 4.0 / 2.0
    custom = met.MetricSpec(spec, g_family_from_callable(
        lambda xi: w * (xi[..., 0] + xi[..., 1]), k=2))
    z = dom.sample_point(spec, seed=71)
    v = dom.sample_tangent(spec, seed=72)
    ref = met.grad_vbar_pair(tk, z, v)[0]
    assert np.max(np.abs(met.grad_vbar_pair(custom, z, v)[0] - ref)) <= 1e-8 * np.max(np.abs(ref))
    # the base derivative reads g's numerical Hessian: agreement to ~3e-16 here
    got = met.connection_sample(custom, z, v[None])
    ref = met.connection_sample(tk, z, v[None])
    assert np.max(np.abs(got - ref)) <= 1e-5
    vs = dom.sample_tangents(spec, range(5))
    np.testing.assert_allclose(curv.hsc_origin_many(custom, vs),
                               curv.hsc_origin_many(tk, vs), rtol=1e-8)


def _connection_oracle(metric, z, v):
    """N from the 4-point base stencil of the fiber gradient, one fiber."""
    grad = lambda zz: met.grad_vbar_pair(metric, zz, v)[0]
    bmat = wirtinger_base_fd(grad, metric.domain, z)
    hmat = met.fundamental_tensor(metric, z, v)
    return np.linalg.solve(hmat.T, bmat.T)


def _connection_metrics():
    out = []
    for spec in [dom.type_i(2, 2), dom.type_i(2, 3), dom.type_i(1, 3), dom.type_ii(2),
                 dom.type_iii(4)]:
        out += [met.bergman_metric(spec), met.tk_metric(spec, 1.0, 2),
                met.tk_metric(spec, 0.5, 3)]
    for ball in [dom.type_iv(3), dom.type_iv(5)]:
        out += [met.bergman_metric(ball), met.phi_metric(ball, nrm.affine_phi(0.5)),
                met.phi_metric(ball, nrm.affine_phi(2.0))]
    return out


@pytest.mark.parametrize("metric", _connection_metrics(), ids=lambda m: m.label)
def test_connection_sample_matches_per_direction_oracle(metric):
    spec = metric.domain
    z = dom.sample_point(spec, seed=61)
    vs = dom.sample_tangents(spec, [62, 63, 64])
    vs = np.stack([v / np.linalg.norm(v) for v in vs])
    nonlinear = met.connection_sample(metric, z, vs)
    assert nonlinear.shape == (3, spec.dim, spec.dim)
    for got, v in zip(nonlinear, vs):
        assert np.max(np.abs(got - _connection_oracle(metric, z, v))) <= 1e-8


def _fundamental_tensor_oracle(metric, z, v):
    """Per-fiber fundamental tensor: one (Z, V) pair, scalar family calls."""
    spec = metric.domain
    if spec.kind == "IV":
        m, delta, q, p, s = met.lie_fiber(z, v)
        phi = float(metric.family.value(s))
        d1 = float(metric.family.d1(s))
        d2 = float(metric.family.d2(s))
        norm = metric.normalization
        g_q = (norm / delta**2) * (phi - 2.0 * s * d1)
        g_p2 = norm * d1 / q
        g_qq = (norm / delta**2) * (2.0 * s / q) * (d1 + 2.0 * s * d2)
        g_qp2 = -norm * (d1 + 2.0 * s * d2) / q**2
        g_p2p2 = norm * d2 * delta**2 / q**3
        dq_v = m @ np.conj(v)
        dq_vb = v @ m
        dp2_v = 2.0 * v * np.conj(p)
        dp2_vb = 2.0 * p * np.conj(v)
        return (
            g_qq * np.outer(dq_v, dq_vb)
            + g_qp2 * (np.outer(dq_v, dp2_vb) + np.outer(dp2_v, dq_vb))
            + g_p2p2 * np.outer(dp2_v, dp2_vb)
            + g_q * m
            + g_p2 * 4.0 * np.outer(v, np.conj(v))
        )
    p, q, pvq, powers, s = met._matrix_fiber_parts(metric, z, v)
    k = metric.family.k
    h = nrm.power_means(s)
    g_grad = np.atleast_1d(np.asarray(metric.family.grad(h), dtype=float))
    g_hess = np.atleast_2d(np.asarray(metric.family.hess(h), dtype=float))
    qvs = q @ v.conj().T
    ds_vbar, ds_v, dh_vbar, dh_v = ([None] * (k + 1) for _ in range(4))
    for a in range(1, k + 1):
        ds_vbar[a] = a * (powers[a - 1] @ pvq)
        ds_v[a] = a * (qvs @ powers[a - 1] @ p).T
        coeff = s[a - 1] ** (1.0 / a - 1.0) / a
        dh_vbar[a] = coeff * ds_vbar[a]
        dh_v[a] = coeff * ds_v[a]
    hess_amb = np.zeros(v.shape * 2, dtype=np.complex128)
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            if g_hess[a - 1, b - 1] != 0.0:
                hess_amb += g_hess[a - 1, b - 1] * np.multiply.outer(dh_v[a], dh_vbar[b])
    for a in range(1, k + 1):
        ga = g_grad[a - 1]
        if ga == 0.0:
            continue
        c1 = (1.0 / a) * (1.0 / a - 1.0) * s[a - 1] ** (1.0 / a - 2.0)
        hess_amb += ga * c1 * np.multiply.outer(ds_v[a], ds_vbar[a])
        c2 = (1.0 / a) * s[a - 1] ** (1.0 / a - 1.0)
        block = np.zeros_like(hess_amb)
        for u in range(a - 1):
            right = qvs @ powers[a - 2 - u] @ pvq
            block += np.einsum("ai,jb->ijab", powers[u] @ p, right)
        block += np.einsum("ai,jb->ijab", powers[a - 1] @ p, q)
        hess_amb += ga * c2 * a * block
    hess_amb *= metric.normalization
    basis = dom.tangent_basis(spec)
    return np.einsum("sij,tab,ijab->st", basis, basis, hess_amb)


def _curved_family(spec, k):
    """g = c sqrt(xi_1^2 + ... + xi_k^2): a family whose Hessian is not 0."""
    c = met.default_scale(spec)
    return met.MetricSpec(spec, g_family_from_callable(
        lambda xi: c * np.sqrt(np.sum(np.asarray(xi) ** 2, axis=-1)), k=k,
        label=f"curved(k={k})"))


@pytest.mark.parametrize("metric", _all_metrics() + [
    met.tk_metric(dom.type_i(1, 3), 1.0, 2),
    met.tk_metric(dom.type_i(2, 2), 1.0, 3),
    met.tk_metric(dom.type_iii(4), 0.5, 3),
    met.phi_metric(dom.type_iv(4), nrm.affine_phi(0.5)),
    _curved_family(dom.type_i(2, 2), 2),
    _curved_family(dom.type_iii(4), 3),
], ids=lambda m: m.label)
def test_fundamental_tensor_matches_per_fiber_oracle(metric):
    spec = metric.domain
    zs = dom.sample_points(spec, range(3))
    vs = dom.sample_tangents(spec, range(10, 22)).reshape((3, 4) + spec.ambient_shape)
    got = met.fundamental_tensor(metric, zs[:, None], vs)
    assert got.shape == (3, 4, spec.dim, spec.dim)
    for b in range(3):
        for f in range(4):
            ref = _fundamental_tensor_oracle(metric, zs[b], vs[b, f])
            ulp = np.spacing(np.max(np.abs(ref)))
            assert np.max(np.abs(got[b, f] - ref)) <= 4.0 * ulp
    # one pair still gives one (dim, dim) matrix
    one = met.fundamental_tensor(metric, zs[0], vs[0, 0])
    assert one.shape == (spec.dim, spec.dim)
    assert np.max(np.abs(one - got[0, 0])) <= 4.0 * np.spacing(np.max(np.abs(one)))


@pytest.mark.parametrize("spec", [dom.type_i(2, 3), dom.type_ii(2), dom.type_iii(4),
                                  dom.type_iv(3)], ids=str)
def test_fundamental_tensor_rejects_a_zero_fiber_in_a_stack(spec):
    # every view of the fiber jet rejects it, the gradient included
    metric = met.bergman_metric(spec)
    zs = dom.sample_points(spec, range(2))
    vs = dom.sample_tangents(spec, range(5, 11)).reshape((2, 3) + spec.ambient_shape)
    met.fundamental_tensor(metric, zs[:, None], vs)  # all fibers nonzero
    met.grad_vbar_pair(metric, zs[:, None], vs)
    met.connection_sample(metric, zs, vs)
    vs[1, 2] = 0.0
    with pytest.raises(DomainError):
        met.fundamental_tensor(metric, zs[:, None], vs)
    with pytest.raises(DomainError):
        met.grad_vbar_pair(metric, zs[:, None], vs)
    with pytest.raises(DomainError):
        met.connection_sample(metric, zs, vs)


@pytest.mark.parametrize("metric", [
    met.tk_metric(dom.type_i(1, 3), 1.0, 2),
    met.tk_metric(dom.type_iii(4), 1.0, 2),
    met.phi_metric(dom.type_iv(3), nrm.affine_phi(0.5)),
], ids=lambda m: m.label)
def test_connection_sample_over_base_points_matches_per_direction_oracle(metric):
    # a stack of base points, each with its own fibers and its own step
    spec = metric.domain
    zs = dom.sample_points(spec, [65, 66])
    vs = dom.sample_tangents(spec, range(67, 73)).reshape((2, 3) + spec.ambient_shape)
    nonlinear = met.connection_sample(metric, zs, vs)
    assert nonlinear.shape == (2, 3, spec.dim, spec.dim)
    for b in range(2):
        for f in range(3):
            ref = _connection_oracle(metric, zs[b], vs[b, f])
            assert np.max(np.abs(nonlinear[b, f] - ref)) <= 1e-8


def test_fundamental_tensor_properties():
    for metric in _all_metrics():
        spec = metric.domain
        z = dom.sample_point(spec, seed=21)
        v = dom.sample_tangent(spec, seed=22)
        h = met.fundamental_tensor(metric, z, v)
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
    h = met.fundamental_tensor(metric, z, v)
    c = dom.pack(spec, v)
    fd = np.zeros_like(h)
    for i in range(spec.dim):
        def gv(ci, i=i):
            w = c.copy()
            w[i] = ci
            return met.grad_vbar_pair(metric, z, dom.unpack(spec, w))[0]
        fd[i, :] = _wirt(gv, c[i], 1e-5)
    assert np.max(np.abs(h - fd)) < 1e-7


def test_bergman_tensor_is_hermitian_form():
    # quadratic metrics: tensor depends only on the base point
    metric = met.bergman_metric(dom.type_i(2, 2))
    z = dom.sample_point(metric.domain, seed=41)
    h1 = met.fundamental_tensor(metric, z, dom.sample_tangent(metric.domain, seed=1))
    h2 = met.fundamental_tensor(metric, z, dom.sample_tangent(metric.domain, seed=2))
    assert np.max(np.abs(h1 - h2)) < 1e-8
    origin = np.zeros((2, 2), dtype=complex)
    h0 = met.fundamental_tensor(metric, origin, np.eye(2, dtype=complex))
    assert np.allclose(h0, 4.0 * np.eye(4), atol=1e-12)  # c = m + n = 4


def test_two_term_tensor_depends_on_fiber():
    metric = met.tk_metric(dom.type_i(2, 2), 1.0, 2)
    z = np.zeros((2, 2), dtype=complex)
    h1 = met.fundamental_tensor(metric, z, dom.sample_tangent(metric.domain, seed=1))
    h2 = met.fundamental_tensor(metric, z, dom.sample_tangent(metric.domain, seed=2))
    assert np.max(np.abs(h1 - h2)) > 1e-3


def test_invariance_under_automorphisms():
    for metric in _all_metrics():
        dev = met.verify_invariance(metric, 10, 5)
        assert dev < 1e-9


def _invariance_oracle(metric, n, seed):
    """Per-map loop: one random_automorphism, apply, differential and
    eval2_many per map, on the draws verify_invariance makes."""
    spec = metric.domain
    rng = np.random.default_rng(seed)
    zs = dom.sample_points(spec, rng.integers(2**63, size=n))
    vs = dom.sample_tangents(spec, rng.integers(2**63, size=n))
    base = met.eval2_many(metric, zs, vs)
    worst = 0.0
    for s in rng.integers(2**63, size=n):
        phi = am.random_automorphism(spec, s)
        moved = met.eval2_many(metric, am.apply(phi, zs), am.differential(phi, zs, vs))
        worst = max(worst, float(np.max(np.abs(moved - base) / base)))
    return worst


@pytest.mark.parametrize("metric", [
    met.tk_metric(dom.type_i(1, 3), 1.0, 2),
    met.bergman_metric(dom.type_ii(2)),
    met.tk_metric(dom.type_i(2, 3), 1.0, 2),
    met.tk_metric(dom.type_iii(4), 1.0, 2),
    met.bergman_metric(dom.type_iv(3)),
    met.phi_metric(dom.type_iv(3), nrm.affine_phi(2.0)),
    met.bergman_metric(dom.type_iv(5)),
], ids=lambda m: m.label)
@pytest.mark.parametrize("seed", [1, 7, 12345])
def test_stacked_invariance_matches_per_map_oracle(metric, seed):
    got = met.verify_invariance(metric, 12, seed)
    ref = _invariance_oracle(metric, 12, seed)
    if metric.domain.kind == "IV":
        assert abs(got - ref) <= 1e-14
    else:
        assert got == ref


def test_disc_connection_oracle():
    disc = met.bergman_metric(dom.type_i(1, 1))
    z = np.array([[0.3 + 0.2j]])
    vs = np.array([[[0.7 - 0.4j]], [[-0.2 + 0.9j]], [[1.3 + 0.1j]]])
    gamma = 2.0 * np.conj(z[0, 0]) / (1.0 - abs(z[0, 0]) ** 2)
    nonlinear = met.connection_sample(disc, z, vs)
    np.testing.assert_allclose(nonlinear[:, 0, 0], gamma * vs[:, 0, 0], rtol=0,
                               atol=1e-9)
    ref = met.hermitian_connection(disc, z)
    assert ref[0, 0, 0] == pytest.approx(gamma, abs=1e-10)


def test_kahler_berwald_report():
    # dim 10 > N_FIBER: the fit needs dim + 1 = 11 fibers per base point
    metric = met.tk_metric(dom.type_i(2, 5), 1.0, 2)
    rep = met.verify_kahler_berwald(metric, seed=2)
    assert rep.mixed_residual <= 1e-6
    assert rep.gamma_v_variation <= 1e-12
    assert rep.gamma_symmetry <= 1e-12
    assert rep.gamma_vs_hermitian <= 1e-12
    assert rep.fibers == met.N_BASE * 11 == 33


@pytest.mark.parametrize("spec", [dom.type_i(1, 3), dom.type_iii(4)], ids=str)
def test_kahler_berwald_counts_one_fundamental_tensor_per_fiber(spec, monkeypatch):
    calls = []
    real = met._matrix_fiber_parts

    def counted(metric, zs, vs):
        out = real(metric, zs, vs)
        calls.append(out[-1].shape[:-1])
        return out

    monkeypatch.setattr(met, "_matrix_fiber_parts", counted)
    rep = met.verify_kahler_berwald(met.tk_metric(spec, 1.0, 2))
    # one frame for the mixed row at the origin, then one whose stack holds
    # every fiber of the three base points
    assert calls == [(3,), (3, max(10, spec.dim + 1))]
    assert rep.fibers == 3 * max(10, spec.dim + 1) == 30


def _kahler_berwald_metrics():
    # the seven metrics of test_05
    out = []
    for spec in [dom.type_i(2, 2), dom.type_ii(2), dom.type_iii(4)]:
        out += [met.bergman_metric(spec), met.tk_metric(spec, 1.0, 2)]
    return out + [met.phi_metric(dom.type_iv(3), nrm.affine_phi(0.5))]


@pytest.mark.parametrize("metric", _kahler_berwald_metrics(), ids=lambda m: m.label)
def test_kahler_berwald_matches_per_base_oracle(metric):
    # one stacked pinv fit and one hermitian_connection call against a
    # least-squares fit and a reference connection per base point
    for seed in range(20):
        got = met.verify_kahler_berwald(metric, seed=seed)
        ref = kahler_berwald_per_base(metric, seed=seed)
        assert got.fibers == ref.fibers
        assert got.mixed_residual == ref.mixed_residual
        for row in ("gamma_v_variation", "gamma_symmetry", "gamma_vs_hermitian"):
            assert abs(getattr(got, row) - getattr(ref, row)) <= 1e-13, (seed, row)


def _hermitian_connection_stencil(metric, z):
    """Oracle: Gamma_H from the 4-point base stencil of H = norm M / Delta^2."""
    def hmat_at(zz):
        m, delta = met._lie_ball_matrix(zz)
        return metric.normalization * m / np.asarray(delta**2)[..., None, None]

    dh = wirtinger_base_fd(hmat_at, metric.domain, z)
    return np.transpose(dh @ np.linalg.inv(hmat_at(z)), (2, 1, 0))


def _hermitian_connection_pair_loop(metric, z):
    """Oracle: Gamma(U)V = U Z* P V + V Q Z* U, one basis pair at a time."""
    spec = metric.domain
    basis = dom.tangent_basis(spec)
    zc = z.conj().T
    p = np.linalg.inv(np.eye(z.shape[0]) - z @ zc)
    q = np.linalg.inv(np.eye(z.shape[1]) - zc @ z)
    gamma = np.empty((spec.dim,) * 3, dtype=np.complex128)
    for i, u in enumerate(basis):
        for j, w in enumerate(basis):
            gamma[:, j, i] = dom.pack(spec, u @ zc @ p @ w + w @ q @ zc @ u)
    return gamma


@pytest.mark.parametrize("n", [2, 3, 5])
def test_lie_ball_hermitian_connection_matches_stencil_oracle(n):
    metric = met.bergman_metric(dom.type_iv(n))
    zs = dom.sample_points(metric.domain, range(20))
    stacked = met.hermitian_connection(metric, zs)
    for z, got_stacked in zip(zs, stacked):
        ref = _hermitian_connection_stencil(metric, z)
        got = met.hermitian_connection(metric, z)
        assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))
        assert np.array_equal(got_stacked, got)


@pytest.mark.parametrize("spec", [dom.type_i(2, 3), dom.type_ii(3), dom.type_iii(4),
                                  dom.type_iv(3)], ids=str)
def test_hermitian_gamma_is_symmetric(spec):
    z = dom.sample_point(spec, seed=81)
    us = dom.sample_tangents(spec, range(82, 88))
    ws = dom.sample_tangents(spec, range(88, 94))
    uw = met.hermitian_gamma(spec, z, us[:, None], ws[None])
    wu = met.hermitian_gamma(spec, z, ws[None], us[:, None])
    assert uw.shape == (6, 6) + spec.ambient_shape
    assert np.max(np.abs(uw - wu)) <= 1e-13 * np.max(np.abs(uw))


@pytest.mark.parametrize("spec", [dom.type_i(2, 3), dom.type_ii(3), dom.type_iii(4)],
                         ids=str)
def test_hermitian_connection_matches_pair_loop(spec):
    metric = met.bergman_metric(spec)
    zs = dom.sample_points(spec, range(5))
    stacked = met.hermitian_connection(metric, zs)
    for z, got_stacked in zip(zs, stacked):
        ref = _hermitian_connection_pair_loop(metric, z)
        got = met.hermitian_connection(metric, z)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.array_equal(got_stacked, got)


def _hermitian_connection_without_second_term(metric, zs):
    # Gamma(U)V = U Z* P V only: the V Q Z* U term is dropped; zs is a stack
    spec = metric.domain
    basis = dom.tangent_basis(spec)
    gamma = np.empty((len(zs),) + (spec.dim,) * 3, dtype=np.complex128)
    for b, z in enumerate(zs):
        p = np.linalg.inv(np.eye(z.shape[0]) - z @ z.conj().T)
        for i, u in enumerate(basis):
            for j, w in enumerate(basis):
                gamma[b, :, j, i] = dom.pack(spec, u @ z.conj().T @ p @ w)
    return gamma


def test_kahler_berwald_check_can_fail(monkeypatch):
    metric = met.tk_metric(dom.type_i(2, 2), 1.0, 2)
    clean = met.verify_kahler_berwald(metric, seed=3)
    assert max(clean.gamma_v_variation, clean.gamma_vs_hermitian) <= 1e-10
    with monkeypatch.context() as patch:
        patch.setattr(met, "hermitian_connection",
                      _hermitian_connection_without_second_term)
        rep = met.verify_kahler_berwald(metric, seed=3)
    assert rep.gamma_vs_hermitian >= 1e-3
    real = met.connection_sample

    def bent(metric, zs, vs):
        # a term of degree 1 in v that is not linear: N is no longer Gamma v
        c = dom.pack(metric.domain, vs)                       # (base, fiber, dim)
        quad = (c[..., :, None] * c[..., None, :]
                / np.linalg.norm(c, axis=-1)[..., None, None])
        return real(metric, zs, vs) + 1e-3 * quad

    monkeypatch.setattr(met, "connection_sample", bent)
    rep = met.verify_kahler_berwald(metric, seed=3)
    assert rep.gamma_v_variation >= 1e-5


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


def test_geodesic_speed_constant_lie_ball():
    metric = met.bergman_metric(dom.type_iv(3))
    z0 = dom.sample_point(metric.domain, seed=51)
    v0 = 0.3 * dom.sample_tangent(metric.domain, seed=52)
    ts, zs, ws = met.geodesic(metric, z0, v0, 2.0, 400)
    speeds = np.sqrt(met.eval2_many(metric, zs, ws))
    assert np.max(np.abs(speeds - speeds[0]) / speeds[0]) <= 1e-8
    assert np.all(dom.contains_many(metric.domain, zs))
