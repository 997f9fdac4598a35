import numpy as np
import pytest

import cartanfinsler.automorphisms as am
import cartanfinsler.curvature as curv
import cartanfinsler.domains as dom
import cartanfinsler.metrics as met
import cartanfinsler.norms as nrm
from cartanfinsler.errors import DomainError


def _rank_one(m, n):
    v = np.zeros((m, n), dtype=complex)
    v[0, 0] = 0.7 - 0.3j
    return v


def _laplacian_stencil(metric, vs, ws, h=1e-3):
    """Nine-point oracle: (1/4) Laplacian of zeta -> F^2(zeta*W; V) at 0.

    Fourth-order second differences along zeta real and imaginary; the step
    balances truncation ~h^4 against roundoff ~eps/h^2 (about 1e-9 for
    order-one data).  vs and ws are stacks of tangents of any domain type.
    """
    offsets = np.array([0.0, h, -h, 2 * h, -2 * h, 1j * h, -1j * h, 2j * h, -2j * h])
    zs = offsets.reshape((-1,) + (1,) * ws.ndim) * ws[None]
    f = met.eval2_many(metric, zs, np.broadcast_to(vs, zs.shape))
    d2x = (-f[3] + 16 * f[1] - 30 * f[0] + 16 * f[2] - f[4]) / (12 * h * h)
    d2y = (-f[7] + 16 * f[5] - 30 * f[0] + 16 * f[6] - f[8]) / (12 * h * h)
    return 0.25 * (d2x + d2y)


def _lie_reps(s_grid, n):
    reps = curv.lie_representative(s_grid)
    if n > 2:
        pad = np.zeros(np.shape(s_grid) + (n - 2,))
        reps = np.concatenate([reps, pad], axis=-1)
    return reps


@pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)])
def test_rank_one_sectional_value(m, n):
    metric = met.bergman_metric(dom.type_i(m, n))
    assert curv.hsc_origin_many(metric, _rank_one(m, n)[None])[0] == pytest.approx(
        -4.0 / (m + n), abs=1e-12
    )


def test_rank_one_ball_constant_curvature():
    metric = met.bergman_metric(dom.type_i(1, 3))
    vals = [
        curv.hsc_origin_many(metric, dom.sample_tangent(metric.domain, seed=i)[None])[0]
        for i in range(20)
    ]
    assert max(vals) - min(vals) < 1e-12
    assert vals[0] == pytest.approx(-1.0, abs=1e-12)


def test_scale_invariance():
    metric = met.tk_metric(dom.type_i(2, 2), 1.0, 2)
    v = dom.sample_tangent(metric.domain, seed=3)
    k0 = curv.hsc_origin_many(metric, v[None])[0]
    k = curv.hsc_origin_many(metric, (0.3 - 1.7j) * v[None])[0]
    assert k == pytest.approx(k0, abs=1e-10)


def test_unitary_invariance_matrix():
    metric = met.tk_metric(dom.type_i(2, 3), 0.5, 2)
    rng = np.random.default_rng(0)
    v = dom.sample_tangent(metric.domain, seed=4)
    k0 = curv.hsc_origin_many(metric, v[None])[0]
    for _ in range(5):
        qu, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        qv, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        k = curv.hsc_origin_many(metric, (qu @ v @ qv)[None])[0]
        assert k == pytest.approx(k0, abs=1e-10)


def test_lie_curvature_depends_only_on_s():
    metric = met.phi_metric(dom.type_iv(3), nrm.affine_phi(0.5))
    v = dom.sample_tangent(metric.domain, seed=7)
    r = float(np.sum(np.abs(v) ** 2))
    s = abs(np.sum(v * v)) ** 2 / r**2
    rep = _lie_reps(np.array([s]), 3)[0]
    assert curv.hsc_origin_many(metric, v[None])[0] == pytest.approx(
        curv.hsc_origin_many(metric, rep[None])[0], abs=1e-9
    )


def test_bergman_bounds_square_case():
    metric = met.bergman_metric(dom.type_i(2, 2))
    rep = curv.curvature_bounds(metric)
    assert rep.k1 == pytest.approx(1.0, abs=1e-9)
    assert rep.k2 == pytest.approx(0.5, abs=1e-9)
    assert rep.lu == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert rep.k1 >= rep.k2 > 0 and rep.lu >= 1.0
    # Bergman closed form: B = -(4/c) |<V,W>|^2 / (|V|^2 |W|^2), sup = 4/c = k1
    c, _ = curv.bisectional_bound(metric, rep.k1, 500, 0)
    assert c == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "metric",
    [
        met.tk_metric(dom.type_i(2, 2), 1.0, 2),
        met.tk_metric(dom.type_iii(4), 1.0, 2),
        met.bergman_metric(dom.type_ii(3)),
        met.phi_metric(dom.type_iv(3), nrm.affine_phi(0.5)),
        met.phi_metric(dom.type_iv(4), nrm.affine_phi(2.0)),
    ],
    ids=lambda m: m.label,
)
def test_bisectional_bound_attained_on_diagonal(metric):
    # the extremized sup of |B| coincides with k1 (reached at V = W)
    k1 = curv.curvature_bounds(metric).k1
    c, search = curv.bisectional_bound(metric, k1, 500, 0)
    assert c == pytest.approx(k1, abs=1e-8)
    # so does the search alone, before the max with k1 and the sampled pairs
    assert search == pytest.approx(k1, rel=1e-14)


def test_two_term_frozen_values():
    metric = met.tk_metric(dom.type_i(2, 2), 1.0, 2)  # c = 4
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    uniform = np.eye(2, dtype=complex) / np.sqrt(2.0)
    assert curv.hsc_origin_many(metric, e11[None])[0] == pytest.approx(-1.0, abs=1e-12)
    assert curv.hsc_origin_many(metric, uniform[None])[0] == pytest.approx(
        -(2.0 - np.sqrt(2.0)), abs=1e-9
    )


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_two_term_ratio_formula(t):
    rep = curv.curvature_bounds(met.tk_metric(dom.type_i(2, 2), t, 2))
    assert rep.k1 / rep.k2 == pytest.approx((2 + t * np.sqrt(2)) / (1 + t), abs=1e-6)
    assert 1.0 < rep.lu < np.sqrt(2.0)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_lie_ball_closed_form(n):
    metric = met.bergman_metric(dom.type_iv(n))
    s_grid = np.linspace(0.0, 1.0, 21)
    ks = curv.hsc_origin_many(metric, _lie_reps(s_grid, n))
    assert np.max(np.abs(ks + 2.0 * (2.0 - s_grid) / n)) < 1e-12
    rep = curv.curvature_bounds(metric)
    assert rep.k1 / rep.k2 == pytest.approx(2.0, abs=1e-12)


def test_bisectional_orthogonal_directions_vanish():
    metric = met.bergman_metric(dom.type_i(2, 2))
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    e22 = np.zeros((2, 2), dtype=complex)
    e22[1, 1] = 1.0
    assert abs(curv.bisectional_origin_many(metric, e11, e22)) < 1e-14


@pytest.mark.parametrize("metric", [
    met.bergman_metric(dom.type_i(1, 3)), met.tk_metric(dom.type_i(2, 3), 1.0, 3),
    met.tk_metric(dom.type_i(3, 4), 1.0, 4), met.tk_metric(dom.type_ii(3), 0.5, 2),
    met.tk_metric(dom.type_iii(4), 1.0, 2),
    met.phi_metric(dom.type_iv(3), nrm.affine_phi(0.5)),
], ids=lambda m: m.label)
def test_bisectional_matches_stencil(metric):
    # B(0; V, W) = -2 (1/4) Laplacian of F^2(zeta W; V) / (F^2(V) F^2(W)); on
    # type I both the left gram V V* and the right gram V* V contribute
    spec = metric.domain
    axes = tuple(range(-len(spec.ambient_shape), 0))
    vs, ws = (x / np.sqrt(np.sum(np.abs(x) ** 2, axis=axes, keepdims=True))
              for x in (dom.sample_tangents(spec, seed, 100) for seed in (60, 61)))
    f2v, f2w = (met.eval2_many(metric, np.zeros_like(x), x) for x in (vs, ws))
    oracle = -2.0 * _laplacian_stencil(metric, vs, ws) / (f2v * f2w)
    assert np.max(np.abs(curv.bisectional_origin_many(metric, vs, ws) - oracle)) \
        <= 1e-9


def test_ball_bisectional_of_orthogonal_directions_is_half_of_k():
    # constant holomorphic curvature -kappa on the ball: B(v, w) =
    # -(kappa / 2) (1 + |<v, w>|^2) for unit v, w
    metric = met.bergman_metric(dom.type_i(1, 3))
    e = np.eye(3, dtype=complex)[:, None, :]
    k = curv.hsc_origin_many(metric, e[0])
    assert curv.bisectional_origin_many(metric, e[0], e[1]) == 0.5 * k


@pytest.mark.parametrize("metric", [
    met.tk_metric(dom.type_i(2, 3), 1.0, 3), met.tk_metric(dom.type_ii(3), 0.5, 2),
    met.tk_metric(dom.type_iii(4), 1.0, 2),
], ids=lambda m: m.label)
def test_tangent_and_profile_curvature_agree(metric):
    # K at V = diag(sqrt(y)) (2x2 blocks [[0, r], [-r, 0]] on the skew type)
    # is the profile objective of curvature_bounds at y
    spec = metric.domain
    dim, total = curv._profile_dim_total(spec)
    ys, _ = nrm.simplex_grid(dim, total)
    vs = np.zeros((len(ys),) + spec.ambient_shape, dtype=complex)
    roots = np.sqrt(ys)
    for i in range(dim):
        if spec.kind == "III":
            vs[:, 2 * i, 2 * i + 1], vs[:, 2 * i + 1, 2 * i] = roots[:, i], -roots[:, i]
        else:
            vs[:, i, i] = roots[:, i]
    profile = curv._profile_hsc(metric, ys)
    tangent = curv.hsc_origin_many(metric, vs)
    assert np.all(np.abs(tangent - profile)
                  <= 4.0 * np.finfo(float).eps * np.abs(profile))


def test_bisectional_sign_and_diagonal():
    for metric in [
        met.bergman_metric(dom.type_i(2, 2)),
        met.tk_metric(dom.type_i(2, 2), 1.0, 2),
        met.bergman_metric(dom.type_iv(3)),
        met.phi_metric(dom.type_iv(3), nrm.affine_phi(0.5)),
    ]:
        spec = metric.domain
        vs = np.stack([dom.sample_tangent(spec, seed=i) for i in range(30)])
        ws = np.stack([dom.sample_tangent(spec, seed=100 + i) for i in range(30)])
        b = curv.bisectional_origin_many(metric, vs, ws)
        assert np.max(b) <= 1e-12
        diag = curv.bisectional_origin_many(metric, vs, vs)
        assert np.max(np.abs(diag - curv.hsc_origin_many(metric, vs))) < 1e-9


@pytest.mark.parametrize("metric", [
    met.tk_metric(dom.type_i(2, 3), 1.0, 2), met.tk_metric(dom.type_ii(3), 0.5, 3),
    met.bergman_metric(dom.type_iii(4)), met.phi_metric(dom.type_iv(4), nrm.affine_phi(0.5)),
], ids=lambda m: m.label)
def test_sectional_is_bisectional_on_the_diagonal_from_one_side(metric, monkeypatch):
    # K(V) builds V's side (ladder, F^2 and weights; on the Lie ball F^2 and
    # the invariants) once, B(V, W) once per argument, and K is B(V, V) to
    # the last bit also when B builds the side of each argument
    vs = dom.sample_tangents(metric.domain, 3, 50)
    sides = []
    real = curv._side

    def counted(metric, xs):
        sides.append(np.shape(xs))
        return real(metric, xs)

    monkeypatch.setattr(curv, "_side", counted)
    k = curv.hsc_origin_many(metric, vs)
    assert sides == [vs.shape]
    assert np.array_equal(k, curv.bisectional_origin_many(metric, vs, vs.copy()))
    assert sides == [vs.shape] * 3


@pytest.mark.parametrize("metric", [
    met.tk_metric(dom.type_i(2, 2), 1.0, 2), met.tk_metric(dom.type_ii(2), 0.5, 3),
    met.bergman_metric(dom.type_iii(4)), met.phi_metric(dom.type_iv(3), nrm.affine_phi(0.5)),
], ids=lambda m: m.label)
def test_bisectional_batch_axes_broadcast(metric):
    spec = metric.domain
    vs = dom.sample_tangents(spec, 40, 5)
    ws = dom.sample_tangents(spec, 41, 7)
    grid = curv.bisectional_origin_many(metric, vs[:, None], ws[None])
    loop = np.array([[curv.bisectional_origin_many(metric, v, w) for w in ws]
                     for v in vs])
    assert grid.shape == (5, 7)
    assert np.max(np.abs(grid - loop)) <= 4.0 * np.spacing(np.max(np.abs(loop)))
    one = curv.bisectional_origin_many(metric, vs[:1], ws)
    assert one.shape == (7,)
    assert np.max(np.abs(one - loop[0])) <= 4.0 * np.spacing(np.max(np.abs(loop)))


def test_bisectional_simultaneous_unitary_invariance():
    metric = met.tk_metric(dom.type_i(2, 2), 1.0, 2)
    rng = np.random.default_rng(5)
    v = dom.sample_tangent(metric.domain, seed=8)
    w = dom.sample_tangent(metric.domain, seed=9)
    qu, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    qv, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    b0, b1 = curv.bisectional_origin_many(metric, np.stack([v, qu @ v @ qv]),
                                          np.stack([w, qu @ w @ qv]))
    assert b1 == pytest.approx(b0, abs=1e-10)


def test_transport_invariance():
    for metric in [met.bergman_metric(dom.type_i(2, 2)),
                   met.bergman_metric(dom.type_iv(3))]:
        spec = metric.domain
        z = dom.sample_point(spec, seed=4)
        v = dom.sample_tangent(spec, seed=5)
        phi = am.random_automorphism(spec, seed=6)
        # K_F(Z; V) is K at the origin of the tangent pulled back by the
        # normalizing map at Z; (Z; V) and its image under phi agree
        zs, vs = (np.stack(pair) for pair in zip((z, v), am.push(phi, z, v)))
        _, ws = am.push(am.normalizing_automorphism(spec, zs), zs, vs)
        k0, k1 = curv.hsc_origin_many(metric, ws)
        assert k1 == pytest.approx(k0, abs=1e-8)


def test_range_verification():
    metric = met.tk_metric(dom.type_i(2, 2), 1.0, 2)
    rep = curv.curvature_bounds(metric)
    vmin, vmax = curv.verify_curvature_range(metric, n_samples=5000, seed=1)
    assert -rep.k1 - 1e-7 <= vmin <= vmax <= -rep.k2 + 1e-7


def test_lu_constants():
    for m in [1, 2, 3]:
        metric = met.bergman_metric(dom.type_i(m, m))
        assert curv.curvature_bounds(metric).lu == pytest.approx(np.sqrt(m), abs=1e-6)
    tk = met.tk_metric(dom.type_i(2, 2), 1.0, 2)
    assert curv.curvature_bounds(tk).lu == pytest.approx(1.306562965, abs=1e-4)


@pytest.mark.parametrize("spec", [dom.type_i(2, 2), dom.type_iv(3)], ids=str)
def test_zero_tangent_in_a_stack_raises(spec):
    # one zero row makes K and B 0/0; a min over the stack must not read NaN
    metric = met.bergman_metric(spec)
    vs = np.stack([dom.sample_tangent(spec, seed=1), np.zeros(spec.ambient_shape)])
    ws = np.stack([dom.sample_tangent(spec, seed=2), dom.sample_tangent(spec, seed=3)])
    with pytest.raises(DomainError):
        curv.hsc_origin_many(metric, vs)
    with pytest.raises(DomainError):
        curv.bisectional_origin_many(metric, vs, ws)
    with pytest.raises(DomainError):
        curv.bisectional_origin_many(metric, ws, vs)
    # the nonzero rows alone are finite
    assert np.all(np.isfinite(curv.hsc_origin_many(metric, ws)))
    assert np.all(np.isfinite(curv.bisectional_origin_many(metric, ws, ws[::-1])))


def test_zero_vector_rejected():
    metric = met.bergman_metric(dom.type_i(2, 2))
    with pytest.raises(DomainError):
        curv.hsc_origin_many(metric, np.zeros((1, 2, 2)))


@pytest.mark.parametrize("metric, expected", [
    (met.bergman_metric(dom.type_i(2, 2)), 1.0),
    (met.tk_metric(dom.type_ii(2), 1.0, 2), 4.0 / 3.0),
    (met.tk_metric(dom.type_i(3, 3), 1.0, 2), 2.0 / 3.0),
], ids=lambda x: x.label if hasattr(x, "label") else f"{x:.6g}")
def test_bisectional_sup_matrix_pinned(metric, expected):
    assert curv._bisectional_sup_matrix(metric) == pytest.approx(expected, abs=1e-12)


LIE_PROFILES = ("bergman", "affine0.5", "affine2")
lie_metrics = pytest.mark.parametrize("n, profile", [
    (n, profile) for n in (2, 3, 4, 6) for profile in LIE_PROFILES])


def _bowl_phi(c):
    """phi(s) = 1 + c (s - 1/2)^2: not monotone, least at s = 1/2."""
    return nrm.PhiFamilySpec(
        value=lambda s: 1.0 + c * (np.asarray(s, dtype=float) - 0.5) ** 2,
        d1=lambda s: 2.0 * c * (np.asarray(s, dtype=float) - 0.5),
        d2=lambda s: np.full(np.shape(s), 2.0 * c),
        label=f"bowl(c={c:g})")


def _lie_metric(n, profile):
    """bergman, or "affine<t>", "constant<c>", "bowl<c>" on IV(n)."""
    spec = dom.type_iv(n)
    if profile == "bergman":
        return met.bergman_metric(spec)
    for name, family in (("affine", nrm.affine_phi), ("constant", nrm.constant_phi),
                         ("bowl", _bowl_phi)):
        if profile.startswith(name):
            return met.phi_metric(spec, family(float(profile[len(name):])))
    raise ValueError(profile)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("profile",
                         ["bergman", "affine0.5", "affine2", "constant3"])
def test_lie_k_extremes_are_the_closed_form(n, profile):
    # K(v(s)) = -(4/N) [1 - (1 - s) kappa(s)] / phi(s): -(4/N) 2 / phi(0) at
    # s = 0 and -(4/N) / phi(1) at s = 1, the extremes of these profiles
    metric = _lie_metric(n, profile)
    rep = curv.curvature_bounds(metric)
    scale = 4.0 / metric.normalization
    k1 = scale * 2.0 / float(metric.family.value(0.0))
    k2 = scale / float(metric.family.value(1.0))
    assert abs(rep.k1 - k1) <= 2.0 * np.spacing(k1)
    assert abs(rep.k2 - k2) <= 2.0 * np.spacing(k2)
    assert list(rep.argmin_profile) == [0.0]
    assert list(rep.argmax_profile) == [1.0]


def test_lie_k_scan_polishes_an_interior_extreme():
    # phi = 1 + 0.3 (s - 1/2)^2 puts -k1 inside (0, 1); the reference is the
    # least of hsc_origin_many over v(s) on a 2,000,001-point s grid
    metric = _lie_metric(3, "bowl0.3")
    rep = curv.curvature_bounds(metric)
    reference = 1.2413349817052282
    assert abs(rep.k1 - reference) <= 1e-12 * reference
    s = rep.argmin_profile[0]
    assert 0.0 < s < 0.1
    # the closed form agrees with the complex-vector formula at its argmin
    k = curv.hsc_origin_many(metric, _lie_reps(np.array([s]), 3))[0]
    assert abs(k + rep.k1) <= 1e-14 * rep.k1


def _unit_rows(rng, count, n):
    x = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


@lie_metrics
def test_lie_contraction_matches_stencil(n, profile):
    metric = _lie_metric(n, profile)
    rng = np.random.default_rng(n)
    vs = _unit_rows(rng, 200, n)
    ws = _unit_rows(rng, 200, n)
    reps = _lie_reps(np.array([0.0, 1.0]), n)  # s = 0 and s = 1
    vs = np.concatenate([vs, reps, reps, np.repeat(reps, 2, axis=0)])
    ws = np.concatenate([ws, reps, reps[::-1], _unit_rows(rng, 4, n)])
    contraction = lambda v, w: curv._lie_contraction(
        metric, curv._side(metric, v), curv._side(metric, w))
    exact = contraction(vs, ws)
    oracle = _laplacian_stencil(metric, vs, ws)
    assert np.max(np.abs(exact - oracle) / np.abs(oracle)) < 1e-7
    # the batch axes of V and W broadcast
    grid = contraction(vs[:5, None], ws[None, :7])
    loop = [[contraction(v, w) for w in ws[:7]] for v in vs[:5]]
    assert np.allclose(grid, loop, rtol=1e-15, atol=0.0)


@lie_metrics
def test_lie_origin_f2_matches_eval2_many(n, profile):
    metric = _lie_metric(n, profile)
    vs = np.concatenate([_unit_rows(np.random.default_rng(n), 100, n),
                         _lie_reps(np.array([0.0, 1.0]), n)])
    origin = nrm.eval_phi_norm_many(metric.family, vs, metric.normalization)
    ref = met.eval2_many(metric, np.zeros_like(vs), vs)
    assert np.max(np.abs(origin - ref) / ref) < 1e-14


def test_lie_origin_curvature_never_builds_the_matrix(monkeypatch, clear_memos):
    def refuse(z):
        raise AssertionError("origin curvature built the frame of z")

    monkeypatch.setattr(dom, "lie_frame", refuse)
    metric = met.bergman_metric(dom.type_iv(3))
    vs = _unit_rows(np.random.default_rng(0), 20, 3)
    curv.hsc_origin_many(metric, vs)
    curv.bisectional_origin_many(metric, vs, vs[::-1])
    curv.bisectional_bound(metric, curv.curvature_bounds(metric).k1, 100, 0)


def _nested_sup_matrix(metric):
    """Oracle: sup over x of [sup over y of (y . w(x)) / F^2(y)] / F^2(x).

    One grid scan and polish of y for every outer candidate x, nested in a
    grid scan and polish of x (the pre-joint search, about 5,000 inner scans
    on a rank-2 metric).
    """
    spec = metric.domain
    k = metric.family.k
    dim, total = curv._profile_dim_total(spec)
    mult = 2.0 if spec.kind == "III" else 1.0
    norm = metric.normalization

    def scan_max(fn):
        grid, step = nrm.simplex_grid(dim, total)
        y, f = nrm.polish_many(fn, grid[[int(np.argmax(fn(grid)))]], +1.0, step)
        return y[0], float(f[0])

    def profile_f2(y):
        h = nrm.power_means(curv._profile_to_traces(spec, y, k))
        return norm * np.asarray(metric.family.value(h), dtype=float), h

    def outer(xbatch):
        f2v, h = profile_f2(xbatch)
        grads = nrm.grad_rows(metric.family, h)
        weights = np.zeros_like(xbatch)
        for a in range(1, k + 1):
            weights += (grads[..., a - 1]
                        * h[..., a - 1] ** (1 - a))[..., None] * xbatch**a
        weights *= 4.0 * norm * mult
        out = np.empty(len(xbatch))
        for i in range(len(xbatch)):
            _, fmax = scan_max(lambda y: (y @ weights[i]) / profile_f2(y)[0])
            out[i] = fmax / f2v[i]
        return out

    return float(scan_max(outer)[1])


def _lie_rows(s, w):
    """Pack s (...,) and complex W (..., n) into real rows (s, Re W, Im W)."""
    return np.concatenate([s[..., None], w.real, w.imag], axis=-1)


def _lie_moves(n):
    """Moves on rows (s, Re W, Im W): s +- step within [0, 1], then each W_j
    +- step and +- i*step with W renormalized."""
    kicks = np.array([1.0, -1.0, 1j, -1j])
    coords = np.arange(n)

    def moves(y, step):
        s, w = y[:, 0], y[:, 1:n + 1] + 1j * y[:, n + 1:]
        wc = np.repeat(w[None, None], n * 4, axis=0).reshape((n, 4) + w.shape)
        wc[coords, :, :, coords] += kicks[:, None] * step
        wc /= np.linalg.norm(wc, axis=-1, keepdims=True)
        cands_s = np.concatenate([np.clip(s + step, 0.0, 1.0)[None],
                                  np.clip(s - step, 0.0, 1.0)[None],
                                  np.broadcast_to(s, (n * 4,) + s.shape)])
        cands_w = np.concatenate([w[None], w[None], wc.reshape((-1,) + w.shape)])
        return _lie_rows(cands_s, cands_w)

    return moves


def _per_start_sup_lie(metric, restarts=12):
    """Oracle: the Lie-ball search over (s, W) that the reduction replaced.

    V = v(s) and a unit W in C^n; 24 starts, 12 with W = V on an s grid and
    12 random.  Each start climbs by _lie_moves, halves its own step (0.25
    down to 1e-9) whenever no move gains more than 1e-15, and stops on its
    own.
    """
    n = metric.domain.dims[0]
    norm = metric.normalization
    rng = np.random.default_rng(0)

    def value(rows):
        reps = _lie_reps(rows[:, 0], n)
        wmat = rows[:, 1:n + 1] + 1j * rows[:, n + 1:]
        f2v = nrm.eval_phi_norm_many(metric.family, reps, norm)
        f2w = nrm.eval_phi_norm_many(metric.family, wmat, norm)
        return 2.0 * curv._lie_contraction(
            metric, curv._side(metric, reps), curv._side(metric, wmat)) / (f2v * f2w)

    s0 = np.linspace(0.0, 1.0, restarts)
    wr = rng.standard_normal((restarts, n)) + 1j * rng.standard_normal((restarts, n))
    wr /= np.linalg.norm(wr, axis=-1, keepdims=True)
    s = np.concatenate([s0, rng.uniform(0.0, 1.0, restarts)])
    y = _lie_rows(s, np.concatenate([_lie_reps(s0, n), wr]))
    best = value(y)
    step = np.full(len(y), 0.25)
    moves = _lie_moves(n)
    active = np.arange(len(y))
    while active.size:
        cands = moves(y[active], step[active])
        f = value(cands.reshape(-1, cands.shape[-1])).reshape(cands.shape[:2])
        b = np.argmax(f, axis=0)
        fb = f[b, np.arange(active.size)]
        up = fb > best[active] + 1e-15
        y[active[up]] = cands[b[up], np.flatnonzero(up)]
        best[active[up]] = fb[up]
        step[active[~up]] *= 0.5
        active = active[step[active] > 1e-9]
    return float(best.max())


@pytest.mark.parametrize("metric", [
    met.bergman_metric(dom.type_i(1, 3)),
    met.tk_metric(dom.type_i(1, 3), 2.0, 3),
    met.tk_metric(dom.type_i(2, 2), 0.5, 2),
    met.tk_metric(dom.type_i(2, 3), 5.0, 3),
    met.tk_metric(dom.type_ii(3), 0.1, 4),
    met.tk_metric(dom.type_iii(5), 20.0, 2),
], ids=lambda m: m.label)
def test_joint_sup_matches_nested_scan(metric):
    joint = curv._bisectional_sup_matrix(metric)
    nested = _nested_sup_matrix(metric)
    assert abs(joint - nested) <= 1e-15 * abs(nested)


@pytest.mark.parametrize("n, profile", [
    (n, profile) for n in (2, 3, 4, 6, 8)
    for profile in ("bergman", "affine0.5", "affine2", "affine20", "constant3")])
def test_reduced_lie_search_matches_per_start_oracle(n, profile):
    metric = _lie_metric(n, profile)
    reduced = curv._bisectional_sup_lie(metric)
    oracle = _per_start_sup_lie(metric)
    assert abs(reduced - oracle) <= 1e-15 * oracle


def _lie_invariants(ws):
    """q = Im(W_1 conj(W_2)), s_W = |W.W|^2 and |X ^ Y|^2 of W = X + iY."""
    x, y = ws.real, ws.imag
    wedge2 = np.sum(x * x, -1) * np.sum(y * y, -1) - np.sum(x * y, -1) ** 2
    return (np.imag(ws[:, 0] * np.conj(ws[:, 1])),
            np.abs(np.sum(ws * ws, axis=-1)) ** 2, wedge2)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_lie_reduction_identity_and_region(n):
    rng = np.random.default_rng(40 + n)
    ws = _unit_rows(rng, 600, n)
    s = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 598)])
    q, t, wedge2 = _lie_invariants(ws)
    assert np.max(np.abs(t - (1.0 - 4.0 * wedge2))) < 1e-14
    assert np.all(q * q <= wedge2 + 1e-15) and np.all(wedge2 <= 0.25 + 1e-15)
    if n == 2:  # |X ^ Y| = |q|: t is pinned to 1 - 4q^2
        assert np.max(np.abs(t - (1.0 - 4.0 * q * q))) < 1e-14
    for profile in ("bergman", "affine0.5", "bowl0.8", "bowl20"):
        metric = _lie_metric(n, profile)
        exact = -curv.bisectional_origin_many(metric, _lie_reps(s, n), ws)
        reduced = curv._lie_ratio(metric, s, q, metric.family.value(t))
        # norm-wise: 1 + 2 sqrt(1 - s) q kappa cancels where |B| is small
        assert np.max(np.abs(reduced - exact)) < 1e-14 * np.max(np.abs(exact)), \
            profile


@pytest.mark.parametrize("n", [3, 4, 6])
def test_lie_reduction_reaches_every_t(n):
    # X = alpha e_1, Y = beta (cos theta e_2 + sin theta e_3) hits any
    # (q, t) with 0 <= t <= 1 - 4q^2
    rng = np.random.default_rng(n)
    q = np.concatenate([[-0.5, 0.5, 0.0, 0.3], rng.uniform(-0.5, 0.5, 300)])
    tau = np.concatenate([[0.7, 0.2, 1.0, 0.0], rng.uniform(0.0, 1.0, 300)])
    t = tau * (1.0 - 4.0 * q * q)
    alpha, beta = np.sqrt((1.0 + np.sqrt(t)) / 2.0), np.sqrt((1.0 - np.sqrt(t)) / 2.0)
    cos = np.clip(np.divide(-q, alpha * beta, out=np.zeros_like(q),
                            where=alpha * beta > 0.0), -1.0, 1.0)
    ws = np.zeros((len(q), n), dtype=complex)
    ws[:, 0] = alpha
    ws[:, 1] = 1j * beta * cos
    ws[:, 2] = 1j * beta * np.sqrt(1.0 - cos * cos)
    got_q, got_t, _ = _lie_invariants(ws)
    assert np.allclose(np.linalg.norm(ws, axis=-1), 1.0, rtol=0.0, atol=1e-15)
    assert np.max(np.abs(got_q - q)) < 1e-14 and np.max(np.abs(got_t - t)) < 1e-14


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("profile", ["bergman", "affine2", "bowl0.8", "bowl20"])
def test_lie_sup_table_takes_the_best_t_of_each_cell(n, profile):
    metric = _lie_metric(n, profile)
    ticks = np.linspace(0.0, 1.0, 41)
    table = curv._lie_sup_table(metric, ticks)
    bound = 1.0 - 4.0 * (ticks - 0.5) ** 2
    for j, q in enumerate(ticks - 0.5):
        ts = ticks[ticks <= bound[j]] if n > 2 else bound[j:j + 1]
        cells = curv._lie_ratio(metric, ticks[:, None], q,
                                metric.family.value(ts)[None, :])
        assert np.array_equal(table[:, j], cells.max(axis=1))
    # phi' < 0 near s = 0 makes kappa < -1 on the bowls, so some cells have a
    # negative numerator and take the largest phi
    assert (table < 0.0).any() == profile.startswith("bowl")


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("c", [0.2, 0.8, 2.0])
def test_reduced_lie_search_on_a_non_monotone_profile(n, c, monkeypatch):
    metric = _lie_metric(n, f"bowl{c}")
    ends, shipped = [], nrm.polish_many

    def recorded(*args, **kw):
        y, best = shipped(*args, **kw)
        ends.append(y[0])
        return y, best

    monkeypatch.setattr(nrm, "polish_many", recorded)
    reduced = curv._bisectional_sup_lie(metric)
    oracle = _per_start_sup_lie(metric)
    assert oracle * (1.0 - 1e-12) <= reduced <= oracle * (1.0 + 1e-12)
    (s, q, tau), = ends
    if c < 0.8:  # at the V = W corner s = 0
        assert (s, q) == (0.0, -0.5)
    else:  # inside the box, on the tau = 1 face
        assert 0.0 < s < 1.0 and -0.5 < q < 0.0 and tau == 1.0


def test_a_memoized_report_is_read_only(clear_memos):
    # every caller shares the report of a metric: a write into its profiles
    # would change every later report of that metric
    for metric in (met.tk_metric(dom.type_i(2, 3), 1.0, 2),
                   met.bergman_metric(dom.type_iv(3))):
        report = curv.curvature_bounds(metric)
        for profile in (report.argmin_profile, report.argmax_profile):
            with pytest.raises(ValueError):
                profile[0] = 0.0
        assert curv.curvature_bounds(metric) is report


def test_joint_table_row_blocks_find_the_same_cell(monkeypatch, clear_memos):
    metric = met.tk_metric(dom.type_iii(6), 2.0, 3)  # rank 3
    whole = curv._bisectional_sup_matrix(metric)
    monkeypatch.setattr(curv, "SUP_TABLE_CELLS", 1000)  # about 3 rows a block
    clear_memos()  # or the second call reads the first from the memo
    assert curv._bisectional_sup_matrix(metric) == whole
