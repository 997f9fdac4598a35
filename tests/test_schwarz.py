import numpy as np
import pytest

import cartanfinsler.automorphisms as am
import cartanfinsler.curvature as curv
import cartanfinsler.domains as dom
import cartanfinsler.metrics as met
import cartanfinsler.norms as nrm
import cartanfinsler.numkernel as numkernel
import cartanfinsler.schwarz as sw
from cartanfinsler.errors import DomainError, StructureError
from oracles import (bisection_gauge, generate_maps_one_at_a_time, lie_ball_caratheodory_mp,
                     schwarz_check_per_map)

ALL_SPECS = [dom.type_i(2, 3), dom.type_ii(2), dom.type_iii(4), dom.type_iv(3)]


def test_disc_closed_form():
    disc = dom.type_i(1, 1)
    z = np.array([[0.3 + 0.4j]])
    v = np.array([[1.0 - 2.0j]])
    expected = abs(v[0, 0]) / (1.0 - abs(z[0, 0]) ** 2)
    assert sw.caratheodory_many(disc, z, v) == pytest.approx(expected, rel=1e-12)


def test_origin_gauge_agreement():
    for spec in ALL_SPECS:
        v = dom.sample_tangent(spec, seed=1)
        z0 = np.zeros(spec.ambient_shape, dtype=complex)
        assert sw.caratheodory_many(spec, z0, v) == pytest.approx(
            dom.minkowski_gauge(spec, v), rel=1e-12
        )


def test_lie_ball_gauge_at_the_origin_at_phase_rotated_real_tangents():
    # at z = 0 the pullback is the identity, so F_C is the gauge to the last
    # bit, also where v is a real direction times a phase (s = 1)
    ball = dom.type_iv(3)
    thetas = np.random.default_rng(0).uniform(0.0, 2 * np.pi, 200)
    vs = np.exp(1j * thetas)[:, None] * np.array([0.5, 0.3, -0.2])
    zs = np.zeros_like(vs)
    assert np.array_equal(sw.caratheodory_many(ball, zs, vs),
                          dom.minkowski_gauge_many(ball, vs))


@pytest.mark.parametrize("n", [3, 5])
def test_lie_ball_gauge_matches_mpmath_oracle(n):
    # 200 interior points against 50-digit arithmetic on the closed form
    # r (1 + sqrt(1 - s)), with sampled tangents and phase-rotated real ones:
    # within 10 kappa eps, kappa = 1/(1 - gauge^2)
    pytest.importorskip("mpmath")
    ball = dom.type_iv(n)
    zs = dom.sample_points(ball, range(200))
    vs = dom.sample_tangents(ball, range(1000, 1200))
    vs[1::2] = np.exp(1j * np.linspace(0.0, 6.0, 100))[:, None] * vs[1::2].real
    got = sw.caratheodory_many(ball, zs, vs)
    want = np.array([lie_ball_caratheodory_mp(z, v) for z, v in zip(zs, vs)])
    kappa = 1.0 / (1.0 - dom.minkowski_gauge_many(ball, zs) ** 2)
    assert np.all(np.abs(got - want) <= 10.0 * kappa * np.finfo(float).eps * want)


def test_closed_form_vs_bisection_oracle():
    for spec in ALL_SPECS:
        zs = dom.sample_points(spec, range(200, 220))
        vs = dom.sample_tangents(spec, range(300, 320))
        _, ws = am.push(am.normalizing_automorphism(spec, zs), zs, vs)
        for direct, w in zip(sw.caratheodory_many(spec, zs, vs), ws):
            assert direct == pytest.approx(bisection_gauge(spec, w), rel=1e-9)


def test_gauge_invariance_under_automorphisms():
    for spec in ALL_SPECS:
        zs = dom.sample_points(spec, range(400, 405))
        vs = dom.sample_tangents(spec, range(500, 505))
        # map i of the stack moves sample i
        imgs, dvs = am.push(am.random_automorphisms(spec, range(600, 605)), zs, vs)
        a = sw.caratheodory_many(spec, zs, vs)
        assert sw.caratheodory_many(spec, imgs, dvs) == pytest.approx(a, rel=1e-8)


def _inverse_then_sqrt_gauge(z, v):
    """F_C by the textbook route: invert the grams, then take PD square roots."""
    def sqrt_pd(h):
        w, u = np.linalg.eigh(0.5 * (h + h.conj().T))
        return (u * np.sqrt(w)) @ u.conj().T

    m, n = z.shape
    p = np.linalg.inv(np.eye(m) - z @ z.conj().T)
    q = np.linalg.inv(np.eye(n) - z.conj().T @ z)
    return np.linalg.svd(sqrt_pd(p) @ v @ sqrt_pd(q), compute_uv=False)[0]


def test_gauge_near_the_boundary():
    # interior points at gauge 1 - 1e-5, where the inverse of I - ZZ* is
    # Hermitian only to about 1e-11 relative; they must not raise
    # StructureError
    spec = dom.type_i(2, 3)
    zs = dom.sample_points(spec, range(50))
    zs = 0.99999 * zs / np.linalg.svd(zs, compute_uv=False)[:, :1, None]
    vs = dom.sample_tangents(spec, range(1000, 1050))
    assert np.all(sw.caratheodory_many(spec, zs, vs) > 0.0)
    for spec in (dom.type_i(2, 3), dom.type_ii(3), dom.type_iii(4), dom.type_i(3, 3)):
        zs = np.stack([dom.sample_point(spec, seed=i) for i in range(100)])
        vs = np.stack([dom.sample_tangent(spec, seed=5000 + i) for i in range(100)])
        want = [_inverse_then_sqrt_gauge(z, v) for z, v in zip(zs, vs)]
        np.testing.assert_allclose(sw.caratheodory_many(spec, zs, vs), want, rtol=1e-12)


@pytest.mark.parametrize("spec, roots", [(dom.type_i(2, 3), 2), (dom.type_ii(3), 1),
                                         (dom.type_iii(4), 1)], ids=str)
def test_gauge_takes_the_normalizing_roots(monkeypatch, spec, roots):
    # the gauge takes the normalizing map's own A and D: one eigendecomposition
    # each over the stack, and none for D = conj(A) on types II and III (the
    # top eigenvalue of a W W* with three or more rows solves for values only)
    eigh_batch = numkernel.eigh_batch
    calls = []

    def counted(ms, want_vectors=True):
        calls.append(want_vectors)
        return eigh_batch(ms, want_vectors)

    monkeypatch.setattr(numkernel, "eigh_batch", counted)
    zs = dom.sample_points(spec, range(20))
    vs = dom.sample_tangents(spec, range(100, 120))
    sw.caratheodory_many(spec, zs, vs)
    assert calls.count(True) == roots
    a, d = am._matrix_roots(spec, zs)
    phi = am.normalizing_automorphism(spec, zs).body
    assert np.array_equal(phi.a, a) and np.array_equal(phi.d_inv, np.linalg.inv(d))


def test_outside_point_rejected():
    with pytest.raises(DomainError):
        sw.caratheodory_many(dom.type_i(2, 2), 1.5 * np.eye(2)[None], np.eye(2)[None])
    # the Lie ball takes the rule of normalizing_automorphism, contains_many:
    # an exterior point raises beside an interior one, on a real axis and at
    # gauge 1.4 along a sampled direction
    ball = dom.type_iv(3)
    z = dom.sample_point(ball, seed=3)
    v = dom.sample_tangent(ball, seed=4)
    for z_out in (np.array([1.5, 0.0, 0.0]), 1.4 * z / dom.minkowski_gauge(ball, z)):
        with pytest.raises(DomainError):
            sw.caratheodory_many(ball, np.stack([z, z_out]), np.stack([v, v]))


@pytest.mark.parametrize(
    "metric",
    [
        met.bergman_metric(dom.type_i(2, 2)),
        met.tk_metric(dom.type_i(2, 2), 1.0, 2),
        met.bergman_metric(dom.type_iv(3)),
        met.phi_metric(dom.type_iv(3), nrm.affine_phi(0.5)),
    ],
    ids=lambda m: m.label,
)
def test_sandwich(metric):
    rep = curv.curvature_bounds(metric)
    sr = sw.verify_sandwich(metric, rep, n_samples=400, seed=3)
    assert sr.worst_lower >= -1e-8 and sr.worst_upper >= -1e-8
    assert sr.eq_lower <= 1e-4 and sr.eq_upper <= 1e-4
    # each side's witness is its worst sample: it reproduces that side's margin
    _, _, f2, fc2 = sr.witness_lower
    assert (f2 - (4.0 / rep.k1) * fc2) / f2 == sr.worst_lower
    _, _, f2, fc2 = sr.witness_upper
    assert ((4.0 / rep.k2) * fc2 - f2) / f2 == sr.worst_upper


def test_sandwich_tight_on_disc():
    metric = met.bergman_metric(dom.type_i(1, 1))
    rep = curv.curvature_bounds(metric)
    assert (rep.k1, rep.k2) == pytest.approx((2.0, 2.0))
    sr = sw.verify_sandwich(metric, rep, n_samples=200, seed=1)
    assert sr.worst_lower >= -1e-8 and sr.worst_upper >= -1e-8
    assert sr.eq_lower <= 1e-4 and sr.eq_upper <= 1e-4
    assert abs(sr.worst_lower) < 1e-10 and abs(sr.worst_upper) < 1e-10


CORPUS_PAIRS = [(dom.type_i(2, 2), dom.type_i(2, 2)), (dom.type_ii(2), dom.type_ii(2)),
                (dom.type_i(1, 2), dom.type_i(2, 2)), (dom.type_ii(2), dom.type_i(2, 2)),
                (dom.type_iv(3), dom.type_iv(3)), (dom.type_iii(4), dom.type_iii(4)),
                (dom.type_i(3, 3), dom.type_i(3, 3))]


def _containment_points(spec):
    """Points of spec at gauge 0.5, 0.9, ..., 1 - 1e-6 along sampled
    directions and, on the square types, along e^{i theta} I (e^{i theta} J
    with J = diag([[0, 1], [-1, 0]], ...) on type III), where every singular
    value equals the gauge."""
    radii = np.array([0.5, 0.9, 0.99, 1.0 - 1e-3, 1.0 - 1e-6])
    dirs = dom.sample_tangents(spec, range(900, 940))
    dirs = dirs / dom.minkowski_gauge_many(spec, dirs).reshape((-1,) + (1,) * (dirs.ndim - 1))
    shape = spec.ambient_shape
    if len(shape) == 2 and shape[0] == shape[1]:
        unit = np.eye(shape[0])
        if spec.kind == "III":
            unit = np.kron(np.eye(shape[0] // 2), [[0.0, 1.0], [-1.0, 0.0]])
        phases = np.exp(1j * np.linspace(0.0, 2 * np.pi, 16, endpoint=False))
        dirs = np.concatenate([dirs, phases[:, None, None] * unit])
    return (radii.reshape((-1,) + (1,) * dirs.ndim) * dirs).reshape((-1,) + shape)


@pytest.mark.parametrize("src,tgt", CORPUS_PAIRS, ids=str)
def test_corpus_containment(src, tgt):
    # every corpus map is into its target by construction, up to the
    # boundary.  Seeds 40, 63 and 104 draw polynomials whose coefficients,
    # not divided by their sum, leave II(2), I(2, 2) and I(3, 3); seeds 29 and
    # 39 are the corpora where probe admission let such polynomials through
    points = _containment_points(src)
    for seed, count in ((11, 25), (29, 40), (39, 60), (40, 60), (63, 60), (104, 60)):
        maps = sw.generate_maps(src, tgt, seed=seed, count=count)
        assert len(maps) == count
        if src == tgt:
            z = dom.sample_point(src, seed=7)
            assert np.allclose(am.apply(maps[0], z), z)  # identity leads the corpus
        for i, m in enumerate(maps):
            images = am.apply(m, points)
            assert np.all(dom.contains_many(tgt, images)), (seed, i, type(m.body).__name__)


def _body_fields(m):
    """A map's endpoints, body types and every body field, arrays as bytes."""
    if isinstance(m.body, am.MapChain):
        return [_body_fields(f) for f in m.body.maps]
    return [m.source, m.target, type(m.body).__name__] + [
        (k, v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else (k, v)
        for k, v in vars(m.body).items()]


TEST_08_PAIRS = CORPUS_PAIRS[:4]


def test_corpus_equals_one_attempt_at_a_time():
    # one draw_grid call for the whole corpus gives the maps that one-seed
    # draws attempt by attempt give, bit for bit
    for pi, (src, tgt) in enumerate(CORPUS_PAIRS):
        maps = sw.generate_maps(src, tgt, seed=88 + pi, count=50)
        oracle = generate_maps_one_at_a_time(src, tgt, seed=88 + pi, count=50)
        assert len(maps) == len(oracle) == 50
        for m, o in zip(maps, oracle):
            assert _body_fields(m) == _body_fields(o)


def test_polynomial_coefficients_sum_to_at_most_one():
    # ||p(Z)|| <= sum |c_d| ||Z||^d < 1 needs sum |c_d| <= 1: the few bodies
    # drawn above it are divided by their sum
    sums = []
    for spec in (dom.type_i(2, 2), dom.type_iii(4)):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            body = sw._polynomial_body(spec, rng)
            sums.append(sum(abs(c) for _, c in body.coeffs))
    assert max(sums) <= 1.0 + 1e-15
    assert 0 < sum(t > 1.0 - 1e-15 for t in sums)


@pytest.mark.parametrize("seed", [1, 7])
def test_one_call_schwarz_pass_equals_per_map_oracle(seed):
    # every map's rows of the stacked eval2_many calls are the per-map calls'
    # values bit for bit: the frame kernels give each matrix of a stack the
    # same bits whatever the stack around it
    for pi, (src, tgt) in enumerate(TEST_08_PAIRS):
        maps = sw.generate_maps(src, tgt, seed=seed + pi, count=12)
        seeds = np.random.default_rng(seed).integers(2**63, size=len(maps))
        zs, vs = sw.draw_samples(src, seeds, n_samples=30)
        for m1 in (met.bergman_metric(src), met.tk_metric(src, 1.0, 2)):
            for m2 in (met.bergman_metric(tgt), met.tk_metric(tgt, 1.0, 2)):
                # K1 > K2 x 3 gives some maps negative margins
                for k1, k2 in ((1.0, 0.5), (0.3, 1.0)):
                    got = sw.schwarz_check(maps, m1, m2, k1, k2, zs, vs)
                    want = schwarz_check_per_map(maps, m1, m2, k1, k2, zs, vs)
                    assert len(got) == len(want) == len(maps)
                    for g, w in zip(got, want):
                        assert _report_bits(g) == _report_bits(w), (src, tgt, pi)


def _report_bits(r):
    witness = tuple(np.asarray(x).tobytes() for x in r.witness)
    return (r.bound, r.min_margin, r.min_margin_rel, r.sup_ratio, witness)


def test_map_out_of_the_target_raises_domain_error():
    # 3 Z leaves I(2, 2) for 66 of the 100 samples, and 3 z leaves IV(3) for
    # 67: the check must not score the exterior images as a violation
    for spec, body, exterior in (
            (dom.type_i(2, 2), am.SandwichScale(3.0 * np.eye(2), np.eye(2)), 66),
            (dom.type_iv(3), am.VectorLinear(3.0, np.eye(3)), 67)):
        bm = met.bergman_metric(spec)
        outside = am.HoloMap(spec, spec, body)
        zs, vs = sw.draw_samples(spec, [2, 2], 100)
        images = am.apply(outside, zs[0])
        assert np.sum(~dom.contains_many(spec, images)) == exterior, spec
        with pytest.raises(DomainError):
            sw.schwarz_check([outside], bm, bm, 1.0, 0.5, zs[:1], vs[:1])
        with pytest.raises(DomainError):
            sw.schwarz_check([am.identity_map(spec), outside], bm, bm, 1.0, 0.5,
                             zs, vs)


def test_schwarz_identity_and_constant():
    spec = dom.type_i(2, 2)
    bm = met.bergman_metric(spec)
    w0 = dom.sample_point(spec, seed=3)
    const = am.HoloMap(spec, spec, am.ConstantMap(w0))
    # both maps on the 50 samples of seed 2
    ident, sr = sw.schwarz_check([am.identity_map(spec), const], bm, bm, 1.0, 0.5,
                                 *sw.draw_samples(spec, [2, 2], 50))
    assert ident.min_margin_rel >= -1e-8
    assert ident.bound == pytest.approx(np.sqrt(2.0))
    assert ident.sup_ratio == pytest.approx(1.0, abs=1e-10)
    assert sr.min_margin_rel >= -1e-8
    assert sr.sup_ratio == pytest.approx(0.0, abs=1e-12)


def test_schwarz_corpus_no_violations():
    bm = met.bergman_metric(dom.type_i(2, 2))
    maps = sw.generate_maps(dom.type_i(2, 2), dom.type_i(2, 2), seed=5, count=30)
    zs, vs = sw.draw_samples(bm.domain, range(100, 130), 30)
    for i, sr in enumerate(sw.schwarz_check(maps, bm, bm, 1.0, 0.5, zs, vs)):
        assert sr.min_margin_rel >= -1e-8, (i, type(maps[i].body).__name__)


def test_canonical_probe_attains_bound():
    bm = met.bergman_metric(dom.type_i(2, 2))
    probe = am.HoloMap(
        dom.type_i(2, 2), dom.type_i(2, 2),
        am.ScalarSlice((0, 0), np.eye(2, dtype=complex)),
    )
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    z0 = np.zeros((2, 2), dtype=complex)
    f1 = np.sqrt(met.eval2(bm, z0, e11))
    f2 = np.sqrt(
        met.eval2(bm, am.apply(probe, z0), am.differential(probe, z0, e11))
    )
    assert f2 / f1 == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_homogeneity_reduction():
    spec = dom.type_i(2, 2)
    bm = met.bergman_metric(spec)
    m0 = sw.generate_maps(spec, spec, seed=5, count=10)[7]
    z = dom.sample_point(spec, seed=77)
    v = dom.sample_tangent(spec, seed=78)
    z0 = np.zeros((2, 2), dtype=complex)
    f1 = np.sqrt(met.eval2(bm, z, v))
    f2 = np.sqrt(met.eval2(bm, am.apply(m0, z), am.differential(m0, z, v)))
    phi_in = am.normalizing_automorphism(spec, z)
    phi_out = am.normalizing_automorphism(spec, am.apply(m0, z))
    conj = am.compose(phi_out, m0, am.invert(phi_in))
    vt = am.differential(phi_in, z, v)
    g1 = np.sqrt(met.eval2(bm, z0, vt))
    g2 = np.sqrt(met.eval2(bm, am.apply(conj, z0), am.differential(conj, z0, vt)))
    assert np.sqrt(2) * f1 - f2 == pytest.approx(np.sqrt(2) * g1 - g2, abs=1e-8)


def test_bound_monotonicity():
    spec = dom.type_i(2, 2)
    bm = met.bergman_metric(spec)
    m0 = sw.generate_maps(spec, spec, seed=5, count=10)[3]
    zs, vs = sw.draw_samples(spec, [9], 40)
    base, = sw.schwarz_check([m0], bm, bm, 1.0, 0.5, zs, vs)
    bigger_k1, = sw.schwarz_check([m0], bm, bm, 2.0, 0.5, zs, vs)
    smaller_k2, = sw.schwarz_check([m0], bm, bm, 1.0, 0.25, zs, vs)
    assert bigger_k1.min_margin >= base.min_margin
    assert smaller_k2.min_margin >= base.min_margin


def test_schwarz_endpoint_mismatch():
    bm = met.bergman_metric(dom.type_i(2, 2))
    other = met.bergman_metric(dom.type_ii(2))
    with pytest.raises(StructureError):
        sw.schwarz_check([am.identity_map(dom.type_i(2, 2))], bm, other, 1.0, 0.5,
                         *sw.draw_samples(dom.type_i(2, 2), [0], 1))
