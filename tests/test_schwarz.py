import numpy as np
import pytest

import cartanfinsler.automorphisms as am
import cartanfinsler.curvature as curv
import cartanfinsler.domains as dom
import cartanfinsler.metrics as met
import cartanfinsler.norms as nrm
import cartanfinsler.numkernel as numkernel
import cartanfinsler.schwarz as sw
from cartanfinsler.errors import DomainError, NumericError, StructureError
from oracles import (bisection_gauge, caratheodory_mp, generate_maps_one_at_a_time,
                     lie_ball_caratheodory_mp, lie_ball_directions, schwarz_check_per_map)

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


@pytest.mark.parametrize("n", [2, 3, 5])
def test_lie_ball_gauge_matches_mpmath_oracle(n):
    # 200 sampled points, and oracles.lie_ball_directions and 12 sampled
    # directions at gauge 1 - 10^-k, k = 1..8 and 13, against 60-digit
    # arithmetic on the closed form r (1 + sqrt(1 - s)), with sampled
    # tangents and phase-rotated real ones: within C kappa eps, kappa =
    # 1/(1 - gauge^2), with C = 2 up to the boundary (the largest value
    # measured is 1.15) and C = 3 at the sampled points (2.28, at kappa near
    # 1, where the gauge of a near-real W alone reads up to 1 eps).  The
    # points at 1 - 1e-13 lie inside contains_many's margin; F_C takes the
    # rule of its frame and evaluates them (measured 0.92).  At
    # z = t e_1, W = v / (1 - t^2) exactly, so F_C = gauge(v) / (1 - t^2); a
    # push through the normalizing map read 38% low there at t = 1 - 1e-8
    pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    ball = dom.type_iv(n)
    gaps = 10.0 ** -np.array([1.0, 2, 3, 4, 5, 6, 7, 8, 13])
    dirs = np.concatenate([lie_ball_directions(n), dom.sample_tangents(ball, 7, 12)])
    dirs = dirs / dom.minkowski_gauge_many(ball, dirs)[:, None]
    zs = np.concatenate([dom.sample_points(ball, 0, 200)] + [(1.0 - gap) * dirs for gap in gaps])
    assert not np.any(dom.contains_many(ball, zs[-18:]))
    vs = dom.sample_tangents(ball, 1000, len(zs))
    vs[1::2] = np.exp(1j * np.linspace(0.0, 6.0, len(vs[1::2])))[:, None] * vs[1::2].real
    got = sw.caratheodory_many(ball, zs, vs)
    want = np.array([lie_ball_caratheodory_mp(z, v, dps=60) for z, v in zip(zs, vs)])
    kappa = 1.0 / (1.0 - dom.minkowski_gauge_many(ball, zs) ** 2)
    err = np.abs(got - want) / (kappa * eps * want)
    assert np.max(err[:200]) <= 3.0 and np.max(err[200:]) <= 2.0
    ts = 1.0 - gaps
    zs = np.zeros((len(ts), n), dtype=complex)
    zs[:, 0] = ts
    vs = dom.sample_tangents(ball, 3, len(ts))
    got = sw.caratheodory_many(ball, zs, vs)
    # 1 - t is exact in floating point
    want = dom.minkowski_gauge_many(ball, vs) / ((1.0 - ts) * (1.0 + ts))
    assert np.all(np.abs(got - want) <= 2.0 * (1.0 / (1.0 - ts * ts)) * eps * want)


def test_closed_form_vs_bisection_oracle():
    for spec in ALL_SPECS:
        zs = dom.sample_points(spec, 200, 20)
        vs = dom.sample_tangents(spec, 300, 20)
        _, ws = am.push(am.normalizing_automorphism(spec, zs), zs, vs)
        for direct, w in zip(sw.caratheodory_many(spec, zs, vs), ws):
            assert direct == pytest.approx(bisection_gauge(spec, w), rel=1e-9)


def test_gauge_invariance_under_automorphisms():
    for spec in ALL_SPECS:
        zs = dom.sample_points(spec, 400, 5)
        vs = dom.sample_tangents(spec, 500, 5)
        # map i of the stack moves sample i
        imgs, dvs = am.push(am.random_automorphisms(spec, 600, 5), zs, vs)
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
    zs = dom.sample_points(spec, 0, 50)
    zs = 0.99999 * zs / np.linalg.svd(zs, compute_uv=False)[:, :1, None]
    vs = dom.sample_tangents(spec, 1000, 50)
    assert np.all(sw.caratheodory_many(spec, zs, vs) > 0.0)
    for spec in (dom.type_i(2, 3), dom.type_ii(3), dom.type_iii(4), dom.type_i(3, 3)):
        zs = np.stack([dom.sample_point(spec, seed=i) for i in range(100)])
        vs = np.stack([dom.sample_tangent(spec, seed=5000 + i) for i in range(100)])
        want = [_inverse_then_sqrt_gauge(z, v) for z, v in zip(zs, vs)]
        np.testing.assert_allclose(sw.caratheodory_many(spec, zs, vs), want, rtol=1e-12)


@pytest.mark.parametrize("spec", [dom.type_i(2, 3), dom.type_ii(3), dom.type_iii(4),
                                  dom.type_i(3, 3)], ids=str)
def test_gauge_matches_mpmath_oracle_up_to_the_boundary(spec):
    # 40 points each at gauge 1 - 1e-2, 1 - 1e-5, 1 - 1e-8, 1 - 1e-10 and
    # 1 - 1e-12 against 40-digit arithmetic: within C kappa eps, kappa =
    # 1/(1 - gauge^2), with C = 1 (the largest value measured is 0.71).  Type
    # III points have double singular values, and a Cholesky factor of the
    # lower triangle of P alone took a negative pivot there from 1 - 1e-9 on
    pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    for gap in (1e-2, 1e-5, 1e-8, 1e-10, 1e-12):
        zs = dom.sample_tangents(spec, 7, 40)
        zs = (1.0 - gap) * zs / dom.minkowski_gauge_many(spec, zs)[:, None, None]
        vs = dom.sample_tangents(spec, 8, 40)
        got = sw.caratheodory_many(spec, zs, vs)
        want = np.array([caratheodory_mp(z, v) for z, v in zip(zs, vs)])
        kappa = 1.0 / (1.0 - dom.minkowski_gauge_many(spec, zs) ** 2)
        assert np.all(np.abs(got - want) <= 1.0 * kappa * eps * want)


@pytest.mark.parametrize("spec, values_calls", [
    (dom.type_i(2, 3), 0), (dom.type_ii(2), 0), (dom.type_i(2, 2), 0),
    (dom.type_ii(3), 1), (dom.type_iii(4), 1), (dom.type_i(3, 3), 1)], ids=str)
def test_gauge_takes_no_eigenvectors(monkeypatch, spec, values_calls):
    # the gauge reads the metric's frame through Cholesky factors: no
    # eigendecomposition with vectors, no LAPACK call at all for grams of up
    # to two rows, and one values-only eigensolve of the stack from three on
    eigvalsh_batch = numkernel.eigvalsh_batch
    calls = []

    def counted(ms):
        calls.append(np.shape(ms))
        return eigvalsh_batch(ms)

    def refused(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} called")
        return call

    zs = dom.sample_points(spec, 0, 20)
    vs = dom.sample_tangents(spec, 100, 20)
    monkeypatch.setattr(numkernel, "eigvalsh_batch", counted)
    monkeypatch.setattr(np.linalg, "eigh", refused("eigh"))
    if values_calls == 0:
        for name in ("eigvalsh", "inv", "solve", "cholesky", "svd"):
            monkeypatch.setattr(np.linalg, name, refused(name))
    sw.caratheodory_many(spec, zs, vs)
    m = spec.ambient_shape[0]
    assert calls == [(20, m, m)] * values_calls


SHARED_W_SPECS = [dom.type_i(1, 3), dom.type_i(2, 3), dom.type_ii(3), dom.type_iii(4),
                  dom.type_i(3, 3), dom.type_iv(2), dom.type_iv(3)]


def _shared_w_metrics(spec):
    """The metrics of spec whose sandwich sides the shared-W tests check."""
    if spec.kind == "IV":
        return (met.bergman_metric(spec), met.phi_metric(spec, nrm.affine_phi(0.5)),
                met.phi_metric(spec, nrm.affine_phi(2.0)))
    return (met.tk_metric(spec, 1.0, 2), met.bergman_metric(spec), met.tk_metric(spec, 0.5, 3))


@pytest.mark.parametrize("spec", SHARED_W_SPECS, ids=str)
def test_sandwich_sides_from_one_gram_match_eval2_and_the_gauge(spec):
    # the sandwich reads F^2 and F_C^2 from one W = dphi_Z V: on types I-III
    # F^2 from the power traces of W W* and F_C^2 from gram_top(W), on the
    # Lie ball F^2 as the origin norm of W and F_C^2 as gauge(W)^2.
    # eval2_many reads F^2 from the frame at Z and caratheodory_many the same
    # W.  At 200 sampled points and 200 points each at gauge 1 - 1e-2,
    # 1 - 1e-5 and 1 - 1e-8 they agree within C kappa eps, kappa =
    # 1/(1 - gauge^2), with C = 1.5 for F_C^2 and for F^2 C = 4 on types
    # I-III and C = 5 on the Lie ball (the largest values measured are 0.99,
    # 3.2 and 4.75, the last for affine(2) on IV(2))
    eps = np.finfo(float).eps
    vs = dom.sample_tangents(spec, 8, 200)
    stacks = [dom.sample_points(spec, 5, 200)]
    for gap in (1e-2, 1e-5, 1e-8):
        zs = dom.sample_tangents(spec, 7, 200)
        gauges = dom.minkowski_gauge_many(spec, zs).reshape((-1,) + (1,) * (zs.ndim - 1))
        stacks.append((1.0 - gap) * zs / gauges)
    c_f2 = 5.0 if spec.kind == "IV" else 4.0
    for metric in _shared_w_metrics(spec):
        for zs in stacks:
            kappa = 1.0 / (1.0 - dom.minkowski_gauge_many(spec, zs) ** 2)
            f2, fc2 = sw._gauge_sides(metric, zs, vs)
            want_f2 = met.eval2_many(metric, zs, vs)
            want_fc2 = sw.caratheodory_many(spec, zs, vs) ** 2
            assert np.all(np.abs(f2 - want_f2) <= c_f2 * kappa * eps * want_f2)
            assert np.all(np.abs(fc2 - want_fc2) <= 1.5 * kappa * eps * want_fc2)
    # each witness is its side's worst sample, and the sides at its (Z, V)
    # alone give its F^2 and F_C^2 to the last bit
    metric = _shared_w_metrics(spec)[0]
    bounds = curv.curvature_bounds(metric)
    rep = sw.verify_sandwich(metric, n_samples=300, seed=4)
    margins = ((lambda f2, fc2: (f2 - (4.0 / bounds.k1) * fc2) / f2, rep.worst_lower,
                rep.witness_lower),
               (lambda f2, fc2: ((4.0 / bounds.k2) * fc2 - f2) / f2, rep.worst_upper,
                rep.witness_upper))
    for margin, worst, (z, v, f2, fc2) in margins:
        assert margin(f2, fc2) == worst
        assert [x[0] for x in sw._gauge_sides(metric, z[None], v[None])] == [f2, fc2]


@pytest.mark.parametrize("spec, values_calls", [
    (dom.type_i(2, 3), []), (dom.type_ii(2), []), (dom.type_iv(3), []),
    (dom.type_ii(3), [(50, 3, 3), (50, 3, 3), (2, 3, 3)])], ids=str)
def test_sandwich_makes_no_lapack_call_up_to_two_rows(monkeypatch, clear_memos, spec,
                                                      values_calls):
    # one frame gives both sides, and the origin probes none: the Cholesky
    # roots on types I-III, the closed-form Peirce frame on the Lie ball, and
    # no automorphism is pushed on any type.  On II(3) the three values-only
    # eigensolves of a cold call are the sampler's gauge of its points,
    # gram_top of the samples' W and gram_top of the two probes; a repeated
    # call reads the probes from the memo and makes the first two only
    metric = _shared_w_metrics(spec)[0]
    curv.curvature_bounds(metric)
    eigvalsh_batch = numkernel.eigvalsh_batch
    calls = []

    def counted(ms):
        calls.append(np.shape(ms))
        return eigvalsh_batch(ms)

    def refused(module, name):
        def call(*args, **kwargs):
            raise AssertionError(f"{module.__name__}.{name} called")
        monkeypatch.setattr(module, name, call)

    monkeypatch.setattr(numkernel, "eigvalsh_batch", counted)
    for name in ("push", "normalizing_automorphism"):
        refused(am, name)
    if not values_calls:
        for name in ("eigh", "eigvalsh", "inv", "solve", "cholesky", "svd"):
            refused(np.linalg, name)
    margins = lambda rep: (rep.worst_lower, rep.worst_upper, rep.eq_lower, rep.eq_upper)
    cold = margins(sw.verify_sandwich(metric, n_samples=50, seed=2))
    assert calls == values_calls
    calls.clear()
    assert margins(sw.verify_sandwich(metric, n_samples=50, seed=2)) == cold
    assert calls == values_calls[:2]


@pytest.mark.parametrize("spec", [dom.type_i(2, 3), dom.type_ii(3), dom.type_iii(4),
                                  dom.type_iv(3)], ids=str)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_point_or_tangent_raises_numeric_error(spec, bad):
    zs = dom.sample_points(spec, 0, 3)
    vs = dom.sample_tangents(spec, 100, 3)
    for which in (zs, vs):
        spoiled = which.copy()
        spoiled.reshape(3, -1)[1, 0] = bad
        args = (spoiled, vs) if which is zs else (zs, spoiled)
        with pytest.raises(NumericError):
            sw.caratheodory_many(spec, *args)


def test_outside_point_rejected():
    with pytest.raises(DomainError):
        sw.caratheodory_many(dom.type_i(2, 2), 1.5 * np.eye(2)[None], np.eye(2)[None])
    # the Lie ball takes the rule of its frame, domains.lie_frame: a point
    # with l1 >= 1 raises beside an interior one, on the boundary, on a real
    # axis and at gauge 1.4 along a sampled direction
    ball = dom.type_iv(3)
    z = dom.sample_point(ball, seed=3)
    v = dom.sample_tangent(ball, seed=4)
    for z_out in (np.array([1.0, 0.0, 0.0]), np.array([1.5, 0.0, 0.0]),
                  1.4 * z / dom.minkowski_gauge(ball, z)):
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
    sr = sw.verify_sandwich(metric, n_samples=400, seed=3)
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
    sr = sw.verify_sandwich(metric, n_samples=200, seed=1)
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
    dirs = dom.sample_tangents(spec, 900, 40)
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
    normals, u = dom.draw_grid(3, "corpus", [dom.Gaussians(2000, 6, 3)])[0]
    for spec in (dom.type_i(2, 2), dom.type_iii(4)):
        for row in zip(normals, u):
            body = sw._polynomial_body(spec, *row)
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
        zs, vs = sw.draw_samples(src, seed, len(maps), n_samples=30)
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
    # 3 Z leaves I(2, 2) for 55 of the 100 samples, and 3 z leaves IV(3) for
    # 53: the check must not score the exterior images as a violation
    for spec, body, exterior in (
            (dom.type_i(2, 2), am.SandwichScale(3.0 * np.eye(2), np.eye(2)), 55),
            (dom.type_iv(3), am.VectorLinear(3.0, np.eye(3)), 53)):
        bm = met.bergman_metric(spec)
        outside = am.HoloMap(spec, spec, body)
        zs, vs = sw.draw_samples(spec, 2, 2, 100)
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
    # each map on its own 50 samples of seed 2
    ident, sr = sw.schwarz_check([am.identity_map(spec), const], bm, bm, 1.0, 0.5,
                                 *sw.draw_samples(spec, 2, 2, 50))
    assert ident.min_margin_rel >= -1e-8
    assert ident.bound == pytest.approx(np.sqrt(2.0))
    assert ident.sup_ratio == pytest.approx(1.0, abs=1e-10)
    assert sr.min_margin_rel >= -1e-8
    assert sr.sup_ratio == pytest.approx(0.0, abs=1e-12)


def test_schwarz_corpus_no_violations():
    bm = met.bergman_metric(dom.type_i(2, 2))
    maps = sw.generate_maps(dom.type_i(2, 2), dom.type_i(2, 2), seed=5, count=30)
    zs, vs = sw.draw_samples(bm.domain, 100, 30, 30)
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
    zs, vs = sw.draw_samples(spec, 9, 1, 40)
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
                         *sw.draw_samples(dom.type_i(2, 2), 0, 1, 1))
