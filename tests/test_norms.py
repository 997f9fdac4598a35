"""Origin-norm families: evaluation, certification, and comparison bounds."""
import math

import numpy as np
import pytest

from cartanfinsler import curvature, domains, metrics, norms, numkernel
from cartanfinsler.errors import StructureError
from oracles import g_family_from_callable


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


def _origin_f2(g, vs):
    """F^2(0; V) of g on I(m, n) by metrics.eval2_many at the origin."""
    vs = np.asarray(vs, dtype=complex)
    metric = metrics.MetricSpec(domains.type_i(*vs.shape[-2:]), g)
    return metrics.eval2_many(metric, np.zeros(vs.shape[-2:]), vs)


def _svd_f2(g, v):
    """Oracle: g at the power means of numpy's singular values of V."""
    y = np.linalg.svd(v, compute_uv=False) ** 2
    traces = np.array([np.sum(y**a) for a in range(1, g.k + 1)])
    return float(g.value(norms.power_means(traces)))


def test_g_norm_zero_vector():
    g = norms.tk_family(t=1.0, k=2, c=4.0)
    assert _origin_f2(g, np.zeros((2, 2))) == 0.0


def test_g_norm_rank_one_frozen_value():
    # two-term family, t=1, k=2, c=4 on a rank-1 unit: h1 = h2 = 1 -> f^2 = 4
    g = norms.tk_family(t=1.0, k=2, c=4.0)
    v = np.zeros((2, 2), dtype=complex)
    v[0, 0] = 1.0
    assert _origin_f2(g, v) == pytest.approx(4.0, abs=1e-12)
    # uniform two singular values 1/sqrt(2): h1 = 1, h2 = 1/sqrt(2)
    v = np.diag([1.0, 1.0]).astype(complex) / np.sqrt(2.0)
    want = 2.0 * (1.0 + 1.0 / np.sqrt(2.0))
    assert _origin_f2(g, v) == pytest.approx(want, abs=1e-12)


def test_g_norm_is_trace_for_bergman():
    g = norms.bergman_family(c=5.0)
    rng = np.random.default_rng(0)
    v = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    want = 5.0 * float(np.sum(np.abs(v) ** 2))
    assert _origin_f2(g, v) == pytest.approx(want, rel=1e-12)


def test_g_norm_unitary_invariance():
    g = norms.tk_family(t=0.7, k=3, c=2.0)
    rng = np.random.default_rng(1)
    v = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    b = haar_unitary(3, rng)
    c = haar_unitary(4, rng)
    f1 = _origin_f2(g, v)
    f2 = _origin_f2(g, b @ v @ c)
    assert f1 == pytest.approx(_svd_f2(g, v), rel=1e-12)
    assert f2 == pytest.approx(f1, rel=1e-12)


def test_g_norm_absolute_homogeneity():
    g = norms.tk_family(t=1.0, k=2, c=4.0)
    rng = np.random.default_rng(2)
    v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lam = 1.3 - 0.4j
    assert _origin_f2(g, v) == pytest.approx(_svd_f2(g, v), rel=1e-12)
    assert _origin_f2(g, lam * v) == pytest.approx(
        abs(lam) ** 2 * _origin_f2(g, v), rel=1e-12
    )


def test_g_norm_triangle_inequality():
    g = norms.tk_family(t=1.0, k=2, c=4.0)
    rng = np.random.default_rng(3)
    vs = rng.standard_normal((200, 2, 2)) + 1j * rng.standard_normal((200, 2, 2))
    ws = rng.standard_normal((200, 2, 2)) + 1j * rng.standard_normal((200, 2, 2))
    fv = np.sqrt(_origin_f2(g, vs))
    fw = np.sqrt(_origin_f2(g, ws))
    fvw = np.sqrt(_origin_f2(g, vs + ws))
    np.testing.assert_allclose(fv**2, [_svd_f2(g, v) for v in vs], rtol=1e-12)
    assert np.all(fvw <= fv + fw + 1e-9)


def test_g_norm_batched_matches_loop():
    g = norms.tk_family(t=0.5, k=2, c=3.0)
    rng = np.random.default_rng(4)
    vs = rng.standard_normal((20, 2, 3)) + 1j * rng.standard_normal((20, 2, 3))
    batch = _origin_f2(g, vs)
    for i in range(20):
        assert batch[i] == pytest.approx(_svd_f2(g, vs[i]), rel=1e-11)


def _phi_f2(phi, xi, normalization=1.0):
    return float(norms.eval_phi_norm_many(phi, xi, normalization))


def test_phi_norm_constant_is_euclidean():
    phi = norms.constant_phi(1.0)
    rng = np.random.default_rng(5)
    xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    want = float(np.sum(np.abs(xi) ** 2))
    assert _phi_f2(phi, xi) == pytest.approx(want, rel=1e-13)
    assert _phi_f2(phi, np.zeros(4)) == 0.0


def test_phi_norm_real_vectors_maximize_s():
    phi = norms.affine_phi(0.5)
    xi = np.array([0.3, -0.8, 0.1], dtype=complex)  # real entries: s = 1
    r = float(np.sum(xi.real**2))
    want = r * float(phi.value(1.0))
    assert _phi_f2(phi, xi) == pytest.approx(want, rel=1e-12)


def test_phi_norm_rotation_invariance():
    phi = norms.affine_phi(0.5)
    rng = np.random.default_rng(6)
    xi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    q, r = np.linalg.qr(rng.standard_normal((5, 5)))
    q = q * np.sign(np.diagonal(r))
    for theta in (0.3, 1.9, 4.4):
        out = _phi_f2(phi, np.exp(1j * theta) * xi @ q)
        assert out == pytest.approx(_phi_f2(phi, xi), rel=1e-12)


def test_phi_norm_normalization_factor():
    phi = norms.affine_phi(1.0)
    xi = np.array([0.2, 0.4j], dtype=complex)
    assert _phi_f2(phi, xi, normalization=6.0) == pytest.approx(
        6.0 * _phi_f2(phi, xi), rel=1e-13
    )


def test_certify_scc_passes_builtins():
    assert norms.certify_scc(norms.bergman_family(4.0)).passed
    cert = norms.certify_scc(norms.tk_family(t=1.0, k=2, c=4.0))
    assert cert.passed
    assert cert.witness is None


def test_certify_scc_rejects_decreasing_direction():
    bad = g_family_from_callable(
        lambda xi: xi[0] - 0.5 * xi[1], k=2, label="decreasing"
    )
    cert = norms.certify_scc(bad)
    assert not cert.passed
    assert cert.failed_condition == "gradient_positivity"
    assert cert.witness is not None
    assert cert.worst_margin < -0.4  # gradient entry is -0.5


def _certify_scc_loop(spec):
    """Oracle: the per-point certify_scc, gradient check before Hessian check."""
    grid = norms.orthant_grid(spec.k)
    worst, witness, failed = np.inf, None, None
    for xi in grid:
        margin = float(np.min(np.atleast_1d(spec.grad(xi)))) - norms.STRICT_MARGIN
        if margin < worst:
            worst, witness, failed = margin, xi, "gradient_positivity"
        hmat = np.atleast_2d(spec.hess(xi)).astype(np.complex128)
        margin = float(numkernel.eigvalsh_batch(hmat[None])[0, -1]) \
            + norms.STRICT_MARGIN
        if margin < worst:
            worst, witness, failed = margin, xi, "hessian_psd"
    passed = worst >= 0.0
    return norms.Certificate(passed, worst, None if passed else witness,
                             None if passed else failed)


@pytest.mark.parametrize("spec", [
    norms.bergman_family(4.0),
    norms.tk_family(t=1.0, k=2, c=4.0),
    norms.tk_family(t=0.5, k=3, c=2.0),
    g_family_from_callable(lambda xi: xi[0] - 0.5 * xi[1], k=2,
                           label="decreasing"),
    g_family_from_callable(lambda xi: xi[0] + xi[1] - 2.0 * xi[0] * xi[1],
                           k=2, label="saddle"),
    g_family_from_callable(lambda xi: xi[0] + 0.3 * xi[1] - xi[1] ** 2,
                           k=2, label="concave"),
], ids=lambda spec: spec.label)
def test_certify_scc_matches_the_point_loop(spec):
    cert = norms.certify_scc(spec)
    oracle = _certify_scc_loop(spec)
    assert cert.passed == oracle.passed
    assert cert.worst_margin == oracle.worst_margin
    assert cert.failed_condition == oracle.failed_condition
    assert np.array_equal(cert.witness, oracle.witness) \
        or cert.witness is oracle.witness is None


def test_certify_scc_reports_a_non_psd_hessian():
    cert = norms.certify_scc(g_family_from_callable(
        lambda xi: xi[0] + xi[1] - 2.0 * xi[0] * xi[1], k=2, label="saddle"))
    assert not cert.passed
    assert cert.failed_condition == "hessian_psd"
    assert cert.worst_margin < -1.0  # Hessian eigenvalues are +-2


def test_certify_sn_passes_builtins():
    assert norms.certify_sn(norms.constant_phi(2.0)).passed
    assert norms.certify_sn(norms.affine_phi(0.5)).passed


def test_certify_sn_rejects_steep_affine():
    cert = norms.certify_sn(norms.affine_phi(2.0))
    assert not cert.passed
    assert cert.failed_condition == "slope_bound"
    assert cert.witness is not None and cert.witness[0] > 0.5


def test_a_memoized_witness_is_read_only(clear_memos):
    # every caller shares the certificate of a family: a write into its
    # witness would change every later certificate of that family
    bad = g_family_from_callable(lambda xi: xi[0] - 0.5 * xi[1], k=2,
                                 label="decreasing")
    for certify, family in ((norms.certify_scc, bad),
                            (norms.certify_sn, norms.affine_phi(2.0))):
        cert = certify(family)
        with pytest.raises(ValueError):
            cert.witness[0] = 0.0
        assert certify(family) is cert


def test_family_equality_is_exact():
    # a family compares by its label and by its constructor's name and exact
    # arguments (its params), never by its callables
    assert norms.tk_family(1, 2, 4.0) == norms.tk_family(1.0, 2, 4.0)
    assert hash(norms.affine_phi(2)) == hash(norms.affine_phi(2.0))
    # -0.0 == 0.0, but the labels differ
    assert norms.tk_family(-0.0, 2, 4.0) != norms.tk_family(0.0, 2, 4.0)
    assert norms.affine_phi(-0.0) != norms.affine_phi(0.0)
    # one ulp of c: the labels agree, the params do not
    up = math.nextafter(4.0, 5.0)
    assert norms.bergman_family(up).label == norms.bergman_family(4.0).label
    assert norms.bergman_family(up) != norms.bergman_family(4.0)
    assert norms.tk_family(1.0, 2, up) != norms.tk_family(1.0, 2, 4.0)
    assert norms.constant_phi(math.nextafter(1.0, 0.0)) != norms.constant_phi(1.0)
    # a family built directly equals only itself, whatever its label
    built = [norms.PhiFamilySpec(value=lambda s: 1.0 + 0.0 * s,
                                 d1=lambda s: 0.0 * s, d2=lambda s: 0.0 * s,
                                 label="flat") for _ in range(2)]
    assert built[0] == built[0] and built[0] != built[1]
    assert metrics.phi_metric(domains.type_iv(3), built[0]) != \
        metrics.phi_metric(domains.type_iv(3), built[1])


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
        f1 = _origin_f2(g, am.differential(phi, z0, v))
        f2 = _origin_f2(g, am.differential(phi2, z0, v))
        assert f2 == pytest.approx(f1, rel=1e-11)


def _profile_fns():
    rng = np.random.default_rng(11)
    weights = rng.uniform(0.5, 2.0, 4)
    family = norms.tk_family(1.0, 3, 4.0)

    def tk(y):  # f^2 of the singular-value profile sqrt(y)
        traces = np.stack([np.sum(y**a, axis=-1) for a in (1, 2, 3)], axis=-1)
        return family.value(norms.power_means(traces))

    return [
        ("tk_profile", tk),
        ("weighted_squares", lambda y: np.sum(weights[: y.shape[-1]] * y**2, axis=-1)),
        ("ratio", lambda y: (y @ weights[: y.shape[-1]]) / (1.0 + np.sum(y**3, axis=-1))),
    ]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_polish_many_rows_are_one_row_polishes(dim):
    for name, fn in _profile_fns():
        for total in (1.0, 0.5):
            grid, step = norms.simplex_grid(dim, total)
            vals = fn(grid)
            picks = [int(np.argmin(vals)), int(np.argmax(vals)), len(grid) // 2]
            signs = np.array([-1.0, 1.0, 1.0])
            steps = np.array([step, step, 4.0 * step])
            ys, fs = norms.polish_many(fn, grid[picks], signs, steps)
            for row, (i, sign, st) in enumerate(zip(picks, signs, steps)):
                y, f = norms.polish_many(fn, grid[[i]], sign, st)
                assert f[0] == fs[row], name  # bit for bit
                assert np.array_equal(y[0], ys[row]), name
            # simplex_scan polishes both ends as two rows of one call
            (ymin, fmin), (ymax, fmax) = norms.simplex_scan(fn, dim, total=total)
            if dim > 1:
                assert (fmin, fmax) == (fs[0], fs[1]), name
                assert np.array_equal(ymin, ys[0]) and np.array_equal(ymax, ys[1])


def test_polish_many_never_evaluates_infeasible_candidates():
    def fn(y):
        assert np.all(y >= 0.0)  # a negative mass never reaches fn
        return y[:, 0]

    y, f = norms.polish_many(fn, np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0, 0.25)
    assert np.array_equal(y, [[1.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(f, [1.0, 1.0])


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
    assert len(norms._composition_units(3, 6)) == 7
    assert np.array_equal(norms.simplex_grid(1, 0.5)[0], [[0.5]])


def test_polish_climbs_from_a_grid_point():
    fn = lambda y: -np.sum((y - np.array([0.55, 0.3, 0.15])) ** 2, axis=-1)
    y, f = norms.polish_many(fn, np.array([[1.0, 0.0, 0.0]]), +1.0, 0.1)
    np.testing.assert_allclose(y[0], [0.55, 0.3, 0.15], atol=1e-10)
    assert f[0] == pytest.approx(0.0, abs=1e-18)
    y, f = norms.polish_many(lambda y: -fn(y), np.array([[1.0, 0.0, 0.0]]),
                             -1.0, 0.1)
    np.testing.assert_allclose(y[0], [0.55, 0.3, 0.15], atol=1e-10)


def _polish_one_halving(fn_batch, y0, sign, step, moves=None):
    """Oracle: the pattern search with one fn_batch round per halving.

    Each active row tries its candidates at its own step, moves to the best
    if it gains more than POLISH_GAIN, and halves its step otherwise; a row
    stops once its step is <= POLISH_TOL.
    """
    tol, gain = norms.POLISH_TOL, norms.POLISH_GAIN
    y = np.array(y0, dtype=float)
    rows = len(y)
    if moves is None:
        dim = y.shape[-1]
        moves = norms.mass_moves([(i, j) for i in range(dim)
                                  for j in range(dim) if i != j])
    sign = np.broadcast_to(np.asarray(sign, dtype=float), (rows,))
    step = np.array(np.broadcast_to(np.asarray(step, dtype=float), (rows,)))
    best = np.array(fn_batch(y), dtype=float)
    active = np.flatnonzero(step > tol)
    while active.size:
        cands, feasible = moves(y[active], step[active])
        if not len(cands):
            break
        f = np.full(feasible.shape, -np.inf)
        if feasible.any():
            f[feasible] = np.broadcast_to(sign[active], f.shape)[feasible] \
                * np.asarray(fn_batch(cands[feasible]), dtype=float)
        b = np.argmax(f, axis=0)
        cols = np.arange(active.size)
        fb = f[b, cols]
        up = fb > sign[active] * best[active] + gain
        moved = active[up]
        y[moved] = cands[b[up], cols[up]]
        best[moved] = sign[moved] * fb[up]
        step[active[~up]] *= 0.5
        active = active[step[active] > tol]
    return y, best


def _assert_ladder_matches_oracle(fn, y0, sign, step, polish=None, **kw):
    y, best = (polish or norms.polish_many)(fn, y0, sign, step, **kw)
    oy, obest = _polish_one_halving(fn, y0, sign, step, **kw)
    assert np.array_equal(y, oy) and np.array_equal(best, obest)  # bit for bit
    return y, best


_LADDER_DOMAINS = [domains.type_i(2, 2), domains.type_i(2, 3),
                   domains.type_i(3, 3), domains.type_ii(3), domains.type_iii(6)]
_LADDER_METRICS = [
    f(d) for d in _LADDER_DOMAINS for f in (
        metrics.bergman_metric,
        lambda d: metrics.tk_metric(d, 0.1, 2),
        lambda d: metrics.tk_metric(d, 2.0, 2),
        lambda d: metrics.tk_metric(d, 20.0, 2),
        lambda d: metrics.tk_metric(d, 1.0, 3))]
_BOWL = norms.PhiFamilySpec(  # not monotone: the Lie sup lies inside the box
    value=lambda s: 1.0 + 2.0 * (np.asarray(s, dtype=float) - 0.5) ** 2,
    d1=lambda s: 4.0 * (np.asarray(s, dtype=float) - 0.5),
    d2=lambda s: np.full(np.shape(s), 4.0), label="bowl(c=2)")
_LADDER_METRICS += [
    metrics.bergman_metric(domains.type_iv(3)),
    metrics.phi_metric(domains.type_iv(5), norms.affine_phi(2.0)),
    metrics.phi_metric(domains.type_iv(2), _BOWL),
    metrics.phi_metric(domains.type_iv(4), _BOWL)]


@pytest.mark.parametrize("metric", _LADDER_METRICS, ids=lambda m: m.label)
def test_ladder_polish_matches_one_halving_oracle(metric, monkeypatch,
                                                 clear_memos):
    """simplex_scan's fn and the block-move joint fn of the bisectional sup;
    on the Lie ball, the box polish of the bisectional sup.  Each side
    recomputes the bounds: the memos are emptied before it."""
    shipped = norms.polish_many
    calls = []

    def checked(fn, y0, sign, step, **kw):
        calls.append(len(y0))
        return _assert_ladder_matches_oracle(fn, y0, sign, step, shipped,
                                             **kw)

    def bounds():
        report = curvature.curvature_bounds(metric)
        return report, curvature.bisectional_bound(metric, report.k1, 1, 0)

    monkeypatch.setattr(norms, "polish_many", checked)
    report, bisectional = bounds()
    # the K scan's two ends, then the bisectional sup
    assert calls == [2, 1]
    monkeypatch.setattr(norms, "polish_many", _polish_one_halving)
    clear_memos()
    oracle, oracle_bisectional = bounds()
    assert (report.k1, report.k2) == (oracle.k1, oracle.k2)
    assert bisectional == oracle_bisectional
    assert np.array_equal(report.argmin_profile, oracle.argmin_profile)
    assert np.array_equal(report.argmax_profile, oracle.argmax_profile)


def test_ladder_ends_a_grid_point_polish_in_one_round():
    metric = metrics.tk_metric(domains.type_i(2, 2), 1.0, 2)
    dim, total = curvature._profile_dim_total(metric.domain)

    def counted(calls):
        def fn(y):
            calls.append(len(y))
            return curvature._profile_hsc(metric, y)
        return fn

    grid, step = norms.simplex_grid(dim, total)
    vals = counted([])(grid)
    starts = grid[[int(np.argmin(vals)), int(np.argmax(vals))]]
    ladder, oracle = [], []
    norms.polish_many(counted(ladder), starts, [-1.0, 1.0], step)
    _polish_one_halving(counted(oracle), starts, [-1.0, 1.0], step)
    # the start's own value, then one halving per round against one ladder
    assert len(oracle) >= 30 and len(ladder) == 2


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_ladder_matches_oracle_per_row_signs_and_steps(dim):
    for name, fn in _profile_fns():
        for total in (1.0, 0.5):
            grid, step = norms.simplex_grid(dim, total)
            vals = fn(grid)
            picks = [int(np.argmin(vals)), int(np.argmax(vals)), len(grid) // 2,
                     0, len(grid) - 1]
            signs = np.array([-1.0, 1.0, 1.0, -1.0, 1.0])
            steps = np.array([step, step, 4.0 * step, 0.3, 1e-12])
            _assert_ladder_matches_oracle(fn, grid[picks], signs, steps)


def test_ladder_matches_oracle_when_climbing():
    target = np.array([0.55, 0.3, 0.15])
    fn = lambda y: -np.sum((y - target) ** 2, axis=-1)
    starts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1 / 3, 1 / 3, 1 / 3]])
    y, _ = _assert_ladder_matches_oracle(fn, starts, 1.0, 0.1)
    np.testing.assert_allclose(y, np.broadcast_to(target, y.shape), atol=1e-10)
    _assert_ladder_matches_oracle(lambda y: -fn(y), starts, -1.0,
                                  np.array([0.1, 0.25, 0.01]))


def test_ladder_matches_oracle_on_infeasible_and_no_moves():
    def fn(y):
        assert np.all(y >= 0.0)  # a negative mass never reaches fn
        return y[:, 0] - 0.3 * y[:, 1] ** 2

    corners = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    _assert_ladder_matches_oracle(fn, corners, 1.0, 0.25)
    _assert_ladder_matches_oracle(fn, corners, -1.0, np.array([0.25, 1.0, 0.1]))

    def no_moves(y, step):
        return np.empty((0,) + y.shape), np.empty((0, len(y)), dtype=bool)

    y, best = _assert_ladder_matches_oracle(fn, corners, 1.0, 0.25,
                                            moves=no_moves)
    assert np.array_equal(y, corners) and np.array_equal(best, fn(corners))


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
    custom = g_family_from_callable(
        lambda xi: xi[0] + 0.5 * xi[1] ** 2 + xi[2] ** 3, k=3)
    rows = np.array([custom.grad(row) for row in h.reshape(-1, 3)])
    assert np.array_equal(norms.grad_rows(custom, h), rows.reshape(h.shape))
