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


def _lie_stencil(metric, vs, ws, h=1e-3):
    """Nine-point oracle: (1/4) Laplacian of zeta -> F^2(zeta*W; V) at 0.

    Fourth-order second differences along zeta real and imaginary; the step
    balances truncation ~h^4 against roundoff ~eps/h^2 (about 1e-9 for
    order-one data).
    """
    offsets = np.array([0.0, h, -h, 2 * h, -2 * h, 1j * h, -1j * h, 2j * h, -2j * h])
    zs = offsets[:, None, None] * ws[None, :, :]
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
    assert curv.hsc_origin(metric, _rank_one(m, n)) == pytest.approx(
        -4.0 / (m + n), abs=1e-12
    )


def test_rank_one_ball_constant_curvature():
    metric = met.bergman_metric(dom.type_i(1, 3))
    vals = [
        curv.hsc_origin(metric, dom.sample_tangent(dom.type_i(1, 3), seed=i))
        for i in range(20)
    ]
    assert max(vals) - min(vals) < 1e-12
    assert vals[0] == pytest.approx(-1.0, abs=1e-12)


def test_scale_invariance():
    metric = met.tk_metric(dom.type_i(2, 2), 1.0, 2)
    v = dom.sample_tangent(metric.domain, seed=3)
    k0 = curv.hsc_origin(metric, v)
    assert curv.hsc_origin(metric, (0.3 - 1.7j) * v) == pytest.approx(k0, abs=1e-10)


def test_unitary_invariance_matrix():
    metric = met.tk_metric(dom.type_i(2, 3), 0.5, 2)
    rng = np.random.default_rng(0)
    v = dom.sample_tangent(metric.domain, seed=4)
    k0 = curv.hsc_origin(metric, v)
    for _ in range(5):
        qu, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        qv, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        assert curv.hsc_origin(metric, qu @ v @ qv) == pytest.approx(k0, abs=1e-10)


def test_lie_curvature_depends_only_on_s():
    metric = met.phi_metric(dom.type_iv(3), nrm.affine_phi(0.5))
    v = dom.sample_tangent(metric.domain, seed=7)
    r = float(np.sum(np.abs(v) ** 2))
    s = abs(np.sum(v * v)) ** 2 / r**2
    rep = _lie_reps(np.array([s]), 3)[0]
    assert curv.hsc_origin(metric, v) == pytest.approx(
        curv.hsc_origin(metric, rep), abs=1e-9
    )


def test_bergman_bounds_square_case():
    rep = curv.curvature_bounds(met.bergman_metric(dom.type_i(2, 2)), pair_draws=500)
    assert rep.k1 == pytest.approx(1.0, abs=1e-9)
    assert rep.k2 == pytest.approx(0.5, abs=1e-9)
    assert rep.lu == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert rep.k1 >= rep.k2 > 0 and rep.lu >= 1.0
    # Bergman closed form: B = -(4/c) |<V,W>|^2 / (|V|^2 |W|^2), sup = 4/c = k1
    assert rep.bisectional_c == pytest.approx(1.0, abs=1e-9)


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
    rep = curv.curvature_bounds(metric, pair_draws=500)
    assert rep.bisectional_c == pytest.approx(rep.k1, abs=1e-8)
    # so does the search alone, before the max with k1 and the sampled pairs
    assert rep.bisectional_search == pytest.approx(rep.k1, rel=1e-14)
    assert curv.curvature_bounds(metric, pair_draws=0).bisectional_search == 0.0


def test_two_term_frozen_values():
    metric = met.tk_metric(dom.type_i(2, 2), 1.0, 2)  # c = 4
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    uniform = np.eye(2, dtype=complex) / np.sqrt(2.0)
    assert curv.hsc_origin(metric, e11) == pytest.approx(-1.0, abs=1e-12)
    assert curv.hsc_origin(metric, uniform) == pytest.approx(
        -(2.0 - np.sqrt(2.0)), abs=1e-9
    )


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_two_term_ratio_formula(t):
    rep = curv.curvature_bounds(met.tk_metric(dom.type_i(2, 2), t, 2), pair_draws=0)
    assert rep.k1 / rep.k2 == pytest.approx((2 + t * np.sqrt(2)) / (1 + t), abs=1e-6)
    assert 1.0 < rep.lu < np.sqrt(2.0)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_lie_ball_closed_form(n):
    metric = met.bergman_metric(dom.type_iv(n))
    s_grid = np.linspace(0.0, 1.0, 21)
    ks = curv.hsc_origin_many(metric, _lie_reps(s_grid, n))
    assert np.max(np.abs(ks + 2.0 * (2.0 - s_grid) / n)) < 1e-12
    rep = curv.curvature_bounds(metric, pair_draws=0)
    assert rep.k1 / rep.k2 == pytest.approx(2.0, abs=1e-12)


def test_bisectional_orthogonal_directions_vanish():
    metric = met.bergman_metric(dom.type_i(2, 2))
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    e22 = np.zeros((2, 2), dtype=complex)
    e22[1, 1] = 1.0
    assert abs(curv.bisectional_origin(metric, e11, e22)) < 1e-14


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


def test_bisectional_simultaneous_unitary_invariance():
    metric = met.tk_metric(dom.type_i(2, 2), 1.0, 2)
    rng = np.random.default_rng(5)
    v = dom.sample_tangent(metric.domain, seed=8)
    w = dom.sample_tangent(metric.domain, seed=9)
    b0 = curv.bisectional_origin(metric, v, w)
    qu, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    qv, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    assert curv.bisectional_origin(metric, qu @ v @ qv, qu @ w @ qv) == pytest.approx(
        b0, abs=1e-10
    )


def test_transport_invariance():
    for metric in [met.bergman_metric(dom.type_i(2, 2)),
                   met.bergman_metric(dom.type_iv(3))]:
        spec = metric.domain
        z = dom.sample_point(spec, seed=4)
        v = dom.sample_tangent(spec, seed=5)
        k0 = curv.hsc(metric, z, v)
        phi = am.random_automorphism(spec, seed=6)
        k1 = curv.hsc(metric, am.apply(phi, z), am.differential(phi, z, v))
        assert k1 == pytest.approx(k0, abs=1e-8)


def test_range_verification():
    metric = met.tk_metric(dom.type_i(2, 2), 1.0, 2)
    rep = curv.curvature_bounds(metric, pair_draws=0)
    ok, worst_low, worst_high = curv.verify_curvature_range(
        metric, rep, n_samples=5000, seed=1
    )
    assert ok and worst_low <= 0.0 and worst_high <= 0.0


def test_lu_constants():
    for m in [1, 2, 3]:
        metric = met.bergman_metric(dom.type_i(m, m))
        assert curv.lu_constant(metric) == pytest.approx(np.sqrt(m), abs=1e-6)
    tk = met.tk_metric(dom.type_i(2, 2), 1.0, 2)
    assert curv.lu_constant(tk) == pytest.approx(1.306562965, abs=1e-4)


def test_zero_vector_rejected():
    metric = met.bergman_metric(dom.type_i(2, 2))
    with pytest.raises(DomainError):
        curv.hsc_origin(metric, np.zeros((2, 2)))
    with pytest.raises(DomainError):
        curv.bisectional_origin(metric, np.zeros((2, 2)), np.eye(2))


@pytest.mark.parametrize("metric, expected", [
    (met.bergman_metric(dom.type_i(2, 2)), 1.0),
    (met.tk_metric(dom.type_ii(2), 1.0, 2), 4.0 / 3.0),
    (met.tk_metric(dom.type_i(3, 3), 1.0, 2), 2.0 / 3.0),
], ids=lambda x: x.label if hasattr(x, "label") else f"{x:.6g}")
def test_bisectional_sup_matrix_pinned(metric, expected):
    assert curv._bisectional_sup_matrix(metric) == pytest.approx(expected, abs=1e-12)


LIE_PROFILES = {"bergman": None, "affine0.5": 0.5, "affine2": 2.0}
lie_metrics = pytest.mark.parametrize("n, profile", [
    (n, profile) for n in (2, 3, 4, 6) for profile in LIE_PROFILES])


def _lie_metric(n, profile):
    spec = dom.type_iv(n)
    t = LIE_PROFILES[profile]
    return met.bergman_metric(spec) if t is None else met.phi_metric(
        spec, nrm.affine_phi(t))


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
    exact = curv._lie_contraction(metric, vs, ws)
    oracle = _lie_stencil(metric, vs, ws)
    assert np.max(np.abs(exact - oracle) / np.abs(oracle)) < 1e-7
    # the batch axes of V and W broadcast
    grid = curv._lie_contraction(metric, vs[:5, None], ws[None, :7])
    loop = [[curv._lie_contraction(metric, v, w) for w in ws[:7]] for v in vs[:5]]
    assert np.allclose(grid, loop, rtol=1e-15, atol=0.0)


@lie_metrics
def test_lie_origin_f2_matches_eval2_many(n, profile):
    metric = _lie_metric(n, profile)
    vs = np.concatenate([_unit_rows(np.random.default_rng(n), 100, n),
                         _lie_reps(np.array([0.0, 1.0]), n)])
    origin = nrm.eval_phi_norm_many(metric.family, vs, metric.normalization)
    ref = met.eval2_many(metric, np.zeros_like(vs), vs)
    assert np.max(np.abs(origin - ref) / ref) < 1e-14


def test_lie_origin_curvature_never_builds_the_matrix(monkeypatch):
    def refuse(z):
        raise AssertionError("origin curvature built M(z)")

    monkeypatch.setattr(met, "_lie_ball_matrix", refuse)
    metric = met.bergman_metric(dom.type_iv(3))
    vs = _unit_rows(np.random.default_rng(0), 20, 3)
    curv.hsc_origin_many(metric, vs)
    curv.bisectional_origin_many(metric, vs, vs[::-1])
    curv.curvature_bounds(metric, pair_draws=100)


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
        return nrm.polish(fn, grid[int(np.argmax(fn(grid)))], +1.0, step)

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


def _global_step_sup_lie(metric, restarts=12):
    """Oracle: the Lie-ball search with one step for all 24 starts, halved
    only in a round where no start gains more than 1e-15."""
    n = metric.domain.dims[0]
    norm = metric.normalization
    rng = np.random.default_rng(0)

    def value(svec, wmat):
        reps = _lie_reps(svec, n)
        f2v = nrm.eval_phi_norm_many(metric.family, reps, norm)
        f2w = nrm.eval_phi_norm_many(metric.family, wmat, norm)
        return 2.0 * curv._lie_contraction(metric, reps, wmat) / (f2v * f2w)

    s0 = np.linspace(0.0, 1.0, restarts)
    wr = rng.standard_normal((restarts, n)) + 1j * rng.standard_normal((restarts, n))
    wr /= np.linalg.norm(wr, axis=-1, keepdims=True)
    s = np.concatenate([s0, rng.uniform(0.0, 1.0, restarts)])
    w = np.concatenate([_lie_reps(s0, n), wr])
    best = value(s, w)
    step = 0.25
    while step > 1e-9:
        cands_s = [np.clip(s + step, 0.0, 1.0), np.clip(s - step, 0.0, 1.0)]
        cands_w = [w, w]
        for j in range(n):
            for delta in (step, -step, 1j * step, -1j * step):
                wc = w.copy()
                wc[:, j] += delta
                cands_s.append(s)
                cands_w.append(wc / np.linalg.norm(wc, axis=-1, keepdims=True))
        stack_s, stack_w = np.stack(cands_s), np.stack(cands_w)
        vals = value(stack_s.reshape(-1), stack_w.reshape(-1, n))
        vals = vals.reshape(len(cands_s), len(s))
        vbest, which = vals.max(axis=0), vals.argmax(axis=0)
        gain = np.where(vbest > best + 1e-15)[0]
        if gain.size:
            s[gain] = stack_s[which[gain], gain]
            w[gain] = stack_w[which[gain], gain]
            best[gain] = vbest[gain]
        else:
            step *= 0.5
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


@pytest.mark.parametrize("n, profile", [(2, "affine2"), (3, "affine0.5"),
                                        (4, "bergman")])
def test_per_start_lie_search_matches_global_step(n, profile):
    metric = _lie_metric(n, profile)
    per_start = curv._bisectional_sup_lie(metric)
    oracle = _global_step_sup_lie(metric)
    assert abs(per_start - oracle) <= 1e-15 * abs(oracle)


def test_joint_table_row_blocks_find_the_same_cell(monkeypatch):
    metric = met.tk_metric(dom.type_iii(6), 2.0, 3)  # rank 3
    whole = curv._bisectional_sup_matrix(metric)
    monkeypatch.setattr(curv, "SUP_TABLE_CELLS", 1000)  # about 3 rows a block
    assert curv._bisectional_sup_matrix(metric) == whole
