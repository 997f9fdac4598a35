"""End-to-end verification gates for the shipped metric families.

One test per guarantee, with sample counts and tolerances pinned.  Each
``pytest -v`` line is a pass/fail verdict for the corresponding property;
nothing here is statistical beyond the fixed seeds.
"""
import numpy as np
import pytest

import cartanfinsler.automorphisms as am
import cartanfinsler.curvature as curv
import cartanfinsler.domains as dom
import cartanfinsler.metrics as met
import cartanfinsler.norms as nrm
import cartanfinsler.schwarz as sw
from oracles import bisection_gauge, g_family_from_callable, sandwich_equality_residuals

# one metric pair (Hermitian + non-Hermitian) per domain type
SHIPPED = [
    met.bergman_metric(dom.type_i(2, 3)),
    met.tk_metric(dom.type_i(2, 3), 1.0, 2),
    met.bergman_metric(dom.type_ii(2)),
    met.tk_metric(dom.type_ii(2), 1.0, 2),
    met.bergman_metric(dom.type_iii(4)),
    met.tk_metric(dom.type_iii(4), 1.0, 2),
    met.bergman_metric(dom.type_iv(3)),
    met.phi_metric(dom.type_iv(3), nrm.affine_phi(0.5)),
]

CONNECTION_DOMAINS = [dom.type_i(2, 2), dom.type_ii(2), dom.type_iii(4)]


def _gaussian_tangents(spec, n, rng):
    shape = (n,) + spec.ambient_shape
    vs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if spec.kind == "II":
        vs = 0.5 * (vs + np.swapaxes(vs, -1, -2))
    elif spec.kind == "III":
        vs = 0.5 * (vs - np.swapaxes(vs, -1, -2))
    return vs


def test_01_bergman_lu_equals_sqrt_rank():
    for m, n in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)]:
        lu = curv.curvature_bounds(met.bergman_metric(dom.type_i(m, n))).lu
        assert lu == pytest.approx(np.sqrt(m), abs=1e-12), (m, n)


def test_02_two_term_lu_value_and_strict_window():
    lu = curv.curvature_bounds(met.tk_metric(dom.type_i(2, 3), 1.0, 2)).lu
    assert lu == pytest.approx(np.sqrt((2.0 + np.sqrt(2.0)) / 2.0), abs=1e-12)
    for t in (0.5, 1.0, 2.0):
        lu_t = curv.curvature_bounds(met.tk_metric(dom.type_i(2, 3), t, 2)).lu
        assert 1.0 < lu_t < np.sqrt(2.0), t


def test_03_lie_ball_curvature_ratio_is_two():
    for n in range(2, 7):
        rep = curv.curvature_bounds(met.bergman_metric(dom.type_iv(n)))
        assert rep.k1 / rep.k2 == pytest.approx(2.0, abs=1e-12), n


def test_04_invariance_under_automorphisms():
    for metric in SHIPPED:
        deviation = met.verify_invariance(metric, 100, 41)
        assert deviation <= 1e-9, (metric.label, deviation)


def _connection_metrics():
    metrics = []
    for spec in CONNECTION_DOMAINS:
        metrics.append(met.bergman_metric(spec))
        metrics.append(met.tk_metric(spec, 1.0, 2))
    metrics.append(met.phi_metric(dom.type_iv(3), nrm.affine_phi(0.5)))
    return metrics


def test_05_kahler_berwald_connection_structure():
    for metric in _connection_metrics():
        rep = met.verify_kahler_berwald(metric, seed=5)
        assert rep.mixed_residual <= 1e-6, metric.label
        assert rep.gamma_v_variation <= 1e-12, metric.label
        assert rep.gamma_symmetry <= 1e-12, metric.label
        assert rep.gamma_vs_hermitian <= 1e-12, metric.label


def test_05_connection_rows_hold_over_seeds():
    # the connection rows at every seed 0-19, not only at seed 5, gated at
    # 1e-13; with the stacked pinv fit they read at most 2.7e-14 over seeds
    # 0-99
    for metric in _connection_metrics():
        for seed in range(20):
            rep = met.verify_kahler_berwald(metric, seed=seed)
            worst = max(rep.gamma_v_variation, rep.gamma_symmetry,
                        rep.gamma_vs_hermitian)
            assert worst <= 1e-13, (metric.label, seed, worst)


def test_06_curvature_sign_and_pinching():
    rng = np.random.default_rng(66)
    for metric in SHIPPED:
        spec = metric.domain
        report = curv.curvature_bounds(metric)
        bisectional_c, _ = curv.bisectional_bound(metric, report.k1,
                                                  curv.PAIR_DRAWS, 660)
        assert report.k2 > 0.0, metric.label
        vmin, vmax = curv.verify_curvature_range(metric, n_samples=100_000, seed=661)
        worst_low = (-report.k1 - 1e-7) - vmin
        worst_high = vmax - (-report.k2 + 1e-7)
        assert worst_low <= 0.0 and worst_high <= 0.0, (metric.label, worst_low,
                                                        worst_high)
        # fresh pairs stay within [-C - 1e-7, 1e-9]
        vs = _gaussian_tangents(spec, 10_000, rng)
        ws = _gaussian_tangents(spec, 10_000, rng)
        pairs = curv.bisectional_origin_many(metric, vs, ws)
        assert np.min(pairs) >= -bisectional_c - 1e-7, metric.label
        assert np.max(pairs) <= 1e-9, metric.label
        diag = curv.bisectional_origin_many(metric, vs[:1000], vs[:1000])
        sect = curv.hsc_origin_many(metric, vs[:1000])
        assert np.max(np.abs(diag - sect)) <= 1e-9, metric.label


def test_07_gauge_comparison_sandwich():
    for metric in SHIPPED:
        rep = sw.verify_sandwich(metric, n_samples=10_000, seed=77)
        assert rep.worst_lower >= -1e-8, (metric.label, rep.worst_lower)
        assert rep.worst_upper >= -1e-8, (metric.label, rep.worst_upper)
        assert rep.eq_lower <= 1e-4, (metric.label, rep.eq_lower)
        assert rep.eq_upper <= 1e-4, (metric.label, rep.eq_upper)


@pytest.mark.parametrize("metric", SHIPPED, ids=lambda m: m.label)
def test_sandwich_equality_memo_equals_the_per_call_probes(metric, clear_memos):
    # the memo gives, bit for bit, K1 and K2 of curvature_bounds and the
    # residuals the sandwich computed on every call before it was memoized
    bounds = curv.curvature_bounds(metric)
    assert sw._equality_residuals(metric) == (
        bounds.k1, bounds.k2, *sandwich_equality_residuals(metric, bounds))


def test_08_schwarz_margins_over_map_corpus():
    pairs = [
        (dom.type_i(2, 2), dom.type_i(2, 2)),
        (dom.type_ii(2), dom.type_ii(2)),
        (dom.type_i(1, 2), dom.type_i(2, 2)),
        (dom.type_ii(2), dom.type_i(2, 2)),
    ]
    worst_rel = np.inf
    sup_bergman_self = 0.0
    for pi, (src, tgt) in enumerate(pairs):
        maps = sw.generate_maps(src, tgt, seed=88 + pi, count=500)
        # each map's 100 (Z, V) are drawn once and shared by its metric pairs
        zs, vs = sw.draw_samples(src, 880 + pi, len(maps), n_samples=100)
        for f1 in (met.bergman_metric(src), met.tk_metric(src, 1.0, 2)):
            for f2 in (met.bergman_metric(tgt), met.tk_metric(tgt, 1.0, 2)):
                k1 = curv.curvature_bounds(f1).k1
                k2 = curv.curvature_bounds(f2).k2
                # one call checks every map on its own row of samples
                reps = sw.schwarz_check(maps, f1, f2, k1, k2, zs, vs)
                for i, rep in enumerate(reps):
                    assert rep.min_margin_rel >= -1e-8, (
                        src, tgt, f1.label, f2.label, i, rep.min_margin_rel)
                    worst_rel = min(worst_rel, rep.min_margin_rel)
                    if (pi == 0 and f1.label == f2.label
                            and f1.label.startswith("bergman")):
                        sup_bergman_self = max(sup_bergman_self, rep.sup_ratio)
    # canonical distortion probe: diagonal slice map at the rank-1 tangent
    bm = met.bergman_metric(dom.type_i(2, 2))
    probe = am.HoloMap(bm.domain, bm.domain,
                       am.ScalarSlice((0, 0), np.eye(2, dtype=complex)))
    z0 = np.zeros((2, 2), dtype=complex)
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    ratio = np.sqrt(
        met.eval2(bm, am.apply(probe, z0), am.differential(probe, z0, e11))
        / met.eval2(bm, z0, e11))
    sup_bergman_self = max(sup_bergman_self, float(ratio))
    # reported, not gated: the self-map supremum approaches sqrt(2)
    print(f"\nworst relative margin {worst_rel:+.3e}; "
          f"sup (pullback ratio) for self-maps = {sup_bergman_self:.9f}")
    assert worst_rel >= -1e-8


def test_09_oracle_equivalences():
    # closed-form gauge vs ray bisection, 1000 samples over the four types
    specs = [dom.type_i(2, 3), dom.type_ii(2), dom.type_iii(4), dom.type_iv(3)]
    for spec in specs:
        zs = dom.sample_points(spec, 9000, 250)
        vs = dom.sample_tangents(spec, 9500, 250)
        _, ws = am.push(am.normalizing_automorphism(spec, zs), zs, vs)
        for i, (direct, w) in enumerate(zip(sw.caratheodory_many(spec, zs, vs), ws)):
            oracle = bisection_gauge(spec, w)
            assert abs(direct - oracle) <= 1e-9 * max(1.0, oracle), (spec, i)
    # power traces vs eigenvalue sums
    rng = np.random.default_rng(91)
    vs = _gaussian_tangents(dom.type_i(3, 4), 500, rng)
    vs /= np.linalg.norm(vs, axis=(-2, -1), keepdims=True)
    grams = vs @ np.conj(np.swapaxes(vs, -1, -2))
    _, traces = met.power_ladder(grams, 4)
    eigs = np.linalg.eigvalsh(grams)
    for a in range(1, 5):
        assert np.max(np.abs(traces[:, a - 1] - np.sum(eigs**a, axis=-1))) \
            <= 1e-10, a
    # geodesic speed conservation over a long integration
    metric = met.bergman_metric(dom.type_i(2, 2))
    z0 = dom.sample_point(metric.domain, seed=92)
    v0 = dom.sample_tangent(metric.domain, seed=93)
    v0 = 0.25 * v0 / np.sqrt(met.eval2(metric, z0, v0))
    times, points, velocities = met.geodesic(metric, z0, v0, t_end=5.0,
                                             steps=2000)
    speeds = np.sqrt(met.eval2_many(metric, np.stack(points),
                                    np.stack(velocities)))
    drift = np.max(np.abs(speeds - speeds[0])) / speeds[0]
    assert drift <= 1e-6, drift


def test_10_negative_controls():
    # a family with a descending direction fails the convexity certificate
    bad = g_family_from_callable(
        lambda xi: xi[..., 0] - 0.5 * xi[..., 1], k=2, label="descending")
    cert = nrm.certify_scc(bad)
    assert not cert.passed
    assert cert.failed_condition == "gradient_positivity"
    assert cert.witness is not None
    # a steep profile slope fails past s = 1/2
    cert = nrm.certify_sn(nrm.affine_phi(2.0))
    assert not cert.passed
    assert cert.witness is not None and cert.witness[0] > 0.5
    # the two-term family is genuinely non-Hermitian quadratic...
    spec = dom.type_i(2, 2)
    z0 = np.zeros((2, 2), dtype=complex)
    v1 = np.zeros((2, 2), dtype=complex)
    v1[0, 0] = 1.0
    v2 = np.eye(2, dtype=complex) / np.sqrt(2.0)
    tk = met.tk_metric(spec, 1.0, 2)
    g1 = met.fundamental_tensor(tk, z0, v1)
    g2 = met.fundamental_tensor(tk, z0, v2)
    assert np.max(np.abs(g1 - g2)) > 1e-3
    # ...while the Hermitian one has a fiber-independent tensor
    bm = met.bergman_metric(spec)
    g1 = met.fundamental_tensor(bm, z0, v1)
    g2 = met.fundamental_tensor(bm, z0, v2)
    assert np.max(np.abs(g1 - g2)) <= 1e-8
