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
        met.phi_metric(dom.type_iv(3), nrm.affine_phi(0.5)),
    ],
    ids=lambda m: m.label,
)
def test_bisectional_bound_attained_on_diagonal(metric):
    # the extremized sup of |B| coincides with k1 (reached at V = W)
    rep = curv.curvature_bounds(metric, pair_draws=500)
    assert rep.bisectional_c == pytest.approx(rep.k1, abs=1e-8)


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
    assert np.max(np.abs(ks + 2.0 * (2.0 - s_grid) / n)) < 1e-8
    rep = curv.curvature_bounds(metric, pair_draws=0)
    assert rep.k1 / rep.k2 == pytest.approx(2.0, abs=1e-6)


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
