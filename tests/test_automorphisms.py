"""Automorphism tests: fixed points, round trips, differentials, corpus bodies."""
import dataclasses

import numpy as np
import pytest

from cartanfinsler import automorphisms as am
from cartanfinsler import domains
from cartanfinsler import schwarz
from cartanfinsler.errors import DomainError, NumericError, StructureError
from oracles import lie_ball_directions, lie_ball_roots_mp

ALL_SPECS = [
    domains.type_i(2, 3),
    domains.type_ii(2),
    domains.type_iii(4),
    domains.type_iv(3),
]


def _isotropy(spec, seed):
    """The origin-fixing Haar rotation of a seed: the isotropy link of its
    random automorphism, which acts after the normalizing map."""
    return am.random_automorphism(spec, seed).body.maps[0]


def fd_differential(fn, z, v, h=1e-5):
    """4-point central difference along the complex direction v."""
    return (
        8.0 * (fn(z + h * v) - fn(z - h * v)) - (fn(z + 2 * h * v) - fn(z - 2 * h * v))
    ) / (12.0 * h)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_normalizing_at_origin_is_identity(spec):
    phi = am.normalizing_automorphism(spec, np.zeros(spec.ambient_shape))
    z = domains.sample_point(spec, seed=0)
    np.testing.assert_allclose(am.apply(phi, z), z, atol=1e-13)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_normalizing_kills_base_point(spec):
    for seed in range(10):
        z0 = domains.sample_point(spec, seed=seed)
        phi = am.normalizing_automorphism(spec, z0)
        assert np.max(np.abs(am.apply(phi, z0))) <= 1e-10


def test_scalar_case_reduces_to_mobius():
    spec = domains.type_i(1, 1)
    a = 0.3 - 0.4j
    phi = am.normalizing_automorphism(spec, np.array([[a]]))
    for z in (0.1 + 0.2j, -0.5j, 0.62):
        got = am.apply(phi, np.array([[z]]))[0, 0]
        want = (z - a) / (1.0 - np.conj(a) * z)
        assert abs(abs(got) - abs(want)) < 1e-12  # equal up to unimodular factor


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_membership_preserved(spec):
    z0 = domains.sample_point(spec, seed=1)
    phi = am.normalizing_automorphism(spec, z0)
    for seed in range(40):
        z = domains.sample_point(spec, seed=50 + seed)
        assert domains.contains(spec, am.apply(phi, z))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_round_trip(spec):
    z0 = domains.sample_point(spec, seed=2)
    phi = am.normalizing_automorphism(spec, z0)
    inv = am.invert(phi)
    for seed in range(10):
        z = domains.sample_point(spec, seed=80 + seed)
        back = am.apply(inv, am.apply(phi, z))
        assert np.max(np.abs(back - z)) <= 1e-14
        # and the other way around
        there = am.apply(phi, am.apply(inv, z))
        assert np.max(np.abs(there - z)) <= 1e-14


def _maps_of_every_kind(spec, phi):
    """phi (MatrixMobius or LieBallMobius) and one map of every other body
    kind spec can carry: the inverse of phi (MatrixMobiusInverse, or the
    Lie-ball map at -z0), an isotropy (SandwichScale or VectorLinear), a
    random automorphism (MapChain), a constant and a scalar slice; on the
    matrix types a zero-padding into a larger domain, and on the square ones
    a matrix polynomial with its degrees out of order."""
    w = domains.sample_point(spec, seed=4)
    maps = [phi, am.invert(phi), _isotropy(spec, 14),
            am.random_automorphism(spec, seed=10),
            am.HoloMap(spec, spec, am.ConstantMap(w)),
            # an off-diagonal entry: the diagonal of a type III point is 0
            am.HoloMap(spec, spec, am.ScalarSlice((0, 1)[: w.ndim], 0.5 * w))]
    if spec.kind != "IV":
        m, n = spec.ambient_shape
        maps.append(am.HoloMap(spec, domains.type_i(m + 1, n + 1), am.PadEmbed()))
        if m == n:
            coeffs = ((3, 0.05 - 0.02j), (1, 0.1), (2, 0.2j))
            maps.append(am.HoloMap(spec, spec, am.MatrixPolynomial(coeffs)))
    return maps


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_differential_matches_finite_differences(spec):
    # apply pushes images alone and schwarz_check pushes images with
    # tangents, so the two images must agree bit for bit
    z0 = domains.sample_point(spec, seed=3)
    phi = am.normalizing_automorphism(spec, z0)
    for seed in range(5):
        z = domains.sample_point(spec, seed=120 + seed)
        v = domains.sample_tangent(spec, seed=130 + seed)
        for f in _maps_of_every_kind(spec, phi):
            image, dv = am.push(f, z, v)
            assert np.array_equal(image, am.push(f, z)[0]), type(f.body).__name__
            fdv = fd_differential(lambda x: am.apply(f, x), z, v)
            assert np.max(np.abs(dv - fdv)) <= 1e-8


def test_differential_closed_form_at_base_point():
    # at Z = Z0 the pushforward collapses to V |-> A V (I - Z0* Z0)^{-1} D^{-1}
    spec = domains.type_i(2, 3)
    z0 = domains.sample_point(spec, seed=4)
    phi = am.normalizing_automorphism(spec, z0)
    body = phi.body
    v = domains.sample_tangent(spec, seed=5)
    want = body.a @ v @ np.linalg.inv(np.eye(3) - z0.conj().T @ z0) @ body.d_inv
    np.testing.assert_allclose(am.differential(phi, z0, v), want, atol=1e-12)


def test_differential_is_complex_linear():
    spec = domains.type_ii(3)
    phi = am.normalizing_automorphism(spec, domains.sample_point(spec, seed=6))
    z = domains.sample_point(spec, seed=7)
    v = domains.sample_tangent(spec, seed=8)
    w = domains.sample_tangent(spec, seed=9)
    lam = 0.7 - 1.1j
    lhs = am.differential(phi, z, lam * v + w)
    rhs = lam * am.differential(phi, z, v) + am.differential(phi, z, w)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_chain_rule_on_compositions(spec):
    f = am.random_automorphism(spec, seed=10)
    g = am.random_automorphism(spec, seed=11)
    comp = am.compose(f, g)
    z = domains.sample_point(spec, seed=12)
    v = domains.sample_tangent(spec, seed=13)
    # composite evaluation agrees with sequential evaluation
    np.testing.assert_allclose(
        am.apply(comp, z), am.apply(f, am.apply(g, z)), atol=1e-12
    )
    dv = am.differential(comp, z, v)
    fdv = fd_differential(lambda x: am.apply(comp, x), z, v)
    assert np.max(np.abs(dv - fdv)) <= 1e-8


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_isotropy_fixes_origin(spec):
    iso = _isotropy(spec, 14)
    zero = np.zeros(spec.ambient_shape)
    assert np.max(np.abs(am.apply(iso, zero))) <= 1e-14
    # differential at any point is the map's own linear action
    z = domains.sample_point(spec, seed=15)
    v = domains.sample_tangent(spec, seed=16)
    np.testing.assert_allclose(
        am.differential(iso, z, v), am.apply(iso, v), atol=1e-13
    )


def test_isotropy_preserves_symmetry_classes():
    iso2 = _isotropy(domains.type_ii(3), 17)
    w = am.apply(iso2, domains.sample_point(domains.type_ii(3), seed=18))
    np.testing.assert_allclose(w, w.T, atol=1e-13)
    iso3 = _isotropy(domains.type_iii(4), 19)
    w = am.apply(iso3, domains.sample_point(domains.type_iii(4), seed=20))
    np.testing.assert_allclose(w, -w.T, atol=1e-13)


def test_lie_ball_isotropy_preserves_invariants():
    spec = domains.type_iv(4)
    iso = _isotropy(spec, 21)
    z = domains.sample_point(spec, seed=22)
    w = am.apply(iso, z)
    assert np.vdot(w, w).real == pytest.approx(np.vdot(z, z).real, rel=1e-12)
    assert abs(w @ w) == pytest.approx(abs(z @ z), rel=1e-12)


def test_isotropy_round_trip():
    spec = domains.type_i(2, 3)
    iso = _isotropy(spec, 23)
    inv = am.invert(iso)
    z = domains.sample_point(spec, seed=24)
    np.testing.assert_allclose(am.apply(inv, am.apply(iso, z)), z, atol=1e-13)


def test_lie_ball_inverse_is_map_at_negated_base_point():
    spec = domains.type_iv(5)
    z0 = domains.sample_point(spec, seed=25)
    phi = am.normalizing_automorphism(spec, z0)
    psi = am.invert(phi)
    # phi_{z0}^{-1} = phi_{-z0}: X0 is odd in z0, A and D are shared
    b, ib = phi.body, psi.body
    assert np.array_equal(ib.z0, -b.z0) and np.array_equal(ib.x0, -b.x0)
    assert ib.a is b.a and ib.d is b.d
    neg = am.normalizing_automorphism(spec, -z0).body
    for field in ("x0", "a", "d"):
        np.testing.assert_allclose(getattr(ib, field), getattr(neg, field),
                                   rtol=1e-14, atol=0.0)
    twice = am.invert(psi).body
    for field in ("z0", "x0", "a", "d"):
        assert np.array_equal(getattr(twice, field), getattr(b, field))
    # the closed-form roots solve A (I - X0 X0') A = I and D (I - X0' X0) D = I
    np.testing.assert_allclose(b.a @ (np.eye(2) - b.x0 @ b.x0.T) @ b.a, np.eye(2),
                               atol=1e-14)
    np.testing.assert_allclose(b.d @ (np.eye(5) - b.x0.T @ b.x0) @ b.d, np.eye(5),
                               atol=1e-14)
    for seed in range(10):
        z = domains.sample_point(spec, seed=140 + seed)
        assert np.max(np.abs(am.apply(psi, am.apply(phi, z)) - z)) <= 1e-14
    # differential of the inverse inverts the differential
    z = domains.sample_point(spec, seed=26)
    v = domains.sample_tangent(spec, seed=27)
    w = am.apply(phi, z)
    dv = am.differential(phi, z, v)
    back = am.differential(psi, w, dv)
    np.testing.assert_allclose(back, v, atol=1e-14)


@pytest.mark.parametrize("n", [3, 5])
def test_lie_ball_inverse_near_boundary(n):
    # base points at gauge 1 - 1e-6: sampled directions, and a real direction,
    # where both spectral values sit at the gauge
    spec = domains.type_iv(n)
    gauge = 1.0 - 1e-6
    budget = 10.0 * np.finfo(float).eps / (1.0 - gauge**2)
    real = np.zeros(n, dtype=complex)
    real[0] = 1.0
    for z in [real] + [domains.sample_point(spec, seed=300 + s) for s in range(5)]:
        z0 = gauge * z / domains.minkowski_gauge(spec, z)
        psi = am.invert(am.normalizing_automorphism(spec, z0))
        assert np.max(np.abs(am.apply(psi, np.zeros(n)) - z0)) <= budget


@pytest.mark.parametrize("spec", [domains.type_i(2, 3), domains.type_ii(3),
                                  domains.type_iii(4), domains.type_i(3, 3)], ids=str)
def test_matrix_round_trip_near_boundary(spec):
    # base points at gauge 0.9, ..., 1 - 1e-8: invert(phi) takes phi(z) back
    # to z, and the pushed tangent back to v, within 20 kappa eps (measured
    # at most 6.8 for points, 12.3 for tangents; the Hermitian eigenvector
    # roots read up to 7.6e3 and 8.5e3)
    dirs = domains.sample_points(spec, 0, 20)
    dirs = dirs / domains.minkowski_gauge_many(spec, dirs)[:, None, None]
    zs = domains.sample_points(spec, 500, 20)[:, None]
    vs = domains.sample_tangents(spec, 600, 20)[:, None]
    for k in range(1, 9):
        gauge = 1.0 - 10.0**-k
        budget = 20.0 * np.finfo(float).eps / (1.0 - gauge**2)
        phi = am.normalizing_automorphism(spec, gauge * dirs)
        back, dv = am.push(am.invert(phi), *am.push(phi, zs, vs))
        assert np.max(np.abs(back - zs)) <= budget, k
        assert np.all(np.max(np.abs(dv - vs), axis=(-2, -1))
                      <= budget * np.max(np.abs(vs), axis=(-2, -1))), k


def test_non_invertible_bodies_rejected():
    spec = domains.type_i(2, 2)
    const = am.HoloMap(spec, spec, am.ConstantMap(np.zeros((2, 2), dtype=complex)))
    with pytest.raises(StructureError):
        am.invert(const)
    disc = domains.type_i(1, 1)
    slice_map = am.HoloMap(disc, spec, am.ScalarSlice((0, 0), np.eye(2, dtype=complex)))
    with pytest.raises(StructureError):
        am.invert(slice_map)


def test_boundary_base_point_raises():
    # the membership margin rejects a near-boundary base point before any
    # gram root is formed
    spec = domains.type_i(2, 2)
    z0 = np.diag([1.0 - 1e-14, 0.1]).astype(complex)
    with pytest.raises(DomainError):
        am.normalizing_automorphism(spec, z0)


def test_lie_ball_base_point_errors_keep_their_classes():
    # membership comes from the roots' own frame, with the margin of
    # domains.contains_many: the error classes are those of the check it replaced
    spec = domains.type_iv(3)
    z0 = np.array([0.6, 0.8j, 0.0])
    z0 = z0 / domains.minkowski_gauge(spec, z0)
    for gauge in (1.0 - 1e-13, 1.5):
        assert not domains.contains(spec, gauge * z0)
        with pytest.raises(DomainError):
            am.normalizing_automorphism(spec, np.stack([0.5 * z0, gauge * z0]))
    with pytest.raises(NumericError):
        am.normalizing_automorphism(spec, np.array([0.1, np.nan, 0.0]))
    with pytest.raises(StructureError):
        am.normalizing_automorphism(spec, np.zeros(4))
    am.normalizing_automorphism(spec, (1.0 - 1e-9) * z0)  # does not raise


@pytest.mark.parametrize("spec", [domains.type_i(2, 3), domains.type_ii(3),
                                  domains.type_iii(4)], ids=str)
def test_gram_root_accepts_every_interior_point(spec):
    ws = domains.sample_tangents(spec, 0, 10)
    ws = ws / domains.minkowski_gauge_many(spec, ws)[:, None, None]
    z0s = (1.0 - 1e-9) * ws
    for z0 in z0s:
        phi = am.normalizing_automorphism(spec, z0)  # does not raise
        assert np.max(np.abs(am.apply(phi, z0))) <= 1e-12
    # the roots of the map are roots of the grams: A (I - Z0 Z0*) A* = I and
    # D^{-1} D^{-*} = I - Z0* Z0 within kappa eps up to the boundary (measured
    # at most 0.94 and 0.48), also on type III, where the top singular value
    # of Z0 is double
    m, n = spec.ambient_shape
    adj = lambda x: np.conj(np.swapaxes(x, -1, -2))
    for k in range(1, 10):
        gauge = 1.0 - 10.0**-k
        z = gauge * ws
        budget = np.finfo(float).eps / (1.0 - gauge**2)
        phi = am.normalizing_automorphism(spec, z).body
        assert np.max(np.abs(phi.a @ (np.eye(m) - z @ adj(z)) @ adj(phi.a)
                             - np.eye(m))) <= budget, k
        assert np.max(np.abs(phi.d_inv @ adj(phi.d_inv)
                             - (np.eye(n) - adj(z) @ z))) <= budget, k
    # the gauge refuses an exterior point from the frame of its gram
    with pytest.raises(DomainError):
        schwarz.caratheodory_many(spec, 1.5 * z0s, ws)


def test_corpus_bodies_evaluate():
    spec = domains.type_i(2, 2)
    disc = domains.type_i(1, 1)
    z = domains.sample_point(spec, seed=28)
    v = domains.sample_tangent(spec, seed=29)

    # scalar slice: the (0,0) entry spread onto a fixed direction
    sl = am.HoloMap(spec, spec, am.ScalarSlice((0, 0), np.eye(2, dtype=complex)))
    np.testing.assert_allclose(am.apply(sl, z), z[0, 0] * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(am.differential(sl, z, v), v[0, 0] * np.eye(2), atol=1e-14)

    # disc slice j_V: 0 maps to 0 with differential V
    w1 = domains.sample_tangent(spec, seed=30)
    w1 = w1 / domains.minkowski_gauge(spec, w1)
    jv = am.HoloMap(disc, spec, am.ScalarSlice((0, 0), w1))
    np.testing.assert_allclose(am.apply(jv, np.zeros((1, 1))), np.zeros((2, 2)), atol=1e-15)
    np.testing.assert_allclose(
        am.differential(jv, np.zeros((1, 1)), np.ones((1, 1))), w1, atol=1e-14
    )

    # zero-pad embedding of a strip into the square
    strip = domains.type_i(1, 2)
    pad = am.HoloMap(strip, spec, am.PadEmbed())
    zs = domains.sample_point(strip, seed=31)
    out = am.apply(pad, zs)
    np.testing.assert_allclose(out[0], zs[0], atol=1e-15)
    np.testing.assert_allclose(out[1], 0.0, atol=1e-15)
    assert domains.contains(spec, out)

    # cubic matrix polynomial: value and differential vs finite differences
    poly = am.HoloMap(spec, spec, am.MatrixPolynomial(((1, 0.1), (3, 0.05 - 0.02j))))
    got = am.apply(poly, z)
    want = 0.1 * z + (0.05 - 0.02j) * np.linalg.matrix_power(z, 3)
    np.testing.assert_allclose(got, want, atol=1e-14)
    dv = am.differential(poly, z, v)
    fdv = fd_differential(lambda x: am.apply(poly, x), z, v)
    np.testing.assert_allclose(dv, fdv, atol=1e-9)


def test_corpus_layers_make_no_lapack_call(monkeypatch):
    # push of the matrix Mobius and sandwich bodies, membership and the gauge
    # up to two rows run on numkernel's stack kernels only; the normalizing
    # map of a two-row type takes no eigensolver and no SVD (its D^{-1} is
    # one LAPACK inv)
    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK call on the corpus path")

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    spec = domains.type_i(2, 2)
    phi = am.normalizing_automorphism(spec, domains.sample_points(spec, 0, 3))
    am.normalizing_automorphism(domains.type_ii(2), domains.sample_points(
        domains.type_ii(2), 0, 3))
    bodies = [phi, am.invert(phi), am.HoloMap(spec, spec, am.SandwichScale(
        *(am._haar_unitary(domains.sample_tangents(spec, k, 3))
          for k in (10, 20))))]
    zs = domains.sample_points(spec, 30, 5)[:, None]
    vs = domains.sample_tangents(spec, 40, 5)[:, None]
    before = [am.push(f, zs, vs) for f in bodies]
    samples = {s: (domains.sample_points(s, 50, 10),
                   domains.sample_tangents(s, 60, 10))
               for s in (spec, domains.type_ii(2))}
    for name in ("inv", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for f, (w, dv) in zip(bodies, before):
        got = am.push(f, zs, vs)
        assert got[0].shape == (5, 3, 2, 2)
        assert np.array_equal(got[0], w) and np.array_equal(got[1], dv)
    for s, (points, tangents) in samples.items():
        assert domains.contains_many(s, points).all()
        assert np.all(domains.minkowski_gauge_many(s, tangents) > 0.0)
    # a singular I - Z0* Z still raises NumericError, as LAPACK's did
    mobius = am.HoloMap(spec, spec, am.MatrixMobius(np.diag([0.5, 0.0]).astype(complex),
                                                    np.eye(2), np.eye(2)))
    with pytest.raises(NumericError):
        am.push(mobius, np.diag([2.0, 0.0]))


def test_batched_evaluation_agrees_with_loop():
    spec = domains.type_iii(4)
    phi = am.random_automorphism(spec, seed=32)
    zs = np.stack([domains.sample_point(spec, seed=200 + k) for k in range(5)])
    vs = np.stack([domains.sample_tangent(spec, seed=210 + k) for k in range(5)])
    wb = am.apply(phi, zs)
    db = am.differential(phi, zs, vs)
    for k in range(5):
        np.testing.assert_allclose(wb[k], am.apply(phi, zs[k]), atol=1e-13)
        np.testing.assert_allclose(db[k], am.differential(phi, zs[k], vs[k]), atol=1e-13)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_normalizing_refuses_a_stack_with_one_exterior_point(spec):
    z0s = domains.sample_points(spec, 0, 4)
    phi = am.normalizing_automorphism(spec, z0s)  # one stacked map
    for k in range(4):
        assert np.max(np.abs(am.apply(phi, z0s[:, None])[k, k])) <= 1e-10
    z0s[2] *= 1.5 / domains.minkowski_gauge(spec, z0s[2])
    with pytest.raises(DomainError):
        am.normalizing_automorphism(spec, z0s)


def _assert_same_maps(one, stack, i):
    """Every body array of the map one equals slice i of stack bit for bit."""
    if isinstance(one.body, am.MapChain):
        assert len(one.body.maps) == len(stack.body.maps)
        for f, g in zip(one.body.maps, stack.body.maps):
            _assert_same_maps(f, g, i)
        return
    assert type(one.body) is type(stack.body)
    for field in dataclasses.fields(one.body):
        a = np.asarray(getattr(one.body, field.name))
        b = np.asarray(getattr(stack.body, field.name))[i]
        assert a.shape == b.shape and np.array_equal(a, b), field.name


@pytest.mark.parametrize("spec", ALL_SPECS + [domains.type_i(1, 3),
                                              domains.type_iv(5)], ids=str)
def test_random_automorphism_is_slice_zero_of_the_stack(spec):
    for seed in (1, 7, 12345):
        stack = am.random_automorphisms(spec, seed, 3)
        _assert_same_maps(am.random_automorphism(spec, seed), stack, 0)


def _real_directions(n):
    """The two real directions of IV(n): e_1, with spectral values
    l1 = l2, and e^{i t} times a real unit vector."""
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    tilted = np.zeros(n, dtype=complex)
    tilted[:2] = np.exp(0.7j) * np.array([0.6, 0.8])
    return [e1, tilted]


@pytest.mark.parametrize("n", [3, 5])
def test_lie_ball_map_kills_its_base_point_up_to_the_boundary(n):
    # both real directions and one sampled direction
    spec = domains.type_iv(n)
    dirs = _real_directions(n) + [domains.sample_point(spec, seed=400)]
    gauges = 1.0 - np.array([1e-3, 1e-4, 4e-6, 4e-7, 1e-8])
    z0s = np.stack([g * d / domains.minkowski_gauge(spec, d) for d in dirs for g in gauges])
    for z0 in z0s:
        phi = am.normalizing_automorphism(spec, z0)
        assert np.max(np.abs(am.apply(phi, z0))) <= 1e-15
    stacked = am.normalizing_automorphism(spec, z0s)
    assert np.max(np.abs(am.apply(stacked, z0s))) <= 1e-15


@pytest.mark.parametrize("n", [3, 5])
def test_lie_ball_roots_match_mpmath_oracle_up_to_the_boundary(n):
    # X0, A and D from the frame of z0 (domains.lie_frame) against 50-digit
    # arithmetic on the defining formulas, at gauge 0.9, 0.99, ..., 1 - 1e-8
    # along the real directions, near-real ones (spectral ratio l2/l1 = r),
    # z.z = 0 and sampled ones.  X0 is within 2 kappa_2 eps of its largest
    # entry, with kappa_2 = 1/(1 - l2^2) the condition of its smaller singular
    # value (measured 1.52); A and D within kappa eps of theirs, with
    # kappa = 1/(1 - gauge^2) (measured 0.62)
    pytest.importorskip("mpmath")
    spec = domains.type_iv(n)
    dirs = np.concatenate([lie_ball_directions(n), domains.sample_points(spec, 400, 4)])
    dirs = dirs / domains.minkowski_gauge_many(spec, dirs)[:, None]
    eps = np.finfo(float).eps
    for k in range(1, 9):
        gauge = 1.0 - 10.0**-k
        z0s = gauge * dirs
        sig = np.linalg.svd(np.stack([z0s.real, z0s.imag], axis=-2), compute_uv=False)
        kappa_2 = 1.0 / (1.0 - (sig[:, 0] - sig[:, 1]) ** 2)
        budgets = (2.0 * kappa_2, np.full(len(z0s), 1.0 / (1.0 - gauge**2)),
                   np.full(len(z0s), 1.0 / (1.0 - gauge**2)))
        for i, (z0, *got) in enumerate(zip(z0s, *am._lie_ball_roots(z0s))):
            for name, g, want, budget in zip("XAD", got, lie_ball_roots_mp(z0), budgets):
                err = np.max(np.abs(g - want))
                assert err <= budget[i] * eps * np.max(np.abs(want)), (name, k, i)
