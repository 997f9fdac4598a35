"""Domain membership, symmetry projections, gauge, and sampling tests."""
import numpy as np
import pytest

from cartanfinsler import domains
from cartanfinsler.errors import StructureError

ALL_SPECS = [
    domains.type_i(1, 1),
    domains.type_i(2, 3),
    domains.type_ii(2),
    domains.type_ii(3),
    domains.type_iii(4),
    domains.type_iv(3),
]


def test_dimensions_and_ranks():
    assert domains.type_i(2, 3).dim == 6
    assert domains.type_ii(3).dim == 6
    assert domains.type_iii(4).dim == 6
    assert domains.type_iv(5).dim == 5
    assert domains.type_i(2, 3).rank == 2
    assert domains.type_ii(3).rank == 3
    assert domains.type_iii(5).rank == 2
    assert domains.type_iv(9).rank == 2
    assert domains.type_i(2, 3).ambient_shape == (2, 3)
    assert domains.type_iii(4).ambient_shape == (4, 4)
    assert domains.type_iv(3).ambient_shape == (3,)


def test_invalid_specs_rejected():
    with pytest.raises(StructureError):
        domains.type_i(3, 2)  # needs m <= n
    with pytest.raises(StructureError):
        domains.type_iv(1)
    with pytest.raises(StructureError):
        domains.DomainSpec("V", (2,))


def test_type_iii_needs_order_two():
    # 1x1 skew-symmetric matrices are 0: III(1) is a point, with nothing to sample
    with pytest.raises(StructureError, match="order >= 2"):
        domains.type_iii(1)
    spec = domains.type_iii(2)
    assert spec.dim == 1 and spec.rank == 1
    assert domains.contains(spec, domains.sample_point(spec, 0))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_origin_is_interior(spec):
    assert domains.contains(spec, np.zeros(spec.ambient_shape))


def test_boundary_points_excluded():
    assert not domains.contains(domains.type_i(2, 2), np.eye(2))
    # Lie ball: a real unit vector sits on the boundary (|zz'| = 1)
    z = np.zeros(3, dtype=complex)
    z[0] = 1.0
    assert not domains.contains(domains.type_iv(3), z)


def test_type_iv_membership_value():
    # z = (0.5, 0, 0): 1 + 0.0625 - 0.5 > 0 and |zz'| = 0.25 < 1
    z = np.array([0.5, 0.0, 0.0], dtype=complex)
    assert domains.contains(domains.type_iv(3), z)


def test_contains_rejects_wrong_symmetry():
    spec = domains.type_ii(2)
    with pytest.raises(StructureError):
        domains.contains(spec, np.array([[0.0, 0.2], [0.1, 0.0]]))
    with pytest.raises(StructureError):
        domains.contains(domains.type_i(2, 3), np.zeros((3, 2)))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_membership_scale_monotone(spec):
    z = domains.sample_point(spec, seed=11)
    assert domains.contains(spec, z)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert domains.contains(spec, t * z)


def test_project_tangent_shapes_and_classes():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    sym = domains.project_tangent(domains.type_ii(3), w)
    skew = domains.project_tangent(domains.type_iii(3), w)
    np.testing.assert_allclose(sym, sym.T, atol=1e-14)
    np.testing.assert_allclose(skew, -skew.T, atol=1e-14)
    # symmetric input is fixed by II-projection and killed by III-projection
    np.testing.assert_allclose(domains.project_tangent(domains.type_ii(3), sym), sym)
    np.testing.assert_allclose(
        domains.project_tangent(domains.type_iii(3), sym), np.zeros((3, 3)), atol=1e-14
    )


def test_project_tangent_idempotent_and_linear():
    rng = np.random.default_rng(1)
    for spec in (domains.type_ii(3), domains.type_iii(4)):
        w = rng.standard_normal(spec.ambient_shape) + 1j * rng.standard_normal(spec.ambient_shape)
        p1 = domains.project_tangent(spec, w)
        p2 = domains.project_tangent(spec, p1)
        np.testing.assert_allclose(p1, p2, atol=1e-14)
        lam = 0.3 - 1.7j
        np.testing.assert_allclose(
            domains.project_tangent(spec, lam * w), lam * p1, atol=1e-13
        )


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_pack_unpack_round_trip(spec):
    rng = np.random.default_rng(2)
    w = domains.project_tangent(
        spec, rng.standard_normal(spec.ambient_shape) + 1j * rng.standard_normal(spec.ambient_shape)
    )
    c = domains.pack(spec, w)
    assert c.shape == (spec.dim,)
    np.testing.assert_allclose(domains.unpack(spec, c), w, atol=1e-14)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_tangent_basis_spans_coordinates(spec):
    basis = domains.tangent_basis(spec)
    assert basis.shape[0] == spec.dim
    rng = np.random.default_rng(3)
    c = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
    z = np.tensordot(c, basis, axes=1)
    np.testing.assert_allclose(domains.pack(spec, z), c, atol=1e-14)


def test_gauge_frozen_values():
    assert domains.minkowski_gauge(domains.type_i(2, 2), np.diag([0.7, 0.2])) == pytest.approx(0.7)
    # Lie ball, real direction: gauge(0.5, 0, 0) = 0.5 (boundary at the unit vector)
    g = domains.minkowski_gauge(domains.type_iv(3), np.array([0.5, 0, 0], dtype=complex))
    assert g == pytest.approx(0.5, abs=1e-12)
    # isotropic direction (zz' = 0): gauge = sqrt(2 r)
    g = domains.minkowski_gauge(domains.type_iv(3), np.array([0.3, 0.3j, 0], dtype=complex))
    assert g == pytest.approx(0.6, abs=1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_gauge_marks_the_boundary(spec):
    rng = np.random.default_rng(4)
    for k in range(5):
        w = domains.project_tangent(
            spec,
            rng.standard_normal(spec.ambient_shape) + 1j * rng.standard_normal(spec.ambient_shape),
        )
        g = domains.minkowski_gauge(spec, w)
        assert g > 0
        assert domains.contains(spec, (0.999999 / g) * w)
        assert not domains.contains(spec, (1.000001 / g) * w)
        # positive homogeneity
        assert domains.minkowski_gauge(spec, 3.0 * w) == pytest.approx(3.0 * g, rel=1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_sample_point_deterministic_interior(spec):
    z1 = domains.sample_point(spec, seed=42)
    z2 = domains.sample_point(spec, seed=42)
    np.testing.assert_array_equal(z1, z2)
    assert domains.contains(spec, z1)


@pytest.mark.parametrize(
    "spec",
    [domains.type_i(2, 3), domains.type_ii(3), domains.type_iii(4), domains.type_iv(3)],
    ids=str,
)
def test_batched_sampling_and_gauge_match_single_items(spec):
    seeds = np.random.default_rng(8).integers(2**63, size=25)
    zs = domains.sample_points(spec, seeds)
    vs = domains.sample_tangents(spec, seeds)
    gs = domains.minkowski_gauge_many(spec, zs)
    for i, seed in enumerate(seeds):
        np.testing.assert_array_equal(zs[i], domains.sample_points(spec, [seed])[0])
        np.testing.assert_array_equal(vs[i], domains.sample_tangents(spec, [seed])[0])
        assert gs[i] == domains.minkowski_gauge(spec, zs[i])
        # each seed keeps its own stream: one raw draw, then U[0, 0.9] gauge
        rng = np.random.default_rng(seed)
        raw = domains.project_tangent(
            spec,
            rng.standard_normal(spec.ambient_shape)
            + 1j * rng.standard_normal(spec.ambient_shape),
        )
        rho = rng.uniform(0.0, 0.9)
        assert gs[i] == pytest.approx(rho, rel=1e-13)
        np.testing.assert_allclose(zs[i], (rho / domains.minkowski_gauge(spec, raw)) * raw,
                                   rtol=1e-13, atol=0)
    assert domains.sample_points(spec, []).shape == (0,) + spec.ambient_shape


def test_sample_point_batch_membership():
    spec = domains.type_i(2, 2)
    for seed in range(1000):
        z = domains.sample_point(spec, seed=seed)
        gram = np.eye(2) - z @ z.conj().T
        assert np.min(np.linalg.eigvalsh(gram)) > 0


def test_sample_tangent_symmetry_and_normalization():
    spec = domains.type_iii(4)
    v = domains.sample_tangent(spec, seed=5)
    np.testing.assert_allclose(v, -v.T, atol=1e-14)
    assert np.max(np.abs(v)) > 0

    frob = lambda z, w: float(np.linalg.norm(w))
    v = domains.sample_tangent(spec, seed=5, unit_under=frob)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    v1 = domains.sample_tangent(spec, seed=9)
    v2 = domains.sample_tangent(spec, seed=9)
    np.testing.assert_array_equal(v1, v2)
