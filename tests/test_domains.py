"""Domain membership, symmetry projections, gauge, and sampling tests."""
import math
import warnings

import numpy as np
import pytest

from cartanfinsler import automorphisms, domains
from cartanfinsler.errors import NumericError, StructureError

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


def test_type_iv_membership_near_the_boundary():
    spec = domains.type_iv(3)
    # the margin sits on 1 - gauge^2, so real directions stay inside to the end
    for gauge in (1.0 - 4e-7, 1.0 - 1e-9):
        z = np.array([gauge, 0.0, 0.0], dtype=complex)
        assert domains.minkowski_gauge(spec, z) == gauge
        assert domains.contains(spec, z)
        phi = automorphisms.normalizing_automorphism(spec, z)  # does not raise
        assert phi.source == spec
    # phase-rotated real directions: r^2 - |zz'|^2 would cancel to ~1e-8 here
    phases = np.exp(1j * np.linspace(0.0, np.pi, 13))[:, None]
    for real in ([1.0, 0.0, 0.0], [0.6, 0.8, 0.0]):
        assert domains.contains_many(spec, (1.0 - 1e-9) * phases * real).all()
    w = domains.sample_tangents(spec, np.arange(200))
    w = w / domains.minkowski_gauge_many(spec, w)[:, None]
    for scale in (1.0 - 1e-9, 1.0 - 4e-7):
        assert domains.contains_many(spec, scale * w).all()
    for scale in (1.0, 1.0 + 1e-12, 1.0 + 1e-9, 1.5):
        assert not domains.contains_many(spec, scale * w).any()
        assert not domains.contains(spec, np.array([scale, 0.0, 0.0]))
        assert not domains.contains(spec, np.array([0.6j, 0.8j, 0.0]) * scale)


def test_type_iv_gauge_in_phase_rotated_real_directions():
    spec = domains.type_iv(3)
    g = domains.minkowski_gauge(spec, np.exp(0.3j) * np.array([0.5, 0.0, 0.0]))
    assert abs(g - 0.5) <= 2 * np.spacing(0.5)
    t = 1.0 - 4e-7
    g = domains.minkowski_gauge(spec, t * np.exp(0.7j) * np.array([0.6, 0.8, 0.0]))
    assert abs(g - t) <= 2 * np.spacing(t)


def test_type_iv_gauge_and_membership_agree_at_the_boundary():
    spec = domains.type_iv(3)
    phases = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 13, endpoint=False))[:, None]
    for real in ([1.0, 0.0, 0.0], [0.6, 0.8, 0.0]):
        for scale in (1.0 - 1e-9, 1.0 + 1e-9):
            zs = scale * phases * np.array(real)
            inside = domains.minkowski_gauge_many(spec, zs) < 1.0
            np.testing.assert_array_equal(domains.contains_many(spec, zs), inside)
            assert inside.all() == (scale < 1.0) and inside.any() == (scale < 1.0)


def test_contains_rejects_wrong_symmetry():
    spec = domains.type_ii(2)
    with pytest.raises(StructureError):
        domains.contains(spec, np.array([[0.0, 0.2], [0.1, 0.0]]))
    with pytest.raises(StructureError):
        domains.contains(domains.type_i(2, 3), np.zeros((3, 2)))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_non_finite_point_is_a_numeric_error(spec):
    # membership and gauge decide nothing about a NaN or infinite array: the
    # error class is NumericError on every type, not "not inside"
    z = domains.sample_point(spec, seed=3)
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        w = z.copy()
        w[(0,) * w.ndim] = bad
        for call in (domains.contains_many, domains.minkowski_gauge_many):
            with pytest.raises(NumericError):
                call(spec, np.stack([z, w, z]))
        for call in (domains.contains, domains.minkowski_gauge):
            with pytest.raises(NumericError):
                call(spec, w)


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


CLASSICAL = [domains.type_i(2, 3), domains.type_ii(3), domains.type_iii(4), domains.type_iv(3)]
ORACLE_SEEDS = [0, 1, 2**62 + 17, 2**63 - 1] + [
    int(s) for s in np.random.default_rng(12).integers(2**63, size=50)]


def _oracle_draw(spec, seed, first_block=1):
    """The documented stream, rebuilt from numpy's own Philox4x64-10: the
    raw tangent-class draw and the uniform after its normals."""
    cells = int(np.prod(spec.ambient_shape))
    n_words = 2 * cells + 1
    blocks = -(-n_words // 4)
    bitgen = np.random.Philox(key=seed, counter=[first_block - 1, 0, 0, 0])
    u = (bitgen.random_raw(4 * blocks)[:n_words] >> np.uint64(11)) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log1p(-u[0:2 * cells:2]))
    angle = 2.0 * np.pi * u[1:2 * cells:2]
    normals = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1).ravel()
    raw = (normals[:cells] + 1j * normals[cells:]).reshape(spec.ambient_shape)
    return domains.project_tangent(spec, raw), u[2 * cells]


def test_philox_blocks_match_numpy_bit_for_bit():
    keys = domains.seed_keys(ORACLE_SEEDS)
    words = domains.philox_blocks(keys, 1, 3)
    for seed, row in zip(ORACLE_SEEDS, words):
        np.testing.assert_array_equal(row, np.random.Philox(key=seed).random_raw(12))
    # a later counter run on another stream (counter word 1)
    words = domains.philox_blocks(keys, 5, 2, stream=1)
    for seed, row in zip(ORACLE_SEEDS, words):
        bitgen = np.random.Philox(key=seed, counter=[4, 1, 0, 0])
        np.testing.assert_array_equal(row, bitgen.random_raw(8))


@pytest.mark.parametrize("spec", CLASSICAL, ids=str)
def test_batched_sampling_and_gauge_match_single_items(spec):
    seeds = np.random.default_rng(8).integers(2**63, size=25)
    zs = domains.sample_points(spec, seeds)
    vs = domains.sample_tangents(spec, seeds)
    gs = domains.minkowski_gauge_many(spec, zs)
    for i, seed in enumerate(seeds):
        np.testing.assert_array_equal(zs[i], domains.sample_points(spec, [seed])[0])
        np.testing.assert_array_equal(vs[i], domains.sample_tangents(spec, [seed])[0])
        assert gs[i] == domains.minkowski_gauge(spec, zs[i])
        # Philox key (seed, 0), Box-Muller normals, then a U[0, 0.9) gauge
        raw, u = _oracle_draw(spec, int(seed))
        np.testing.assert_allclose(vs[i], raw, rtol=1e-14, atol=0)
        assert gs[i] == pytest.approx(0.9 * u, rel=1e-13)
        np.testing.assert_allclose(zs[i], (0.9 * u / domains.minkowski_gauge(spec, raw)) * raw,
                                   rtol=1e-13, atol=0)
    assert domains.sample_points(spec, []).shape == (0,) + spec.ambient_shape
    assert domains.sample_tangents(spec, []).shape == (0,) + spec.ambient_shape


@pytest.mark.parametrize("spec", CLASSICAL, ids=str)
def test_items_depend_on_their_own_seed_only(spec):
    seeds = np.arange(40, dtype=np.uint64) * np.uint64(2**57 + 3)
    zs = domains.sample_points(spec, seeds)
    vs = domains.sample_tangents(spec, seeds)
    order = np.random.default_rng(2).permutation(40)
    others = np.concatenate([seeds[order], np.arange(7, dtype=np.uint64)])
    np.testing.assert_array_equal(domains.sample_points(spec, others)[:40], zs[order])
    np.testing.assert_array_equal(domains.sample_tangents(spec, others)[:40], vs[order])
    # distinct seeds give distinct draws
    flat = vs.reshape(40, -1)
    assert len({row.tobytes() for row in flat}) == 40


@pytest.mark.parametrize("spec", CLASSICAL, ids=str)
def test_null_draw_takes_the_next_counter_blocks(spec, monkeypatch):
    blocks_of = domains.philox_blocks
    nulled = 2**63 - 1

    def first_run_zero(keys, first, count, stream=0):
        words = blocks_of(keys, first, count, stream)
        if first == 1:
            words[keys == np.uint64(nulled)] = 0  # zero words: all-zero normals
        return words

    monkeypatch.setattr(domains, "philox_blocks", first_run_zero)
    seeds = [5, nulled, 6]
    zs = domains.sample_points(spec, seeds)
    vs = domains.sample_tangents(spec, seeds)
    monkeypatch.undo()
    np.testing.assert_array_equal(zs[[0, 2]], domains.sample_points(spec, [5, 6]))
    np.testing.assert_array_equal(vs[[0, 2]], domains.sample_tangents(spec, [5, 6]))
    cells = int(np.prod(spec.ambient_shape))
    raw, u = _oracle_draw(spec, nulled, first_block=1 + -(-(2 * cells + 1) // 4))
    assert domains.minkowski_gauge(spec, zs[1]) == pytest.approx(0.9 * u, rel=1e-13)
    np.testing.assert_allclose(zs[1], (0.9 * u / domains.minkowski_gauge(spec, raw)) * raw,
                               rtol=1e-13, atol=0)
    tangent_blocks = -(-2 * cells // 4)
    raw, _ = _oracle_draw(spec, nulled, first_block=1 + tangent_blocks)
    np.testing.assert_allclose(vs[1], raw, rtol=1e-14, atol=0)


def test_one_grid_mixes_parts_bit_for_bit(monkeypatch):
    i23, iv3, ii3 = domains.type_i(2, 3), domains.type_iv(3), domains.type_ii(3)
    nulled = 2**63 - 1
    seeds = [[11, nulled, 12, 13], [11, 14, 15], [16, nulled, 11, 17, 18], [19, 11, 20]]
    isotropy = domains.Gaussians(seeds[3], 18, 1, stream=automorphisms.ISOTROPY_STREAM)
    parts = [domains.Points(i23, seeds[0]), domains.Points(iv3, seeds[1]),
             domains.Tangents(ii3, seeds[2]), isotropy]
    blocks_of = domains.philox_blocks
    grids = []

    def first_run_zero(keys, first, count, stream=0):
        words = blocks_of(keys, first, count, stream)
        grids.append((keys, first, count, stream, words.copy()))
        if first == 1:
            per_key = 4 * np.broadcast_to(count, keys.shape)
            words.reshape(-1)[np.repeat(keys == np.uint64(nulled), per_key)] = 0
        return words

    monkeypatch.setattr(domains, "philox_blocks", first_run_zero)
    zs, ws, vs, (normals, u) = domains.draw_grid(parts)
    monkeypatch.undo()
    # one grid, then one redraw call for each part holding the null draw
    assert [first for _, first, *_ in grids] == [1, 5, 6]  # after 4 and 5 blocks
    keys, _, count, stream, words = grids[0]
    ends = np.cumsum(4 * count)
    for key, c, s, end in zip(keys, count, stream, ends):
        bitgen = np.random.Philox(key=int(key), counter=[0, s, 0, 0])
        np.testing.assert_array_equal(words[end - 4 * c:end], bitgen.random_raw(4 * c))
    # every other item equals its own one-part call
    kept = [0, 2, 3]
    np.testing.assert_array_equal(zs[kept], domains.sample_points(i23, seeds[0])[kept])
    np.testing.assert_array_equal(ws, domains.sample_points(iv3, seeds[1]))
    kept = [0, 2, 3, 4]
    np.testing.assert_array_equal(vs[kept], domains.sample_tangents(ii3, seeds[2])[kept])
    alone = domains.gaussian_draws(domains.seed_keys(seeds[3]), 18, 1,
                                   stream=automorphisms.ISOTROPY_STREAM)
    np.testing.assert_array_equal(normals, alone[0])
    np.testing.assert_array_equal(u, alone[1])
    # the null draws took their key's next run of blocks
    raw, u1 = _oracle_draw(i23, nulled, first_block=5)
    np.testing.assert_allclose(zs[1], (0.9 * u1 / domains.minkowski_gauge(i23, raw)) * raw,
                               rtol=1e-13, atol=0)
    raw, _ = _oracle_draw(ii3, nulled, first_block=6)
    np.testing.assert_allclose(vs[1], raw, rtol=1e-14, atol=0)


def _ks_statistic(sorted_x, cdf):
    n = sorted_x.size
    c = cdf(sorted_x)
    i = np.arange(1, n + 1)
    return max(np.max(i / n - c), np.max(c - (i - 1) / n))


def test_sampler_distributions_on_20000_seeds():
    keys = domains.seed_keys(np.arange(20_000) * 7919 + 3)
    normals, u = domains.gaussian_draws(keys, 8, 1)
    x = normals.ravel()
    n = x.size
    assert abs(np.mean(x)) < 5.0 / np.sqrt(n)
    assert abs(np.var(x) - 1.0) < 5.0 * np.sqrt(2.0 / n)
    erf = np.vectorize(math.erf)
    d = _ks_statistic(np.sort(x), lambda t: 0.5 * (1.0 + erf(t / np.sqrt(2.0))))
    assert d < 1.95 / np.sqrt(n)          # KS critical value at p = 0.001
    assert 0.0 <= u.min() and u.max() < 1.0
    spec = domains.type_i(2, 2)
    g = np.sort(domains.minkowski_gauge_many(spec, domains.sample_points(spec, keys)))
    assert 0.0 <= g[0] and g[-1] < 0.9
    assert _ks_statistic(g, lambda t: t / 0.9) < 1.95 / np.sqrt(g.size)


def test_seeds_outside_uint64_are_rejected():
    spec = domains.type_ii(2)
    for bad in ([-1], [2**64], [3, 2**70], np.array([4, -2])):
        with pytest.raises(ValueError):
            domains.sample_points(spec, bad)
        with pytest.raises(ValueError):
            domains.sample_tangents(spec, bad)
    with pytest.raises(ValueError):
        domains.sample_point(spec, -5)
    # the top of the range is a valid key, and the key schedule wraps silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = domains.sample_points(spec, [2**64 - 1, 2**63, np.uint64(2**64 - 1)])
        np.testing.assert_array_equal(top[0], top[2])
        assert not np.array_equal(top[0], top[1])
        assert np.all(domains.contains_many(spec, top))
        # uint64 and int64 arrays name the same stream
        np.testing.assert_array_equal(
            domains.sample_tangents(spec, np.array([9, 2**62], dtype=np.uint64)),
            domains.sample_tangents(spec, np.array([9, 2**62], dtype=np.int64)))


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

    v1 = domains.sample_tangent(spec, seed=9)
    v2 = domains.sample_tangent(spec, seed=9)
    np.testing.assert_array_equal(v1, v2)
