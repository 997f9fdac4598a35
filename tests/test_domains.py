"""Domain membership, symmetry projections, gauge, and sampling tests."""
import math
import warnings

import numpy as np
import pytest

from cartanfinsler import automorphisms, domains
from cartanfinsler.errors import DomainError, NumericError, StructureError
from oracles import lie_ball_directions, lie_ball_matrix

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
    w = domains.sample_tangents(spec, 0, 200)
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


# x M, x M^{-1} (times M), q = x M x* and Delta of domains.lie_frame stay
# within LIE_FRAME_C * eps of the n x n M(z) of tests/oracles.lie_ball_matrix,
# relative to max|M| (unit rows x; the inverse relative to x), at gauge 0 and
# 0.5, where that formula is itself within about 2 eps of 40 digits.  Measured
# at most 3.6 (x M on IV(3)).  Nearer the boundary the n x n formula cancels:
# on IV(3) at gauge 0.999 its x M reads 7.6e5 eps of 40 digits and the
# frame's 125 (0.25 kappa eps).
LIE_FRAME_C = 4.0


@pytest.mark.parametrize("n", [2, 3, 5])
def test_lie_frame_matches_the_matrix_oracle(n):
    # along the directions where the frame degenerates (l1 = l2, z.z = 0),
    # near-real ones and sampled ones, and at z = 0
    spec = domains.type_iv(n)
    dirs = np.concatenate([lie_ball_directions(n), domains.sample_points(spec, 5, 20)])
    dirs = dirs / domains.minkowski_gauge_many(spec, dirs)[:, None]
    xs = domains.sample_tangents(spec, 6, n + 3)
    xs = xs / np.linalg.norm(xs, axis=-1, keepdims=True)
    eps = np.finfo(float).eps
    for gauge in (0.0, 0.5):
        zs = (gauge * dirs)[:, None]                   # (point, 1, n) against (k, n)
        frame = domains.lie_frame(zs)
        m, delta = lie_ball_matrix(zs)
        xm = (xs[:, None, :] @ m)[..., 0, :]
        budget = LIE_FRAME_C * eps * np.max(np.abs(m), axis=(-2, -1))
        assert np.all(np.max(np.abs(frame.times_m(xs) - xm), axis=-1) <= budget[..., None])
        assert np.max(np.abs(frame.times_m(xm, -1) - xs)) <= LIE_FRAME_C * eps
        q = np.sum(xm * np.conj(xs), axis=-1).real
        assert np.all(np.abs(frame.quad(xs) - q) <= budget)
        assert np.max(np.abs(frame.delta - delta)) <= LIE_FRAME_C * eps


def test_lie_frame_is_a_plane_basis_up_to_the_boundary():
    # u diag(sigma) vt = [Re z; Im z] with u a rotation and the rows of vt
    # orthonormal, or 0 where they are arbitrary: the second row at real
    # directions and both at z = 0; l1 is the gauge.  Measured at most 1.0 eps
    # (the basis) and 2.5 eps (the gram of vt)
    spec = domains.type_iv(5)
    dirs = np.concatenate([lie_ball_directions(5), domains.sample_points(spec, 5, 20)])
    dirs = dirs / domains.minkowski_gauge_many(spec, dirs)[:, None]
    eps = np.finfo(float).eps
    for gauge in [0.0] + [1.0 - 10.0**-k for k in range(1, 9)]:
        zs = gauge * dirs
        frame = domains.lie_frame(zs)
        rows = (frame.u * frame.sigma[..., None, :]) @ frame.vt
        assert np.max(np.abs(rows - np.stack([zs.real, zs.imag], axis=-2))) <= 2.0 * eps
        np.testing.assert_allclose(frame.u @ np.swapaxes(frame.u, -1, -2),
                                   np.broadcast_to(np.eye(2), frame.u.shape), atol=2.0 * eps)
        gram = frame.vt @ np.swapaxes(frame.vt, -1, -2)
        diag = np.diagonal(gram, axis1=-2, axis2=-1)
        assert np.all((np.abs(diag - 1.0) <= 4.0 * eps) | (diag == 0.0))
        assert np.max(np.abs(gram[..., 0, 1])) <= 4.0 * eps
        assert np.all(diag[:, 1] == 0.0) == (gauge == 0.0)
        np.testing.assert_array_equal(frame.l1, domains.minkowski_gauge_many(spec, zs))
        assert np.all(frame.l2 <= frame.l1)


def test_lie_frame_raises_outside_the_ball():
    # l1 >= 1 is exactly a point that is not interior: the frame raises
    # DomainError there, at a sampled and at a real direction
    spec = domains.type_iv(3)
    for z in (domains.sample_point(spec, seed=3), lie_ball_directions(3)[1]):
        z = z / domains.minkowski_gauge(spec, z)
        domains.lie_frame(np.stack([(1.0 - 1e-12) * z, 0.0 * z]))
        for bad in ((1.0 + 1e-12) * z, 1.5 * z):
            with pytest.raises(DomainError):
                domains.lie_frame(np.stack([0.5 * z, bad]))


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


def _oracle_draw(spec, seed, item=0, points=True, part=0, attempt=0, check=0):
    """Item `item` of part `part` of the documented stream, rebuilt from
    numpy's own Philox4x64-10 with key (seed, check): the raw tangent-class
    draw and the uniform after its normals.  A point item reads 2 cells + 1
    words, a tangent item 2 cells, each rounded up to whole blocks."""
    cells = int(np.prod(spec.ambient_shape))
    blocks = -(-(2 * cells + points) // 4)
    bitgen = np.random.Philox(key=seed + 2**64 * check,
                              counter=[item * blocks, part, attempt, 0])
    u = (bitgen.random_raw(2 * cells + 1) >> np.uint64(11)) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log1p(-u[0:2 * cells:2]))
    angle = 2.0 * np.pi * u[1:2 * cells:2]
    normals = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1).ravel()
    raw = (normals[:cells] + 1j * normals[cells:]).reshape(spec.ambient_shape)
    return domains.project_tangent(spec, raw), u[2 * cells]


def _assert_oracle_point(spec, z, raw, u):
    assert domains.minkowski_gauge(spec, z) == pytest.approx(0.9 * u, rel=1e-13)
    np.testing.assert_allclose(z, (0.9 * u / domains.minkowski_gauge(spec, raw)) * raw,
                               rtol=1e-13, atol=0)


# Random123 known answers for philox4x64-10: key, the counter argument of
# numpy's Philox (which increments its counter before each block) and the
# four words of the block
PHILOX_KAT = [
    (0, [2**64 - 1] * 4,
     "16554d9eca36314c db20fe9d672d0fdc d7e772cee186176b 7e68b68aec7ba23b"),
    (2**128 - 1, [2**64 - 2] + [2**64 - 1] * 3,
     "87b092c3013fe90b 438c3c67be8d0224 9cc7d7c69cd777b6 a09caebf594f0ba0"),
]


def test_philox_matches_random123_known_answers():
    for key, counter, words in PHILOX_KAT:
        bitgen = np.random.Philox(key=key, counter=np.array(counter, dtype=np.uint64))
        assert [f"{w:016x}" for w in bitgen.random_raw(4)] == words.split()
    # the draw function's key is (seed, check id) and its counter starts at
    # block (1, part, attempt, 0)
    seed, check = 2**64 - 1, domains.CHECKS["corpus"]
    bitgen = np.random.Philox(key=seed + 2**64 * check, counter=[0, 3, 2, 0])
    np.testing.assert_array_equal(domains._philox_words(seed, "corpus", 3, 2, 10),
                                  bitgen.random_raw(10))


def test_philox_words_match_a_fresh_generator_in_any_call_order():
    # the process's one generator takes its whole state on every call: no
    # call inherits a buffered word or a counter from the call before, even
    # when that call read 1 or 3 words of a 4-word block
    cases = [(seed, check, part, attempt, n_words)
             for seed in (0, 1, 2**63 + 5, 2**64 - 1) for check in domains.CHECKS
             for part in (0, 3) for attempt in (0, 2) for n_words in (1, 3, 4, 4001)]
    for i in np.random.default_rng(5).permutation(len(cases)):
        seed, check, part, attempt, n_words = cases[i]
        fresh = np.random.Philox(
            key=np.array([seed, domains.CHECKS[check]], dtype=np.uint64),
            counter=np.array([0, part, attempt, 0], dtype=np.uint64))
        np.testing.assert_array_equal(
            domains._philox_words(seed, check, part, attempt, n_words),
            fresh.random_raw(n_words), err_msg=str(cases[i]))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_shared_index_pairs_and_bases_are_read_only(spec):
    # one array serves every caller of a shape: a write into it would change
    # every later pack, gauge and fiber jet of that shape
    for order, offset in ((3, 1), (4, 0)):
        pairs = domains._pairs(order, offset)
        for index in pairs:
            with pytest.raises(ValueError):
                index[0] = 1
        assert domains._pairs(order, offset) is pairs
    basis = domains.tangent_basis(spec)
    with pytest.raises(ValueError):
        basis[0] = 0.0
    assert domains.tangent_basis(spec) is basis
    # unpack hands out a fresh array
    assert domains.unpack(spec, np.ones(spec.dim)).flags.writeable


# sum_k (k + 1) x_k over the flat entries of sample_point, sample_tangent and
# the image of the origin under random_automorphism at three ORACLE_SEEDS:
# a change of the words a one-item draw reads, of Box-Muller or of the
# isotropy layout moves them, and so does a change of the roots of the
# normalizing map, which moves its image of the origin by an isotropy
PINNED_DRAWS = {
    ("I", 0): ((0.8218889823137783+3.5379107096328246j),
               (4.1692990566970805+17.947202239923925j),
               (2.808165250326078-0.6752492115735691j)),
    ("I", 2**62 + 17): ((0.11688874363524701-0.1580606226905804j),
                        (3.2890409063673665-4.447544199272702j),
                        (-0.02007962436229767+0.5421231467173145j)),
    ("I", 2**63 - 1): ((0.0022156411695972546+0.002005506305067072j),
                       (11.16765494947999+10.108497134518746j),
                       (0.001132660162717503+0.0010966400585505289j)),
    ("II", 0): ((7.633456344707103+6.970416210510434j),
                (17.687619292502415+16.151277045984944j),
                (-7.112939392414056+0.6813336132877198j)),
    ("II", 2**62 + 17): ((-5.352368058051576-2.260296709640381j),
                         (-12.353114777038382-5.2167011650753645j),
                         (-2.4722332762294297+2.2817868669515335j)),
    ("II", 2**63 - 1): ((0.22413833161652508+3.005857797614974j),
                        (0.8098153214432255+10.860211553429497j),
                        (-0.027976628102772017-1.3191551129631491j)),
    ("III", 0): ((0.4208873494614882+0.8562303648636174j),
                 (2.7249069128493577+5.543402630641161j),
                 (-0.8076732382285647+1.4884002038772466j)),
    ("III", 2**62 + 17): ((0.24668787754582988-1.8143023705057626j),
                          (1.1481134463750209-8.443969635195206j),
                          (6.003314250012539-3.7735634777064853j)),
    ("III", 2**63 - 1): ((0.6225523541506286-1.180164531944647j),
                         (2.3504292483804115-4.455678651425885j),
                         (-4.63149467220266+3.2010868005945268j)),
    ("IV", 0): ((-0.6367272113134921+1.791324031747125j),
                (-1.027956299120063+2.8919807249968335j),
                (-0.13392976537975657+0.6415650071773761j)),
    ("IV", 2**62 + 17): ((1.3194342908304566-0.22987330894505897j),
                         (6.370441327010818-1.1098653699220098j),
                         (0.3156188497036801-0.34871598372917123j)),
    ("IV", 2**63 - 1): ((0.0670895159452141+0.280980178163186j),
                        (0.9431639848926605+3.950101305376087j),
                        (0.037648253316600294-0.02732136050032892j)),
}


@pytest.mark.parametrize("spec", CLASSICAL, ids=str)
def test_one_item_draws_are_pinned(spec):
    weighted = lambda x: complex(np.dot(np.arange(1, x.size + 1), x.ravel()))
    origin = np.zeros(spec.ambient_shape, dtype=complex)
    for seed in (0, 2**62 + 17, 2**63 - 1):
        z0 = domains.sample_point(spec, seed)
        w = automorphisms.apply(automorphisms.random_automorphism(spec, seed), origin)
        got = (weighted(z0), weighted(domains.sample_tangent(spec, seed)), weighted(w))
        assert got == pytest.approx(PINNED_DRAWS[spec.kind, seed], rel=1e-13), seed
        # the map sends its drawn base point z0 to 0, so it sends 0 to an
        # isotropy image of -z0: the singular values of z0 (on the Lie ball
        # the invariants |z|^2 and |z.z|)
        if spec.kind == "IV":
            inv = lambda x: np.array([np.vdot(x, x).real, abs(np.sum(x * x))])
        else:
            inv = lambda x: np.linalg.svd(x, compute_uv=False)
        np.testing.assert_allclose(inv(w), inv(z0), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("spec", CLASSICAL, ids=str)
def test_batched_sampling_and_gauge_match_single_items(spec):
    for seed in ORACLE_SEEDS[::10]:
        zs = domains.sample_points(spec, seed, 25)
        vs = domains.sample_tangents(spec, seed, 25)
        gs = domains.minkowski_gauge_many(spec, zs)
        for i in range(25):
            assert gs[i] == domains.minkowski_gauge(spec, zs[i])
            # key (seed, 0), item i's counter blocks, Box-Muller normals,
            # then a U[0, 0.9) gauge
            _assert_oracle_point(spec, zs[i], *_oracle_draw(spec, seed, i))
            raw, _ = _oracle_draw(spec, seed, i, points=False)
            np.testing.assert_allclose(vs[i], raw, rtol=1e-14, atol=0)
    assert domains.sample_points(spec, 0, 0).shape == (0,) + spec.ambient_shape
    assert domains.sample_tangents(spec, 0, 0).shape == (0,) + spec.ambient_shape


@pytest.mark.parametrize("spec", CLASSICAL, ids=str)
def test_items_depend_on_their_own_seed_only(spec):
    # item i depends on (seed, i) only: a shorter draw is a prefix
    for seed in (3, 2**64 - 1):
        zs = domains.sample_points(spec, seed, 40)
        vs = domains.sample_tangents(spec, seed, 40)
        for k in (1, 17):
            np.testing.assert_array_equal(domains.sample_points(spec, seed, k), zs[:k])
            np.testing.assert_array_equal(domains.sample_tangents(spec, seed, k), vs[:k])
        np.testing.assert_array_equal(domains.sample_point(spec, seed), zs[0])
        # distinct items give distinct draws
        assert len({row.tobytes() for row in vs.reshape(40, -1)}) == 40
    # and distinct seeds
    assert not np.array_equal(domains.sample_tangents(spec, 4, 40)[0], vs[0])


def _null_words(monkeypatch, nulled):
    """Zero the words of the (part, item) pairs in nulled at attempt 0, and
    record each call's (part, attempt)."""
    words_of = domains._philox_words
    calls = []

    def patched(seed, check, part, attempt, n_words):
        calls.append((part, attempt))
        words = words_of(seed, check, part, attempt, n_words)
        for (p, item), width in nulled.items():
            if (p, attempt) == (part, 0):
                words[item * width:(item + 1) * width] = 0  # all-zero normals
        return words

    monkeypatch.setattr(domains, "_philox_words", patched)
    return calls


def _widths(spec):
    """Words per point item and per tangent item."""
    cells = int(np.prod(spec.ambient_shape))
    return 4 * -(-(2 * cells + 1) // 4), 4 * -(-2 * cells // 4)


@pytest.mark.parametrize("spec", CLASSICAL, ids=str)
def test_null_draw_takes_the_next_counter_blocks(spec, monkeypatch):
    # a null draw reads its own blocks again with the attempt in counter
    # word 2; the other items keep their draws
    point_width, tangent_width = _widths(spec)
    calls = _null_words(monkeypatch, {(0, 1): point_width})
    zs = domains.sample_points(spec, 5, 3)
    monkeypatch.undo()
    assert calls == [(0, 0), (0, 1)]
    _null_words(monkeypatch, {(0, 1): tangent_width})
    vs = domains.sample_tangents(spec, 5, 3)
    monkeypatch.undo()
    np.testing.assert_array_equal(zs[[0, 2]], domains.sample_points(spec, 5, 3)[[0, 2]])
    np.testing.assert_array_equal(vs[[0, 2]], domains.sample_tangents(spec, 5, 3)[[0, 2]])
    _assert_oracle_point(spec, zs[1], *_oracle_draw(spec, 5, 1, attempt=1))
    raw, _ = _oracle_draw(spec, 5, 1, points=False, attempt=1)
    np.testing.assert_allclose(vs[1], raw, rtol=1e-14, atol=0)


def test_one_grid_mixes_parts_bit_for_bit(monkeypatch):
    # part p of a grid reads counter word 1 = p: it equals the same grid with
    # every other part empty, whatever the other parts hold
    i23, iv3, ii3 = domains.type_i(2, 3), domains.type_iv(3), domains.type_ii(3)
    seed = 2**63 - 1
    parts = [domains.Points(i23, 4), domains.Points(iv3, 3), domains.Tangents(ii3, 5),
             domains.Gaussians(3, 18, 1)]
    calls = _null_words(monkeypatch, {(0, 1): _widths(i23)[0], (2, 3): _widths(ii3)[1]})
    zs, ws, vs, (normals, u) = domains.draw_grid(seed, "sandwich", parts)
    monkeypatch.undo()
    # one call per part, then one redraw call for each part holding a null draw
    assert calls == [(0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (3, 0)]
    empty = lambda part: domains.Gaussians(0, 1) if isinstance(part, domains.Gaussians) \
        else type(part)(part.spec, 0)
    alone = [domains.draw_grid(seed, "sandwich", [empty(q) if q is not p else p
                                                  for q in parts])[i]
             for i, p in enumerate(parts)]
    np.testing.assert_array_equal(zs[[0, 2, 3]], alone[0][[0, 2, 3]])
    np.testing.assert_array_equal(ws, alone[1])
    np.testing.assert_array_equal(vs[[0, 1, 2, 4]], alone[2][[0, 1, 2, 4]])
    np.testing.assert_array_equal(normals, alone[3][0])
    np.testing.assert_array_equal(u, alone[3][1])
    check = domains.CHECKS["sandwich"]
    for i in range(3):
        _assert_oracle_point(iv3, ws[i], *_oracle_draw(iv3, seed, i, part=1, check=check))
    # the null draws read their blocks again at attempt 1
    _assert_oracle_point(i23, zs[1], *_oracle_draw(i23, seed, 1, attempt=1, check=check))
    raw, _ = _oracle_draw(ii3, seed, 3, points=False, part=2, attempt=1, check=check)
    np.testing.assert_allclose(vs[3], raw, rtol=1e-14, atol=0)


def _ks_statistic(sorted_x, cdf):
    n = sorted_x.size
    c = cdf(sorted_x)
    i = np.arange(1, n + 1)
    return max(np.max(i / n - c), np.max(c - (i - 1) / n))


def test_sampler_distributions_on_20000_items():
    normals, u = domains.draw_grid(3, "api", [domains.Gaussians(20_000, 8, 1)])[0]
    x = normals.ravel()
    n = x.size
    assert abs(np.mean(x)) < 5.0 / np.sqrt(n)
    assert abs(np.var(x) - 1.0) < 5.0 * np.sqrt(2.0 / n)
    erf = np.vectorize(math.erf)
    d = _ks_statistic(np.sort(x), lambda t: 0.5 * (1.0 + erf(t / np.sqrt(2.0))))
    assert d < 1.95 / np.sqrt(n)          # KS critical value at p = 0.001
    assert 0.0 <= u.min() and u.max() < 1.0
    spec = domains.type_i(2, 2)
    g = np.sort(domains.minkowski_gauge_many(spec, domains.sample_points(spec, 3, 20_000)))
    assert 0.0 <= g[0] and g[-1] < 0.9
    assert _ks_statistic(g, lambda t: t / 0.9) < 1.95 / np.sqrt(g.size)


def test_seeds_outside_uint64_are_rejected():
    spec = domains.type_ii(2)
    for bad in (-1, 2**64, 2**70, np.int64(-2)):
        with pytest.raises(ValueError):
            domains.sample_points(spec, bad, 2)
        with pytest.raises(ValueError):
            domains.sample_tangents(spec, bad, 2)
    with pytest.raises(ValueError):
        domains.sample_point(spec, -5)
    with pytest.raises(TypeError):
        domains.sample_point(spec, 1.5)
    # the top of the range is a valid key, and the key schedule wraps silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = domains.sample_points(spec, 2**64 - 1, 3)
        np.testing.assert_array_equal(top, domains.sample_points(spec, np.uint64(2**64 - 1), 3))
        assert not np.array_equal(top[0], domains.sample_point(spec, 2**63))
        assert np.all(domains.contains_many(spec, top))
        # numpy unsigned and signed integers name the same stream
        np.testing.assert_array_equal(domains.sample_tangents(spec, np.uint64(2**62), 2),
                                      domains.sample_tangents(spec, np.int64(2**62), 2))


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
