"""Reference computations that the tests check the package against."""
import numpy as np

from cartanfinsler import domains

BISECTION_STEPS = 60
BASE_STEP = 1e-4
FD_STEP = 1e-5


def lapack_frame(zs):
    """P = (I - ZZ*)^{-1} and Q = (I - Z*Z)^{-1}, each gram inverted by
    LAPACK; oracle for metrics._frame."""
    zc = np.conj(np.swapaxes(zs, -1, -2))
    return (np.linalg.inv(np.eye(zs.shape[-2]) - zs @ zc),
            np.linalg.inv(np.eye(zs.shape[-1]) - zc @ zs))


def lapack_solve(a, b):
    """a^{-1} b by LAPACK, a singular matrix as NumericError; oracle for
    numkernel.solve."""
    from cartanfinsler.errors import NumericError

    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericError(str(exc)) from exc


def lapack_smallest_eig_exceeds(grams, margin):
    """LAPACK smallest eigenvalue > margin; oracle for
    numkernel.smallest_eig_exceeds."""
    return np.linalg.eigvalsh(grams)[..., 0] > margin


def lapack_gram_top(ws):
    """Largest LAPACK eigenvalue of W W*, clipped at 0; oracle for
    numkernel.gram_top."""
    ws = np.asarray(ws)
    return np.maximum(np.linalg.eigvalsh(ws @ np.conj(np.swapaxes(ws, -1, -2)))[..., -1],
                      0.0)


# the stack kernels of numkernel that replaced a per-matrix LAPACK call, and
# that call as their oracle
LAPACK_KERNELS = {"solve": lapack_solve,
                  "smallest_eig_exceeds": lapack_smallest_eig_exceeds,
                  "gram_top": lapack_gram_top}


def wirtinger_base_fd(fn, spec, z):
    """d(fn)/dz_i per packed base coordinate, 4-point central differences;
    oracle for the closed-form base derivatives of metrics.

    z is one point or a stack (batch...) + ambient shape, and each point
    takes its own step h = BASE_STEP (1 + |z|).  fn maps the stencil points,
    (dim, 2, 4, batch...) + ambient shape, to (dim, 2, 4, batch...) +
    fn-shape in one call.  Returns (dim, batch...) + fn-shape.
    """
    z = np.asarray(z, dtype=np.complex128)
    n_amb = len(spec.ambient_shape)
    batch = z.shape[:z.ndim - n_amb]
    basis = domains.tangent_basis(spec)
    h = BASE_STEP * (1.0 + np.linalg.norm(z.reshape(batch + (-1,)), axis=-1))
    offsets = np.moveaxis(h[..., None] * np.array([1.0, -1.0, 2.0, -2.0]), -1, 0)
    directions = np.stack([basis, 1j * basis], axis=1)        # (dim, 2) + ambient
    points = (z + offsets.reshape((1, 1, 4) + batch + (1,) * n_amb)
              * directions.reshape(directions.shape[:2] + (1,) * (1 + len(batch))
                                   + spec.ambient_shape))
    f = np.moveaxis(fn(points), 2, 0)                        # (4, dim, 2) + ...
    step = h.reshape(batch + (1,) * (f.ndim - 3 - len(batch)))
    d = (8.0 * (f[0] - f[1]) - (f[2] - f[3])) / (12.0 * step)
    return 0.5 * (d[:, 0] - 1j * d[:, 1])


def g_family_from_callable(value, k: int, label="custom"):
    """A norms.GFamilySpec around a user g(xi), with central-difference
    gradient and Hessian; a g-family that no closed form describes.

    value is only ever called on one point xi of shape (k,); the gradient
    and the Hessian also take a batch (..., k), row by row.
    """
    from cartanfinsler.norms import GFamilySpec

    def grad(xi):
        xi = np.asarray(xi, dtype=float)
        if xi.ndim > 1:
            return np.apply_along_axis(grad, -1, xi)
        out = np.zeros(k)
        for a in range(k):
            h = FD_STEP * max(xi[a], 1e-3)
            e = np.zeros(k)
            e[a] = h
            out[a] = (value(xi + e) - value(xi - e)) / (2.0 * h)
        return out

    def hess(xi):
        xi = np.asarray(xi, dtype=float)
        if xi.ndim > 1:
            return np.apply_along_axis(hess, -1, xi)
        out = np.zeros((k, k))
        for a in range(k):
            ha = FD_STEP * max(xi[a], 1e-3)
            ea = np.zeros(k)
            ea[a] = ha
            for b in range(a, k):
                hb = FD_STEP * max(xi[b], 1e-3)
                eb = np.zeros(k)
                eb[b] = hb
                val = (
                    value(xi + ea + eb) - value(xi + ea - eb)
                    - value(xi - ea + eb) + value(xi - ea - eb)
                ) / (4.0 * ha * hb)
                out[a, b] = val
                out[b, a] = val
        return out

    return GFamilySpec(k=k, value=value, grad=grad, hess=hess, label=label)


def kahler_berwald_per_base(metric, seed: int = 0):
    """metrics.verify_kahler_berwald with one least-squares fit and one
    hermitian_connection call per base point; oracle for the stacked fit."""
    from cartanfinsler import metrics as met

    spec = metric.domain
    n_base, n_fiber = met.N_BASE, max(met.N_FIBER, spec.dim + 1)
    rng = np.random.default_rng(seed)
    ambient = tuple(range(-len(spec.ambient_shape), 0))
    unit = lambda w: w / np.linalg.norm(w, axis=ambient, keepdims=True)
    v0s, zs, fibers = domains.draw_grid([
        domains.Tangents(spec, rng.integers(2**63, size=n_base)),
        domains.Points(spec, rng.integers(2**63, size=n_base)),
        domains.Tangents(spec, rng.integers(2**63, size=n_base * n_fiber))])
    v0s = unit(v0s)
    fibers = unit(fibers.reshape((n_base, n_fiber) + spec.ambient_shape))
    bmat = met.grad_vbar_pair(metric, np.zeros(spec.ambient_shape), v0s)[1]
    mixed = float(np.max(np.abs(bmat), initial=0.0))
    packed = domains.pack(spec, fibers)                              # (b, f, j)
    nonlinear = met.connection_sample(metric, zs, fibers).reshape(n_base, n_fiber, -1)
    v_var = symm = vs_herm = 0.0
    for z, c, n in zip(zs, packed, nonlinear):
        fit = np.linalg.lstsq(c, n, rcond=None)[0]                   # (j, l i)
        v_var = max(v_var, float(np.max(np.abs(n - c @ fit))))
        gamma = np.swapaxes(fit.reshape((spec.dim,) * 3), 0, 1)      # [l, j, i]
        symm = max(symm, float(np.max(np.abs(gamma - np.swapaxes(gamma, 1, 2)))))
        ref = met.hermitian_connection(metric, z)
        vs_herm = max(vs_herm, float(np.max(np.abs(gamma - ref))))
    return met.KahlerBerwaldReport(mixed, v_var, symm, vs_herm, n_base * n_fiber)


def schwarz_check_per_map(maps, metric1, metric2, k1, k2, zs, vs):
    """schwarz.schwarz_check one map at a time, each with its own eval2_many
    calls on its row of the (maps, samples) stacks; oracle for the one-call
    pass."""
    from cartanfinsler import automorphisms as am
    from cartanfinsler import schwarz as sw
    from cartanfinsler.metrics import eval2_many

    bound = float(np.sqrt(k1 / k2))
    reports = []
    for f, z, v in zip(maps, zs, vs):
        f1 = np.sqrt(eval2_many(metric1, z, v))
        f2 = np.sqrt(np.maximum(eval2_many(metric2, am.apply(f, z),
                                           am.differential(f, z, v)), 0.0))
        margins = bound * f1 - f2
        rel = margins / f1
        i = int(np.argmin(rel))
        reports.append(sw.SchwarzReport(
            bound=bound, min_margin=float(np.min(margins)),
            min_margin_rel=float(rel[i]), sup_ratio=float(np.max(f2 / f1)),
            witness=(z[i], v[i], float(f1[i]), float(f2[i]))))
    return reports


def lie_ball_roots_mp(z0, dps: int = 50):
    """X0, A = (I - X0 X0')^{-1/2} and D = (I - X0' X0)^{-1/2} of the Lie-ball
    normalizing map at one base point z0, from the defining formulas in
    dps-digit arithmetic; oracle for automorphisms._lie_ball_roots.

    With a = z0.z0, X0 = -[(conj(a) - 1) z0 + (a - 1) conj(z0);
    i (a + 1) conj(z0) - i (conj(a) + 1) z0] / (1 - |a|^2), a real 2 x N
    matrix, and each root comes from the eigenpairs of its formed gram.
    """
    import mpmath

    with mpmath.workdps(dps):
        z = [mpmath.mpc(complex(x)) for x in z0]
        a = mpmath.fsum(x * x for x in z)
        ac = mpmath.conj(a)
        scale = -1 / (1 - abs(a) ** 2)
        x0 = mpmath.matrix(
            [[mpmath.re(scale * ((ac - 1) * x + (a - 1) * mpmath.conj(x))) for x in z],
             [mpmath.re(scale * 1j * ((a + 1) * mpmath.conj(x) - (ac + 1) * x))
              for x in z]])

        def inv_sqrt(gram):
            w, u = mpmath.eigsy(gram)
            return u * mpmath.diag([1 / mpmath.sqrt(x) for x in w]) * u.T

        roots = (x0, inv_sqrt(mpmath.eye(2) - x0 * x0.T),
                 inv_sqrt(mpmath.eye(len(z)) - x0.T * x0))
        return tuple(np.array(m.tolist(), dtype=float) for m in roots)


def lie_ball_caratheodory_mp(z, v, dps: int = 50) -> float:
    """F_C(z; v) on the Lie ball from its closed form in the invariants,
    F_C^2 = r (1 + sqrt(1 - s)) with r = q / Delta^2, q = v M(z) v* and
    s = Delta^2 |v.v|^2 / q^2, in dps-digit arithmetic; oracle for
    schwarz.caratheodory_many on type IV."""
    import mpmath

    with mpmath.workdps(dps):
        z = [mpmath.mpc(complex(x)) for x in z]
        v = [mpmath.mpc(complex(x)) for x in v]
        dot = lambda x, y: mpmath.fsum(a * b for a, b in zip(x, y))
        zc, vc = [mpmath.conj(x) for x in z], [mpmath.conj(x) for x in v]
        a, r0 = dot(z, z), mpmath.re(dot(z, zc))
        delta = 1 + abs(a) ** 2 - 2 * r0
        # v M v* with M = Delta I - 2 conj(a) z z' - 2 (1 - 2 r0) z zbar'
        #                 + 2 zbar z' - 2 a zbar zbar' (metrics._lie_ball_matrix)
        vz, vzc = dot(v, z), dot(v, zc)
        q = mpmath.re(delta * dot(v, vc)
                      - 2 * mpmath.conj(a) * vz * dot(z, vc)
                      - 2 * (1 - 2 * r0) * vz * dot(zc, vc)
                      + 2 * vzc * dot(z, vc) - 2 * a * vzc * dot(zc, vc))
        s = delta**2 * abs(dot(v, v)) ** 2 / q**2
        return float(mpmath.sqrt(q / delta**2 * (1 + mpmath.sqrt(1 - s))))


def bisection_gauge(spec, w, steps: int = BISECTION_STEPS) -> float:
    """Gauge by bisecting the ray boundary crossing; oracle for closed forms."""
    w = np.asarray(w, dtype=np.complex128)
    if float(np.max(np.abs(w))) == 0.0:
        return 0.0
    # gauge(w) <= sqrt(2)*frobenius on every type, so w/hi is interior
    hi = 2.0 * float(np.linalg.norm(w)) + 1e-9
    lo = 0.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if domains.contains(spec, w / mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def generate_maps_one_at_a_time(source, target, seed: int = 0, count: int = 50):
    """schwarz.generate_maps built one attempt at a time, each draw a
    one-seed call; oracle for the corpus's one draw_grid call."""
    from cartanfinsler import automorphisms as am
    from cartanfinsler import schwarz as sw

    rng = np.random.default_rng(seed)
    maps = [am.identity_map(source)] if source == target else []
    kinds = sw._corpus_kinds(source, target)
    for a in range(count - len(maps)):
        kind = kinds[a % len(kinds)]
        s = int(rng.integers(2**63))
        if kind == "constant":
            m = am.HoloMap(
                source, target, am.ConstantMap(domains.sample_point(target, seed=s))
            )
        elif kind == "slice":
            if source.kind == "IV":
                entry = (int(rng.integers(source.dims[0])),)
            else:
                sm, sn = source.ambient_shape
                entry = (int(rng.integers(sm)), int(rng.integers(sn)))
            w = domains.sample_tangent(target, seed=s)
            w1 = sw.CORPUS_RHO * (w / domains.minkowski_gauge(target, w))
            m = am.HoloMap(source, target, am.ScalarSlice(entry, w1))
        elif kind == "auto":
            m = am.random_automorphism(source, seed=s)
        elif kind == "chain":
            inner = am.random_automorphism(source, seed=s)
            outer = am.HoloMap(source, target, sw._contraction_body(source, rng))
            m = am.compose(outer, inner)
        elif kind == "contract":
            m = am.HoloMap(source, target, sw._contraction_body(source, rng))
        elif kind == "poly":
            m = am.HoloMap(source, target, sw._polynomial_body(source, rng))
        elif kind == "pad":
            m = am.HoloMap(source, target, am.PadEmbed())
        else:  # pad_contract
            pad = am.HoloMap(source, target, am.PadEmbed())
            outer = am.HoloMap(target, target, sw._contraction_body(target, rng))
            m = am.compose(outer, pad)
        maps.append(m)
    return maps[:count]
