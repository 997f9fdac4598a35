"""Reference computations that the tests check the package against."""
import functools

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
    ambient = tuple(range(-len(spec.ambient_shape), 0))
    unit = lambda w: w / np.linalg.norm(w, axis=ambient, keepdims=True)
    v0s, zs, fibers = domains.draw_grid(seed, "kahler_berwald", [
        domains.Tangents(spec, n_base), domains.Points(spec, n_base),
        domains.Tangents(spec, n_base * n_fiber)])
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


def kahler_berwald_two_pass(metric, seed: int = 0):
    """metrics.verify_kahler_berwald with the mixed row from its own
    grad_vbar_pair call at the origin and N from a second _fiber_jet call
    (connection_sample); oracle for the one-pass check."""
    from cartanfinsler import metrics as met

    spec = metric.domain
    n_base, n_fiber = met.N_BASE, max(met.N_FIBER, spec.dim + 1)
    ambient = tuple(range(-len(spec.ambient_shape), 0))
    unit = lambda w: w / np.linalg.norm(w, axis=ambient, keepdims=True)
    v0s, zs, fibers = domains.draw_grid(seed, "kahler_berwald", [
        domains.Tangents(spec, n_base), domains.Points(spec, n_base),
        domains.Tangents(spec, n_base * n_fiber)])
    v0s = unit(v0s)
    fibers = unit(fibers.reshape((n_base, n_fiber) + spec.ambient_shape))
    bmat = met.grad_vbar_pair(metric, np.zeros(spec.ambient_shape), v0s)[1]
    mixed = float(np.max(np.abs(bmat), initial=0.0))
    packed = domains.pack(spec, fibers)                              # (b, f, j)
    nonlinear = met.connection_sample(metric, zs, fibers).reshape(n_base, n_fiber, -1)
    fit = np.linalg.pinv(packed) @ nonlinear                         # (b, j, l i)
    gamma = np.swapaxes(fit.reshape((n_base,) + (spec.dim,) * 3), 1, 2)  # [b, l, j, i]
    worst = lambda x: float(np.max(np.abs(x), initial=0.0))
    return met.KahlerBerwaldReport(mixed, worst(nonlinear - packed @ fit),
                                   worst(gamma - np.swapaxes(gamma, -1, -2)),
                                   worst(gamma - met.hermitian_connection(metric, zs)),
                                   n_base * n_fiber)


def invariance_two_pass(metric, n: int, seed: int) -> float:
    """metrics.verify_invariance with F^2 of the samples from one eval2_many
    call and F^2 of their images from a second; oracle for the one-pass
    check."""
    from cartanfinsler import automorphisms as am
    from cartanfinsler import metrics as met

    spec = metric.domain
    zs, vs, *maps = domains.draw_grid(
        seed, "automorphism_invariance",
        [domains.Points(spec, n), domains.Tangents(spec, n)] + am.automorphism_parts(spec, n))
    base = met.eval2_many(metric, zs, vs)[:, None]
    phi = am.automorphisms_from(spec, *maps)
    zs, vs = met._inner_axis(spec, zs), met._inner_axis(spec, vs)  # (sample, map) axes
    moved = met.eval2_many(metric, *am.push(phi, zs, vs))
    return float(np.max(np.abs(moved - base) / base, initial=0.0))


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


def sandwich_equality_residuals(metric, bounds):
    """The sandwich's relative equality residuals at the origin, at the K1
    and the K2 extremal profile of bounds, computed on each call; oracle for
    the memo schwarz._equality_residuals."""
    from cartanfinsler import schwarz as sw

    spec = metric.domain
    k1, k2 = bounds.k1, bounds.k2
    probes = np.stack([sw._profile_tangent(spec, bounds.argmin_profile),
                       sw._profile_tangent(spec, bounds.argmax_profile)])
    f2_eq, g_eq = sw._gauge_sides(metric, None, probes)
    return tuple((abs(f2_eq - (4.0 / np.array([k1, k2])) * g_eq) / f2_eq).tolist())


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


def lie_ball_matrix(z):
    """The Hermitian n x n M(z) of the Lie-ball metric and Delta, from the
    defining formula M = Delta I - 2 conj(a) z z' - 2 (1 - 2 r) z zbar'
    + 2 zbar z' - 2 a zbar zbar', Delta = 1 + |a|^2 - 2 r with a = z.z and
    r = z.zbar; z may carry batch axes.  Oracle for domains.lie_frame."""
    z = np.asarray(z, dtype=np.complex128)
    outer = lambda x, y: x[..., :, None] * y[..., None, :]
    a = np.sum(z * z, axis=-1)[..., None, None]
    r = np.sum(np.abs(z) ** 2, axis=-1)[..., None, None]
    delta = 1.0 + np.abs(a) ** 2 - 2.0 * r
    zc = np.conj(z)
    m = (delta * np.eye(z.shape[-1]) - 2.0 * np.conj(a) * outer(z, z)
         - 2.0 * (1.0 - 2.0 * r) * outer(z, zc) + 2.0 * outer(zc, z)
         - 2.0 * a * outer(zc, zc))
    return m, delta[..., 0, 0]


def _lie_invariants_mp(z, v):
    """(Delta, q, v.v) of metrics.lie_fiber at mpmath vectors z, v, with
    q = v M(z) v* and M = Delta I - 2 conj(a) z z' - 2 (1 - 2 r0) z zbar'
    + 2 zbar z' - 2 a zbar zbar' (lie_ball_matrix), a = z.z and
    r0 = z.zbar."""
    import mpmath

    dot = lambda x, y: mpmath.fsum(a * b for a, b in zip(x, y))
    zc, vc = [mpmath.conj(x) for x in z], [mpmath.conj(x) for x in v]
    a, r0 = dot(z, z), mpmath.re(dot(z, zc))
    delta = 1 + abs(a) ** 2 - 2 * r0
    vz, vzc = dot(v, z), dot(v, zc)
    q = mpmath.re(delta * dot(v, vc)
                  - 2 * mpmath.conj(a) * vz * dot(z, vc)
                  - 2 * (1 - 2 * r0) * vz * dot(zc, vc)
                  + 2 * vzc * dot(z, vc) - 2 * a * vzc * dot(zc, vc))
    return delta, q, dot(v, v)


def lie_ball_directions(n: int):
    """Base directions of IV(n) where the Peirce frame degenerates or nearly
    does: the real e_1 and e^{0.7i} (0.6, 0.8, 0, ...) (l1 = l2), the
    near-real ones with spectral ratio l2/l1 = 0.5, 0.966 and 0.999, and
    e_1 + i e_2 (z.z = 0, l2 = 0)."""
    out = np.zeros((6, n), dtype=complex)
    out[0, 0] = 1.0
    out[1, :2] = np.exp(0.7j) * np.array([0.6, 0.8])
    for row, r in zip(out[2:5], (0.5, 0.966, 0.999)):
        row[:2] = [(1.0 + r) / 2.0, 0.5j * (1.0 - r)]
    out[5, :2] = [1.0, 1.0j]
    return out


def lie_ball_f2_mp(norm, g, z, v, dps: int = 60) -> float:
    """F^2(z; v) = norm q / Delta^2 g(s) on the Lie ball from the invariants
    of _lie_invariants_mp in dps-digit arithmetic, with the profile g written
    for mpmath numbers; oracle for metrics.eval2_many on type IV."""
    import mpmath

    with mpmath.workdps(dps):
        delta, q, p = _lie_invariants_mp([mpmath.mpc(complex(x)) for x in z],
                                         [mpmath.mpc(complex(x)) for x in v])
        return float(norm * q / delta**2 * g(delta**2 * abs(p) ** 2 / q**2))


def lie_ball_caratheodory_mp(z, v, dps: int = 50) -> float:
    """F_C(z; v) on the Lie ball from its closed form in the invariants,
    F_C^2 = r (1 + sqrt(1 - s)) with r = q / Delta^2, q = v M(z) v* and
    s = Delta^2 |v.v|^2 / q^2, in dps-digit arithmetic; oracle for
    schwarz.caratheodory_many on type IV."""
    import mpmath

    with mpmath.workdps(dps):
        delta, q, p = _lie_invariants_mp([mpmath.mpc(complex(x)) for x in z],
                                         [mpmath.mpc(complex(x)) for x in v])
        s = delta**2 * abs(p) ** 2 / q**2
        return float(mpmath.sqrt(q / delta**2 * (1 + mpmath.sqrt(1 - s))))


def _hpd_inverse_mp(a):
    """Inverse of a Hermitian positive definite object array of mpmath
    numbers, by Gauss-Jordan elimination; every pivot is positive."""
    n = a.shape[0]
    aug = np.concatenate([a, np.eye(n, dtype=object)], axis=1)
    for k in range(n):
        aug[k] = aug[k] / aug[k, k]
        for i in range(n):
            if i != k:
                aug[i] = aug[i] - aug[k] * aug[i, k]
    return aug[:, n:]


def fiber_jet_mp(metric, g, z, v, dps: int = 40):
    """(G_mbar, d_i G_mbar, G_{l mbar}) of G = F^2 at one (z, v) in
    dps-digit arithmetic; oracle for metrics._fiber_jet.

    F^2 is evaluated from its definition: N g(h_1, ..., h_k) with h_a =
    tr[M^a]^{1/a}, M = (I - ZZ*)^{-1} V (I - Z*Z)^{-1} V*, on types I-III,
    and N q / Delta^2 g(s) on the Lie ball.  g is the family's value on the
    list of h_a, or the profile phi, written for mpmath numbers.  Every
    derivative is mpmath.diff of F^2 in the real and imaginary parts of the
    packed coordinates, z = z0 + sum (a_i + i b_i) T_i and v = v0 +
    sum (x_m + i y_m) T_m: a mixed second partial by polarization,
    (D_{a+b}^2 - D_a^2 - D_b^2) / 2, of second derivatives along lines, and
    the partials combined by the Wirtinger rules d/dz = (d/da - i d/db) / 2
    and d/dconj(v) = (d/dx + i d/dy) / 2; no derivative is taken in closed
    form.  Returns complex arrays (dim,), (dim, dim) with
    [i, m] = d_i G_mbar and (dim, dim) with [l, m] = G_{l mbar}.
    """
    import mpmath

    spec = metric.domain
    dim, norm = spec.dim, metric.normalization
    basis = domains.tangent_basis(spec).astype(object)
    as_mp = np.vectorize(lambda x: mpmath.mpc(complex(x)), otypes=[object])
    origin = (as_mp(z), as_mp(v))

    def f2(zz, vv):
        if spec.kind == "IV":
            delta, q, p = _lie_invariants_mp(zz, vv)
            return norm * q / delta**2 * g(delta**2 * abs(p) ** 2 / q**2)
        zh, vh = np.conj(zz.T), np.conj(vv.T)
        m = (_hpd_inverse_mp(np.eye(zz.shape[0], dtype=object) - zz @ zh) @ vv
             @ _hpd_inverse_mp(np.eye(zz.shape[1], dtype=object) - zh @ zz) @ vh)
        h, power = [], m
        for a in range(1, metric.family.k + 1):
            h.append(mpmath.re(mpmath.fsum(np.diagonal(power))) ** (mpmath.mpf(1) / a))
            power = power @ m
        return norm * g(h)

    center = {}

    def value(steps):
        # steps are (coordinate, complex step); coordinates below dim move z.
        # The point (z, v) itself is on every line: it is evaluated once per
        # working precision
        point = list(origin)
        steps = [(c, t) for c, t in steps if t != 0]
        if not steps and mpmath.mp.prec in center:
            return center[mpmath.mp.prec]
        for c, t in steps:
            point[c // dim] = point[c // dim] + basis[c % dim] * t
        out = f2(*point)
        if not steps:
            center[mpmath.mp.prec] = out
        return out

    @functools.lru_cache(maxsize=None)
    def second(*dirs):
        # second derivative along the sum of real directions (coordinate, 1 or 1j)
        return mpmath.diff(lambda t: value([(c, u * t) for c, u in dirs]), 0, 2)

    def mixed(a, b):
        # the real Hessian entry of directions a and b, by polarization
        return (second(*sorted((a, b), key=repr)) - second(a) - second(b)) / 2

    def wirtinger(c, m):
        # d/d(coordinate c) of d/dconj(v_m); coordinate c moves holomorphically
        d = lambda u, w: mixed((c, u), (dim + m, w))
        return (d(1, 1) + d(1j, 1j) + 1j * (d(1, 1j) - d(1j, 1))) / 4

    with mpmath.workdps(dps):
        grad = [(mpmath.diff(lambda t: value([(dim + m, t)]), 0)
                 + 1j * mpmath.diff(lambda t: value([(dim + m, 1j * t)]), 0)) / 2
                for m in range(dim)]
        dgrad = [[wirtinger(i, m) for m in range(dim)] for i in range(dim)]
        hess = [[wirtinger(dim + l, m) for m in range(dim)] for l in range(dim)]
        return tuple(np.array(x, dtype=complex) for x in (grad, dgrad, hess))


def caratheodory_mp(z, v, dps: int = 40) -> float:
    """F_C(Z; V) on types I-III in dps-digit arithmetic: with G = I - ZZ*
    = L L* (mpmath Cholesky) and Q = (I - Z*Z)^{-1}, F_C^2 is the top
    eigenvalue of L^{-1} V Q V* L^{-*} (mpmath eighe), whose spectrum is that
    of P V Q V*; oracle for schwarz.caratheodory_many on the matrix types."""
    import mpmath

    with mpmath.workdps(dps):
        z = mpmath.matrix(np.asarray(z, dtype=complex).tolist())
        v = mpmath.matrix(np.asarray(v, dtype=complex).tolist())
        zh, vh = z.transpose_conj(), v.transpose_conj()
        low = mpmath.cholesky(mpmath.eye(z.rows) - z * zh)
        q = mpmath.inverse(mpmath.eye(z.cols) - zh * z)
        x = mpmath.inverse(low) * v
        # L^{-1} V Q V* L^{-*} = X Q X* with X = L^{-1} V
        gram = x * q * x.transpose_conj()
        gram = (gram + gram.transpose_conj()) / 2
        return float(mpmath.sqrt(max(mpmath.eighe(gram, eigvals_only=True))))


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
    """schwarz.generate_maps built one attempt at a time: attempt a draws the
    grid of the attempts up to a alone and reads the last item of each part
    it needs; oracle for the corpus's one draw_grid call."""
    from cartanfinsler import automorphisms as am
    from cartanfinsler import schwarz as sw

    maps = [am.identity_map(source)] if source == target else []
    kinds = sw._corpus_kinds(source, target)
    plan = [kinds[a % len(kinds)] for a in range(count - len(maps))]
    contracted = source if source == target else target
    last = lambda draws: tuple(x[-1:] for x in draws)
    for a, kind in enumerate(plan):
        (constants, slices, (_, entries), points, isotropy, contraction, (_, rho_u),
         (poly_normals, poly_u)) = domains.draw_grid(
            seed, "corpus", sw._corpus_parts(source, target, plan[:a + 1]))
        if kind in ("auto", "chain"):
            inner = am._map_slice(
                am.automorphisms_from(source, points[-1:], last(isotropy)), 0)
        if kind in ("chain", "contract", "pad_contract"):
            body = sw._contractions(contracted, last(contraction), rho_u[-1:])
            outer = am._map_slice(am.HoloMap(contracted, contracted, body), 0).body
        if kind == "constant":
            m = am.HoloMap(source, target, am.ConstantMap(constants[-1]))
        elif kind == "slice":
            entry = tuple(int(u * size) for u, size in zip(entries[-1], source.ambient_shape))
            w1 = sw.CORPUS_RHO * (slices[-1] / domains.minkowski_gauge(target, slices[-1]))
            m = am.HoloMap(source, target, am.ScalarSlice(entry, w1))
        elif kind == "auto":
            m = inner
        elif kind == "chain":
            m = am.compose(am.HoloMap(source, target, outer), inner)
        elif kind == "contract":
            m = am.HoloMap(source, target, outer)
        elif kind == "poly":
            m = am.HoloMap(source, target,
                           sw._polynomial_body(source, poly_normals[-1], poly_u[-1]))
        elif kind == "pad":
            m = am.HoloMap(source, target, am.PadEmbed())
        else:  # pad_contract
            pad = am.HoloMap(source, target, am.PadEmbed())
            m = am.compose(am.HoloMap(target, target, outer), pad)
        maps.append(m)
    return maps[:count]
