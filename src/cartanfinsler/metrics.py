"""Invariant Finsler metrics on the classical domains.

Matrix domains (types I-III): F^2(Z;V) = g(h_1, ..., h_k) with
    h_a = tr[M^a]^{1/a},   M = (I - Z Z*)^{-1} V (I - Z* Z)^{-1} V*.
Lie ball (type IV): F^2(z;v) = norm * (v M(z) v*) / Delta^2 * phi(s) with
    Delta = 1 + |zz'|^2 - 2 zz*,  s = Delta^2 |vv'|^2 / (v M v*)^2,
and M(z) the Hermitian curvature matrix of the ball.

Every formula reads one base-point frame: P, Q from _frame on the matrix
types, and M, Delta with the fiber invariants from lie_fiber on the Lie ball.
The matrix frame and its fiber parts run on numkernel's stack kernels
(matmul, hpd_inv), so every matrix of a stack gets the same bits whatever
the stack around it.
Every derivative is closed form; nothing is differenced numerically.  One
private _fiber_jet gives the fiber gradient of F^2, its holomorphic base
derivative and the fundamental tensor from one frame, over batch axes in
front of the ambient shape; grad_vbar_pair and fundamental_tensor are its
views.  The Hermitian reference connection Gamma_H is closed form on all
four types (hermitian_gamma) and takes stacks of points.  The
Kaehler-Berwald check is one batched pass: every fiber of every base point
goes through one _fiber_jet call and one batched solve gives N(z, v); the
fits of Gamma with N(z, v) = Gamma(z) v are one stacked pinv, and Gamma_H
of every base point one hermitian_connection call.
"""
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, StructureError
from . import domains
from .domains import DomainSpec
from . import norms
from . import numkernel
from .norms import PhiFamilySpec, bergman_family, constant_phi, tk_family

SPEED_DRIFT_LIMIT = 1e-3
N_BASE = 3    # base points of the Kaehler-Berwald check
N_FIBER = 10  # fibers per base point, raised to dim + 1 for the fit


@dataclass(frozen=True)
class MetricSpec:
    domain: DomainSpec
    family: object  # GFamilySpec (matrix types) or PhiFamilySpec (Lie ball)
    normalization: float = 1.0

    @property
    def label(self) -> str:
        return f"{self.family.label} on {self.domain}"


@dataclass(frozen=True)
class KahlerBerwaldReport:
    mixed_residual: float
    gamma_v_variation: float
    gamma_symmetry: float
    gamma_vs_hermitian: float
    fibers: int  # fibers drawn over all base points


def default_scale(spec: DomainSpec) -> float:
    """Volume-kernel exponent of the domain (the classical constant)."""
    if spec.kind == "I":
        m, n = spec.dims
        return float(m + n)
    if spec.kind == "II":
        return float(spec.dims[0] + 1)
    if spec.kind == "III":
        return float(2 * (spec.dims[0] - 1))
    return float(2 * spec.dims[0])


def bergman_metric(spec: DomainSpec, scale: float = None) -> MetricSpec:
    c = default_scale(spec) if scale is None else float(scale)
    if spec.kind == "IV":
        return MetricSpec(spec, constant_phi(1.0), normalization=c)
    return MetricSpec(spec, bergman_family(c))


def tk_metric(spec: DomainSpec, t: float, k: int, scale: float = None) -> MetricSpec:
    if spec.kind == "IV":
        raise StructureError("two-term trace families live on the matrix domains")
    c = default_scale(spec) if scale is None else float(scale)
    return MetricSpec(spec, tk_family(t, k, c))


def phi_metric(spec: DomainSpec, phi: PhiFamilySpec,
               normalization: float = None) -> MetricSpec:
    if spec.kind != "IV":
        raise StructureError("profile families live on the Lie ball")
    c = default_scale(spec) if normalization is None else float(normalization)
    return MetricSpec(spec, phi, normalization=c)


# ---------------------------------------------------------------------------
# evaluation


def _check_pair(metric: MetricSpec, z, v):
    z = np.asarray(z, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if not domains.contains(metric.domain, z):
        raise DomainError(f"base point is not interior to {metric.domain}")
    spec = metric.domain
    if v.shape != spec.ambient_shape:
        raise StructureError(
            f"tangent has shape {v.shape}, expected {spec.ambient_shape}"
        )
    broken = domains.broken_symmetry(spec, v)
    if broken:
        raise StructureError(f"tangent must be {broken}")
    return z, v


def require_nonzero(spec: DomainSpec, vs, message: str):
    """Raise DomainError(message) if any tangent of the stack vs is zero."""
    ambient = tuple(range(-len(spec.ambient_shape), 0))
    if np.any(np.max(np.abs(vs), axis=ambient) == 0.0):
        raise DomainError(message)


def _outer(x, y):
    """x_i y_j over stacks: (..., i) and (..., j) give (..., i, j)."""
    return x[..., :, None] * y[..., None, :]


def _outer4(x, y):
    """x_ij y_ab over stacks of matrices: (..., i, j, a, b)."""
    return x[..., :, :, None, None] * y[..., None, None, :, :]


def _lie_ball_matrix(z):
    """Hermitian M(z) of the Lie-ball metric; z may carry batch axes."""
    z = np.asarray(z, dtype=np.complex128)
    n = z.shape[-1]
    a = np.sum(z * z, axis=-1)
    r0 = np.sum(np.abs(z) ** 2, axis=-1).real
    delta = 1.0 + np.abs(a) ** 2 - 2.0 * r0
    zc = np.conj(z)
    eye = np.eye(n)
    m = (
        delta[..., None, None] * eye
        - 2.0 * np.conj(a)[..., None, None] * _outer(z, z)
        - 2.0 * (1.0 - 2.0 * r0)[..., None, None] * _outer(z, zc)
        + 2.0 * _outer(zc, z)
        - 2.0 * a[..., None, None] * _outer(zc, zc)
    )
    return m, delta


def lie_fiber(zs, vs):
    """Lie-ball frame and fiber invariants (M, Delta, q, p, s) over stacks.

    q = v M v*, p = v.v and s = Delta^2 |p|^2 / q^2 clipped to [0, 1], with
    s = 0 where q = 0; the batch axes of zs and vs broadcast.
    """
    m, delta = _lie_ball_matrix(zs)
    q = np.einsum("...i,...ij,...j->...", vs, m, np.conj(vs)).real
    p = np.sum(vs * vs, axis=-1)
    s = np.divide(delta**2 * np.abs(p) ** 2, q * q, out=np.zeros_like(q),
                  where=q > 0.0)
    return m, delta, q, p, np.clip(s, 0.0, 1.0)


def interior_lie_fiber(zs, vs):
    """lie_fiber at points that must be interior: one with Delta <= 0 or
    |z|^2 >= 1, which is exactly a point outside the ball, raises
    DomainError."""
    fiber = lie_fiber(zs, vs)
    if np.any((fiber[1] <= 0.0) | (np.sum(np.abs(zs) ** 2, axis=-1) >= 1.0)):
        raise DomainError("a point is not interior to the Lie ball "
                          "(Delta <= 0 or |z|^2 >= 1)")
    return fiber


def _lie_dm(z, us, ws):
    """(d_U Delta, W d_U M) of the Lie-ball frame; z, us and ws broadcast.

    d_U is the holomorphic derivative along U; with a = z.z and r = z.zbar,
      d_U Delta = 2 (conj(a) (z.U) - zbar.U),
      d_U M = (d_U Delta) I - 2 conj(a) (U z' + z U') + 4 (zbar.U) z zbar'
              - 2 (1 - 2r) U zbar' + 2 zbar U' - 4 (z.U) zbar zbar'.
    Both keep a trailing axis of length 1 and n.
    """
    ac = np.conj(np.sum(z * z, axis=-1))[..., None]
    r = np.sum(np.abs(z) ** 2, axis=-1)[..., None]
    zb = np.conj(z)
    dot = lambda x, y: np.sum(x * y, axis=-1)[..., None]
    zu, zbu = dot(us, z), dot(us, zb)
    wu, wz, wzb = dot(ws, us), dot(ws, z), dot(ws, zb)
    d_delta = 2.0 * (ac * zu - zbu)
    w_dm = (d_delta * ws - 2.0 * ac * (wu * z + wz * us) + 4.0 * zbu * wz * zb
            - 2.0 * (1.0 - 2.0 * r) * wu * zb + 2.0 * wzb * us
            - 4.0 * zu * wzb * zb)
    return d_delta, w_dm


def _frame(zs):
    """P = (I - Z Z*)^{-1} and Q = (I - Z* Z)^{-1} over a stack of points.

    Only the m x m gram is inverted (numkernel.hpd_inv); Q = I + Z* P Z by
    the push-through identity.  A point whose gram is not positive definite
    raises DomainError.
    """
    zc = np.conj(np.swapaxes(zs, -1, -2))
    p = numkernel.hpd_inv(np.eye(zs.shape[-2]) - numkernel.matmul(zs, zc))
    return p, np.eye(zs.shape[-1]) + numkernel.matmul(zc, numkernel.matmul(p, zs))


def _matrix_fiber_parts(metric: MetricSpec, zs, vs):
    """P, Q, P V Q, the ladder M^0..M^k of M = P V Q V* and S_a = tr M^a.

    zs and vs may carry batch axes in front of the matrix axes, and those
    axes broadcast against each other.  Every product is a numkernel.matmul.
    """
    p, q = _frame(zs)
    pvq = numkernel.matmul(numkernel.matmul(p, vs), q)
    m = numkernel.matmul(pvq, np.conj(np.swapaxes(vs, -1, -2)))
    k = metric.family.k
    powers = [np.broadcast_to(np.eye(m.shape[-1], dtype=np.complex128), m.shape), m]
    for _ in range(k - 1):
        powers.append(numkernel.matmul(powers[-1], m))
    s_traces = np.stack([np.trace(powers[a], axis1=-2, axis2=-1).real
                         for a in range(1, k + 1)], axis=-1)
    return p, q, pvq, powers, s_traces


def eval2_many(metric: MetricSpec, zs, vs) -> np.ndarray:
    """Batched F^2 without membership checks.

    The contract: inputs are interior.  A matrix point on or outside the
    boundary, whose gram I - ZZ* is not positive definite, raises
    DomainError from the frame; a Lie-ball point with Delta <= 0 or
    |z|^2 >= 1, which is exactly a point outside the ball, raises it here.
    """
    zs = np.asarray(zs, dtype=np.complex128)
    vs = np.asarray(vs, dtype=np.complex128)
    if metric.domain.kind == "IV":
        _, delta, q, _, s = interior_lie_fiber(zs, vs)
        phi = np.asarray(metric.family.value(s), dtype=float)
        return metric.normalization * q / delta**2 * phi
    h = norms.power_means(_matrix_fiber_parts(metric, zs, vs)[-1])
    vals = np.asarray(metric.family.value(h), dtype=float)
    return metric.normalization * np.where(h[..., 0] > 0.0, vals, 0.0)


def eval2(metric: MetricSpec, z, v) -> float:
    """F^2(Z;V) at one checked pair."""
    z, v = _check_pair(metric, z, v)
    return float(eval2_many(metric, z, v))


def eval(metric: MetricSpec, z, v) -> float:
    """F(Z;V) = sqrt(F^2)."""
    return float(np.sqrt(max(eval2(metric, z, v), 0.0)))


# ---------------------------------------------------------------------------
# fiber derivatives and their base derivative


def _fiber_jet(metric: MetricSpec, zs, vs):
    """(G_mbar, d_i G_mbar, G_{l mbar}) of G = F^2 over stacks, from one frame.

    G_mbar = dG/d(conj v) is packed, d_i is the holomorphic derivative in z
    along tangent_basis[i] at fixed v, and G_{l mbar} is the packed Hermitian
    matrix of second fiber derivatives; no membership checks.  The batch
    axes of zs and vs broadcast; the three values are (batch...) + (dim,),
    with the direction axis first (dim, batch..., dim), and (batch...) +
    (dim, dim).  A zero fiber anywhere in the stack raises DomainError.
    Types I-III: d_U P = P U Z* P and d_U Q = Q Z* U Q.  Lie ball: d_U q =
    (v d_U M) v*, d_U p = 0 and d_U s = 2 s (d_U Delta / Delta - d_U q / q),
    with d_U M and d_U Delta from _lie_dm.
    """
    spec = metric.domain
    zs = np.asarray(zs, dtype=np.complex128)
    vs = np.asarray(vs, dtype=np.complex128)
    require_nonzero(spec, vs, "fiber derivatives of F^2 are undefined at V = 0")
    norm = metric.normalization
    col = lambda x: x[..., None, None]
    # the direction axis leads, so the per-item values broadcast against it
    basis = domains.tangent_basis(spec)
    us = basis.reshape((spec.dim,) + (1,) * (
        max(zs.ndim, vs.ndim) - len(spec.ambient_shape)) + spec.ambient_shape)
    if spec.kind == "IV":
        # coordinates are the entries, so the ambient gradient is the packed one
        m, delta, q, p, s = lie_fiber(zs, vs)
        vm = np.einsum("...i,...ij->...j", vs, m)        # dq/dvbar_b
        vc = np.conj(vs)
        phi, d1, d2 = (np.asarray(f(s), dtype=float) for f in
                       (metric.family.value, metric.family.d1, metric.family.d2))
        g_q = (norm / delta**2) * (phi - 2.0 * s * d1)
        g_p2 = norm * d1 / q
        d_delta, v_dm = _lie_dm(zs, us, vs)
        log_d_delta = d_delta[..., 0] / delta
        dq = np.sum(v_dm * vc, axis=-1)
        ds = 2.0 * s * (log_d_delta - dq / q)
        dg_q = -2.0 * log_d_delta * g_q - (norm / delta**2) * (d1 + 2.0 * s * d2) * ds
        dg_p2 = norm * (d2 * ds - d1 * dq / q) / q
        grad = g_q[..., None] * vm + (g_p2 * 2.0 * p)[..., None] * vc
        dgrad = (dg_q[..., None] * vm + g_q[..., None] * v_dm
                 + (dg_p2 * 2.0 * p)[..., None] * vc)
        g_qq = (norm / delta**2) * (2.0 * s / q) * (d1 + 2.0 * s * d2)
        g_qp2 = -norm * (d1 + 2.0 * s * d2) / q**2
        g_p2p2 = norm * d2 * delta**2 / q**3
        dq_v = np.einsum("...ij,...j->...i", m, vc)      # dq/dv_i
        dp2_v = 2.0 * vs * np.conj(p)[..., None]
        dp2_vb = 2.0 * p[..., None] * vc
        hess = (col(g_qq) * _outer(dq_v, vm)
                + col(g_qp2) * (_outer(dq_v, dp2_vb) + _outer(dp2_v, vm))
                + col(g_p2p2) * _outer(dp2_v, dp2_vb)
                + col(g_q) * m
                + col(g_p2) * 4.0 * _outer(vs, vc))
        return grad, dgrad, hess
    p, q, pvq, powers, s = _matrix_fiber_parts(metric, zs, vs)
    k = metric.family.k
    h = norms.power_means(s)
    g_grad = norms.grad_rows(metric.family, h)
    g_hess = norms.hess_rows(metric.family, h)
    mm = numkernel.matmul
    zc = np.conj(np.swapaxes(zs, -1, -2))
    vsc = np.conj(np.swapaxes(vs, -1, -2))
    d_pvq = mm(p, mm(mm(us, zc), pvq)) + mm(pvq, mm(mm(zc, us), q))
    d_m = mm(d_pvq, vsc)
    # 0-based a: X_a = M^a P V Q, and h_{a+1} has dh = c_a X_a along conj V
    # and d_U h = c_a t_a, with c_a = S^{1/(a+1)-1} and t_a = tr(M^a d_U M)
    xs = [mm(powers[a], pvq) for a in range(k)]
    c = [s[..., a] ** (1.0 / (a + 1) - 1.0) for a in range(k)]
    t = [np.einsum("...ij,...ji->...", powers[a], d_m) for a in range(k)]
    grad_amb = dgrad_amb = 0.0
    for a in range(k):
        w = (g_grad[..., a] * c[a])[..., None, None]
        dw = (c[a] * sum(g_hess[..., a, b] * c[b] * t[b] for b in range(k))
              - a * g_grad[..., a] * s[..., a] ** (1.0 / (a + 1) - 2.0) * t[a])
        dx = mm(powers[a], d_pvq) + sum(mm(mm(powers[u], d_m), xs[a - 1 - u])
                                        for u in range(a))
        grad_amb = grad_amb + w * xs[a]
        dgrad_amb = dgrad_amb + dw[..., None, None] * xs[a] + w * dx

    # 1-based a below: dS_a and dh_a as ambient matrices, dS_a = a X_{a-1}
    qvs = mm(q, vsc)  # Q V*
    col4 = lambda x: x[..., None, None, None, None]
    ds_vbar, ds_v, dh_vbar, dh_v = ([None] * (k + 1) for _ in range(4))
    for a in range(1, k + 1):
        ds_vbar[a] = a * xs[a - 1]
        ds_v[a] = a * np.swapaxes(mm(mm(qvs, powers[a - 1]), p), -1, -2)
        coeff = col(s[..., a - 1] ** (1.0 / a - 1.0) / a)
        dh_vbar[a] = coeff * ds_vbar[a]
        dh_v[a] = coeff * ds_v[a]
    hess_amb = np.zeros(pvq.shape + pvq.shape[-2:], dtype=np.complex128)
    # first-derivative cross terms through g's Hessian and the h_a chain
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            g_ab = g_hess[..., a - 1, b - 1]
            if np.any(g_ab != 0.0):
                hess_amb += col4(g_ab) * _outer4(dh_v[a], dh_vbar[b])
    for a in range(1, k + 1):
        ga = g_grad[..., a - 1]
        if not np.any(ga != 0.0):
            continue
        # second derivative of h_a = S_a^{1/a}
        c1 = (1.0 / a) * (1.0 / a - 1.0) * s[..., a - 1] ** (1.0 / a - 2.0)
        hess_amb += col4(ga * c1) * _outer4(ds_v[a], ds_vbar[a])
        c2 = (1.0 / a) * s[..., a - 1] ** (1.0 / a - 1.0)
        # d2 S_a: sum over split products plus the bare PdVQ term
        block = np.zeros_like(hess_amb)
        for u in range(a - 1):
            left = mm(powers[u], p)                       # (M^u P)
            right = mm(mm(qvs, powers[a - 2 - u]), pvq)   # (Q V* M^{a-2-u} P V Q)
            block += np.einsum("...ai,...jb->...ijab", left, right)
        block += np.einsum("...ai,...jb->...ijab", mm(powers[a - 1], p), q)
        hess_amb += col4(ga * c2 * a) * block
    hess_amb *= norm
    flat = lambda x: x.reshape(x.shape[:-2] + (-1,)) @ basis.reshape(spec.dim, -1).T
    return (norm * flat(grad_amb), norm * flat(dgrad_amb),
            np.einsum("sij,tab,...ijab->...st", basis, basis, hess_amb))


def grad_vbar_pair(metric: MetricSpec, zs, vs):
    """G_mbar and d_i G_mbar of _fiber_jet: (batch...) + (dim,) and, with
    the direction axis first, (dim, batch..., dim)."""
    return _fiber_jet(metric, zs, vs)[:2]


def fundamental_tensor(metric: MetricSpec, z, v) -> np.ndarray:
    """G_{l mbar} of _fiber_jet: packed Hermitian matrices of second fiber
    derivatives of F^2, (batch...) + (dim, dim)."""
    return _fiber_jet(metric, z, v)[2]


# ---------------------------------------------------------------------------
# the connection


def _inner_axis(spec: DomainSpec, zs):
    """zs with a new axis just before the ambient axes, so that points
    (batch...) broadcast against stacks (batch..., k) of fibers or maps."""
    return np.expand_dims(zs, -1 - len(spec.ambient_shape))


def connection_sample(metric: MetricSpec, zs, vs) -> np.ndarray:
    """Nonlinear connection N(z, v) over stacks of base points and fibers.

    zs is (batch...) + ambient and vs (batch..., n_fiber) + ambient: the
    fibers vs[b] are drawn at the base point zs[b].  Returns (batch...,
    n_fiber, dim, dim): entry [..., f, l, i] is the coefficient N^l_i of
    base direction i, solving G_{l conj m} N^l_i = d_i G_{conj m} (G = F^2,
    fiber derivatives in v, d_i the base derivative d/dz_i).  All fibers
    take one _fiber_jet call and the Hermitian systems one batched solve.
    """
    _, dgrad, hmats = _fiber_jet(metric, _inner_axis(metric.domain, zs), vs)
    return np.linalg.solve(np.swapaxes(hmats, -1, -2), np.moveaxis(dgrad, 0, -1))


def hermitian_gamma(spec: DomainSpec, z, us, ws) -> np.ndarray:
    """Gamma_z(U, W) = W (d_U H) H^{-1} of the Hermitian reference tensor H.

    Closed form; d_U is the holomorphic derivative along U, and H's scale
    cancels.  The stacks z (batch axes in front of the ambient shape), us
    and ws broadcast.
      * types I-III: U Z* P W + W Q Z* U;
      * Lie ball, H = M/Delta^2: (W d_U M) M^{-1} - 2 (d_U Delta / Delta) W,
        with d_U Delta and W d_U M from _lie_dm.
    """
    z, us, ws = (np.asarray(a, dtype=np.complex128) for a in (z, us, ws))
    if spec.kind != "IV":
        zc = np.conj(np.swapaxes(z, -1, -2))
        p, q = _frame(z)
        mm = numkernel.matmul
        return mm(mm(mm(us, zc), p), ws) + mm(mm(mm(ws, q), zc), us)
    m, delta = _lie_ball_matrix(z)
    d_delta, w_dm = _lie_dm(z, us, ws)
    return (np.einsum("...j,...jk->...k", w_dm, np.linalg.inv(m))
            - 2.0 * (d_delta / delta[..., None]) * ws)


def hermitian_connection(metric: MetricSpec, zs) -> np.ndarray:
    """Horizontal coefficients of the Hermitian (quadratic) reference metric.

    zs is (batch...) + ambient; entry [..., l, j, i] is coordinate l of
    hermitian_gamma(e_i, e_j), packed over every pair of basis directions
    at every point in one call.  Closed form on all four types; nothing is
    differentiated numerically.
    """
    spec = metric.domain
    basis = domains.tangent_basis(spec)
    zs = _inner_axis(spec, _inner_axis(spec, zs))                # (batch..., i, j)
    gamma = hermitian_gamma(spec, zs, basis[:, None], basis[None])
    return np.swapaxes(domains.pack(spec, gamma), -1, -3)


def verify_kahler_berwald(metric: MetricSpec, seed: int = 0) -> KahlerBerwaldReport:
    """Numerical check of the Berwald/Kaehler structure of the metric.

    At each of N_BASE sampled base points z the nonlinear connection is
    computed at max(N_FIBER, dim + 1) unit fibers v_f, and one Gamma[l, j, i]
    is fitted to N_f[l, i] = sum_j Gamma[l, j, i] v_f[j] by least squares.
    The connection of every fiber of every base point is one
    connection_sample call, the fits of all base points one stacked pinv,
    and their reference connections one hermitian_connection call.  Reports
    the worst over the base points; the caller decides the verdict:
      * mixed fiber-base derivative of F^2 at the origin over N_BASE unit
        fibers (should vanish); exactly 0 for every metric, because each
        term of grad_vbar_pair's base derivative carries Z* (types I-III)
        or z, zbar (Lie ball), so this row is a consistency check and not
        evidence,
      * gamma_v_variation: worst entry of the fit residual N_f - Gamma v_f
        (zero exactly when the metric is Berwald),
      * gamma_symmetry: asymmetry of the fitted Gamma in its two lower slots
        (zero when it is Kaehler),
      * gamma_vs_hermitian: distance of the fitted Gamma to the Hermitian
        reference connection at the same base.
    """
    spec = metric.domain
    n_base, n_fiber = N_BASE, max(N_FIBER, spec.dim + 1)
    rng = np.random.default_rng(seed)
    ambient = tuple(range(-len(spec.ambient_shape), 0))
    unit = lambda w: w / np.linalg.norm(w, axis=ambient, keepdims=True)
    v0s, zs, fibers = domains.draw_grid([
        domains.Tangents(spec, rng.integers(2**63, size=n_base)),
        domains.Points(spec, rng.integers(2**63, size=n_base)),
        domains.Tangents(spec, rng.integers(2**63, size=n_base * n_fiber))])
    v0s = unit(v0s)
    fibers = unit(fibers.reshape((n_base, n_fiber) + spec.ambient_shape))
    bmat = grad_vbar_pair(metric, np.zeros(spec.ambient_shape), v0s)[1]
    mixed = float(np.max(np.abs(bmat), initial=0.0))
    packed = domains.pack(spec, fibers)                              # (b, f, j)
    nonlinear = connection_sample(metric, zs, fibers).reshape(n_base, n_fiber, -1)
    fit = np.linalg.pinv(packed) @ nonlinear                         # (b, j, l i)
    gamma = np.swapaxes(fit.reshape((n_base,) + (spec.dim,) * 3), 1, 2)  # [b, l, j, i]
    worst = lambda x: float(np.max(np.abs(x), initial=0.0))
    return KahlerBerwaldReport(mixed, worst(nonlinear - packed @ fit),
                               worst(gamma - np.swapaxes(gamma, -1, -2)),
                               worst(gamma - hermitian_connection(metric, zs)),
                               n_base * n_fiber)


def verify_invariance(metric: MetricSpec, n: int, seed: int) -> float:
    """Worst relative deviation of F under n random automorphisms at n
    sampled (z, v).

    The n automorphisms are one stacked map, so every map acts on every
    sampled (z, v) in one push and one eval2_many call over n x n points.
    The samples and the maps' draws come from one domains.draw_grid call.
    """
    from . import automorphisms as am

    spec = metric.domain
    rng = np.random.default_rng(seed)
    zs, vs, *maps = domains.draw_grid(
        [domains.Points(spec, rng.integers(2**63, size=n)),
         domains.Tangents(spec, rng.integers(2**63, size=n))]
        + am.automorphism_parts(spec, rng.integers(2**63, size=n)))
    base = eval2_many(metric, zs, vs)[:, None]
    phi = am.automorphisms_from(spec, *maps)
    zs, vs = _inner_axis(spec, zs), _inner_axis(spec, vs)    # (sample, map) axes
    moved = eval2_many(metric, *am.push(phi, zs, vs))
    return float(np.max(np.abs(moved - base) / base, initial=0.0))


# ---------------------------------------------------------------------------
# geodesics of the shared (Hermitian) connection


def geodesic(metric: MetricSpec, z0, v0, t_end: float, steps: int):
    """Integrate the connection's geodesic flow with classical RK4.

    Returns (times, points, velocities).  Raises when the metric speed
    drifts beyond 1e-3 (step size too coarse) or the path exits the domain.
    """
    z0, v0 = _check_pair(metric, z0, v0)
    dt = float(t_end) / int(steps)
    zs = [z0]
    ws = [v0]
    z, w = z0, v0

    def rhs(state):
        zz, ww = state
        return ww, -hermitian_gamma(metric.domain, zz, ww, ww)

    for _ in range(steps):
        k1 = rhs((z, w))
        k2 = rhs((z + 0.5 * dt * k1[0], w + 0.5 * dt * k1[1]))
        k3 = rhs((z + 0.5 * dt * k2[0], w + 0.5 * dt * k2[1]))
        k4 = rhs((z + dt * k3[0], w + dt * k3[1]))
        z = z + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        w = w + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        if not domains.contains(metric.domain, z):
            raise NumericError("geodesic left the domain (step too large?)")
        zs.append(z)
        ws.append(w)
    times = np.linspace(0.0, t_end, steps + 1)
    points = np.stack(zs)
    velocities = np.stack(ws)
    speeds = np.sqrt(eval2_many(metric, points, velocities))
    drift = float(np.max(np.abs(speeds - speeds[0])) / speeds[0])
    if drift > SPEED_DRIFT_LIMIT:
        raise NumericError(f"speed drift {drift:.3e}; refine the step size")
    return times, points, velocities
