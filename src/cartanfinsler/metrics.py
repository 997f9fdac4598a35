"""Invariant Finsler metrics on the classical domains.

Matrix domains (types I-III): F^2(Z;V) = g(h_1, ..., h_k) with
    h_a = tr[M^a]^{1/a},   M = (I - Z Z*)^{-1} V (I - Z* Z)^{-1} V*.
Lie ball (type IV): F^2(z;v) = norm * (v M(z) v*) / Delta^2 * phi(s) with
    Delta = a1 a2,  a_i = (1 - l_i)(1 + l_i),  s = Delta^2 |vv'|^2 / (v M v*)^2,
l1 >= l2 the spectral values of z, and M(z)/Delta^2 the Bergman metric's
matrix, the inverse of the Bergman operator B(z, z).

Every formula reads one base-point frame: P, Q from _frame on the matrix
types, and on the Lie ball the Peirce frame domains.lie_frame, in which M
is diagonal, so v M, v M^{-1} and q = v M v* need no n x n matrix.
The matrix frame and its fiber parts run on numkernel's stack kernels
(matmul, hpd_inv), so every matrix of a stack gets the same bits whatever
the stack around it.
Every derivative is closed form; nothing is differenced numerically.  One
private _fiber_jet gives the fiber gradient of F^2, its holomorphic base
derivative and the fundamental tensor from one frame, over batch axes in
front of the ambient shape; the last two are one directional derivative of
the fiber gradient, taken along the base and along the fiber.
grad_vbar_pair and fundamental_tensor are its views.  The Hermitian
reference connection Gamma_H is closed form on all four types
(hermitian_gamma) and takes stacks of points.  The Kaehler-Berwald check is
one batched pass: every fiber of every base point and the origin's fibers
go through one _fiber_jet call, and one batched solve gives N(z, v); the
fits of Gamma with N(z, v) = Gamma(z) v are one stacked pinv, and Gamma_H
of every base point reads the frame that call read.
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
    """An invariant metric: a domain, a norm family and its normalization.

    Two parses of one config give equal, hash-equal specs (a family compares
    by its label and params), so a MetricSpec keys the memos of the
    metric-only invariants in curvature.
    """
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


def lie_fiber(zs, vs):
    """(frame, q, p, s) over stacks: the domains.lie_frame of zs, q = v M v*,
    p = v.v and s = Delta^2 |p|^2 / q^2 clipped to [0, 1], with s = 0 where
    q = 0; the batch axes of zs and vs broadcast."""
    frame = domains.lie_frame(zs)
    return (frame,) + _lie_invariants(frame, vs)


def _lie_invariants(frame, vs):
    """(q, p, s) of lie_fiber in a given frame."""
    q, p = frame.quad(vs), np.sum(vs * vs, axis=-1)
    s = np.divide(frame.delta**2 * np.abs(p) ** 2, q * q, out=np.zeros_like(q),
                  where=q > 0.0)
    return q, p, np.clip(s, 0.0, 1.0)


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


def _base_frame(spec: DomainSpec, zs):
    """The frame every formula reads at a stack of points zs: (P, Q) of
    _frame on the matrix types, domains.lie_frame on the Lie ball."""
    return domains.lie_frame(zs) if spec.kind == "IV" else _frame(zs)


def frame_roots(spec: DomainSpec, zs):
    """A = C* and D = R* over a stack of points, from the Cholesky factors
    P = C C* and Q = R R* of the frame; R = conj(C) on types II and III,
    where Q = conj(P).

    A (I - Z Z*) A* = I and D^{-1} D^{-*} = I - Z* Z, so A and D are roots of
    P and Q up to a unitary factor, and A V D* = C* V R is the differential
    at Z of the normalizing map A (. - Z) (I - Z* .)^{-1} D^{-1}.

    The factors read the Hermitian parts (P + P*)/2 and (Q + Q*)/2.  The
    frame is Hermitian only up to rounding of order kappa^2 eps, kappa =
    1/(1 - gauge^2), that lies in the top eigenspace of P; where that space
    has two or more dimensions (always on type III) the lower triangle alone
    carries the rounding into the small eigenvalues, and near the boundary
    into a negative pivot.
    """
    herm = lambda x: 0.5 * (x + np.conj(np.swapaxes(x, -1, -2)))
    p, q = _frame(zs)
    c = numkernel.cholesky(herm(p))
    r = numkernel.cholesky(herm(q)) if spec.kind == "I" else np.conj(c)
    return np.conj(np.swapaxes(c, -1, -2)), np.conj(np.swapaxes(r, -1, -2))


def _matrix_fiber_parts(metric: MetricSpec, zs, vs, frame=None):
    """P, Q, P V Q, the ladder M^0..M^(k-1) of M = P V Q V* and S_a = tr M^a.

    zs and vs may carry batch axes in front of the matrix axes, and those
    axes broadcast against each other.  Every product is a numkernel.matmul.
    """
    p, q = _frame(zs) if frame is None else frame
    pvq = numkernel.matmul(numkernel.matmul(p, vs), q)
    m = numkernel.matmul(pvq, np.conj(np.swapaxes(vs, -1, -2)))
    return (p, q, pvq) + power_ladder(m, metric.family.k)


def power_ladder(m, k: int, top: bool = False):
    """(M^0..M^(k-1), S) with S_a = tr M^a for a = 1..k over a stack of
    square matrices M; every product is a numkernel.matmul.

    Without top, M^k is not formed: S_k is read from M^(k-1) and M
    (_trace_product), to the same bits as the trace of matmul(M^(k-1), M).
    With top the ladder goes on to M^k, for a caller that reads it.
    """
    ladder = [np.broadcast_to(np.eye(m.shape[-1], dtype=np.complex128), m.shape), m]
    for _ in range(k + top - 2):
        ladder.append(numkernel.matmul(ladder[-1], m))
    s_traces = [np.trace(x, axis1=-2, axis2=-1).real for x in ladder[1:k + 1]]
    if len(s_traces) < k:
        s_traces.append(_trace_product(ladder[-1], m))
    return ladder[:k + top], np.stack(s_traces, axis=-1)


def _trace_product(a, b):
    """Re tr(A B) over stacks of n x p matrices A and p x n matrices B,
    without forming A B.

    Each diagonal entry sum_j A_ij B_ji is summed over j in the order
    numkernel.matmul sums it, and the diagonal in the order np.trace sums
    it, so the value equals np.trace(matmul(a, b)).real bit for bit.
    """
    diag = a[..., :, 0] * b[..., 0, :]
    for j in range(1, a.shape[-1]):
        diag += a[..., :, j] * b[..., j, :]
    return diag.sum(axis=-1).real


def trace_f2(metric: MetricSpec, s_traces):
    """(F^2, h): F^2 = N g(h), 0 at V = 0, h = norms.power_means(S) of traces S."""
    h = norms.power_means(s_traces)
    vals = np.asarray(metric.family.value(h), dtype=float)
    return metric.normalization * np.where(h[..., 0] > 0.0, vals, 0.0), h


def eval2_many(metric: MetricSpec, zs, vs) -> np.ndarray:
    """Batched F^2 without membership checks.

    The contract: inputs are interior.  A matrix point on or outside the
    boundary, whose gram I - ZZ* is not positive definite, raises
    DomainError from the frame, and so does a Lie-ball point with gauge
    >= 1 (domains.lie_frame).
    """
    zs = np.asarray(zs, dtype=np.complex128)
    vs = np.asarray(vs, dtype=np.complex128)
    if metric.domain.kind == "IV":
        frame, q, _, s = lie_fiber(zs, vs)
        phi = np.asarray(metric.family.value(s), dtype=float)
        return metric.normalization * q / frame.delta**2 * phi
    return trace_f2(metric, _matrix_fiber_parts(metric, zs, vs)[-1])[0]


def eval2(metric: MetricSpec, z, v) -> float:
    """F^2(Z;V) at one checked pair."""
    z, v = _check_pair(metric, z, v)
    return float(eval2_many(metric, z, v))


def eval(metric: MetricSpec, z, v) -> float:
    """F(Z;V) = sqrt(F^2)."""
    return float(np.sqrt(max(eval2(metric, z, v), 0.0)))


# ---------------------------------------------------------------------------
# fiber derivatives and their base derivative


def _fiber_jet(metric: MetricSpec, zs, vs, frame=None):
    """(G_mbar, d_i G_mbar, G_{l mbar}) of G = F^2 over stacks, from one frame.

    G_mbar = dG/d(conj v) is packed, d_i is the holomorphic derivative in z
    along tangent_basis[i] at fixed v, and G_{l mbar} = d G_mbar / d v_l is
    the packed Hermitian matrix of second fiber derivatives; no membership
    checks, and the frame is _base_frame(zs) unless given.  The batch axes
    of zs and vs broadcast; the three values are (batch...) + (dim,), with
    the direction axis first (dim, batch..., dim), and (batch...) +
    (dim, dim).  A zero fiber anywhere in the stack raises DomainError.

    Both derivatives vary G_mbar holomorphically at fixed conj v, so one
    local along(variation) gives them, called once along the base and once
    along the fiber.  Types I-III: the variation is d(P V Q), which is
    P U Z* P V Q + P V Q Z* U Q along the base (d_U P = P U Z* P, d_U Q =
    Q Z* U Q) and P T Q along the fiber.  Lie ball: the variation is
    (d Delta, d(v M), dp), with dq = d(v M) v* and
    ds = 2 s (d Delta / Delta - dq / q) + Delta^2 conj(p) dp / q^2; it is
    (d_U Delta, v d_U M, 0) along the base, from _lie_dm, and (0, T M, 2 T.v)
    along the fiber, with v M and T M from the frame.
    """
    spec = metric.domain
    zs = np.asarray(zs, dtype=np.complex128)
    vs = np.asarray(vs, dtype=np.complex128)
    require_nonzero(spec, vs, "fiber derivatives of F^2 are undefined at V = 0")
    frame = _base_frame(spec, zs) if frame is None else frame
    norm = metric.normalization
    # the direction axis leads, so the per-item values broadcast against it
    basis = domains.tangent_basis(spec)
    us = basis.reshape((spec.dim,) + (1,) * (
        max(zs.ndim, vs.ndim) - len(spec.ambient_shape)) + spec.ambient_shape)
    if spec.kind == "IV":
        # coordinates are the entries, so the ambient gradient is the packed one
        q, p, s = _lie_invariants(frame, vs)
        delta = frame.delta
        vm = frame.times_m(vs)                        # dq/dvbar_b
        vc = np.conj(vs)
        phi, d1, d2 = (np.asarray(f(s), dtype=float) for f in
                       (metric.family.value, metric.family.d1, metric.family.d2))
        g_q = (norm / delta**2) * (phi - 2.0 * s * d1)
        g_p2 = norm * d1 / q
        grad = g_q[..., None] * vm + (g_p2 * 2.0 * p)[..., None] * vc

        def along(d_delta, d_vm, dp):
            log_d_delta = d_delta / delta
            dq = np.sum(d_vm * vc, axis=-1)
            ds = 2.0 * s * (log_d_delta - dq / q) + delta**2 * np.conj(p) * dp / q**2
            dg_q = -2.0 * log_d_delta * g_q - (norm / delta**2) * (d1 + 2.0 * s * d2) * ds
            dg_p2 = norm * (d2 * ds - d1 * dq / q) / q
            return (dg_q[..., None] * vm + g_q[..., None] * d_vm
                    + (dg_p2 * 2.0 * p + g_p2 * 2.0 * dp)[..., None] * vc)

        d_delta, v_dm = _lie_dm(zs, us, vs)
        hess = np.moveaxis(along(0.0, frame.times_m(us), 2.0 * np.sum(us * vs, axis=-1)),
                           0, -2)
        return grad, along(d_delta[..., 0], v_dm, 0.0), hess
    p, q, pvq, powers, s = _matrix_fiber_parts(metric, zs, vs, frame)
    k = metric.family.k
    h = norms.power_means(s)
    g_grad = norms.grad_rows(metric.family, h)
    g_hess = norms.hess_rows(metric.family, h)
    mm = numkernel.matmul
    flat = lambda x: x.reshape(x.shape[:-2] + (-1,)) @ basis.reshape(spec.dim, -1).T
    zc = np.conj(np.swapaxes(zs, -1, -2))
    vsc = np.conj(np.swapaxes(vs, -1, -2))
    # 0-based a: X_a = M^a P V Q, and h_{a+1} has dh = c_a X_a along conj V
    # and d h = c_a t_a along a variation, with c_a = S^{1/(a+1)-1} and
    # t_a = tr(M^a dM)
    xs = [mm(powers[a], pvq) for a in range(k)]
    c = [s[..., a] ** (1.0 / (a + 1) - 1.0) for a in range(k)]
    w = [(g_grad[..., a] * c[a])[..., None, None] for a in range(k)]

    def along(d_pvq):
        d_m = mm(d_pvq, vsc)
        t = [np.einsum("...ij,...ji->...", powers[a], d_m) for a in range(k)]
        out = 0.0
        for a in range(k):
            dw = (c[a] * sum(g_hess[..., a, b] * c[b] * t[b] for b in range(k))
                  - a * g_grad[..., a] * s[..., a] ** (1.0 / (a + 1) - 2.0) * t[a])
            dx = mm(powers[a], d_pvq) + sum(mm(mm(powers[u], d_m), xs[a - 1 - u])
                                            for u in range(a))
            out = out + dw[..., None, None] * xs[a] + w[a] * dx
        return norm * flat(out)

    dgrad = along(mm(p, mm(mm(us, zc), pvq)) + mm(pvq, mm(mm(zc, us), q)))
    hess = np.moveaxis(along(mm(mm(p, us), q)), 0, -2)
    return norm * flat(sum(w[a] * xs[a] for a in range(k))), dgrad, hess


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


def _connection_jet(metric: MetricSpec, zs, fibers, v0s):
    """d_i G_mbar at the origin along the v0, (dim, fiber, dim), N of
    connection_sample at every fiber and Gamma_H of hermitian_connection at
    zs, for zs (base) + ambient and fibers (base, fiber) + ambient: the
    origin joins zs as one more row, whose fibers repeat the v0 up to fiber,
    and the one frame of these rows serves one _fiber_jet call and Gamma_H."""
    points = _inner_axis(metric.domain, np.concatenate([zs, np.zeros_like(zs[:1])]))
    frame = _base_frame(metric.domain, points)
    tangents = np.concatenate([fibers, v0s[None, np.arange(fibers.shape[1]) % len(v0s)]])
    _, dgrad, hmats = _fiber_jet(metric, points, tangents, frame)
    return (dgrad[:, -1], np.linalg.solve(np.swapaxes(hmats[:-1], -1, -2),
                                          np.moveaxis(dgrad[:, :-1], 0, -1)),
            _hermitian_connection(metric.domain, points, frame)[:-1])


def hermitian_gamma(spec: DomainSpec, z, us, ws) -> np.ndarray:
    """Gamma_z(U, W) = W (d_U H) H^{-1} of the Hermitian reference tensor H.

    Closed form; d_U is the holomorphic derivative along U, and H's scale
    cancels.  The stacks z (batch axes in front of the ambient shape), us
    and ws broadcast.
      * types I-III: U Z* P W + W Q Z* U;
      * Lie ball, H = M/Delta^2: (W d_U M) M^{-1} - 2 (d_U Delta / Delta) W,
        with d_U Delta and W d_U M from _lie_dm and M^{-1} from the frame.
    """
    z, us, ws = (np.asarray(a, dtype=np.complex128) for a in (z, us, ws))
    return _hermitian_gamma(spec, z, us, ws, _base_frame(spec, z))


def _hermitian_gamma(spec: DomainSpec, z, us, ws, frame):
    """hermitian_gamma in a given frame of z (_base_frame)."""
    if spec.kind != "IV":
        zc = np.conj(np.swapaxes(z, -1, -2))
        p, q = frame
        mm = numkernel.matmul
        return mm(mm(mm(us, zc), p), ws) + mm(mm(mm(ws, q), zc), us)
    d_delta, w_dm = _lie_dm(z, us, ws)
    return frame.times_m(w_dm, -1) - 2.0 * (d_delta / frame.delta[..., None]) * ws


def hermitian_connection(metric: MetricSpec, zs) -> np.ndarray:
    """Horizontal coefficients of the Hermitian (quadratic) reference metric.

    zs is (batch...) + ambient; entry [..., l, j, i] is coordinate l of
    hermitian_gamma(e_i, e_j), packed over every pair of basis directions
    at every point in one call.  Closed form on all four types; nothing is
    differentiated numerically.
    """
    zs = _inner_axis(metric.domain, np.asarray(zs, dtype=np.complex128))
    return _hermitian_connection(metric.domain, zs, _base_frame(metric.domain, zs))


def _hermitian_connection(spec: DomainSpec, zs, frame):
    """hermitian_connection at points zs (batch..., 1) + ambient in their
    frame; the pair (i, j) of basis directions is entry i dim + j of the
    last batch axis, which the frame broadcasts against."""
    basis, dim = domains.tangent_basis(spec), spec.dim
    gamma = _hermitian_gamma(spec, zs, np.repeat(basis, dim, axis=0),
                             np.concatenate([basis] * dim), frame)
    packed = domains.pack(spec, gamma)                            # (batch..., i j, l)
    return np.swapaxes(packed.reshape(packed.shape[:-2] + (dim,) * 3), -1, -3)


def verify_kahler_berwald(metric: MetricSpec, seed: int = 0) -> KahlerBerwaldReport:
    """Numerical check of the Berwald/Kaehler structure of the metric.

    At each of N_BASE sampled base points z the nonlinear connection is
    computed at max(N_FIBER, dim + 1) unit fibers v_f, and one Gamma[l, j, i]
    is fitted to N_f[l, i] = sum_j Gamma[l, j, i] v_f[j] by least squares.
    _connection_jet takes the fiber jet of every fiber of every base point
    and of the origin along N_BASE unit fibers v0 in one _fiber_jet call,
    N in one batched solve and the reference connections from the frame of
    that call; the fits of all base points are one stacked pinv.
    Reports the worst over the base points; the caller decides the verdict:
      * mixed fiber-base derivative d_i G_mbar of F^2 at the origin over
        the v0 (should vanish); exactly 0 for every metric, because each
        term of the closed-form base derivative carries Z* (types I-III)
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
    ambient = tuple(range(-len(spec.ambient_shape), 0))
    unit = lambda w: w / np.linalg.norm(w, axis=ambient, keepdims=True)
    v0s, zs, fibers = domains.draw_grid(seed, "kahler_berwald", [
        domains.Tangents(spec, n_base), domains.Points(spec, n_base),
        domains.Tangents(spec, n_base * n_fiber)])
    v0s = unit(v0s)
    fibers = unit(fibers.reshape((n_base, n_fiber) + spec.ambient_shape))
    mixed, nonlinear, hermitian = _connection_jet(metric, zs, fibers, v0s)
    packed = domains.pack(spec, fibers)                              # (b, f, j)
    nonlinear = nonlinear.reshape(n_base, n_fiber, -1)
    fit = np.linalg.pinv(packed) @ nonlinear                         # (b, j, l i)
    gamma = np.swapaxes(fit.reshape((n_base,) + (spec.dim,) * 3), 1, 2)  # [b, l, j, i]
    worst = lambda x: float(np.max(np.abs(x), initial=0.0))
    return KahlerBerwaldReport(worst(mixed), worst(nonlinear - packed @ fit),
                               worst(gamma - np.swapaxes(gamma, -1, -2)),
                               worst(gamma - hermitian),
                               n_base * n_fiber)


def verify_invariance(metric: MetricSpec, n: int, seed: int) -> float:
    """Worst relative deviation of F under n random automorphisms at n
    sampled (z, v).

    The n automorphisms are one stacked map, so every map acts on every
    sampled (z, v) in one push, and one eval2_many call over an (n, n + 1)
    stack, whose column 0 holds the unmoved (z, v), gives F^2 of both.
    The samples and the maps' draws come from one domains.draw_grid call.
    """
    from . import automorphisms as am

    spec = metric.domain
    zs, vs, *maps = domains.draw_grid(
        seed, "automorphism_invariance",
        [domains.Points(spec, n), domains.Tangents(spec, n)] + am.automorphism_parts(spec, n))
    phi = am.automorphisms_from(spec, *maps)
    zs, vs = _inner_axis(spec, zs), _inner_axis(spec, vs)    # (sample, map) axes
    zs, vs = (np.concatenate([x, moved], axis=1)       # column 0 unmoved
              for x, moved in zip((zs, vs), am.push(phi, zs, vs)))
    f2 = eval2_many(metric, zs, vs)
    return float(np.max(np.abs(f2[:, 1:] - f2[:, :1]) / f2[:, :1], initial=0.0))


# ---------------------------------------------------------------------------
# geodesics of the shared (Hermitian) connection


def geodesic(metric: MetricSpec, z0, v0, t_end: float, steps: int):
    """Integrate the connection's geodesic flow with classical RK4.

    Returns (times, points, velocities).  Raises StructureError when steps
    is not a positive count, and NumericError when the metric speed drifts
    beyond 1e-3 (step size too coarse) or the path exits the domain.
    """
    z0, v0 = _check_pair(metric, z0, v0)
    steps = int(steps)
    if steps < 1:
        raise StructureError(f"geodesic needs at least one step, got {steps}")
    dt = float(t_end) / steps
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
