"""Invariant Finsler metrics on the classical domains.

Matrix domains (types I-III): F^2(Z;V) = g(h_1, ..., h_k) with
    h_a = tr[M^a]^{1/a},   M = (I - Z Z*)^{-1} V (I - Z* Z)^{-1} V*.
Lie ball (type IV): F^2(z;v) = norm * (v M(z) v*) / Delta^2 * phi(s) with
    Delta = 1 + |zz'|^2 - 2 zz*,  s = Delta^2 |vv'|^2 / (v M v*)^2,
and M(z) the Hermitian curvature matrix of the ball.

Derivatives in the fiber variable V are analytic (chain rule through the
power traces); derivatives in the base variable Z use 4-point central
differences per realified coordinate, combined into Wirtinger derivatives —
F^2 is not holomorphic in Z, so complex-step differentiation does not apply.
The base derivatives are one batched stencil: all 8 dim stencil points (and,
in the connection, every fiber it differentiates along) go through a single
grad_vbar_many call.
"""
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NumericError, StructureError
from . import domains
from .domains import DomainSpec
from . import norms
from .norms import PhiFamilySpec, bergman_family, constant_phi, tk_family

BASE_STEP = 1e-4
SPEED_DRIFT_LIMIT = 1e-3


@dataclass(frozen=True)
class MetricSpec:
    domain: DomainSpec
    family: object  # GFamilySpec (matrix types) or PhiFamilySpec (Lie ball)
    normalization: float = 1.0

    @property
    def label(self) -> str:
        return f"{self.family.label} on {self.domain}"


@dataclass(frozen=True)
class FundamentalTensor:
    matrix: np.ndarray  # packed Hermitian (r, r)
    mode: str           # "analytic"
    step: Optional[float]


@dataclass(frozen=True)
class ConnectionSample:
    nonlinear: np.ndarray   # (r, r): [l, i] = coefficient of direction i
    horizontal: np.ndarray  # (r, r, r): [l, j, i]


@dataclass(frozen=True)
class KahlerBerwaldReport:
    mixed_residual: float
    gamma_v_variation: float
    gamma_symmetry: float
    gamma_vs_hermitian: float


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
    scale = max(1.0, float(np.max(np.abs(v))))
    if spec.kind == "II" and np.max(np.abs(v - v.T)) > 1e-10 * scale:
        raise StructureError("tangent must be symmetric")
    if spec.kind == "III" and np.max(np.abs(v + v.T)) > 1e-10 * scale:
        raise StructureError("tangent must be skew-symmetric")
    return z, v


def _lie_ball_matrix(z):
    """Hermitian M(z) of the Lie-ball metric; z may carry batch axes."""
    z = np.asarray(z, dtype=np.complex128)
    n = z.shape[-1]
    a = np.sum(z * z, axis=-1)
    r0 = np.sum(np.abs(z) ** 2, axis=-1).real
    delta = 1.0 + np.abs(a) ** 2 - 2.0 * r0
    zc = np.conj(z)
    outer = lambda x, y: x[..., :, None] * y[..., None, :]
    eye = np.eye(n)
    m = (
        delta[..., None, None] * eye
        - 2.0 * np.conj(a)[..., None, None] * outer(z, z)
        - 2.0 * (1.0 - 2.0 * r0)[..., None, None] * outer(z, zc)
        + 2.0 * outer(zc, z)
        - 2.0 * a[..., None, None] * outer(zc, zc)
    )
    return m, delta


def _matrix_h(metric: MetricSpec, z, v):
    """Power means h_a(Z;V) for the matrix types; batch-friendly."""
    zc = np.conj(np.swapaxes(z, -1, -2))
    vc = np.conj(np.swapaxes(v, -1, -2))
    m_dim, n_dim = z.shape[-2], z.shape[-1]
    p = np.linalg.inv(np.eye(m_dim) - z @ zc)
    q = np.linalg.inv(np.eye(n_dim) - zc @ z)
    m = p @ v @ q @ vc
    k = metric.family.k
    traces = np.empty(m.shape[:-2] + (k,))
    power = m
    traces[..., 0] = np.trace(power, axis1=-2, axis2=-1).real
    for a in range(2, k + 1):
        power = power @ m
        traces[..., a - 1] = np.trace(power, axis1=-2, axis2=-1).real
    h = np.empty_like(traces)
    for a in range(1, k + 1):
        h[..., a - 1] = np.maximum(traces[..., a - 1], 0.0) ** (1.0 / a)
    return h


def eval2_many(metric: MetricSpec, zs, vs) -> np.ndarray:
    """Batched F^2 without membership checks (inputs assumed interior)."""
    zs = np.asarray(zs, dtype=np.complex128)
    vs = np.asarray(vs, dtype=np.complex128)
    if metric.domain.kind == "IV":
        m, delta = _lie_ball_matrix(zs)
        q = np.einsum("...i,...ij,...j->...", vs, m, np.conj(vs)).real
        p2 = np.abs(np.sum(vs * vs, axis=-1)) ** 2
        s = np.divide(delta**2 * p2, q * q, out=np.zeros_like(q), where=q > 0.0)
        s = np.clip(s, 0.0, 1.0)
        phi = np.asarray(metric.family.value(s), dtype=float)
        return metric.normalization * q / delta**2 * phi
    h = _matrix_h(metric, zs, vs)
    vals = np.asarray(metric.family.value(h), dtype=float)
    return metric.normalization * np.where(h[..., 0] > 0.0, vals, 0.0)


def eval2(metric: MetricSpec, z, v, checked: bool = True) -> float:
    """F^2(Z;V)."""
    if checked:
        z, v = _check_pair(metric, z, v)
    else:
        z = np.asarray(z, dtype=np.complex128)
        v = np.asarray(v, dtype=np.complex128)
    return float(eval2_many(metric, z, v))


def eval(metric: MetricSpec, z, v, checked: bool = True) -> float:
    """F(Z;V) = sqrt(F^2)."""
    return float(np.sqrt(max(eval2(metric, z, v, checked=checked), 0.0)))


# ---------------------------------------------------------------------------
# fiber derivatives (analytic)


def _matrix_fiber_parts(metric: MetricSpec, zs, vs):
    """P, Q, P V Q, the ladder M^0..M^k of M = P V Q V* and S_a = tr M^a.

    zs and vs may carry batch axes in front of the matrix axes, and those
    axes broadcast against each other.
    """
    zc = np.conj(np.swapaxes(zs, -1, -2))
    p = np.linalg.inv(np.eye(zs.shape[-2]) - zs @ zc)
    q = np.linalg.inv(np.eye(zs.shape[-1]) - zc @ zs)
    pvq = p @ vs @ q
    m = pvq @ np.conj(np.swapaxes(vs, -1, -2))
    k = metric.family.k
    powers = [np.broadcast_to(np.eye(m.shape[-1], dtype=np.complex128), m.shape)]
    for _ in range(k):
        powers.append(powers[-1] @ m)
    s_traces = np.stack([np.trace(powers[a], axis1=-2, axis2=-1).real
                         for a in range(1, k + 1)], axis=-1)
    return p, q, pvq, powers, s_traces


def grad_vbar_many(metric: MetricSpec, zs, vs) -> np.ndarray:
    """Packed dG/d(conj v) over batches of (Z, V); G = F^2, no membership checks.

    zs and vs carry batch axes in front of the ambient shape, and those axes
    broadcast against each other; returns (batch...) + (dim,).
    """
    spec = metric.domain
    zs = np.asarray(zs, dtype=np.complex128)
    vs = np.asarray(vs, dtype=np.complex128)
    norm = metric.normalization
    if spec.kind == "IV":
        # coordinates are the entries, so the ambient gradient is the packed one
        m, delta = _lie_ball_matrix(zs)
        vm = np.einsum("...i,...ij->...j", vs, m)
        q = np.einsum("...j,...j->...", vm, np.conj(vs)).real
        p = np.sum(vs * vs, axis=-1)
        s = np.clip(delta**2 * np.abs(p) ** 2 / (q * q), 0.0, 1.0)
        phi = np.asarray(metric.family.value(s), dtype=float)
        d1 = np.asarray(metric.family.d1(s), dtype=float)
        g_q = (norm / delta**2) * (phi - 2.0 * s * d1)
        g_p2 = norm * d1 / q
        return g_q[..., None] * vm + (g_p2 * 2.0 * p)[..., None] * np.conj(vs)
    _, _, pvq, powers, s = _matrix_fiber_parts(metric, zs, vs)
    k = metric.family.k
    h = np.empty_like(s)
    for a in range(1, k + 1):
        h[..., a - 1] = np.maximum(s[..., a - 1], 0.0) ** (1.0 / a)
    g_grad = norms.grad_rows(metric.family, h)
    grad_amb = np.zeros(pvq.shape, dtype=np.complex128)
    for a in range(1, k + 1):
        # dS_a/dVbar = a [M^{a-1} P V Q] and dh_a = S_a^{1/a-1}/a dS_a
        dh = (s[..., a - 1] ** (1.0 / a - 1.0))[..., None, None] \
            * (powers[a - 1] @ pvq)
        grad_amb = grad_amb + g_grad[..., a - 1, None, None] * dh
    grad_amb = norm * grad_amb
    basis = domains.tangent_basis(spec)
    flat = grad_amb.reshape(grad_amb.shape[:-2] + (-1,))
    return flat @ basis.reshape(spec.dim, -1).T


def grad_vbar(metric: MetricSpec, z, v) -> np.ndarray:
    """Packed dG/d(conj v) at one (Z, V): the fiber gradient entering the
    connection; see grad_vbar_many."""
    return grad_vbar_many(metric, z, v)


def fundamental_tensor(metric: MetricSpec, z, v) -> FundamentalTensor:
    """Packed Hermitian matrix of second fiber derivatives of F^2."""
    z = np.asarray(z, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if np.max(np.abs(v)) == 0.0:
        raise DomainError("fundamental tensor is undefined at V = 0")
    spec = metric.domain

    if spec.kind == "IV":
        m, delta = _lie_ball_matrix(z)
        q = float(np.einsum("i,ij,j->", v, m, np.conj(v)).real)
        p = np.sum(v * v)
        p2 = abs(p) ** 2
        s = min(max(delta**2 * p2 / (q * q), 0.0), 1.0)
        phi = float(metric.family.value(s))
        d1 = float(metric.family.d1(s))
        d2 = float(metric.family.d2(s))
        norm = metric.normalization
        g_q = (norm / delta**2) * (phi - 2.0 * s * d1)
        g_p2 = norm * d1 / q
        g_qq = (norm / delta**2) * (2.0 * s / q) * (d1 + 2.0 * s * d2)
        g_qp2 = -norm * (d1 + 2.0 * s * d2) / q**2
        g_p2p2 = norm * d2 * delta**2 / q**3
        dq_v = m @ np.conj(v)        # dq/dv_i
        dq_vb = v @ m                # dq/dvbar_b
        dp2_v = 2.0 * v * np.conj(p)
        dp2_vb = 2.0 * p * np.conj(v)
        hmat = (
            g_qq * np.outer(dq_v, dq_vb)
            + g_qp2 * (np.outer(dq_v, dp2_vb) + np.outer(dp2_v, dq_vb))
            + g_p2p2 * np.outer(dp2_v, dp2_vb)
            + g_q * m
            + g_p2 * 4.0 * np.outer(v, np.conj(v))
        )
        return FundamentalTensor(hmat, "analytic", None)

    p, q, pvq, powers, s = _matrix_fiber_parts(metric, z, v)
    k = metric.family.k
    h = np.array([max(s[a - 1], 0.0) ** (1.0 / a) for a in range(1, k + 1)])
    g_grad = np.atleast_1d(np.asarray(metric.family.grad(h), dtype=float))
    g_hess = np.atleast_2d(np.asarray(metric.family.hess(h), dtype=float))
    qvs = q @ v.conj().T  # Q V*

    # dS_a and dh_a as ambient matrices
    ds_vbar = [None] * (k + 1)
    ds_v = [None] * (k + 1)
    dh_vbar = [None] * (k + 1)
    dh_v = [None] * (k + 1)
    for a in range(1, k + 1):
        ds_vbar[a] = a * (powers[a - 1] @ pvq)
        ds_v[a] = a * (qvs @ powers[a - 1] @ p).T
        coeff = s[a - 1] ** (1.0 / a - 1.0) / a
        dh_vbar[a] = coeff * ds_vbar[a]
        dh_v[a] = coeff * ds_v[a]

    mdim, ndim = v.shape
    hess_amb = np.zeros((mdim, ndim, mdim, ndim), dtype=np.complex128)
    # first-derivative cross terms through g's Hessian and the h_a chain
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            if g_hess[a - 1, b - 1] != 0.0:
                hess_amb += g_hess[a - 1, b - 1] * np.multiply.outer(
                    dh_v[a], dh_vbar[b]
                )
    for a in range(1, k + 1):
        ga = g_grad[a - 1]
        if ga == 0.0:
            continue
        # second derivative of h_a = S_a^{1/a}
        c1 = (1.0 / a) * (1.0 / a - 1.0) * s[a - 1] ** (1.0 / a - 2.0)
        hess_amb += ga * c1 * np.multiply.outer(ds_v[a], ds_vbar[a])
        c2 = (1.0 / a) * s[a - 1] ** (1.0 / a - 1.0)
        # d2 S_a: sum over split products plus the bare PdVQ term
        block = np.zeros_like(hess_amb)
        for u in range(a - 1):
            left = powers[u] @ p                    # (M^u P)
            right = qvs @ powers[a - 2 - u] @ pvq   # (Q V* M^{a-2-u} P V Q)
            block += np.einsum("ai,jb->ijab", left, right)
        block += np.einsum("ai,jb->ijab", powers[a - 1] @ p, q)
        hess_amb += ga * c2 * a * block

    hess_amb *= metric.normalization
    basis = domains.tangent_basis(spec)
    packed = np.einsum("sij,tab,ijab->st", basis, basis, hess_amb)
    return FundamentalTensor(packed, "analytic", None)


# ---------------------------------------------------------------------------
# base derivatives and the connection


def _d4(f, h):
    """4-point central difference from f at offsets (+h, -h, +2h, -2h) on axis 0."""
    return (8.0 * (f[0] - f[1]) - (f[2] - f[3])) / (12.0 * h)


def _wirtinger_base_fd(fn, spec: DomainSpec, z, step=None):
    """d(fn)/dz_i per packed base coordinate, 4-point central differences.

    fn maps a stack of points (batch...) + ambient shape to (batch...) +
    fn-shape; all 8 dim stencil points go through one call.  Returns
    (dim,) + fn-shape.
    """
    basis = domains.tangent_basis(spec)
    h = (BASE_STEP if step is None else step) * (1.0 + float(np.linalg.norm(z)))
    offsets = np.array([h, -h, 2.0 * h, -2.0 * h])
    directions = np.stack([basis, 1j * basis], axis=1)        # (dim, 2) + ambient
    shape = (1, 1, 4) + (1,) * len(spec.ambient_shape)
    points = z + offsets.reshape(shape) * directions[:, :, None]
    f = fn(points)                                           # (dim, 2, 4) + ...
    d = _d4(np.moveaxis(f, 2, 0), h)                         # (dim, 2) + ...
    return 0.5 * (d[:, 0] - 1j * d[:, 1])


def connection_sample(metric: MetricSpec, z, v, step=None) -> ConnectionSample:
    """Nonlinear and horizontal connection coefficients at (z, v).

    The horizontal coefficients differentiate the nonlinear ones along the
    fiber with the same 4-point stencil; the base stencil of the centre fiber
    and of all 4 dim fiber-stencil points is one grad_vbar_many call, and the
    1 + 4 dim Hermitian systems are one batched solve.
    """
    z = np.asarray(z, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    spec = metric.domain
    basis = domains.tangent_basis(spec)
    hstep = (BASE_STEP if step is None else step) * (1.0 + float(np.linalg.norm(v)))
    offsets = np.array([hstep, -hstep, 2.0 * hstep, -2.0 * hstep])
    shape = (1, 4) + (1,) * len(spec.ambient_shape)
    fibers = np.concatenate(
        [v[None], (v + offsets.reshape(shape) * basis[:, None]).reshape(
            (-1,) + spec.ambient_shape)])                     # (1 + 4 dim) + ambient
    hmats = np.stack([fundamental_tensor(metric, z, vv).matrix for vv in fibers])
    # stencil points (dim, 2, 4) broadcast against the fibers: (dim, 2, 4, 1 + 4 dim)
    bmats = _wirtinger_base_fd(
        lambda zz: grad_vbar_many(metric, zz[:, :, :, None], fibers), spec, z, step)
    # gamma[f, l, i] solves the Hermitian system of fiber f per base direction i
    gamma = np.linalg.solve(np.swapaxes(hmats, -1, -2),
                            np.moveaxis(bmats, 0, -1))
    horizontal = np.moveaxis(
        _d4(np.moveaxis(gamma[1:].reshape((spec.dim, 4) + gamma.shape[1:]), 1, 0),
            hstep), 0, 1)
    return ConnectionSample(gamma[0], horizontal)


def hermitian_connection(metric: MetricSpec, z) -> np.ndarray:
    """Horizontal coefficients of the Hermitian (quadratic) reference metric.

    Entry [l, j, i].  Matrix domains use the closed form
    Gamma(U)V = U Z* P V + V Q Z* U; the Lie ball differentiates the
    Hermitian tensor H(z) = norm * M(z)/Delta^2 numerically.
    """
    spec = metric.domain
    z = np.asarray(z, dtype=np.complex128)
    basis = domains.tangent_basis(spec)
    r = spec.dim
    if spec.kind == "IV":
        def hmat_at(zz):
            m, delta = _lie_ball_matrix(zz)
            return metric.normalization * m / np.asarray(delta**2)[..., None, None]
        dh = _wirtinger_base_fd(hmat_at, spec, z)
        hinv = np.linalg.inv(hmat_at(z))
        return np.transpose(dh @ hinv, (2, 1, 0))
    zc = z.conj().T
    mdim, ndim = z.shape
    p = np.linalg.inv(np.eye(mdim) - z @ zc)
    q = np.linalg.inv(np.eye(ndim) - zc @ z)
    gamma = np.empty((r, r, r), dtype=np.complex128)
    for i, u in enumerate(basis):
        for j, w in enumerate(basis):
            out = u @ zc @ p @ w + w @ q @ zc @ u
            gamma[:, j, i] = domains.pack(spec, out)
    return gamma


def verify_kahler_berwald(metric: MetricSpec, n_base: int = 3, n_fiber: int = 10,
                          seed: int = 0) -> KahlerBerwaldReport:
    """Numerical check of the Berwald/Kaehler structure of the metric.

    Reports the worst of, over sampled (z, v), leaving the thresholds to the
    caller (the CLI applies its "mixed" and "connection" tolerances):
      * mixed fiber-base derivative of F^2 at the origin (should vanish),
      * variation of the horizontal coefficients across fiber directions,
      * symmetry of the horizontal coefficients in their two lower slots,
      * distance to the Hermitian reference connection at the same base.
    """
    spec = metric.domain
    rng = np.random.default_rng(seed)
    mixed = 0.0
    v_var = 0.0
    symm = 0.0
    vs_herm = 0.0
    for b in range(n_base):
        v0 = domains.sample_tangent(spec, seed=int(rng.integers(2**63)))
        v0 = v0 / np.linalg.norm(v0)
        origin = np.zeros(spec.ambient_shape, dtype=np.complex128)
        bmat = _wirtinger_base_fd(lambda zz: grad_vbar_many(metric, zz, v0),
                                  spec, origin)
        mixed = max(mixed, float(np.max(np.abs(bmat))))

        z = domains.sample_point(spec, seed=int(rng.integers(2**63)))
        gammas = np.stack([
            connection_sample(metric, z, v / np.linalg.norm(v)).horizontal
            for v in domains.sample_tangents(spec, rng.integers(2**63, size=n_fiber))
        ])
        v_var = max(v_var, float(np.max(np.abs(gammas - gammas[0]))))
        mean = np.mean(gammas, axis=0)
        symm = max(symm, float(np.max(np.abs(mean - np.swapaxes(mean, 1, 2)))))
        ref = hermitian_connection(metric, z)
        vs_herm = max(vs_herm, float(np.max(np.abs(mean - ref))))
    return KahlerBerwaldReport(mixed, v_var, symm, vs_herm)


def verify_invariance(metric: MetricSpec, n_maps: int = 100, n_samples: int = 100,
                      seed: int = 0) -> float:
    """Worst relative deviation of F under random automorphisms."""
    from . import automorphisms as am

    spec = metric.domain
    rng = np.random.default_rng(seed)
    zs = domains.sample_points(spec, rng.integers(2**63, size=n_samples))
    vs = domains.sample_tangents(spec, rng.integers(2**63, size=n_samples))
    base = eval2_many(metric, zs, vs)
    worst = 0.0
    for _ in range(n_maps):
        phi = am.random_automorphism(spec, seed=int(rng.integers(2**63)))
        moved = eval2_many(metric, am.apply(phi, zs), am.differential(phi, zs, vs))
        worst = max(worst, float(np.max(np.abs(moved - base) / base)))
    return worst


# ---------------------------------------------------------------------------
# geodesics of the shared (Hermitian) connection


def _geodesic_acceleration(metric: MetricSpec, z, w):
    spec = metric.domain
    if spec.kind == "IV":
        gamma = hermitian_connection(metric, z)
        wp = domains.pack(spec, w)
        acc = -np.einsum("lji,j,i->l", gamma, wp, wp)
        return domains.unpack(spec, acc)
    zc = z.conj().T
    mdim, ndim = z.shape
    p = np.linalg.inv(np.eye(mdim) - z @ zc)
    q = np.linalg.inv(np.eye(ndim) - zc @ z)
    return -(w @ zc @ p @ w + w @ q @ zc @ w)


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
        return ww, _geodesic_acceleration(metric, zz, ww)

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
