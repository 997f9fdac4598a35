"""Holomorphic automorphisms of the classical domains, plus corpus map bodies.

Every map is a HoloMap(source, target, body).  Bodies are small frozen
dataclasses; push(m, z, v) holds each body's formula once and returns the
image f(z) with the tangent df_z v (apply and differential are its two
views).  All formulas are written so that the point (and tangent) arguments
may carry leading batch axes — matrix bodies accept (..., m, n) stacks,
vector bodies (..., N).
Automorphism bodies may carry leading map axes too: one body then holds a
stack of maps, and its map axes broadcast against the points' batch axes, so
K maps on S points (S, 1) + ambient give (S, K) + ambient in one call.

The normalizing automorphism of a matrix domain at Z0 is
    Z  |->  A (Z - Z0) (I - Z0* Z)^{-1} D^{-1},
with A = C* and D = R* from the Cholesky factors C C* = (I - Z0 Z0*)^{-1}
and R R* = (I - Z0* Z0)^{-1} of the metrics' frame (metrics.frame_roots),
the roots the gauge reads too; for the symmetric/skew domains D = conj(A).
Any roots with A (I - Z0 Z0*) A* = I and D^{-1} D^{-*} = I - Z0* Z0 give a
normalizing map, unique up to isotropy.  The Lie-ball
version goes through the real 2xN matrix X0 and the auxiliary map
u(z) = ((1+zz')/2, (1-zz')/(2i)).  Every automorphism body inverts in closed
form; on the Lie ball the inverse of the map at z0 is the map at -z0 (Loos,
Bounded Symmetric Domains and Jordan Pairs, 1977).
"""
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError
from . import domains
from . import metrics
from .domains import DomainSpec
from . import numkernel
from .numkernel import matmul


# ---------------------------------------------------------------------------
# map bodies


@dataclass(frozen=True)
class MatrixMobius:
    """A (Z - Z0) (I - Z0* Z)^{-1} D^{-1} on the matrix domains."""
    z0: np.ndarray
    a: np.ndarray
    d_inv: np.ndarray


@dataclass(frozen=True)
class MatrixMobiusInverse:
    """Closed-form inverse: W |-> (A + W D Z0*)^{-1} (W D + A Z0)."""
    z0: np.ndarray
    a: np.ndarray
    d: np.ndarray


@dataclass(frozen=True)
class LieBallMobius:
    """Lie-ball normalizing map through X0 and the quadric embedding."""
    z0: np.ndarray
    x0: np.ndarray
    a: np.ndarray  # 2x2 real PD
    d: np.ndarray  # NxN real PD


@dataclass(frozen=True)
class SandwichScale:
    """Z |-> left @ Z @ right (isotropy rotations, contractions, congruences)."""
    left: np.ndarray
    right: np.ndarray


@dataclass(frozen=True)
class VectorLinear:
    """z |-> alpha * z @ d on the Lie ball (isotropy when |alpha| = 1)."""
    alpha: complex
    d: np.ndarray


@dataclass(frozen=True)
class MapChain:
    """Composition; maps applied right to left (last entry acts first)."""
    maps: tuple


@dataclass(frozen=True)
class ConstantMap:
    w0: np.ndarray


@dataclass(frozen=True)
class ScalarSlice:
    """Z |-> Z[entry] * w1: a disc-through-w1 slice of the target."""
    entry: tuple
    w1: np.ndarray


@dataclass(frozen=True)
class PadEmbed:
    """Zero-pad a matrix point into a larger (or reinterpreted) matrix domain."""


@dataclass(frozen=True)
class MatrixPolynomial:
    """Z |-> sum_d coeffs[d] Z^d on a square matrix domain (degrees >= 1)."""
    coeffs: tuple  # ((degree, complex coefficient), ...)


@dataclass(frozen=True)
class HoloMap:
    source: DomainSpec
    target: DomainSpec
    body: object


# ---------------------------------------------------------------------------
# constructors


def _haar_unitary(g):
    """Haar unitaries from a stack of complex Gaussian matrices (QR with the
    phases of diag R divided out)."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _haar_orthogonal(g):
    """Haar orthogonals from a stack of real Gaussian matrices."""
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def _lie_ball_roots(z0):
    """X0, A = (I - X0 X0')^{-1/2} and D = (I - X0' X0)^{-1/2} of the Lie-ball
    normalizing maps at a stack (...,) + (N,) of base points, in closed form
    on the plane basis [Re z0; Im z0] = U diag(sigma) V' of domains.lie_frame.

    With tanh t_i = l_i for the spectral values l1, l2 = sigma_1 +- sigma_2,
    X0 = J U diag(tanh(t1 +- t2)) V' with J = diag(1, -1), where
    tanh(t1 +- t2) = 2 sigma_{1,2} / (1 +- l1 l2), and so A = J U diag(c) U' J
    and D = I + V (diag(c) - I) V' with c = cosh(t1 +- t2) = (1 +- l1 l2) /
    sqrt(Delta), Delta = (1 - l1^2)(1 - l2^2).  1 - l1 l2 is taken as
    (1 - l1) + l1 (1 - l2).  Neither X0 nor the roots divide by
    1 - |z0.z0|^2 or take roots of formed grams, which cancel once both
    spectral values near 1.  Its l1 decides membership as domains.contains_many does.
    """
    frame = domains.lie_frame(z0)
    if not np.all(1.0 - frame.l1**2 > domains.MEMBERSHIP_MARGIN):
        raise DomainError("a base point is not interior to the Lie ball")
    l1, l2, vt = frame.l1, frame.l2, frame.vt
    plus_minus = np.stack([1.0 + l1 * l2, (1.0 - l1) + l1 * (1.0 - l2)], axis=-1)
    x, c = 2.0 * frame.sigma / plus_minus, plus_minus / np.sqrt(frame.delta)[..., None]
    ju = frame.u * np.array([1.0, -1.0])[:, None]
    v = np.swapaxes(vt, -1, -2)
    return ((ju * x[..., None, :]) @ vt,
            (ju * c[..., None, :]) @ np.swapaxes(ju, -1, -2),
            np.eye(z0.shape[-1]) + (v * (c - 1.0)[..., None, :]) @ vt)


def identity_map(spec: DomainSpec) -> HoloMap:
    if spec.kind == "IV":
        body = VectorLinear(1.0 + 0.0j, np.eye(spec.dims[0]))
    else:
        m, n = spec.ambient_shape
        body = SandwichScale(np.eye(m), np.eye(n))
    return HoloMap(spec, spec, body)


def normalizing_automorphism(spec: DomainSpec, z0) -> HoloMap:
    """The automorphism sending the interior point z0 to the origin.

    z0 may be a stack (map...) + ambient shape of base points: the result is
    one map with those map axes, built in one pass.  Raises DomainError if
    any of the points is not interior.
    """
    z0 = np.asarray(z0, dtype=np.complex128)
    shape = spec.ambient_shape
    if z0.shape[z0.ndim - len(shape):] != shape:
        raise StructureError(f"Z has shape {z0.shape}, expected {shape} for {spec}")
    if spec.kind == "IV":
        return HoloMap(spec, spec, LieBallMobius(z0, *_lie_ball_roots(domains._finite(z0))))
    if not np.all(domains.contains_many(spec, z0.reshape((-1,) + shape))):
        raise DomainError(f"base point is not interior to {spec}")
    # contains_many admits z0 only when every pivot of I - Z0 Z0* - 1e-12 I is
    # > 0, so the frame's inverse gram below cannot raise
    a, d = metrics.frame_roots(spec, z0)
    return HoloMap(spec, spec, MatrixMobius(z0, a, np.linalg.inv(d)))


def _isotropy_part(spec: DomainSpec, n: int) -> domains.Gaussians:
    """The grid part of the Haar rotation data of n maps: the normals of each
    (and, on the Lie ball, the uniform of its phase)."""
    if spec.kind == "IV":
        return domains.Gaussians(n, spec.dims[0] ** 2, 1)
    m, k = spec.ambient_shape
    return domains.Gaussians(n, 2 * (m * m + k * k if spec.kind == "I" else m * m))


def _isotropy_body(spec: DomainSpec, normals, u):
    """One origin-fixing body with one map per row of an isotropy part's
    draws (normals, u)."""

    def complex_gaussians(normals, k):
        half = normals.shape[1] // 2
        return (normals[:, :half] + 1j * normals[:, half:]).reshape(-1, k, k)

    if spec.kind == "IV":
        n = spec.dims[0]
        return VectorLinear(np.exp(2j * np.pi * u[:, 0]),
                            _haar_orthogonal(normals.reshape(-1, n, n)))
    if spec.kind == "I":
        m, n = spec.dims
        a = _haar_unitary(complex_gaussians(normals[:, :2 * m * m], m))
        d = _haar_unitary(complex_gaussians(normals[:, 2 * m * m:], n))
        return SandwichScale(a, np.conj(np.swapaxes(d, -1, -2)))
    a = _haar_unitary(complex_gaussians(normals, spec.dims[0]))
    return SandwichScale(a, np.swapaxes(a, -1, -2))


def _map_slice(m: HoloMap, i) -> HoloMap:
    """Map i of a stacked map: index i on the leading map axis of every body."""
    b = m.body
    if isinstance(b, MapChain):
        body = MapChain(tuple(_map_slice(f, i) for f in b.maps))
    else:
        body = type(b)(*(value[i] for value in vars(b).values()))
    return HoloMap(m.source, m.target, body)


def automorphism_parts(spec: DomainSpec, n: int) -> list:
    """The domains.draw_grid parts of n random automorphisms: the base points
    and the isotropy draws, for a caller that puts them into a grid of its
    own."""
    return [domains.Points(spec, n), _isotropy_part(spec, n)]


def automorphisms_from(spec: DomainSpec, points, isotropy) -> HoloMap:
    """The stacked map of random_automorphisms from the draws of its
    automorphism_parts: points, then the isotropy pair (normals, u)."""
    return compose(HoloMap(spec, spec, _isotropy_body(spec, *isotropy)),
                   normalizing_automorphism(spec, points))


def random_automorphisms(spec: DomainSpec, seed: int, n: int) -> HoloMap:
    """Isotropy composed with a normalizing map at a random interior point,
    as one stacked map with one map axis of n maps: map i is the Haar
    rotation of item i of part 1 (_isotropy_part) after the map sending
    sample_points(spec, seed, n)[i] to the origin.  Both parts come from one
    domains.draw_grid(seed, "api", ...) call."""
    return automorphisms_from(spec, *domains.draw_grid(seed, "api",
                                                       automorphism_parts(spec, n)))


def random_automorphism(spec: DomainSpec, seed: int) -> HoloMap:
    """The one map of random_automorphisms(spec, seed, 1)."""
    return _map_slice(random_automorphisms(spec, seed, 1), 0)


def compose(*maps) -> HoloMap:
    """Function composition: compose(f, g) applies g first, then f."""
    if not maps:
        raise StructureError("compose needs at least one map")
    for f, g in zip(maps[:-1], maps[1:]):
        if f.source != g.target:
            raise StructureError(
                f"composition mismatch: {g.target} feeds into {f.source}"
            )
    flat = []
    for f in maps:
        if isinstance(f.body, MapChain):
            flat.extend(f.body.maps)
        else:
            flat.append(f)
    return HoloMap(maps[-1].source, maps[0].target, MapChain(tuple(flat)))


# ---------------------------------------------------------------------------
# evaluation


def _mobius_core(z0s, z):
    """(I - Z0* Z)^{-1}, the one inverse of a MatrixMobius push."""
    eye = np.eye(z0s.shape[-2])
    return numkernel.solve(eye - matmul(z0s, z), eye)


def _vecmat(x, m):
    """Row vectors x (..., N) times matrices m (..., N, K); the leading axes
    broadcast."""
    return (x[..., None, :] @ m)[..., 0, :]


def _u_step(da):
    """Increment of u(z) = ((1 + a)/2, (1 - a)/(2i)) for an increment da of a = z.z."""
    return np.stack([da / 2.0, -da / 2.0j], axis=-1)


def _linear(body, z, v):
    """push for a linear body, which is its own differential."""
    return body(z), None if v is None else body(v)


def push(m: HoloMap, z, v=None):
    """(f(z), df_z v): the map at a point (or a stack of points) and the
    analytic push-forward of a tangent there, from one evaluation of the
    body.  The tangent is None when v is None.  A singular intermediate
    matrix of a Mobius body raises NumericError (numkernel.solve)."""
    z = np.asarray(z, dtype=np.complex128)
    if v is not None:
        v = np.asarray(v, dtype=np.complex128)
    b = m.body
    if isinstance(b, MatrixMobius):
        z0s = np.conj(np.swapaxes(b.z0, -1, -2))
        s = _mobius_core(z0s, z)
        dz = z - b.z0
        sd = matmul(s, b.d_inv)
        if v is not None:
            v = matmul(matmul(b.a, v + matmul(matmul(dz, s), matmul(z0s, v))), sd)
        return matmul(matmul(b.a, dz), sd), v
    if isinstance(b, MatrixMobiusInverse):
        z0s = np.conj(np.swapaxes(b.z0, -1, -2))
        wd = matmul(z, b.d)
        lhs = b.a + matmul(wd, z0s)
        w = numkernel.solve(lhs, wd + matmul(b.a, b.z0))
        if v is not None:
            right = np.eye(b.z0.shape[-1]) - matmul(z0s, w)
            v = numkernel.solve(lhs, matmul(matmul(v, b.d), right))
        return w, v
    if isinstance(b, LieBallMobius):
        # phi(z) = num / beta with num = ((z - z0) - (u(z) - u(z0)) X0) D,
        # u(z) - u(z0) taken from a - a0 = (z - z0).(z + z0).  num is
        # exactly 0 at z0.  The form (z - u(z) X0) D, equal in exact
        # arithmetic, cancels there, and near the boundary along a real
        # direction it loses every digit.
        x0t = np.swapaxes(b.x0, -1, -2)
        a = np.sum(z * z, axis=-1)
        u = np.stack([(1.0 + a) / 2.0, (1.0 - a) / 2.0j], axis=-1)
        ae = b.a @ np.array([1.0, 1.0j])
        beta = np.sum((u - _vecmat(z, x0t)) * ae, axis=-1)
        dz = z - b.z0
        du = _u_step(np.sum(dz * (z + b.z0), axis=-1))
        num = _vecmat(dz - _vecmat(du, b.x0), b.d)
        if v is not None:
            du = _u_step(2.0 * np.sum(z * v, axis=-1))
            dbeta = np.sum((du - _vecmat(v, x0t)) * ae, axis=-1)
            dnum = _vecmat(v - _vecmat(du, b.x0), b.d)
            v = (dnum * beta[..., None] - num * dbeta[..., None]) / (beta**2)[..., None]
        return num / beta[..., None], v
    if isinstance(b, SandwichScale):
        return _linear(lambda x: matmul(matmul(b.left, x), b.right), z, v)
    if isinstance(b, VectorLinear):
        alpha = np.asarray(b.alpha)[..., None]
        return _linear(lambda x: alpha * _vecmat(x, b.d), z, v)
    if isinstance(b, MapChain):
        for f in reversed(b.maps):
            z, v = push(f, z, v)
        return z, v
    if isinstance(b, ConstantMap):
        shape = z.shape[: z.ndim - len(m.source.ambient_shape)] + b.w0.shape
        if v is not None:
            v = np.zeros(shape, dtype=np.complex128)
        return np.broadcast_to(b.w0, shape).copy(), v
    if isinstance(b, ScalarSlice):
        return _linear(
            lambda x: x[(...,) + b.entry][(...,) + (None,) * b.w1.ndim] * b.w1, z, v)
    if isinstance(b, PadEmbed):
        def pad(x):
            out = np.zeros(x.shape[:-2] + m.target.ambient_shape, dtype=np.complex128)
            out[..., : x.shape[-2], : x.shape[-1]] = x
            return out

        return _linear(pad, z, v)
    if isinstance(b, MatrixPolynomial):
        w = np.zeros_like(z)
        power = z
        last = 1
        for deg, coeff in sorted(b.coeffs):
            for _ in range(deg - last):
                power = power @ z
            last = deg
            w = w + coeff * power
        if v is not None:
            dv = np.zeros_like(v)
            for deg, coeff in b.coeffs:
                # d(Z^deg)[V] = sum_{j} Z^j V Z^{deg-1-j}
                for j in range(deg):
                    term = v
                    for _ in range(j):
                        term = z @ term
                    for _ in range(deg - 1 - j):
                        term = term @ z
                    dv = dv + coeff * term
            v = dv
        return w, v
    raise StructureError(f"unknown map body {type(b).__name__}")


def apply(m: HoloMap, z):
    """Evaluate the map at a point (or a stack of points)."""
    return push(m, z)[0]


def differential(m: HoloMap, z, v):
    """Push a tangent vector forward through the map at z (analytic)."""
    return push(m, z, v)[1]


def invert(m: HoloMap) -> HoloMap:
    """Inverse automorphism in closed form; structural error for
    non-invertible bodies."""
    b = m.body
    if isinstance(b, MatrixMobius):
        return HoloMap(m.target, m.source,
                       MatrixMobiusInverse(b.z0, b.a, np.linalg.inv(b.d_inv)))
    if isinstance(b, MatrixMobiusInverse):
        return HoloMap(m.target, m.source,
                       MatrixMobius(b.z0, b.a, np.linalg.inv(b.d)))
    if isinstance(b, LieBallMobius):
        # phi_{z0}^{-1} = phi_{-z0}: X0 is odd in z0, A and D are even
        return HoloMap(m.target, m.source, LieBallMobius(-b.z0, -b.x0, b.a, b.d))
    if isinstance(b, SandwichScale):
        try:
            left = np.linalg.inv(b.left)
            right = np.linalg.inv(b.right)
        except np.linalg.LinAlgError as exc:
            raise StructureError(f"non-invertible linear map: {exc}") from exc
        return HoloMap(m.target, m.source, SandwichScale(left, right))
    if isinstance(b, VectorLinear):
        if np.any(np.abs(b.alpha) < 1e-300):
            raise StructureError("non-invertible vector scaling")
        return HoloMap(m.target, m.source,
                       VectorLinear(1.0 / b.alpha, np.swapaxes(b.d, -1, -2)))
    if isinstance(b, MapChain):
        return compose(*(invert(f) for f in reversed(b.maps)))
    raise StructureError(f"map body {type(b).__name__} is not invertible")

