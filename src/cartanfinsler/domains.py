"""The four classical bounded symmetric domains and their tangent structure.

Points are numpy arrays: complex matrices of shape (m, n) for the matrix
types (rectangular, symmetric, skew-symmetric) and complex row vectors of
shape (N,) for the Lie ball.  Symmetric/skew points are stored as full
matrices; the symmetry is an invariant, not a storage format.
"""
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError
from . import numkernel

MEMBERSHIP_MARGIN = 1e-12
SYMMETRY_ATOL = 1e-10


@dataclass(frozen=True)
class DomainSpec:
    """One of the four classical domains.

    kind: "I" (rectangular matrices, m <= n), "II" (symmetric), "III"
    (skew-symmetric), "IV" (Lie ball in C^N).
    dims: (m, n) for kind I; (m,) for II/III; (N,) for IV.
    """
    kind: str
    dims: tuple

    def __post_init__(self):
        if self.kind not in ("I", "II", "III", "IV"):
            raise StructureError(f"unknown domain kind {self.kind!r}")
        if self.kind == "I":
            m, n = self.dims
            if not (1 <= m <= n):
                raise StructureError(f"type I needs 1 <= m <= n, got {self.dims}")
        elif self.kind in ("II", "III"):
            (m,) = self.dims
            if m < 1:
                raise StructureError(f"matrix order must be >= 1, got {m}")
        else:
            (n,) = self.dims
            if n < 2:
                raise StructureError(f"type IV needs dimension >= 2, got {n}")

    @property
    def ambient_shape(self):
        if self.kind == "I":
            return self.dims
        if self.kind in ("II", "III"):
            return (self.dims[0], self.dims[0])
        return (self.dims[0],)

    @property
    def dim(self) -> int:
        """Complex dimension of the domain (= of its tangent space)."""
        if self.kind == "I":
            m, n = self.dims
            return m * n
        if self.kind == "II":
            m = self.dims[0]
            return m * (m + 1) // 2
        if self.kind == "III":
            m = self.dims[0]
            return m * (m - 1) // 2
        return self.dims[0]

    @property
    def rank(self) -> int:
        if self.kind in ("I", "II"):
            return self.dims[0]
        if self.kind == "III":
            return self.dims[0] // 2
        return 2

    def __str__(self):
        return f"{self.kind}{self.dims}"


def type_i(m: int, n: int) -> DomainSpec:
    return DomainSpec("I", (m, n))


def type_ii(m: int) -> DomainSpec:
    return DomainSpec("II", (m,))


def type_iii(m: int) -> DomainSpec:
    return DomainSpec("III", (m,))


def type_iv(n: int) -> DomainSpec:
    return DomainSpec("IV", (n,))


def _as_points(spec: DomainSpec, zs):
    """Validate a stack (batch, *ambient_shape) of points; return a complex array."""
    zs = np.asarray(zs, dtype=np.complex128)
    if zs.ndim != len(spec.ambient_shape) + 1 or zs.shape[1:] != spec.ambient_shape:
        raise StructureError(
            f"Z has shape {zs.shape[1:]}, expected {spec.ambient_shape} for {spec}"
        )
    if spec.kind in ("II", "III"):
        sign = 1.0 if spec.kind == "II" else -1.0
        scale = np.maximum(1.0, np.max(np.abs(zs), axis=(1, 2)))
        asym = np.max(np.abs(zs - sign * np.swapaxes(zs, 1, 2)), axis=(1, 2))
        if np.any(asym > SYMMETRY_ATOL * scale):
            kind = "symmetric" if spec.kind == "II" else "skew-symmetric"
            raise StructureError(f"Z must be {kind} for {spec}")
    return zs


def contains_many(spec: DomainSpec, zs) -> np.ndarray:
    """Strict interior membership of each point of a stack (batch, *ambient_shape).

    The defining inequalities must hold with margin 1e-12.
    """
    zs = _as_points(spec, zs)
    if spec.kind == "IV":
        p = np.abs(np.sum(zs * zs, axis=-1))            # |z z'|
        r = np.sum(zs.real**2 + zs.imag**2, axis=-1)    # z z*
        delta = 1.0 + p**2 - 2.0 * r
        return (delta > MEMBERSHIP_MARGIN) & (1.0 - p > MEMBERSHIP_MARGIN)
    gram = np.eye(zs.shape[1]) - zs @ np.conj(np.swapaxes(zs, 1, 2))
    return numkernel.eigvalsh_batch(gram)[:, -1] > MEMBERSHIP_MARGIN


def contains(spec: DomainSpec, z) -> bool:
    """Strict interior membership (margin 1e-12 on the defining inequalities)."""
    return bool(contains_many(spec, np.asarray(z)[None])[0])


def project_tangent(spec: DomainSpec, w):
    """Project a raw ambient array onto the domain's tangent symmetry class."""
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != spec.ambient_shape:
        raise StructureError(
            f"tangent has shape {w.shape}, expected {spec.ambient_shape} for {spec}"
        )
    if spec.kind == "II":
        return 0.5 * (w + w.T)
    if spec.kind == "III":
        return 0.5 * (w - w.T)
    return w


def minkowski_gauge_many(spec: DomainSpec, ws) -> np.ndarray:
    """Minkowski gauge of each array of a stack (..., *ambient_shape).

    The domain is {gauge < 1}.  Types I-III: largest singular value.
    Type IV: closed form sqrt(r + sqrt(r^2 - |p|^2)) with r = w w*, p = w w'.
    """
    ws = np.asarray(ws, dtype=np.complex128)
    if spec.kind == "IV":
        r = np.sum(ws.real**2 + ws.imag**2, axis=-1)
        p = np.abs(np.sum(ws * ws, axis=-1))
        return np.sqrt(r + np.sqrt(np.maximum(r * r - p * p, 0.0)))
    # m <= n on every matrix type, so W W* is the smaller gram
    gram = ws @ np.conj(np.swapaxes(ws, -1, -2))
    return np.sqrt(np.maximum(numkernel.eigvalsh_batch(gram)[..., 0], 0.0))


def minkowski_gauge(spec: DomainSpec, w) -> float:
    """Minkowski gauge of one array; see minkowski_gauge_many."""
    return float(minkowski_gauge_many(spec, w))


def tangent_basis(spec: DomainSpec) -> np.ndarray:
    """Basis matrices T_s of the tangent class: Z = sum_s pack(Z)_s T_s.

    Ordering matches pack/unpack: row-major entries (type I), upper triangle
    row-major (II), strict upper triangle row-major (III), coordinates (IV).
    """
    shape = spec.ambient_shape
    out = np.zeros((spec.dim,) + shape, dtype=np.complex128)
    if spec.kind == "I":
        flat = out.reshape(spec.dim, -1)
        np.fill_diagonal(flat, 1.0)
    elif spec.kind == "II":
        m = shape[0]
        s = 0
        for i in range(m):
            for j in range(i, m):
                out[s, i, j] = 1.0
                out[s, j, i] = 1.0
                s += 1
    elif spec.kind == "III":
        m = shape[0]
        s = 0
        for i in range(m):
            for j in range(i + 1, m):
                out[s, i, j] = 1.0
                out[s, j, i] = -1.0
                s += 1
    else:
        np.fill_diagonal(out, 1.0)
    return out


def pack(spec: DomainSpec, z) -> np.ndarray:
    """Independent complex coordinates of a tangent-class array."""
    z = np.asarray(z, dtype=np.complex128)
    if spec.kind == "I":
        return z.reshape(-1).copy()
    if spec.kind == "II":
        m = z.shape[0]
        iu = np.triu_indices(m)
        return z[iu].copy()
    if spec.kind == "III":
        m = z.shape[0]
        iu = np.triu_indices(m, k=1)
        return z[iu].copy()
    return z.copy()


def unpack(spec: DomainSpec, c) -> np.ndarray:
    """Inverse of pack: rebuild the full matrix/vector from coordinates."""
    c = np.asarray(c, dtype=np.complex128)
    if c.shape != (spec.dim,):
        raise StructureError(f"expected {spec.dim} coordinates, got shape {c.shape}")
    if spec.kind == "I":
        return c.reshape(spec.dims).copy()
    if spec.kind == "IV":
        return c.copy()
    m = spec.dims[0]
    z = np.zeros((m, m), dtype=np.complex128)
    if spec.kind == "II":
        iu = np.triu_indices(m)
        z[iu] = c
        z = z + np.triu(z, k=1).T
    else:
        iu = np.triu_indices(m, k=1)
        z[iu] = c
        z = z - z.T
    return z


def _raw_draw(spec: DomainSpec, rng) -> np.ndarray:
    b = rng.standard_normal(spec.ambient_shape) + 1j * rng.standard_normal(spec.ambient_shape)
    return project_tangent(spec, b)


def sample_points(spec: DomainSpec, seeds) -> np.ndarray:
    """Deterministic interior points, one per seed: a Gaussian draw rescaled
    to gauge U[0, 0.9].

    Each seed has its own generator, so item i equals sample_point(spec,
    seeds[i]) whatever the other seeds are; the gauges are computed in one
    batch.
    """
    rngs = [np.random.default_rng(int(s)) for s in seeds]
    zs = np.empty((len(rngs),) + spec.ambient_shape, dtype=np.complex128)
    for i, rng in enumerate(rngs):
        zs[i] = _raw_draw(spec, rng)
    g = minkowski_gauge_many(spec, zs)
    for i in np.flatnonzero(g <= 1e-12):  # redraw a null draw from its own stream
        while g[i] <= 1e-12:
            zs[i] = _raw_draw(spec, rngs[i])
            g[i] = minkowski_gauge(spec, zs[i])
    rho = np.array([rng.uniform(0.0, 0.9) for rng in rngs])
    return (rho / g).reshape((-1,) + (1,) * len(spec.ambient_shape)) * zs


def sample_point(spec: DomainSpec, seed: int) -> np.ndarray:
    """Deterministic interior point; see sample_points."""
    return sample_points(spec, [seed])[0]


def sample_tangents(spec: DomainSpec, seeds) -> np.ndarray:
    """Deterministic nonzero tangent draws in the domain's symmetry class,
    one per seed; item i equals sample_tangent(spec, seeds[i])."""
    vs = np.empty((len(seeds),) + spec.ambient_shape, dtype=np.complex128)
    for i, s in enumerate(seeds):
        rng = np.random.default_rng(int(s))
        while True:
            vs[i] = _raw_draw(spec, rng)
            if np.max(np.abs(vs[i])) > 1e-12:
                break
    return vs


def sample_tangent(spec: DomainSpec, seed: int, unit_under=None, z=None) -> np.ndarray:
    """Deterministic nonzero tangent draw in the domain's symmetry class.

    unit_under: optional metric evaluator; when given (with the base point z)
    the draw is rescaled so unit_under(z, V) == 1.
    """
    v = sample_tangents(spec, [seed])[0]
    if unit_under is not None:
        if z is None:
            z = np.zeros(spec.ambient_shape, dtype=np.complex128)
        f = float(unit_under(z, v))
        if f <= 0.0:
            raise DomainError("metric evaluator returned a nonpositive value")
        v = v / f
    return v
