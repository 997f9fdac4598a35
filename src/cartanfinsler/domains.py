"""The four classical bounded symmetric domains and their tangent structure.

Points are numpy arrays: complex matrices of shape (m, n) for the matrix
types (rectangular, symmetric, skew-symmetric) and complex row vectors of
shape (N,) for the Lie ball.  Symmetric/skew points are stored as full
matrices; the symmetry is an invariant, not a storage format.

Sampling is counter-based (RNG_SCHEME): seed s is the key (s, 0) of
Philox4x64-10, its counter blocks 1, 2, ... give the words, and normals come
from them by Box-Muller on 53-bit uniforms.  Item i of a batch depends only
on its seed, its stream and its counters, so one grid may mix the seeds,
block counts and streams of several parts (draw_grid), and the whole grid is
one numpy computation.  This scheme replaced one numpy Generator per seed,
which changed every sampled stream.
"""
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, StructureError
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
            if self.kind == "III" and m < 2:
                # 1x1 skew matrices are 0: the domain is a point
                raise StructureError(f"type III needs order >= 2, got {m}")
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


def _finite(ws):
    """ws, after a check that every entry is finite (NumericError if not)."""
    if not np.isfinite(ws).all():
        raise NumericError("a point or tangent has a non-finite entry")
    return ws


def _as_points(spec: DomainSpec, zs):
    """Validate a stack (batch, *ambient_shape) of finite points; return a
    complex array."""
    zs = _finite(np.asarray(zs, dtype=np.complex128))
    if zs.ndim != len(spec.ambient_shape) + 1 or zs.shape[1:] != spec.ambient_shape:
        raise StructureError(
            f"Z has shape {zs.shape[1:]}, expected {spec.ambient_shape} for {spec}"
        )
    broken = broken_symmetry(spec, zs)
    if broken:
        raise StructureError(f"Z must be {broken} for {spec}")
    return zs


def broken_symmetry(spec: DomainSpec, ws):
    """The class, "symmetric" (type II) or "skew-symmetric" (type III), that
    some matrix of ws (..., m, m) breaks by differing from its transpose
    (negated on type III) by more than SYMMETRY_ATOL max(1, its largest
    entry); None when every matrix keeps it, and on types I and IV."""
    if spec.kind not in ("II", "III"):
        return None
    sign = 1.0 if spec.kind == "II" else -1.0
    scale = np.maximum(1.0, np.max(np.abs(ws), axis=(-2, -1)))
    asym = np.max(np.abs(ws - sign * np.swapaxes(ws, -1, -2)), axis=(-2, -1))
    if np.any(asym > SYMMETRY_ATOL * scale):
        return "symmetric" if spec.kind == "II" else "skew-symmetric"
    return None


def _lie_gauge2(ws):
    """Squared type IV gauge r + 2 |x ^ y| of z = x + iy, r = z z*.

    The wedge norm |x ^ y| = sqrt(r^2 - |z z'|^2) / 2 is summed from its 2x2
    minors, which keeps full precision where the two spectral values of z
    meet (phase-rotated real directions).
    """
    x, y = ws.real, ws.imag
    i, j = np.triu_indices(ws.shape[-1], 1)
    wedge = np.sqrt(np.sum((x[..., i] * y[..., j] - x[..., j] * y[..., i]) ** 2,
                           axis=-1))
    return np.sum(x**2 + y**2, axis=-1) + 2.0 * wedge


def contains_many(spec: DomainSpec, zs) -> np.ndarray:
    """Strict interior membership of each point of a stack (batch, *ambient_shape).

    1 - gauge^2 must exceed the margin 1e-12: on the matrix types the
    smallest eigenvalue of I - ZZ*, decided by the pivots of
    I - ZZ* - 1e-12 I (numkernel.smallest_eig_exceeds); type IV takes
    gauge^2 from _lie_gauge2.  A non-finite point raises NumericError.
    """
    zs = _as_points(spec, zs)
    if spec.kind == "IV":
        return 1.0 - _lie_gauge2(zs) > MEMBERSHIP_MARGIN
    gram = np.eye(zs.shape[1]) - numkernel.matmul(zs, np.conj(np.swapaxes(zs, 1, 2)))
    return numkernel.smallest_eig_exceeds(gram, MEMBERSHIP_MARGIN)


def contains(spec: DomainSpec, z) -> bool:
    """Strict interior membership (margin 1e-12 on 1 - gauge^2)."""
    return bool(contains_many(spec, np.asarray(z)[None])[0])


def project_tangent(spec: DomainSpec, w):
    """Project a raw ambient array, or a stack (..., *ambient_shape) of them,
    onto the domain's tangent symmetry class."""
    w = np.asarray(w, dtype=np.complex128)
    if w.shape[w.ndim - len(spec.ambient_shape):] != spec.ambient_shape:
        raise StructureError(
            f"tangent has shape {w.shape}, expected {spec.ambient_shape} for {spec}"
        )
    if spec.kind == "II":
        return 0.5 * (w + np.swapaxes(w, -1, -2))
    if spec.kind == "III":
        return 0.5 * (w - np.swapaxes(w, -1, -2))
    return w


def minkowski_gauge_many(spec: DomainSpec, ws) -> np.ndarray:
    """Minkowski gauge of each array of a stack (..., *ambient_shape).

    The domain is {gauge < 1}.  Types I-III: largest singular value, from
    numkernel.gram_top (a closed form up to two rows, LAPACK from three).
    Type IV: sqrt(r + 2 |x ^ y|), the same formula contains_many reads.  A
    non-finite array raises NumericError.
    """
    ws = _finite(np.asarray(ws, dtype=np.complex128))
    if spec.kind == "IV":
        return np.sqrt(_lie_gauge2(ws))
    # m <= n on every matrix type, so W W* is the smaller gram
    return np.sqrt(numkernel.gram_top(ws))


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
    """Independent complex coordinates of a tangent-class array, or of each
    array of a stack (..., *ambient_shape)."""
    z = np.asarray(z, dtype=np.complex128)
    if spec.kind == "I":
        return z.reshape(z.shape[:-2] + (-1,)).copy()
    if spec.kind in ("II", "III"):
        i, j = np.triu_indices(z.shape[-1], k=0 if spec.kind == "II" else 1)
        return z[..., i, j]
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


# ---------------------------------------------------------------------------
# counter-based sampling: Philox4x64-10 (Salmon et al., SC'11) keyed by seed

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_SHIFT32 = _U64(32)
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=_U64)
_PHILOX_M_LO = (_PHILOX_M & _MASK32)[:, None]
_PHILOX_M_HI = (_PHILOX_M >> _SHIFT32)[:, None]
_PHILOX_M_FULL = _PHILOX_M[:, None]
# the key (k0, k1) grows by (W0, W1) each round; kept in arrays so that the
# wrap-around is silent
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=_U64)
_UNIT53 = 2.0**-53
RNG_SCHEME = "philox4x64-10/box-muller"
NULL_DRAW = 1e-12


def seed_keys(seeds) -> np.ndarray:
    """Validate a 1-D sequence of seeds and return them as uint64 keys.

    Every seed must be an integer in [0, 2^64); a silent wrap would give two
    seeds the same stream.
    """
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu":
        if seeds.ndim != 1:
            raise ValueError(f"seeds must be a 1-D sequence, got shape {seeds.shape}")
        if seeds.dtype.kind == "i" and seeds.size and seeds.min() < 0:
            raise ValueError("seeds must lie in [0, 2^64)")
        return seeds.astype(_U64)
    # element by element: numpy would turn a list mixing ints above 2^63
    # with numpy integers into floats
    vals = [operator.index(s) for s in seeds]
    if any(v < 0 or v >= 2**64 for v in vals):
        raise ValueError("seeds must lie in [0, 2^64)")
    return np.array(vals, dtype=_U64)


def philox_blocks(keys, first: int, count, stream=0) -> np.ndarray:
    """Philox4x64-10 output words of the keys (keys[i], 0).

    Key i gives its blocks at the counters (first + j, stream_i, 0, 0),
    j < count_i, four words per block in order.  count and stream are one
    value for every key or one per key, so one grid may mix the draws of
    several parts; only the blocks asked for are computed.  With one count
    the result has shape (len(keys), 4 * count); with per-key counts the
    ragged rows come concatenated in key order.  At stream 0 and first = 1
    key i's words are np.random.Philox(key=keys[i]).random_raw.
    """
    if np.ndim(count):
        total = int(np.sum(count))
        j = np.arange(total) - np.repeat(np.cumsum(count) - count, count)
    else:
        total = keys.size * count
        j = np.arange(total) % count
    # lanes (c0, c2) are multiplied, lanes (c1, c3) are xored in
    a = np.zeros((2, total), dtype=_U64)
    a[0] = j
    a[0] += first
    b = np.zeros((2, total), dtype=_U64)
    b[0] = np.repeat(stream, count) if np.ndim(stream) else stream
    key = np.zeros((2, total), dtype=_U64)
    key[0] = np.repeat(keys, count)
    for _ in range(10):
        # 64x64 -> 128-bit products from 32-bit halves; no partial sum overflows
        a_lo = a & _MASK32
        a_hi = a >> _SHIFT32
        p_lh = _PHILOX_M_LO * a_hi
        t = _PHILOX_M_HI * a_lo
        t += (_PHILOX_M_LO * a_lo) >> _SHIFT32
        p_lh += t & _MASK32
        hi = _PHILOX_M_HI * a_hi
        hi += t >> _SHIFT32
        hi += p_lh >> _SHIFT32
        lo = _PHILOX_M_FULL * a
        a = hi[::-1] ^ b
        a ^= key
        b = lo[::-1]
        key += _PHILOX_W
    words = np.stack([a[0], b[0], a[1], b[1]], axis=-1)
    return words.reshape(-1) if np.ndim(count) else words.reshape(keys.size, 4 * count)


@dataclass(frozen=True)
class Points:
    """Grid part: one interior point of spec per seed, as sample_points."""
    spec: DomainSpec
    seeds: object


@dataclass(frozen=True)
class Tangents:
    """Grid part: one nonzero tangent of spec per seed, as sample_tangents."""
    spec: DomainSpec
    seeds: object


@dataclass(frozen=True)
class Gaussians:
    """Grid part: per seed, n_normals standard normals and then n_uniforms
    uniforms on counter word `stream`, as gaussian_draws."""
    seeds: object
    n_normals: int
    n_uniforms: int = 0
    stream: int = 0


def _layout(part):
    """(n_normals, n_uniforms, stream) of one item of a grid part."""
    if isinstance(part, Gaussians):
        return part.n_normals, part.n_uniforms, part.stream
    return 2 * int(np.prod(part.spec.ambient_shape)), int(isinstance(part, Points)), 0


def _run_blocks(n_normals: int, n_uniforms: int) -> int:
    return -(-(2 * ((n_normals + 1) // 2) + n_uniforms) // 4)


def _box_muller(words, n_normals: int, n_uniforms: int):
    """Normals (rows, n_normals) and the uniforms after them from word rows.

    Box-Muller on consecutive word pairs (u1, u2) of 53-bit uniforms:
    sqrt(-2 log(1 - u1)) (cos 2 pi u2, sin 2 pi u2).
    """
    pairs = (n_normals + 1) // 2
    n_words = 2 * pairs + n_uniforms
    u = (words[:, :n_words] >> _U64(11)) * _UNIT53      # 53-bit uniforms on [0, 1)
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0:2 * pairs:2]))
    angle = (2.0 * np.pi) * u[:, 1:2 * pairs:2]
    normals = np.empty((words.shape[0], 2 * pairs))
    normals[:, 0::2] = radius * np.cos(angle)
    normals[:, 1::2] = radius * np.sin(angle)
    return normals[:, :n_normals], u[:, 2 * pairs:]


def _max_abs(ws):
    return np.max(np.abs(ws), axis=tuple(range(1, ws.ndim)), initial=0.0)


def _finish(part, keys, normals, u, blocks: int):
    """Turn a Points or Tangents part's normals into its draws.

    A draw with size <= NULL_DRAW (gauge for points, largest entry for
    tangents) is redrawn from its key's next run of counter blocks.
    """
    spec = part.spec
    cells = int(np.prod(spec.ambient_shape))
    size = (lambda ws: minkowski_gauge_many(spec, ws)) if isinstance(part, Points) \
        else _max_abs

    def tangent_class(normals):
        ws = normals[:, :cells] + 1j * normals[:, cells:]
        return project_tangent(spec, ws.reshape((-1,) + spec.ambient_shape))

    draws = tangent_class(normals)
    sizes = size(draws)
    redo = np.flatnonzero(sizes <= NULL_DRAW)
    attempt = 0
    while redo.size:
        attempt += 1
        words = philox_blocks(keys[redo], attempt * blocks + 1, blocks)
        normals, u[redo] = _box_muller(words, 2 * cells, u.shape[1])
        draws[redo] = tangent_class(normals)
        sizes[redo] = size(draws[redo])
        redo = redo[sizes[redo] <= NULL_DRAW]
    if isinstance(part, Tangents):
        return draws
    rho = 0.9 * u[:, 0]
    return (rho / sizes).reshape((-1,) + (1,) * len(spec.ambient_shape)) * draws


def draw_grid(parts) -> list:
    """The draws of every part from one philox_blocks call.

    parts: Points, Tangents and Gaussians, each with its own seeds.  Returns
    one entry per part, in order: the array sample_points or sample_tangents
    returns, or the (normals, uniforms) pair of gaussian_draws.  A part's
    item i reads the blocks 1, ..., B of key (seeds[i], 0) on the part's
    stream, B = ceil(words / 4), and depends on nothing else, so each entry
    equals its one-part call bit for bit.  A null point or tangent draw
    takes its key's next run of B blocks, one further call per part and
    attempt.
    """
    keys = [seed_keys(part.seeds) for part in parts]
    layouts = [_layout(part) for part in parts]
    blocks = [_run_blocks(n, m) for n, m, _ in layouts]
    sizes = [k.size for k in keys]
    streams = [s for _, _, s in layouts]
    # a value all parts share goes as one scalar: the cheaper, row-shaped call
    one = lambda values: values[0] if len(set(values)) == 1 else np.repeat(values, sizes)
    words = philox_blocks(np.concatenate(keys), 1, one(blocks), one(streams)).reshape(-1)
    out = []
    start = 0
    for part, k, (n_normals, n_uniforms, _), b in zip(parts, keys, layouts, blocks):
        stop = start + 4 * b * k.size
        normals, u = _box_muller(words[start:stop].reshape(k.size, 4 * b),
                                 n_normals, n_uniforms)
        start = stop
        out.append((normals, u) if isinstance(part, Gaussians)
                   else _finish(part, k, normals, u, b))
    return out


def gaussian_draws(keys, n_normals: int, n_uniforms: int = 0, stream: int = 0):
    """Standard normals (len(keys), n_normals) and then uniforms (len(keys),
    n_uniforms) from one run of counter blocks per key: the one-part
    draw_grid call of Gaussians(keys, n_normals, n_uniforms, stream)."""
    return draw_grid([Gaussians(keys, n_normals, n_uniforms, stream)])[0]


def sample_points(spec: DomainSpec, seeds) -> np.ndarray:
    """Deterministic interior points, one per seed: a Gaussian draw rescaled
    to gauge 0.9 u, u uniform on [0, 1).

    Item i depends on seeds[i] only (see sample_tangents for the stream):
    the real and then the imaginary parts of the ambient entries take the
    first normals, projected onto the symmetry class, and u takes the word
    after them.  A draw of gauge <= 1e-12 is redrawn from the next run of
    counter blocks.  The one-part draw_grid call of Points(spec, seeds).
    """
    return draw_grid([Points(spec, seeds)])[0]


def sample_point(spec: DomainSpec, seed: int) -> np.ndarray:
    """Deterministic interior point; see sample_points."""
    return sample_points(spec, [seed])[0]


def sample_tangents(spec: DomainSpec, seeds) -> np.ndarray:
    """Deterministic nonzero tangent draws in the domain's symmetry class,
    one per seed; item i equals sample_tangent(spec, seeds[i]).

    Stream: Philox4x64-10 with key (seed, 0) and counter blocks 1, 2, ...,
    turned into normals by Box-Muller on 53-bit uniforms; a draw with every
    entry <= 1e-12 in modulus is redrawn from the next run of blocks.  Seeds
    must be integers in [0, 2^64).  The one-part draw_grid call of
    Tangents(spec, seeds).
    """
    return draw_grid([Tangents(spec, seeds)])[0]


def sample_tangent(spec: DomainSpec, seed: int) -> np.ndarray:
    """Deterministic nonzero tangent draw; see sample_tangents."""
    return sample_tangents(spec, [seed])[0]
