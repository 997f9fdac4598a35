"""The four classical bounded symmetric domains and their tangent structure.

Points are numpy arrays: complex matrices of shape (m, n) for the matrix
types (rectangular, symmetric, skew-symmetric) and complex row vectors of
shape (N,) for the Lie ball.  Symmetric/skew points are stored as full
matrices; the symmetry is an invariant, not a storage format.

Sampling is counter-based (RNG_SCHEME): a check that samples draws from the
Philox4x64-10 key (seed, check id), where the id comes from CHECKS, and
normals come from its words by Box-Muller on 53-bit uniforms.  The counter
names the words: item i of part p of a draw_grid call reads blocks
i B + 1, ..., (i + 1) B with counter word 1 = p and word 2 = the redraw
attempt, so each part is one call of the process's one C generator.
"""
import functools
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, StructureError
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


@functools.lru_cache(maxsize=None)
def _pairs(order: int, offset: int):
    """np.triu_indices(order, offset), built once per shape (read-only)."""
    pairs = np.triu_indices(order, offset)
    for index in pairs:
        index.flags.writeable = False  # the cache hands them to every caller
    return pairs


def _lie_spectrum(ws):
    """(l1, l2, |x ^ y|, a = z.z) over a stack of z = x + iy: the spectral
    values l1 >= l2 >= 0, with l1^2 = r + 2 |x ^ y| (r = z z*) the squared
    type IV gauge and l1 l2 = |a|.  The wedge norm |x ^ y| is summed from its
    2x2 minors, which keeps full precision where l1 and l2 meet
    (phase-rotated real directions), and l2 = |a| / l1 keeps it where a = 0.
    """
    x, y = ws.real, ws.imag
    i, j = _pairs(ws.shape[-1], 1)
    wedge = np.sqrt(np.sum((x[..., i] * y[..., j] - x[..., j] * y[..., i]) ** 2,
                           axis=-1))
    l1 = np.sqrt(np.sum(x**2 + y**2, axis=-1) + 2.0 * wedge)
    a = np.sum(ws * ws, axis=-1)
    l2 = np.divide(np.abs(a), l1, out=np.zeros_like(l1), where=l1 > 0.0)
    return l1, np.minimum(l2, l1), wedge, a


@dataclass(frozen=True)
class LieFrame:
    """The Peirce frame of a stack of Lie-ball points z (lie_frame).

    [Re z; Im z] = u diag(sigma) vt, u a rotation and vt = [u_1; u_2]
    orthonormal (a row is 0 where it is arbitrary: it drops out); l1, l2 =
    sigma_1 +- sigma_2, a_i = (1 - l_i)(1 + l_i), Delta = a1 a2.  M(z) is
    diagonal in it: with f = (u_1 + i u_2) / sqrt(2) and bilinear dots,
    x M = a1^2 (x.f) conj(f) + a2^2 (x.conj(f)) f + Delta x_perp, where the
    residual x_perp = x - (x.u_1) u_1 - (x.u_2) u_2 is formed explicitly.
    """
    l1: np.ndarray      # (batch...)
    l2: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    delta: np.ndarray
    u: np.ndarray       # (batch..., 2, 2)
    sigma: np.ndarray   # (batch..., 2)
    vt: np.ndarray      # (batch..., 2, n)

    def _parts(self, x):
        # (sqrt(2) x.f, sqrt(2) x.conj(f), x_perp) of a stack of rows x
        u1, u2 = self.vt[..., 0, :], self.vt[..., 1, :]
        alpha, beta = np.sum(x * u1, axis=-1), np.sum(x * u2, axis=-1)
        return (alpha + 1j * beta, alpha - 1j * beta,
                x - alpha[..., None] * u1 - beta[..., None] * u2)

    def times_m(self, x, power=1):
        """x M^power, any real power, over rows x that broadcast against it."""
        (plus, minus, perp), b1, b2 = self._parts(x), self.a1**power, self.a2**power
        g1, g2 = 0.5 * b1 * b1 * plus, 0.5 * b2 * b2 * minus
        return ((g1 + g2)[..., None] * self.vt[..., 0, :] + (b1 * b2)[..., None] * perp
                - 1j * (g1 - g2)[..., None] * self.vt[..., 1, :])

    def quad(self, x):
        """q = x M x* = a1^2 |x.f|^2 + a2^2 |x.conj(f)|^2 + Delta |x_perp|^2."""
        (plus, minus, perp), sq = self._parts(x), lambda w: w.real**2 + w.imag**2
        return (0.5 * (self.a1**2 * sq(plus) + self.a2**2 * sq(minus))
                + self.delta * np.sum(sq(perp), axis=-1))


def lie_frame(zs) -> LieFrame:
    """The Peirce frame of a stack (batch...) + (n,) of Lie-ball points, in
    closed form on _lie_spectrum: e^{2 i phi} = a / |a|, u_1 and u_2 the unit
    real and imaginary parts of e^{-i phi} z (the second made orthogonal to
    the first), sigma_1 = (l1 + l2) / 2 and sigma_2 = |x ^ y| / sigma_1.  No
    LAPACK call, and no division by the cancelling 1 - |z.z|^2.  A point
    with l1 >= 1, exactly a point outside the ball, raises DomainError."""
    zs = np.asarray(zs, dtype=np.complex128)
    l1, l2, wedge, a = _lie_spectrum(zs)
    if not np.all(l1 < 1.0):
        raise DomainError("a point is not interior to the Lie ball (gauge >= 1)")
    phase = np.exp(-0.5j * np.angle(a))
    w = phase[..., None] * zs
    dot = lambda x, y: np.sum(x * y, axis=-1, keepdims=True)
    unit = lambda t: np.divide(t, np.sqrt(dot(t, t)), out=np.zeros_like(t),
                               where=dot(t, t) > 0.0)
    u1 = unit(w.real)
    u2 = unit(w.imag - dot(w.imag, u1) * u1)
    s1 = 0.5 * (l1 + l2)
    s2 = np.divide(wedge, s1, out=np.zeros_like(s1), where=s1 > 0.0)
    c, s = phase.real, -phase.imag
    a1, a2 = (1.0 - l1) * (1.0 + l1), (1.0 - l2) * (1.0 + l2)
    return LieFrame(l1, l2, a1, a2, a1 * a2,
                    np.stack([c, -s, s, c], axis=-1).reshape(c.shape + (2, 2)),
                    np.stack([s1, s2], axis=-1), np.stack([u1, u2], axis=-2))


def contains_many(spec: DomainSpec, zs) -> np.ndarray:
    """Strict interior membership of each point of a stack (batch, *ambient_shape).

    1 - gauge^2 must exceed the margin 1e-12: on the matrix types the
    smallest eigenvalue of I - ZZ*, decided by the pivots of
    I - ZZ* - 1e-12 I (numkernel.smallest_eig_exceeds); type IV takes
    gauge^2 = l1^2 from _lie_spectrum.  A non-finite point raises NumericError.
    """
    zs = _as_points(spec, zs)
    if spec.kind == "IV":
        return 1.0 - _lie_spectrum(zs)[0] ** 2 > MEMBERSHIP_MARGIN
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
    Type IV: the spectral value l1 = sqrt(r + 2 |x ^ y|) of _lie_spectrum,
    which contains_many reads too.  A non-finite array raises NumericError.
    """
    ws = _finite(np.asarray(ws, dtype=np.complex128))
    if spec.kind == "IV":
        return _lie_spectrum(ws)[0]
    # m <= n on every matrix type, so W W* is the smaller gram
    return np.sqrt(numkernel.gram_top(ws))


def minkowski_gauge(spec: DomainSpec, w) -> float:
    """Minkowski gauge of one array; see minkowski_gauge_many."""
    return float(minkowski_gauge_many(spec, w))


@functools.lru_cache(maxsize=None)
def tangent_basis(spec: DomainSpec) -> np.ndarray:
    """Basis matrices T_s of the tangent class: Z = sum_s pack(Z)_s T_s,
    built once per spec (read-only).

    Ordering matches pack/unpack: row-major entries (type I), upper triangle
    row-major (II), strict upper triangle row-major (III), coordinates (IV).
    """
    out = np.zeros((spec.dim,) + spec.ambient_shape, dtype=np.complex128)
    if spec.kind in ("I", "IV"):
        np.fill_diagonal(out.reshape(spec.dim, -1), 1.0)
    else:
        (i, j), s = _pairs(spec.dims[0], 0 if spec.kind == "II" else 1), np.arange(spec.dim)
        out[s, i, j] = 1.0
        out[s, j, i] = 1.0 if spec.kind == "II" else -1.0
    out.flags.writeable = False  # the cache hands it to every caller
    return out


def pack(spec: DomainSpec, z) -> np.ndarray:
    """Independent complex coordinates of a tangent-class array, or of each
    array of a stack (..., *ambient_shape)."""
    z = np.asarray(z, dtype=np.complex128)
    if spec.kind == "I":
        return z.reshape(z.shape[:-2] + (-1,)).copy()
    if spec.kind in ("II", "III"):
        i, j = _pairs(z.shape[-1], 0 if spec.kind == "II" else 1)
        return z[..., i, j]
    return z.copy()


def unpack(spec: DomainSpec, c) -> np.ndarray:
    """Inverse of pack: rebuild the full matrix/vector sum_s c_s T_s from
    coordinates."""
    c = np.asarray(c, dtype=np.complex128)
    if c.shape != (spec.dim,):
        raise StructureError(f"expected {spec.dim} coordinates, got shape {c.shape}")
    return np.tensordot(c, tangent_basis(spec), axes=1)


# ---------------------------------------------------------------------------
# counter-based sampling: Philox4x64-10 (Salmon et al., SC'11)

_UNIT53 = 2.0**-53
RNG_SCHEME = "philox4x64-10/key(seed,check)/counter(block,part,attempt)/box-muller"
NULL_DRAW = 1e-12
# word 1 of the Philox key: one id per sampled check, so that no two checks
# of one request read the same words; 0 is the bare sampling API
CHECKS = {"api": 0, "eval": 1, "sandwich": 2, "automorphism_invariance": 3,
          "kahler_berwald": 4, "bisectional": 5, "curvature_range": 6, "corpus": 7,
          "schwarz_samples": 8}


_GENERATOR = []  # the process's one Philox generator, built on the first draw
_GENERATOR_LOCK = threading.Lock()


def _philox_words(seed: int, check: str, part: int, attempt: int, n_words: int):
    """The first n_words words of Philox4x64-10 with key (seed, CHECKS[check])
    at the counters (1, part, attempt, 0), (2, part, attempt, 0), ..., four
    words per block in order; each call sets the one generator's whole state
    under a lock, so none inherits a word or a counter from another."""
    with _GENERATOR_LOCK:
        if not _GENERATOR:
            _GENERATOR.append(np.random.Philox(0))
        # Philox increments the counter before each block; buffer_pos 4: no buffered word
        _GENERATOR[0].state = {
            "bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0,
            "uinteger": 0, "state": {"key": [seed, CHECKS[check]],
                                     "counter": [0, part, attempt, 0]}}
        return _GENERATOR[0].random_raw(n_words)


@dataclass(frozen=True)
class Points:
    """Grid part: n interior points of spec, as sample_points."""
    spec: DomainSpec
    n: int


@dataclass(frozen=True)
class Tangents:
    """Grid part: n nonzero tangents of spec, as sample_tangents."""
    spec: DomainSpec
    n: int


@dataclass(frozen=True)
class Gaussians:
    """Grid part: per item, n_normals standard normals and then n_uniforms
    uniforms on [0, 1)."""
    n: int
    n_normals: int
    n_uniforms: int = 0


def _layout(part):
    """(n_normals, n_uniforms) of one item of a grid part."""
    if isinstance(part, Gaussians):
        return part.n_normals, part.n_uniforms
    return 2 * int(np.prod(part.spec.ambient_shape)), int(isinstance(part, Points))


def _run_blocks(n_normals: int, n_uniforms: int) -> int:
    return -(-(2 * ((n_normals + 1) // 2) + n_uniforms) // 4)


def _box_muller(words, n_normals: int, n_uniforms: int):
    """Normals (rows, n_normals) and the uniforms after them from word rows.

    Box-Muller on consecutive word pairs (u1, u2) of 53-bit uniforms:
    sqrt(-2 log(1 - u1)) (cos 2 pi u2, sin 2 pi u2).
    """
    pairs = (n_normals + 1) // 2
    n_words = 2 * pairs + n_uniforms
    u = (words[:, :n_words] >> np.uint64(11)) * _UNIT53      # 53-bit uniforms on [0, 1)
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0:2 * pairs:2]))
    angle = (2.0 * np.pi) * u[:, 1:2 * pairs:2]
    # each pair's (r cos, r sin), written in place with no temporaries
    normals = np.empty((words.shape[0], pairs, 2))
    cos, sin = normals[..., 0], normals[..., 1]
    np.multiply(radius, np.cos(angle, out=cos), out=cos)
    np.multiply(radius, np.sin(angle, out=sin), out=sin)
    return normals.reshape(words.shape[0], 2 * pairs)[:, :n_normals], u[:, 2 * pairs:]


def _max_abs(ws):
    return np.max(np.abs(ws), axis=tuple(range(1, ws.ndim)), initial=0.0)


def _finish(part, normals, u, redraw):
    """Turn a Points or Tangents part's normals into its draws.

    A draw with size <= NULL_DRAW (gauge for points, largest entry for
    tangents) is redrawn: redraw(attempt, n) gives the (normals, uniforms)
    of the part's first n items at that attempt.
    """
    spec = part.spec
    cells = int(np.prod(spec.ambient_shape))
    size = (lambda ws: minkowski_gauge_many(spec, ws)) if isinstance(part, Points) \
        else _max_abs

    def tangent_class(normals):
        ws = np.empty((len(normals), cells), dtype=np.complex128)
        ws.real, ws.imag = normals[:, :cells], normals[:, cells:]
        return project_tangent(spec, ws.reshape((-1,) + spec.ambient_shape))

    draws = tangent_class(normals)
    sizes = size(draws)
    redo = np.flatnonzero(sizes <= NULL_DRAW)
    attempt = 0
    while redo.size:
        attempt += 1
        normals, again = redraw(attempt, redo[-1] + 1)
        u[redo] = again[redo]
        draws[redo] = tangent_class(normals[redo])
        sizes[redo] = size(draws[redo])
        redo = redo[sizes[redo] <= NULL_DRAW]
    if isinstance(part, Tangents):
        return draws
    rho = 0.9 * u[:, 0]
    return (rho / sizes).reshape((-1,) + (1,) * len(spec.ambient_shape)) * draws


def draw_grid(seed: int, check: str, parts) -> list:
    """The draws of every part under the Philox key (seed, CHECKS[check]).

    parts: Points, Tangents and Gaussians.  Returns one entry per part, in
    order: the array sample_points or sample_tangents returns, or the
    (normals, uniforms) pair of a Gaussians part.  Item i of part p reads the
    counter blocks (i B + 1, p, 0, 0), ..., ((i + 1) B, p, 0, 0),
    B = ceil(words / 4), one C generator call per part, so it depends on
    (seed, check, p, i) only; each call sets the whole state of the
    process's one generator.  A null point or tangent draw reads its blocks
    again with the attempt in counter word 2, one further call per part and
    attempt.  seed must be an integer in [0, 2^64); a silent wrap would give
    two seeds the same words.
    """
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    out = []
    for index, part in enumerate(parts):
        n_normals, n_uniforms = _layout(part)
        width = 4 * _run_blocks(n_normals, n_uniforms)

        def draw(attempt, n):
            words = _philox_words(seed, check, index, attempt, n * width)
            return _box_muller(words.reshape(n, width), n_normals, n_uniforms)

        normals, u = draw(0, part.n)
        out.append((normals, u) if isinstance(part, Gaussians)
                   else _finish(part, normals, u, draw))
    return out


def sample_points(spec: DomainSpec, seed: int, n: int) -> np.ndarray:
    """n deterministic interior points: Gaussian draws rescaled to gauge
    0.9 u, u uniform on [0, 1).

    The real and then the imaginary parts of the ambient entries take an
    item's first normals, projected onto the symmetry class, and u takes the
    word after them.  A draw of gauge <= 1e-12 is redrawn.  The one-part
    draw_grid(seed, "api", [Points(spec, n)]) call, so the first k items do
    not depend on n.
    """
    return draw_grid(seed, "api", [Points(spec, n)])[0]


def sample_point(spec: DomainSpec, seed: int) -> np.ndarray:
    """Deterministic interior point: item 0 of sample_points."""
    return sample_points(spec, seed, 1)[0]


def sample_tangents(spec: DomainSpec, seed: int, n: int) -> np.ndarray:
    """n deterministic nonzero tangent draws in the domain's symmetry class.

    Box-Muller normals as in sample_points; a draw with every entry <= 1e-12
    in modulus is redrawn.  The one-part draw_grid(seed, "api",
    [Tangents(spec, n)]) call: item i reads the same words as item i of
    sample_points(spec, seed, n).
    """
    return draw_grid(seed, "api", [Tangents(spec, n)])[0]


def sample_tangent(spec: DomainSpec, seed: int) -> np.ndarray:
    """Deterministic nonzero tangent draw: item 0 of sample_tangents."""
    return sample_tangents(spec, seed, 1)[0]
