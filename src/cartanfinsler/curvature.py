"""Holomorphic sectional and bisectional curvature of the invariant metrics.

Everything is computed at the origin and extended by homogeneity: pulling
(Z;V) back with a normalizing automorphism leaves the curvature unchanged.
One tangent-level formula, bisectional_origin_many, gives B(0;V,W) on every
type, and K(V) is B(V,V) from one _side of V; the matrix domains read one
power ladder of G = V V* and the cross grams W W*, U U* with U = V W*; the
Lie ball reads |V|^2, |W|^2, |V.W|^2, |<V,W>|^2 and the profile phi at s_V.
On the matrix domains _trace_weights forms F^2 and the weights c_a from
power traces, for that formula, for the profile objective of the K scan and
for the sup search.  The supremum of |B| is a table and one polish on both:
over two eigenvalue profiles on the matrix domains, over three invariants
(s_V, Im(W_1 conj(W_2)), s_W) on the Lie ball.
The bounds and the sup search depend on the metric alone, so each is
memoized on the MetricSpec (norms.METRIC_MEMO metrics per process).
"""
import functools
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from . import domains
from . import norms
from . import numkernel
from .metrics import MetricSpec, power_ladder, require_nonzero, trace_f2

LIE_SUP_TICKS = 201  # ticks per axis of the Lie-ball (s, q) table and t grid
PAIR_DRAWS = 10_000
SUP_TABLE_CELLS = 1 << 20  # cells per row block of the joint grid table


@dataclass(frozen=True)
class CurvatureReport:
    k1: float                   # -k1 = infimum of sectional curvature
    k2: float                   # -k2 = supremum, 0 < k2 <= k1
    lu: float                   # sqrt(k1 / k2)
    argmin_profile: np.ndarray  # singular values at -k1; [s] on the Lie ball
    argmax_profile: np.ndarray  # the same at -k2


# ---------------------------------------------------------------------------
# origin formulas


def _trace_weights(metric: MetricSpec, s_traces):
    """(F^2, c) from power traces S_1..S_k (the first k of the last axis):
    F^2 = N g(h) and the list c of the arrays c_a = g_a(h) h_a^(1-a), a = 1..k."""
    k = metric.family.k
    f2, h = trace_f2(metric, s_traces[..., :k])
    grads = norms.grad_rows(metric.family, h)
    return f2, [grads[..., a - 1] * h[..., a - 1] ** (1 - a) for a in range(1, k + 1)]


def _lie_contraction(metric: MetricSpec, side_v, side_w):
    """(1/4) Laplacian of zeta -> F^2(zeta*W; V) at zeta = 0, batched.

    Delta(zeta W) and M(zeta W) depend on zeta only through |zeta|^2 up to
    O(|zeta|^4), so F^2(zeta W; V) = F^2(0; V) + c |zeta|^2 + O(|zeta|^4) and
    the Laplacian is c.  With V.W = sum V_i W_i, <V,W> = sum V_i conj(W_i)
    and s_V = |V.V|^2 / |V|^4:
        c = N [2 (|V|^2 |W|^2 - |V.W|^2 + |<V,W>|^2) phi(s_V)
               + 4 s_V phi'(s_V) (|V.W|^2 - |<V,W>|^2)].
    side_v and side_w are the _side of V and W; their batch axes broadcast.
    """
    (vs, _, (rv, s, phi)), (ws, _, (rw, _, _)) = side_v, side_w
    bilinear = np.abs(np.sum(vs * ws, axis=-1)) ** 2
    hermitian = np.abs(np.sum(vs * np.conj(ws), axis=-1)) ** 2
    d1 = np.asarray(metric.family.d1(s), dtype=float)
    return metric.normalization * (
        2.0 * (rv * rw - bilinear + hermitian) * phi
        + 4.0 * s * d1 * (bilinear - hermitian))


def _side(metric: MetricSpec, xs):
    """What B(0;V,W) reads of one argument X: (X, F^2, (|X|^2, s_X, phi(s_X))) on
    the Lie ball, (X, F^2, (G^0..G^k of G = X X*, c_a)) on types I-III; X = 0 raises
    DomainError."""
    xs = np.asarray(xs, dtype=np.complex128)
    require_nonzero(metric.domain, xs, "curvature is undefined along V = 0")
    if metric.domain.kind == "IV":
        r, s = norms.phi_invariants(xs)
        phi = np.asarray(metric.family.value(s), dtype=float)
        return xs, metric.normalization * r * phi, (r, s, phi)
    powers, s_traces = power_ladder(
        numkernel.matmul(xs, np.conj(np.swapaxes(xs, -1, -2))), metric.family.k, top=True)
    f2, c = _trace_weights(metric, s_traces)
    return xs, f2, (powers, c)


def hsc_origin_many(metric: MetricSpec, vs) -> np.ndarray:
    """Holomorphic sectional curvature K(V) = B(0;V,V) at the origin, batched
    over tangents; a zero tangent raises DomainError."""
    return bisectional_origin_many(metric, vs, vs)


def bisectional_origin_many(metric: MetricSpec, vs, ws) -> np.ndarray:
    """B(0;V,W) over stacks of tangents whose batch axes broadcast against
    each other; a zero tangent in either raises DomainError.

    Matrix types: with G = V V*, U = V W* and c_a from _trace_weights at V,
        B = -2N sum_a c_a [tr(W W* G^a) + tr(U* G^(a-1) U)] / (F^2_V F^2_W),
    the two halves of (1/4) Laplacian of zeta -> F^2(zeta W; V) at 0, from
    the left gram V V* and the right gram V* V (tr(W* W (V* V)^a) is the
    second).  They agree on types II and III and at W = V; vs as ws builds one _side.
    """
    side_v = _side(metric, vs)
    side_w = side_v if ws is vs else _side(metric, ws)
    (vs, f2v, parts_v), (ws, f2w, parts_w) = side_v, side_w
    if metric.domain.kind == "IV":
        return -2.0 * _lie_contraction(metric, side_v, side_w) / (f2v * f2w)
    (powers, c), (powers_w, _) = parts_v, parts_w
    u = numkernel.matmul(vs, np.conj(np.swapaxes(ws, -1, -2)))
    uu = numkernel.matmul(u, np.conj(np.swapaxes(u, -1, -2)))
    tr = lambda x, y: np.einsum("...ij,...ji->...", x, y).real
    acc = sum(c[a - 1] * (tr(powers_w[1], powers[a]) + tr(uu, powers[a - 1]))
              for a in range(1, metric.family.k + 1))
    return -2.0 * metric.normalization * acc / (f2v * f2w)


# ---------------------------------------------------------------------------
# extremization over the projectivized fiber


def lie_representative(s):
    """Unit tangent v(s) on the Lie ball with |vv'|^2 = s; batch-friendly."""
    s = np.asarray(s, dtype=float)
    root = np.sqrt(np.clip(s, 0.0, 1.0))
    v1 = np.sqrt((1.0 + root) / 2.0)
    v2 = 1j * np.sqrt((1.0 - root) / 2.0)
    return np.stack([v1, v2], axis=-1)


def _profile_to_traces(spec, y, kmax):
    """Power sums S_a from a singular profile (doubled for the skew type)."""
    mult = 2.0 if spec.kind == "III" else 1.0
    return np.stack(
        [mult * np.sum(y**a, axis=-1) for a in range(1, kmax + 1)], axis=-1
    )


def _profile_hsc(metric: MetricSpec, y):
    """K at a tangent of squared singular profile y (the rows of y):
    -4N sum_a c_a S_(a+1) / F^4, the diagonal W = V of the tangent formula."""
    k = metric.family.k
    s_traces = _profile_to_traces(metric.domain, y, k + 1)
    f2, c = _trace_weights(metric, s_traces)
    acc = sum(c[a - 1] * s_traces[..., a] for a in range(1, k + 1))
    return -4.0 * metric.normalization * acc / f2**2


def _profile_dim_total(spec):
    if spec.kind == "III":
        return spec.dims[0] // 2, 0.5
    return spec.rank, 1.0


@functools.lru_cache(maxsize=norms.METRIC_MEMO)
def _bisectional_sup_matrix(metric: MetricSpec) -> float:
    """sup |B(0;V,W)| over matrix tangents, exact up to the scan tolerance.

    For fixed spectra the trace inequality puts the extremum of each half
    of bisectional_origin_many at simultaneously diagonal grams aligned in
    descending order, VV* with WW* and V*V with W*W (every c_a of
    _trace_weights is positive).  V and W with common singular vectors and
    equally ordered singular values align both pairs, and the halves are
    then equal, so |B| reduces to the joint objective
    J(x, y) = (y . w(x)) / (F^2(x) F^2(y)) of two ordered eigenvalue
    profiles.  sup over x of [sup over y of J] is the sup of J over the pair,
    so one table of J on a simplex_grid squared, scanned in row blocks for
    its best cell, and one polish of that cell in the 2 * dim coordinates of
    (x, y) find it; moves shift mass within x or within y.  The polish
    seldom leaves the cell, so its halving ladder ends it in a few rounds.
    """
    spec = metric.domain
    k = metric.family.k
    dim, total = _profile_dim_total(spec)
    scale = 4.0 * metric.normalization * (2.0 if spec.kind == "III" else 1.0)

    def f2_weights(x):
        f2, c = _trace_weights(metric, _profile_to_traces(spec, x, k))
        return f2, scale * sum(c[a - 1][..., None] * x**a for a in range(1, k + 1))

    def joint(xy):
        f2x, wx = f2_weights(xy[:, :dim])
        f2y, _ = f2_weights(xy[:, dim:])
        return np.sum(wx * xy[:, dim:], axis=-1) / f2y / f2x

    grid, step = norms.simplex_grid(dim, total)
    f2, weights = f2_weights(grid)
    scaled = (grid / f2[:, None]).T
    rows = max(1, SUP_TABLE_CELLS // len(grid))
    best, cell = -np.inf, (0, 0)
    for lo in range(0, len(grid), rows):
        table = (weights[lo:lo + rows] @ scaled) / f2[lo:lo + rows, None]
        i, j = np.unravel_index(int(np.argmax(table)), table.shape)
        if table[i, j] > best:
            best, cell = table[i, j], (lo + i, j)
    start = np.concatenate([grid[cell[0]], grid[cell[1]]])[None]
    moves = norms.mass_moves(
        [(i, j) for i in range(2 * dim) for j in range(2 * dim)
         if i != j and i // dim == j // dim])
    _, sup = norms.polish_many(joint, start, 1.0, step, moves=moves)
    return float(sup[0])


def _lie_ratio(metric: MetricSpec, s, q, phi_w):
    """|B(0; v(s), W)| = (4/N) [1 + 2 sqrt(1 - s) q kappa(s)] / phi_w.

    W is a unit tangent with q = Im(W_1 conj(W_2)) and phi_w = phi(s_W), and
    kappa = 2 s phi'(s) / phi(s) - 1 (see _bisectional_sup_lie).  The
    arguments broadcast.
    """
    phi = np.asarray(metric.family.value(s), dtype=float)
    kappa = 2.0 * s * np.asarray(metric.family.d1(s), dtype=float) / phi - 1.0
    return (4.0 / metric.normalization) \
        * (1.0 + 2.0 * np.sqrt(1.0 - s) * q * kappa) / phi_w


def _lie_sup_table(metric: MetricSpec, ticks):
    """Best |B| of every (s, q) cell of ticks x (ticks - 1/2) over the t grid.

    t runs over the ticks <= 1 - 4q^2 (t = 1 - 4q^2 itself on IV(2)); the
    best t takes the least phi where the numerator is >= 0 and the largest
    where it is < 0, read from running minima and maxima of phi(ticks).
    """
    q = ticks - 0.5
    bound = 1.0 - 4.0 * q * q
    num = _lie_ratio(metric, ticks[:, None], q, 1.0)
    if metric.domain.dims[0] == 2:
        low = high = np.asarray(metric.family.value(bound), dtype=float)
    else:
        phi = np.asarray(metric.family.value(ticks), dtype=float)
        last = np.searchsorted(ticks, bound, side="right") - 1
        low = np.minimum.accumulate(phi)[last]
        high = np.maximum.accumulate(phi)[last]
    return num / np.where(num >= 0.0, low, high)


@functools.lru_cache(maxsize=norms.METRIC_MEMO)
def _bisectional_sup_lie(metric: MetricSpec) -> float:
    """sup |B(0;V,W)| on the Lie ball, reduced exactly to three invariants.

    By isotropy V = v(s) = (a, ib, 0, ...) with a^2 + b^2 = 1 and
    a^2 - b^2 = sqrt(s).  For a unit W = X + iY put D = |V.W|^2 - |<V,W>|^2;
    _lie_contraction is then 2 N phi(s) [1 + D kappa(s)], so
    |B| = (4/N) [1 + D kappa(s)] / phi(s_W).  Here D = 4ab Im(W_1 conj(W_2))
    = 2 sqrt(1 - s) q, and s_W = |W.W|^2 = 1 - 4|X ^ Y|^2 with
    |q| <= |X ^ Y| <= 1/2.  On IV(n >= 3) every t = s_W in [0, 1 - 4q^2] is
    reached (X = alpha e_1, Y = beta (cos theta e_2 + sin theta e_3)); on
    IV(2) |X ^ Y| = |q|, so t = 1 - 4q^2.  The search runs on the box
    (s, q, tau) in [0, 1] x [-1/2, 1/2] x [0, 1] with t = tau (1 - 4q^2)
    (tau = 1 on IV(2)): the best cell of _lie_sup_table, then one polish
    in box coordinates with moves clipped to the box.  Writing the t range
    as a constraint on (s, q, t) instead stalls on its curved boundary.
    """
    n = metric.domain.dims[0]
    ticks = np.linspace(0.0, 1.0, LIE_SUP_TICKS)
    table = _lie_sup_table(metric, ticks)
    i, j = np.unravel_index(int(np.argmax(table)), table.shape)
    s, q = ticks[i], ticks[j] - 0.5
    bound = 1.0 - 4.0 * q * q
    tau = 1.0
    if n > 2 and bound > 0.0:
        # the best cell is positive: cell (0, -1/2) alone reads 8 / (N phi(0))
        tau = ticks[np.argmin(metric.family.value(ticks[ticks <= bound]))] \
            / bound

    def value(rows):
        s, q, tau = rows.T
        t = tau * (1.0 - 4.0 * q * q)
        return _lie_ratio(metric, s, q,
                          np.asarray(metric.family.value(t), dtype=float))

    axes = np.arange(2 if n == 2 else 3)
    which = np.arange(2 * axes.size)
    kicks = np.where(which % 2, -1.0, 1.0)[:, None]

    def moves(y, step):
        cands = np.repeat(y[None], which.size, axis=0)
        cands[which, :, axes[which // 2]] += kicks * step
        np.clip(cands, [0.0, -0.5, 0.0], [1.0, 0.5, 1.0], out=cands)
        return cands, np.ones(cands.shape[:2], dtype=bool)

    _, sup = norms.polish_many(value, np.array([[s, q, tau]]), 1.0, ticks[1],
                               moves=moves)
    return float(sup[0])


@functools.lru_cache(maxsize=norms.METRIC_MEMO)
def curvature_bounds(metric: MetricSpec) -> CurvatureReport:
    """Extremize K over the fiber: K1, K2, the lu constant and the argmins.

    K is extremized by one norms.simplex_scan on every type: over squared
    singular values on the matrix domains, and on the Lie ball over rank-2
    profiles y with s = (y_1 - y_2)^2, where K has the closed form
    -(4/N) [1 - (1 - s) kappa(s)] / phi(s) (_lie_ratio with W = V).  The
    report depends on the metric alone; nothing is sampled.  So it is
    memoized on the metric (MetricSpec equality), and its profiles are
    read-only: every caller in the process shares one report.
    """
    spec = metric.domain
    dim, total = _profile_dim_total(spec)
    if spec.kind == "IV":
        def fn(y):
            # y = (a^2, b^2) stands for v(s) = (a, ib, 0, ...), and K(v) is
            # -|B(v, v)|, with q = Im(v_1 conj(v_2)) = -ab = -sqrt(1 - s) / 2
            s = np.minimum((y[..., 0] - y[..., 1]) ** 2, 1.0)
            return -_lie_ratio(metric, s, -0.5 * np.sqrt(1.0 - s),
                               np.asarray(metric.family.value(s), dtype=float))

        def profile(y):
            return np.array([(y[0] - y[1]) ** 2])
    else:
        def fn(y):
            return _profile_hsc(metric, y)

        def profile(y):
            return np.sort(np.sqrt(np.maximum(y, 0.0)))[::-1]

    (ymin, fmin), (ymax, fmax) = norms.simplex_scan(fn, dim, total=total)
    k1, k2 = -fmin, -fmax
    argmin, argmax = profile(ymin), profile(ymax)
    argmin.flags.writeable = argmax.flags.writeable = False
    if not (k1 >= k2 > 0.0):
        raise NumericError(
            f"curvature extremization stagnated: k1={k1:.6g}, k2={k2:.6g}"
        )
    return CurvatureReport(k1, k2, float(np.sqrt(k1 / k2)), argmin, argmax)


def bisectional_bound(metric: MetricSpec, k1: float, pair_draws: int, seed: int):
    """(C, search): the bound C with -C <= B <= 0 and the fiber search's sup.

    search is the extremized supremum of |B|: a table and one polish on the
    matrix domains (_bisectional_sup_matrix) and on the Lie ball
    (_bisectional_sup_lie, three invariants); neither samples, and both are
    memoized on the metric.  C is its max with k1 (B(V,V) = K(V) reaches
    -k1) and with -B over pair_draws tangent pairs, the two parts of one
    domains.draw_grid(seed, "bisectional") call.
    """
    spec = metric.domain
    if spec.kind == "IV":
        search = _bisectional_sup_lie(metric)
    else:
        search = _bisectional_sup_matrix(metric)
    vs, ws = domains.draw_grid(seed, "bisectional", [
        domains.Tangents(spec, pair_draws), domains.Tangents(spec, pair_draws)])
    sampled = float(-np.min(bisectional_origin_many(metric, vs, ws)))
    return max(search, k1, sampled), search


def verify_curvature_range(metric: MetricSpec, n_samples: int = 100_000,
                           seed: int = 0):
    """(min, max) of the sectional curvature over n_samples sampled tangents.

    The tangents are one domains.draw_grid(seed, "curvature_range") part; the
    caller compares the extremes with its bounds.
    """
    vs, = domains.draw_grid(seed, "curvature_range",
                            [domains.Tangents(metric.domain, n_samples)])
    vals = hsc_origin_many(metric, vs)
    return float(np.min(vals)), float(np.max(vals))
