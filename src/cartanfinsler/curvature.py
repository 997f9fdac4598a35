"""Holomorphic sectional and bisectional curvature of the invariant metrics.

Everything is computed at the origin and extended by homogeneity: pulling
(Z;V) back with a normalizing automorphism leaves the curvature unchanged.
Matrix domains admit closed origin formulas in the power traces of V V*;
the Lie ball contracts the base Hessian of F^2 numerically (the first base
derivatives vanish at the origin, so a pure second-difference stencil works).
"""
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from . import automorphisms as am
from . import domains
from . import norms
from .metrics import MetricSpec, eval2_many

# second-derivative stencils balance truncation ~h^4 against roundoff
# ~eps/h^2; 1e-3 keeps both below 1e-9 for order-one data
STENCIL_STEP = 1e-3
LIE_SCAN_POINTS = 10_000
PAIR_DRAWS = 10_000


@dataclass(frozen=True)
class CurvatureReport:
    k1: float                   # -k1 = infimum of sectional curvature
    k2: float                   # -k2 = supremum, 0 < k2 <= k1
    lu: float                   # sqrt(k1 / k2)
    argmin_profile: np.ndarray  # singular-value profile (or [s]) at -k1
    argmax_profile: np.ndarray  # profile at -k2
    bisectional_c: float        # extremized bound C with -C <= B <= 0


# ---------------------------------------------------------------------------
# origin formulas


def _origin_traces(vs, kmax: int):
    """tr[(V V*)^a] for a = 1..kmax over a stack of matrix tangents."""
    vs = np.asarray(vs, dtype=np.complex128)
    if vs.shape[-2] <= vs.shape[-1]:
        gram = vs @ np.conj(np.swapaxes(vs, -1, -2))
    else:
        gram = np.conj(np.swapaxes(vs, -1, -2)) @ vs
    out = np.empty(vs.shape[:-2] + (kmax,))
    power = gram
    out[..., 0] = np.trace(power, axis1=-2, axis2=-1).real
    for a in range(2, kmax + 1):
        power = power @ gram
        out[..., a - 1] = np.trace(power, axis1=-2, axis2=-1).real
    return out


def _h_from_traces(s):
    """Power means h_a = S_a^(1/a) from power traces S_1..S_k."""
    h = np.empty_like(s)
    for a in range(1, s.shape[-1] + 1):
        h[..., a - 1] = np.maximum(s[..., a - 1], 0.0) ** (1.0 / a)
    return h


def _matrix_hsc_from_traces(metric: MetricSpec, s_traces):
    """K(0;V) from tr[(VV*)^a], a = 1..k+1 (shape (B, k+1))."""
    k = metric.family.k
    h = _h_from_traces(s_traces[..., :k])
    grads = norms.grad_rows(metric.family, h)
    f2 = metric.normalization * np.asarray(metric.family.value(h), dtype=float)
    acc = np.zeros(h.shape[:-1])
    for a in range(1, k + 1):
        acc += grads[..., a - 1] * h[..., a - 1] ** (1 - a) * s_traces[..., a]
    return -4.0 * metric.normalization * acc / f2**2


def _lie_stencil(metric: MetricSpec, vs, ws):
    """(1/4) Laplacian of zeta -> F^2(zeta*W; V) at zeta = 0, batched."""
    vs = np.asarray(vs, dtype=np.complex128)
    ws = np.asarray(ws, dtype=np.complex128)
    h = STENCIL_STEP
    offsets = np.array(
        [0.0, h, -h, 2 * h, -2 * h, 1j * h, -1j * h, 2j * h, -2j * h]
    )
    zs = offsets[:, None, None] * ws[None, :, :]
    f = eval2_many(metric, zs, np.broadcast_to(vs, zs.shape))
    d2x = (-f[3] + 16 * f[1] - 30 * f[0] + 16 * f[2] - f[4]) / (12 * h * h)
    d2y = (-f[7] + 16 * f[5] - 30 * f[0] + 16 * f[6] - f[8]) / (12 * h * h)
    return 0.25 * (d2x + d2y), f[0]


def hsc_origin_many(metric: MetricSpec, vs) -> np.ndarray:
    """Holomorphic sectional curvature at the origin, batched over tangents."""
    vs = np.asarray(vs, dtype=np.complex128)
    if metric.domain.kind == "IV":
        contraction, f2 = _lie_stencil(metric, vs, vs)
        return -2.0 * contraction / f2**2
    traces = _origin_traces(vs, metric.family.k + 1)
    return _matrix_hsc_from_traces(metric, traces)


def hsc_origin(metric: MetricSpec, v) -> float:
    v = np.asarray(v, dtype=np.complex128)
    if np.max(np.abs(v)) == 0.0:
        raise DomainError("sectional curvature is undefined along V = 0")
    return float(hsc_origin_many(metric, v[None])[0])


def hsc(metric: MetricSpec, z, v) -> float:
    """K_F(Z;V): pull back to the origin with a normalizing automorphism."""
    z = np.asarray(z, dtype=np.complex128)
    phi = am.normalizing_automorphism(metric.domain, z)
    return hsc_origin(metric, am.differential(phi, z, v))


def bisectional_origin_many(metric: MetricSpec, vs, ws) -> np.ndarray:
    """B(0;V,W) over paired stacks of tangents."""
    vs = np.asarray(vs, dtype=np.complex128)
    ws = np.asarray(ws, dtype=np.complex128)
    if metric.domain.kind == "IV":
        contraction, f2v = _lie_stencil(metric, vs, ws)
        f2w = eval2_many(metric, np.zeros_like(ws), ws)
        return -2.0 * contraction / (f2v * f2w)
    k = metric.family.k
    s = _origin_traces(vs, k)
    h = _h_from_traces(s)
    grads = norms.grad_rows(metric.family, h)
    f2v = metric.normalization * np.asarray(metric.family.value(h), dtype=float)
    hw = _h_from_traces(_origin_traces(ws, k))
    f2w = metric.normalization * np.asarray(metric.family.value(hw), dtype=float)
    gram_v = vs @ np.conj(np.swapaxes(vs, -1, -2))
    gram_w = ws @ np.conj(np.swapaxes(ws, -1, -2))
    acc = np.zeros(s.shape[:-1])
    power = np.broadcast_to(
        np.eye(gram_v.shape[-1]), gram_v.shape
    ).astype(np.complex128)
    for a in range(1, k + 1):
        power = power @ gram_v
        cross = np.einsum("...ij,...ji->...", gram_w, power).real
        acc += grads[..., a - 1] * h[..., a - 1] ** (1 - a) * cross
    return -4.0 * metric.normalization * acc / (f2v * f2w)


def bisectional_origin(metric: MetricSpec, v, w) -> float:
    v = np.asarray(v, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    if np.max(np.abs(v)) == 0.0 or np.max(np.abs(w)) == 0.0:
        raise DomainError("bisectional curvature needs two nonzero tangents")
    return float(bisectional_origin_many(metric, v[None], w[None])[0])


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


def _profile_dim_total(spec):
    if spec.kind == "III":
        return spec.dims[0] // 2, 0.5
    return spec.rank, 1.0


def _bisectional_sup_matrix(metric: MetricSpec) -> float:
    """sup |B(0;V,W)| over matrix tangents, exact up to the scan tolerance.

    For fixed spectra the trace inequality puts the extremum at simultaneously
    diagonal VV*, WW* aligned in descending order (every coefficient
    g_a h_a^(1-a) is positive), so a nested scan over ordered eigenvalue
    profiles covers all of it.
    """
    spec = metric.domain
    k = metric.family.k
    dim, total = _profile_dim_total(spec)
    mult = 2.0 if spec.kind == "III" else 1.0
    norm = metric.normalization

    def profile_f2(y):
        h = _h_from_traces(_profile_to_traces(spec, y, k))
        return norm * np.asarray(metric.family.value(h), dtype=float), h

    def outer(xbatch):
        xbatch = np.asarray(xbatch, dtype=float)
        f2v, h = profile_f2(xbatch)
        grads = norms.grad_rows(metric.family, h)
        weights = np.zeros_like(xbatch)
        for a in range(1, k + 1):
            weights += (grads[..., a - 1]
                        * h[..., a - 1] ** (1 - a))[..., None] * xbatch**a
        weights *= 4.0 * norm * mult
        out = np.empty(len(xbatch))
        for i in range(len(xbatch)):
            def inner(ybatch):
                ybatch = np.asarray(ybatch, dtype=float)
                f2w, _ = profile_f2(ybatch)
                return (ybatch @ weights[i]) / f2w
            _, fmax = norms.simplex_max(inner, dim, total=total)
            out[i] = fmax / f2v[i]
        return out

    _, sup = norms.simplex_max(outer, dim, total=total)
    return float(sup)


def _bisectional_sup_lie(metric: MetricSpec, restarts: int = 12) -> float:
    """sup |B(0;V,W)| on the Lie ball: V reduced by isotropy, W searched.

    Pattern search over (s, W) from a V = W grid plus random restarts; the
    structured seeds alone already reach the V = W extremum, so the search
    can only push the bound up.
    """
    spec = metric.domain
    n = spec.dims[0]
    rng = np.random.default_rng(0)

    def value(svec, wmat):
        reps = lie_representative(svec)
        if n > 2:
            reps = np.concatenate(
                [reps, np.zeros(svec.shape + (n - 2,))], axis=-1)
        contraction, f2v = _lie_stencil(metric, reps, wmat)
        f2w = eval2_many(metric, np.zeros_like(wmat), wmat)
        return 2.0 * contraction / (f2v * f2w)  # = |B| where B <= 0

    s0 = np.linspace(0.0, 1.0, restarts)
    w0 = lie_representative(s0)
    if n > 2:
        w0 = np.concatenate([w0, np.zeros((restarts, n - 2))], axis=-1)
    wr = rng.standard_normal((restarts, n)) \
        + 1j * rng.standard_normal((restarts, n))
    wr /= np.linalg.norm(wr, axis=-1, keepdims=True)
    s = np.concatenate([s0, rng.uniform(0.0, 1.0, restarts)])
    w = np.concatenate([w0, wr])
    best = value(s, w)
    step = 0.25
    while step > 1e-9:
        cands_s = [np.clip(s + step, 0.0, 1.0), np.clip(s - step, 0.0, 1.0)]
        cands_w = [w, w]
        for j in range(n):
            for delta in (step, -step, 1j * step, -1j * step):
                wc = w.copy()
                wc[:, j] += delta
                cands_s.append(s)
                cands_w.append(wc / np.linalg.norm(wc, axis=-1, keepdims=True))
        stack_s = np.stack(cands_s)
        stack_w = np.stack(cands_w)
        vals = value(stack_s.reshape(-1), stack_w.reshape(-1, n))
        vals = vals.reshape(len(cands_s), len(s))
        vbest = vals.max(axis=0)
        which = vals.argmax(axis=0)
        gain = np.where(vbest > best + 1e-15)[0]
        if gain.size:
            s[gain] = stack_s[which[gain], gain]
            w[gain] = stack_w[which[gain], gain]
            best[gain] = vbest[gain]
        else:
            step *= 0.5
    return float(best.max())


def curvature_bounds(metric: MetricSpec, seed: int = 0,
                     pair_draws: int = PAIR_DRAWS) -> CurvatureReport:
    """Extremize K over the fiber and bound the bisectional curvature.

    With pair_draws > 0 the report also carries bisectional_c: the
    extremized supremum of |B| (it always dominates k1, attained at V = W),
    cross-checked against pair_draws sampled tangent pairs.
    """
    spec = metric.domain
    if spec.kind == "IV":
        # K depends only on s: scan unit representatives in a rank-2 slice
        s_grid = np.linspace(0.0, 1.0, LIE_SCAN_POINTS)
        reps = lie_representative(s_grid)
        if spec.dims[0] > 2:
            pad = np.zeros(s_grid.shape + (spec.dims[0] - 2,))
            reps = np.concatenate([reps, pad], axis=-1)
        vals = hsc_origin_many(metric, reps)
        imin = int(np.argmin(vals))
        imax = int(np.argmax(vals))
        k1, k2 = -float(vals[imin]), -float(vals[imax])
        argmin = np.array([s_grid[imin]])
        argmax = np.array([s_grid[imax]])
    else:
        dim, total = _profile_dim_total(spec)
        kmax = metric.family.k + 1

        def fn(y):
            return _matrix_hsc_from_traces(
                metric, _profile_to_traces(spec, y, kmax)
            )

        (ymin, fmin), (ymax, fmax) = norms.simplex_scan(fn, dim, total=total)
        k1, k2 = -fmin, -fmax
        argmin = np.sort(np.sqrt(np.maximum(ymin, 0.0)))[::-1]
        argmax = np.sort(np.sqrt(np.maximum(ymax, 0.0)))[::-1]
    if not (k1 >= k2 > 0.0):
        raise NumericError(
            f"curvature extremization stagnated: k1={k1:.6g}, k2={k2:.6g}"
        )

    bisect_c = 0.0
    if pair_draws > 0:
        if spec.kind == "IV":
            bisect_c = _bisectional_sup_lie(metric)
        else:
            bisect_c = _bisectional_sup_matrix(metric)
        bisect_c = max(bisect_c, k1)  # B(V,V) = K(V) reaches -k1
        rng = np.random.default_rng(seed)
        block = 2000
        drawn = 0
        while drawn < pair_draws:
            b = min(block, pair_draws - drawn)
            vs = domains.sample_tangents(spec, rng.integers(2**63, size=b))
            ws = domains.sample_tangents(spec, rng.integers(2**63, size=b))
            bv = bisectional_origin_many(metric, vs, ws)
            bisect_c = max(bisect_c, float(-np.min(bv)))
            drawn += b
    return CurvatureReport(k1, k2, float(np.sqrt(k1 / k2)), argmin, argmax,
                           bisect_c)


def lu_constant(metric: MetricSpec) -> float:
    """sqrt(K1/K2): the distortion constant of the metric's Schwarz bound."""
    report = curvature_bounds(metric, pair_draws=0)
    return report.lu


def verify_curvature_range(metric: MetricSpec, report: CurvatureReport,
                           n_samples: int = 100_000, seed: int = 0,
                           slack: float = 1e-7):
    """Sample sectional values and check them against the report's bounds.

    Returns (ok, worst_low, worst_high) where the worsts are signed excesses
    beyond [-k1 - slack, -k2 + slack] (nonpositive when inside).
    """
    spec = metric.domain
    rng = np.random.default_rng(seed)
    shape = (n_samples,) + spec.ambient_shape
    vs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if spec.kind == "II":
        vs = 0.5 * (vs + np.swapaxes(vs, -1, -2))
    elif spec.kind == "III":
        vs = 0.5 * (vs - np.swapaxes(vs, -1, -2))
    vals = np.empty(n_samples)
    block = 20_000
    for lo in range(0, n_samples, block):
        vals[lo: lo + block] = hsc_origin_many(metric, vs[lo: lo + block])
    worst_low = float((-report.k1 - slack) - np.min(vals))
    worst_high = float(np.max(vals) - (-report.k2 + slack))
    ok = worst_low <= 0.0 and worst_high <= 0.0
    return ok, worst_low, worst_high
