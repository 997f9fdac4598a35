"""Rotation-invariant Minkowski norms at the origin of the classical domains.

Two families are shipped:

* g-families on the matrix domains: f^2(V) = g(h_1, ..., h_k) where
  h_a = tr[(V V*)^a]^{1/a}.  Built-ins: the trace norm g = c*xi_1 and the
  two-term family g = c/(1+t) * (xi_1 + t*xi_k).
* phi-families on the Lie ball: f^2(xi) = r * phi(s) with r = xi xi* and
  s = |xi xi'|^2 / r^2 in [0, 1].

Certification checks the convexity/monotonicity conditions that make these
genuine strongly pseudoconvex norms, on explicit sample grids, reporting
worst margins and witnesses instead of silent booleans.
"""
import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import StructureError
from . import numkernel

STRICT_MARGIN = 1e-10
FD_STEP = 1e-5
POLISH_TOL = 1e-12


@dataclass(frozen=True)
class GFamilySpec:
    """Symmetric norm family on power-trace coordinates xi_1..xi_k."""
    k: int
    value: Callable
    grad: Callable
    hess: Callable
    label: str


@dataclass(frozen=True)
class PhiFamilySpec:
    """Profile function phi(s) on [0, 1] with two derivatives."""
    value: Callable
    d1: Callable
    d2: Callable
    label: str


def grad_rows(family: GFamilySpec, h) -> np.ndarray:
    """family.grad at every row of h (..., k).

    family.grad takes the whole batch and returns either one gradient per row
    or, for a linear g, the constant gradient (k,), broadcast here.
    """
    h = np.asarray(h, dtype=float)
    return np.broadcast_to(np.asarray(family.grad(h), dtype=float), h.shape)


@dataclass(frozen=True)
class NormBounds:
    """Tightest constants with c1 * tr(VV*) <= f^2(V) <= c2 * tr(VV*)."""
    c1: float
    c2: float
    argmin_profile: np.ndarray
    argmax_profile: np.ndarray


@dataclass(frozen=True)
class Certificate:
    passed: bool
    worst_margin: float
    witness: Optional[np.ndarray]
    failed_condition: Optional[str]


def bergman_family(c: float) -> GFamilySpec:
    """g(xi) = c * xi_1: the Hermitian (trace-form) norm."""
    if c <= 0:
        raise StructureError(f"scale must be positive, got {c}")
    return GFamilySpec(
        k=1,
        value=lambda xi: c * xi[..., 0],
        grad=lambda xi: np.array([c]),
        hess=lambda xi: np.zeros((1, 1)),
        label=f"bergman(c={c:g})",
    )


def tk_family(t: float, k: int, c: float) -> GFamilySpec:
    """g(xi) = c/(1+t) * (xi_1 + t * xi_k), t >= 0, integer k >= 2."""
    if not (t >= 0.0):
        raise StructureError(f"weight t must be >= 0, got {t}")
    if int(k) != k or k < 2:
        raise StructureError(f"exponent k must be an integer >= 2, got {k}")
    k = int(k)
    w = c / (1.0 + t)

    def grad(xi):
        out = np.zeros(k)
        out[0] = w
        out[k - 1] += w * t
        return out

    return GFamilySpec(
        k=k,
        value=lambda xi: w * (xi[..., 0] + t * xi[..., k - 1]),
        grad=grad,
        hess=lambda xi: np.zeros((k, k)),
        label=f"two-term(t={t:g},k={k},c={c:g})",
    )


def g_family_from_callable(value: Callable, k: int, label="custom") -> GFamilySpec:
    """Wrap a user g(xi) with central-difference gradient and Hessian.

    value is only ever called on one point xi of shape (k,); the gradient
    also takes a batch (..., k), row by row.
    """

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


def constant_phi(c: float) -> PhiFamilySpec:
    if c <= 0:
        raise StructureError(f"constant profile must be positive, got {c}")
    return PhiFamilySpec(
        value=lambda s: c * np.ones_like(np.asarray(s, dtype=float)),
        d1=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        d2=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        label=f"constant(c={c:g})",
    )


def affine_phi(t: float) -> PhiFamilySpec:
    """phi(s) = (1 + t*s)/(1 + t); positive on [0,1] for t >= 0."""
    if not (t >= 0.0):
        raise StructureError(f"slope t must be >= 0, got {t}")
    return PhiFamilySpec(
        value=lambda s: (1.0 + t * np.asarray(s, dtype=float)) / (1.0 + t),
        d1=lambda s: (t / (1.0 + t)) * np.ones_like(np.asarray(s, dtype=float)),
        d2=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        label=f"affine(t={t:g})",
    )


# ---------------------------------------------------------------------------
# evaluation


def power_means_from_squares(y, k: int) -> np.ndarray:
    """h_a = (sum_i y_i^a)^{1/a} for a = 1..k from squared singular values y.

    y may carry leading batch axes; returns (..., k).
    """
    y = np.asarray(y, dtype=float)
    out = np.empty(y.shape[:-1] + (k,))
    for a in range(1, k + 1):
        out[..., a - 1] = np.sum(y**a, axis=-1) ** (1.0 / a)
    return out


def eval_g_norm(spec: GFamilySpec, v) -> float:
    """f^2(V) = g(h_1(V), ..., h_k(V)) for a matrix tangent at the origin."""
    v = np.asarray(v, dtype=np.complex128)
    sv = numkernel.singular_values(v)
    y = sv**2
    if float(np.sum(y)) <= 0.0:
        return 0.0
    return float(spec.value(power_means_from_squares(y, spec.k)))


def eval_g_norm_many(spec: GFamilySpec, vs) -> np.ndarray:
    """Batched eval_g_norm over a stack of origin tangents (B, m, n)."""
    vs = np.asarray(vs, dtype=np.complex128)
    if vs.shape[-2] <= vs.shape[-1]:
        gram = vs @ np.conj(np.swapaxes(vs, -1, -2))
    else:
        gram = np.conj(np.swapaxes(vs, -1, -2)) @ vs
    y = numkernel.eigvalsh_batch(gram.reshape((-1,) + gram.shape[-2:]))
    y = np.maximum(y, 0.0).reshape(gram.shape[:-1])
    vals = spec.value(power_means_from_squares(y, spec.k))
    return np.where(np.sum(y, axis=-1) > 0.0, vals, 0.0)


def phi_invariants(xi) -> tuple:
    """(r, s) with r = xi xi* and s = |xi xi'|^2 / r^2 (s := 0 at xi = 0)."""
    xi = np.asarray(xi, dtype=np.complex128)
    r = np.sum(np.abs(xi) ** 2, axis=-1)
    p = np.abs(np.sum(xi * xi, axis=-1))
    s = np.divide(p * p, r * r, out=np.zeros_like(r), where=r > 0.0)
    return r, np.clip(s, 0.0, 1.0)


def eval_phi_norm(spec: PhiFamilySpec, xi, normalization: float = 1.0) -> float:
    """f^2(xi) = normalization * r * phi(s) on the Lie ball's origin fiber."""
    r, s = phi_invariants(xi)
    if np.ndim(r) == 0 and float(r) == 0.0:
        return 0.0
    return float(normalization * r * spec.value(s))


def eval_phi_norm_many(spec: PhiFamilySpec, xis, normalization: float = 1.0) -> np.ndarray:
    r, s = phi_invariants(xis)
    return normalization * r * np.asarray(spec.value(s), dtype=float)


# ---------------------------------------------------------------------------
# certification


def orthant_grid(k: int, resolution: int = 25) -> np.ndarray:
    """Strictly positive sample points covering the unit simplex in R^k."""
    if k == 1:
        return np.linspace(0.05, 1.0, resolution)[:, None]
    ticks = np.linspace(0.02, 1.0, resolution)
    mesh = np.meshgrid(*([ticks] * k), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return pts / np.sum(pts, axis=-1, keepdims=True)


def certify_scc(spec: GFamilySpec, grid=None) -> Certificate:
    """Gradient strictly positive and Hessian PSD at every grid point."""
    if grid is None:
        grid = orthant_grid(spec.k)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    worst = np.inf
    witness = None
    failed = None
    for xi in grid:
        gvec = np.atleast_1d(np.asarray(spec.grad(xi), dtype=float))
        margin = float(np.min(gvec)) - STRICT_MARGIN
        if margin < worst:
            worst, witness, failed = margin, xi, "gradient_positivity"
        hmat = np.atleast_2d(np.asarray(spec.hess(xi), dtype=float))
        w = numkernel.eigvalsh_batch(hmat.astype(np.complex128)[None])[0]
        margin = float(w[-1]) + STRICT_MARGIN
        if margin < worst:
            worst, witness, failed = margin, xi, "hessian_psd"
    passed = worst >= 0.0
    return Certificate(passed, worst, None if passed else witness,
                       None if passed else failed)


def certify_sn(spec: PhiFamilySpec, s_grid=None) -> Certificate:
    """Two positivity conditions on phi over s in [0, 1]."""
    if s_grid is None:
        s_grid = np.linspace(0.0, 1.0, 1001)
    s = np.asarray(s_grid, dtype=float)
    phi = np.asarray(spec.value(s), dtype=float)
    d1 = np.asarray(spec.d1(s), dtype=float)
    d2 = np.asarray(spec.d2(s), dtype=float)
    slope = phi - 2.0 * s * d1
    combo = phi * (phi + 2.0 * (2.0 - 3.0 * s) * d1) + 4.0 * s * (1.0 - s) * (
        phi * d2 - d1 * d1
    )
    worst = np.inf
    witness = None
    failed = None
    for name, vals in (("slope_bound", slope), ("curvature_combination", combo)):
        i = int(np.argmin(vals))
        margin = float(vals[i]) - STRICT_MARGIN
        if margin < worst:
            worst, witness, failed = margin, np.array([s[i]]), name
    passed = worst >= 0.0
    return Certificate(passed, worst, None if passed else witness,
                       None if passed else failed)


# ---------------------------------------------------------------------------
# simplex optimization (shared with the curvature module)


@functools.lru_cache(maxsize=None)
def _composition_units(dim: int, resolution: int) -> np.ndarray:
    """Ordered compositions of `resolution` units into dim parts (read-only)."""
    grid = []

    def rec(prefix, remaining, cap):
        slot = len(prefix)
        if slot == dim - 1:
            if remaining <= cap:
                grid.append(prefix + [remaining])
            return
        lo = -(-remaining // (dim - slot))  # ceil: keep ordering feasible
        for units in range(lo, min(cap, remaining) + 1):
            rec(prefix + [units], remaining - units, units)

    rec([], resolution, resolution)
    units = np.asarray(grid, dtype=float)
    units.flags.writeable = False
    return units


def simplex_grid(dim: int, total: float = 1.0, resolution: int = None):
    """Dense ordered grid on {y_1 >= ... >= y_dim >= 0, sum y = total}.

    Returns the (P, dim) profiles and their spacing total / resolution; the
    integer compositions behind them are built once per (dim, resolution).
    """
    if resolution is None:
        resolution = 200 if dim <= 2 else 60
    step = total / resolution
    if dim == 1:
        return np.array([[float(total)]]), step
    return _composition_units(dim, resolution) * step, step


def polish(fn_batch: Callable, y0, sign: float, step: float):
    """Mass-shuffling pattern search from y0 (tolerance 1e-12).

    Maximizes sign * fn: moves `step` of mass between two coordinates while
    that improves, halves the step otherwise.  Returns (y, fn(y)).
    """
    y = np.array(y0, dtype=float)
    dim = len(y)
    best = float(fn_batch(y[None])[0])
    while step > POLISH_TOL:
        improved = False
        cands = []
        for i in range(dim):
            for j in range(dim):
                if i == j:
                    continue
                c = y.copy()
                c[i] += step
                c[j] -= step
                if c[j] >= 0.0:
                    cands.append(c)
        if cands:
            cands = np.asarray(cands)
            f = sign * np.asarray(fn_batch(cands), dtype=float)
            b = int(np.argmax(f))
            if f[b] > sign * best + 1e-18:
                y = cands[b]
                best = sign * f[b]
                improved = True
        if not improved:
            step *= 0.5
    return y, best


def simplex_scan(fn_batch: Callable, dim: int, total: float = 1.0,
                 resolution: int = None):
    """Extremize fn over {y_1 >= ... >= y_dim >= 0, sum y = total}.

    fn_batch maps an array (P, dim) of profiles to (P,) values.  Dense ordered
    grid (simplex_grid) plus a pattern-search polish of the best grid point
    at each end (polish).  Returns ((ymin, fmin), (ymax, fmax)).
    """
    if dim == 1:
        y = np.array([[total]])
        f = float(fn_batch(y)[0])
        return (y[0], f), (y[0], f)
    y_grid, step = simplex_grid(dim, total, resolution)
    vals = np.asarray(fn_batch(y_grid), dtype=float)
    return (polish(fn_batch, y_grid[int(np.argmin(vals))], -1.0, step),
            polish(fn_batch, y_grid[int(np.argmax(vals))], +1.0, step))


def simplex_max(fn_batch: Callable, dim: int, total: float = 1.0,
                resolution: int = None):
    """The maximum half of simplex_scan, (ymax, fmax), without the minimum polish."""
    y_grid, step = simplex_grid(dim, total, resolution)
    vals = np.asarray(fn_batch(y_grid), dtype=float)
    return polish(fn_batch, y_grid[int(np.argmax(vals))], +1.0, step)


def _g_profile_batch(spec: GFamilySpec, doubled: bool):
    """Map squared-singular-value profiles to f^2 values (III doubles traces)."""

    def fn(y):
        y = np.asarray(y, dtype=float)
        if doubled:
            h = np.empty(y.shape[:-1] + (spec.k,))
            for a in range(1, spec.k + 1):
                h[..., a - 1] = (2.0 * np.sum(y**a, axis=-1)) ** (1.0 / a)
        else:
            h = power_means_from_squares(y, spec.k)
        return spec.value(h)

    return fn


def minkowski_bounds(spec, domain=None, normalization: float = 1.0,
                     rank: int = None) -> NormBounds:
    """Tight trace-comparison constants over the projectivized origin fiber.

    For g-families pass the domain (or rank=m~ with doubled= inferred);
    for phi-families the scan is one-dimensional in s.
    """
    if isinstance(spec, PhiFamilySpec):
        s = np.linspace(0.0, 1.0, 10_001)
        vals = normalization * np.asarray(spec.value(s), dtype=float)
        imin, imax = int(np.argmin(vals)), int(np.argmax(vals))
        return NormBounds(float(vals[imin]), float(vals[imax]),
                          np.array([s[imin]]), np.array([s[imax]]))

    if domain is not None:
        doubled = domain.kind == "III"
        mt = domain.rank
    else:
        if rank is None:
            raise StructureError("need a domain or an explicit rank")
        doubled, mt = False, rank
    total = 0.5 if doubled else 1.0  # unit trace: skew spectra come in pairs
    fn = _g_profile_batch(spec, doubled)
    (ymin, fmin), (ymax, fmax) = simplex_scan(fn, mt, total=total)
    lam_min = np.sort(np.sqrt(np.maximum(ymin, 0.0)))[::-1]
    lam_max = np.sort(np.sqrt(np.maximum(ymax, 0.0)))[::-1]
    return NormBounds(fmin, fmax, lam_min, lam_max)
