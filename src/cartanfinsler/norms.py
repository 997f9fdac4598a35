"""Rotation-invariant Minkowski norms at the origin of the classical domains.

Two families are shipped:

* g-families on the matrix domains: f^2(V) = g(h_1, ..., h_k) where
  h_a = tr[(V V*)^a]^{1/a}.  Built-ins: the trace norm g = c*xi_1 and the
  two-term family g = c/(1+t) * (xi_1 + t*xi_k).  The metric evaluates
  them through power_means, grad_rows and hess_rows.
* phi-families on the Lie ball: f^2(xi) = r * phi(s) with r = xi xi* and
  s = |xi xi'|^2 / r^2 in [0, 1] (phi_invariants, eval_phi_norm_many).

Certification checks the convexity/monotonicity conditions that make these
genuine strongly pseudoconvex norms, on explicit sample grids, reporting
worst margins and witnesses instead of silent booleans; a certificate
depends on the family alone and is memoized on it.  simplex_scan, a
grid on an ordered simplex and a polish of its two ends, is the one
extremizer of the curvature bounds on all four types.
"""
import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import StructureError
from . import numkernel

STRICT_MARGIN = 1e-10
POLISH_TOL = 1e-12    # a polish row stops once its step is <= this
POLISH_GAIN = 1e-18   # a move must beat the row's value by more than this
ORTHANT_TICKS = 25    # ticks per axis of the certify_scc grid
SN_TICKS = 1001       # points of the certify_sn grid on [0, 1]
METRIC_MEMO = 128     # metrics (and families) whose invariants a process keeps


@dataclass(frozen=True)
class GFamilySpec:
    """Symmetric norm family on power-trace coordinates xi_1..xi_k.

    Two families are equal when their k, label and params are: params holds
    the constructor's name and its exact arguments, so two builds of one
    family are one memo key (certify_scc, curvature.curvature_bounds).  The
    callables are not compared, and a family built directly gets a fresh
    object() as params, so it equals only itself.
    """
    k: int
    value: Callable = field(compare=False)
    grad: Callable = field(compare=False)
    hess: Callable = field(compare=False)
    label: str
    params: object = field(default_factory=object)


@dataclass(frozen=True)
class PhiFamilySpec:
    """Profile function phi(s) on [0, 1] with two derivatives; equal as
    GFamilySpec is, by label and params."""
    value: Callable = field(compare=False)
    d1: Callable = field(compare=False)
    d2: Callable = field(compare=False)
    label: str
    params: object = field(default_factory=object)


def grad_rows(family: GFamilySpec, h) -> np.ndarray:
    """family.grad at every row of h (..., k).

    family.grad takes the whole batch and returns either one gradient per row
    or, for a linear g, the constant gradient (k,), broadcast here.
    """
    h = np.asarray(h, dtype=float)
    return np.broadcast_to(np.asarray(family.grad(h), dtype=float), h.shape)


def hess_rows(family: GFamilySpec, h) -> np.ndarray:
    """family.hess at every row of h (..., k), as (..., k, k).

    family.hess takes the whole batch and returns either one Hessian per row
    or, for a linear or quadratic g, the constant Hessian (k, k), broadcast
    here.
    """
    h = np.asarray(h, dtype=float)
    return np.broadcast_to(np.asarray(family.hess(h), dtype=float),
                           h.shape + h.shape[-1:])


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
        params=("bergman_family", c),
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
        params=("tk_family", t, k, c),
    )


def constant_phi(c: float) -> PhiFamilySpec:
    if c <= 0:
        raise StructureError(f"constant profile must be positive, got {c}")
    return PhiFamilySpec(
        value=lambda s: c * np.ones_like(np.asarray(s, dtype=float)),
        d1=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        d2=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        label=f"constant(c={c:g})",
        params=("constant_phi", c),
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
        params=("affine_phi", t),
    )


# ---------------------------------------------------------------------------
# evaluation


def power_means(s) -> np.ndarray:
    """h_a = max(S_a, 0)^{1/a} from power traces S_1..S_k on the last axis."""
    s = np.asarray(s, dtype=float)
    h = np.empty_like(s)
    for a in range(1, s.shape[-1] + 1):
        h[..., a - 1] = np.maximum(s[..., a - 1], 0.0) ** (1.0 / a)
    return h


def phi_invariants(xi) -> tuple:
    """(r, s) with r = xi xi* and s = |xi xi'|^2 / r^2 (s := 0 at xi = 0)."""
    xi = np.asarray(xi, dtype=np.complex128)
    r = np.sum(np.abs(xi) ** 2, axis=-1)
    p = np.abs(np.sum(xi * xi, axis=-1))
    s = np.divide(p * p, r * r, out=np.zeros_like(r), where=r > 0.0)
    return r, np.clip(s, 0.0, 1.0)


def eval_phi_norm_many(spec: PhiFamilySpec, xis, normalization: float = 1.0) -> np.ndarray:
    r, s = phi_invariants(xis)
    return normalization * r * np.asarray(spec.value(s), dtype=float)


# ---------------------------------------------------------------------------
# certification


def orthant_grid(k: int) -> np.ndarray:
    """Strictly positive sample points covering the unit simplex in R^k."""
    if k == 1:
        return np.linspace(0.05, 1.0, ORTHANT_TICKS)[:, None]
    ticks = np.linspace(0.02, 1.0, ORTHANT_TICKS)
    mesh = np.meshgrid(*([ticks] * k), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return pts / np.sum(pts, axis=-1, keepdims=True)


@functools.lru_cache(maxsize=METRIC_MEMO)
def certify_scc(spec: GFamilySpec) -> Certificate:
    """Gradient strictly positive and Hessian PSD at every orthant_grid point.

    The worst margin is the first minimum in point order, the gradient check
    before the Hessian check at each point.  The certificate depends on the
    family alone, so it is memoized on it (GFamilySpec equality); its
    witness is read-only.
    """
    grid = orthant_grid(spec.k)
    hess = hess_rows(spec, grid)
    margins = np.stack([
        np.min(grad_rows(spec, grid), axis=-1) - STRICT_MARGIN,
        numkernel.eigvalsh_batch(hess.astype(np.complex128))[:, -1]
        + STRICT_MARGIN,
    ], axis=-1).ravel()
    margins[np.isnan(margins)] = np.inf  # a NaN margin never counts as worst
    i = int(np.argmin(margins))
    worst = float(margins[i])
    passed = worst >= 0.0
    if passed:
        return Certificate(True, worst, None, None)
    witness = grid[i // 2]
    witness.flags.writeable = False  # the memo hands it to every caller
    return Certificate(False, worst, witness,
                       ("gradient_positivity", "hessian_psd")[i % 2])


@functools.lru_cache(maxsize=METRIC_MEMO)
def certify_sn(spec: PhiFamilySpec) -> Certificate:
    """Two positivity conditions on phi over SN_TICKS points of [0, 1].

    Memoized on the family as certify_scc is; the witness is read-only.
    """
    s = np.linspace(0.0, 1.0, SN_TICKS)
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
    if worst >= 0.0:
        return Certificate(True, worst, None, None)
    witness.flags.writeable = False  # the memo hands it to every caller
    return Certificate(False, worst, witness, failed)


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


def simplex_grid(dim: int, total: float = 1.0):
    """Dense ordered grid on {y_1 >= ... >= y_dim >= 0, sum y = total}.

    Returns the (P, dim) profiles and their spacing total / resolution, with
    a resolution of 200 units up to dim 2 and 60 above; the integer
    compositions behind them are built once per dim.
    """
    resolution = 200 if dim <= 2 else 60
    step = total / resolution
    if dim == 1:
        return np.array([[float(total)]]), step
    return _composition_units(dim, resolution) * step, step


def mass_moves(pairs) -> Callable:
    """Pattern-search moves that shift `step` of mass from coordinate j to i.

    pairs lists the allowed (i, j), i != j, in the order candidates are tried
    (the first of equal candidates wins).  A candidate is feasible while its
    coordinate j stays >= 0.
    """
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    to, frm = pairs[:, 0], pairs[:, 1]
    which = np.arange(len(pairs))

    def moves(y, step):
        cands = np.repeat(y[None], len(pairs), axis=0)
        cands[which, :, to] += step
        cands[which, :, frm] -= step
        return cands, cands[which, :, frm] >= 0.0

    return moves


def polish_many(fn_batch: Callable, y0, sign, step, moves: Callable = None):
    """Row-wise pattern search: each row of y0 (R, d) climbs sign * fn alone.

    A row tries the candidates moves(y, step) proposes for it and takes the
    best if that beats its value by more than POLISH_GAIN; otherwise it
    halves its own step, and it stops once its step is <= POLISH_TOL.  moves
    maps rows (A, d) and their steps (A,) to candidates (C, A, d) and a
    feasibility mask (C, A); infeasible candidates are not evaluated and
    never win.  The default moves shift mass between any two coordinates
    (mass_moves).
    sign and step are scalars or one per row.  Returns (y, fn(y)) row by row.

    Halving ladder: one round tries a row's step and every halving of it
    above POLISH_TOL in one fn_batch call, and resumes at the largest step that
    gains; a row that gains at none stops.  This accepts the same moves in
    the same order as one round per halving, bit for bit: y does not change
    across failed halvings, step * 2**-l is exactly l halvings, argmax keeps
    the first of equal candidates at every step, and fn_batch values each
    row independently of the others.  The failed halvings down to POLISH_TOL
    cost one call instead of one each.
    """
    y = np.array(y0, dtype=float)
    rows = len(y)
    if moves is None:
        dim = y.shape[-1]
        moves = mass_moves([(i, j) for i in range(dim) for j in range(dim)
                            if i != j])
    sign = np.broadcast_to(np.asarray(sign, dtype=float), (rows,))
    step = np.array(np.broadcast_to(np.asarray(step, dtype=float), (rows,)))
    best = np.array(fn_batch(y), dtype=float)
    active = np.flatnonzero(step > POLISH_TOL)
    while active.size:
        # (A, L): each row's step and its halvings, largest first
        halvings = np.arange(int(np.log2(step[active].max() / POLISH_TOL)) + 2)
        levels = np.ldexp(step[active][:, None], -halvings)
        live = levels > POLISH_TOL
        at_row, at_level = np.nonzero(live)
        tried = active[at_row]
        cands, feasible = moves(y[tried], levels[at_row, at_level])
        if not len(cands):
            break  # no moves at all: no row can improve
        f = np.full(feasible.shape, -np.inf)
        if feasible.any():
            f[feasible] = np.broadcast_to(sign[tried], f.shape)[feasible] \
                * np.asarray(fn_batch(cands[feasible]), dtype=float)
        b = np.argmax(f, axis=0)
        fb = f[b, np.arange(tried.size)]
        gains = np.zeros(live.shape, dtype=bool)
        gains[live] = fb > sign[tried] * best[tried] + POLISH_GAIN
        depth = live.sum(axis=1)
        up = gains.any(axis=1)
        # resume at the first gaining level, or stop at the first <= POLISH_TOL
        first = np.where(up, np.argmax(gains, axis=1), depth)
        cols = (np.cumsum(depth) - depth + np.minimum(first, depth - 1))[up]
        moved = active[up]
        y[moved] = cands[b[cols], cols]
        best[moved] = sign[moved] * fb[cols]
        step[active] = np.ldexp(levels[:, 0], -first)
        active = active[step[active] > POLISH_TOL]
    return y, best


def simplex_scan(fn_batch: Callable, dim: int, total: float = 1.0):
    """Extremize fn over {y_1 >= ... >= y_dim >= 0, sum y = total}.

    fn_batch maps an array (P, dim) of profiles to (P,) values.  Dense ordered
    grid (simplex_grid) plus a pattern-search polish of the best grid point
    at each end, both ends as two rows of one polish_many call.  On the
    matrix types the polish rarely leaves the grid point, so its halving
    ladder ends it in about one round.  Returns ((ymin, fmin), (ymax, fmax)).
    """
    if dim == 1:
        y = np.array([[total]])
        f = float(fn_batch(y)[0])
        return (y[0], f), (y[0], f)
    y_grid, step = simplex_grid(dim, total)
    vals = np.asarray(fn_batch(y_grid), dtype=float)
    starts = y_grid[[int(np.argmin(vals)), int(np.argmax(vals))]]
    y, f = polish_many(fn_batch, starts, np.array([-1.0, 1.0]), step)
    return (y[0], float(f[0])), (y[1], float(f[1]))
