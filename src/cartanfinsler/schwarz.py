"""Gauge (Carathéodory) metric, the 4/K sandwich, and Schwarz-type bounds.

The gauge metric F_C(Z; V) = gauge(dphi_Z V) pulls a tangent back to the
origin with the normalizing automorphism phi_Z and measures it with the
domain's Minkowski gauge.  For the matrix domains the pullback at the base
point is V -> A V D, with A and D the roots of the normalizing map itself
(automorphisms._matrix_roots), so F_C^2 is the top eigenvalue of W W* for
W = A V D; on the Lie ball it pushes V through phi_Z and takes the gauge.
Both reduce to the plain gauge at 0.

Against any invariant metric F with curvature pinched in [-K1, -K2] the
gauge satisfies the two-sided bound

    (4/K1) F_C^2  <=  F^2  <=  (4/K2) F_C^2,

and holomorphic maps obey F_2(f(Z); df V) <= sqrt(K1/K2) F_1(Z;V); this
module samples both statements.  The map corpus that probes the latter
(generate_maps) holds only maps into their target by construction, so no
corpus map is tested for range and every image it gives is evidence.
"""
from dataclasses import dataclass

import numpy as np

from .errors import StructureError
from . import automorphisms as am
from . import domains
from . import numkernel
from .numkernel import matmul
from .curvature import CurvatureReport, lie_representative
from .domains import DomainSpec
from .metrics import MetricSpec, eval2_many

CORPUS_RHO = 0.8


@dataclass(frozen=True)
class SandwichReport:
    worst_lower: float   # min over samples of (F^2 - (4/K1) F_C^2) / F^2
    worst_upper: float   # min over samples of ((4/K2) F_C^2 - F^2) / F^2
    eq_lower: float      # relative residual at the K1 extremizer
    eq_upper: float      # relative residual at the K2 extremizer
    witness_lower: tuple  # (Z, V, F^2, F_C^2) at the worst lower sample
    witness_upper: tuple  # the same at the worst upper sample


@dataclass(frozen=True)
class SchwarzReport:
    bound: float         # sqrt(K1/K2)
    min_margin: float    # min of bound*F1 - f*F2
    min_margin_rel: float
    sup_ratio: float     # max of (f*F2)/F1 over the samples
    witness: tuple       # (Z, V, F1, F2) at the worst relative margin


# ---------------------------------------------------------------------------
# gauge metric


def caratheodory_many(spec: DomainSpec, zs, vs) -> np.ndarray:
    """F_C(Z;V) over stacks of points and tangents.

    No membership test of its own: on the matrix types a point whose gram
    is not positive definite raises DomainError from the roots, and on the
    Lie ball a point that contains_many does not admit raises DomainError
    from normalizing_automorphism.
    """
    zs = np.asarray(zs, dtype=np.complex128)
    vs = np.asarray(vs, dtype=np.complex128)
    if spec.kind == "IV":
        _, ws = am.push(am.normalizing_automorphism(spec, zs), zs, vs)
        return domains.minkowski_gauge_many(spec, ws)
    # the normalizing map's roots A = P^{1/2} and D = Q^{1/2}; W = A V D is
    # m x n with m <= n, so W W* is the smaller gram
    a, d = am._matrix_roots(spec, zs)
    return np.sqrt(numkernel.gram_top(matmul(matmul(a, vs), d)))


# ---------------------------------------------------------------------------
# sandwich


def _profile_tangent(spec: DomainSpec, profile) -> np.ndarray:
    """Embed a singular-value (or [s]) profile as a concrete origin tangent."""
    profile = np.asarray(profile, dtype=float)
    if spec.kind == "IV":
        reps = lie_representative(profile[0])
        if spec.dims[0] > 2:
            reps = np.concatenate([reps, np.zeros(spec.dims[0] - 2)])
        return reps
    out = np.zeros(spec.ambient_shape, dtype=np.complex128)
    if spec.kind == "III":
        for i, d in enumerate(profile):
            out[2 * i, 2 * i + 1] = d
            out[2 * i + 1, 2 * i] = -d
    else:
        for i, d in enumerate(profile):
            out[i, i] = d
    return out


def verify_sandwich(metric: MetricSpec, bounds: CurvatureReport,
                    n_samples: int = 10_000, seed: int = 0) -> SandwichReport:
    """Sample the two-sided gauge bound and probe tightness at extremizers.

    bounds: the metric's curvature report; K1, K2 and the extremizing
    profiles are read from it.  Returns the four residuals and the worst
    sample of each side; the caller decides the verdict.
    """
    spec = metric.domain
    k1, k2 = bounds.k1, bounds.k2
    rng = np.random.default_rng(seed)
    zs, vs = domains.draw_grid([
        domains.Points(spec, rng.integers(2**63, size=n_samples)),
        domains.Tangents(spec, rng.integers(2**63, size=n_samples))])
    f2 = eval2_many(metric, zs, vs)
    fc2 = caratheodory_many(spec, zs, vs) ** 2
    lower = (f2 - (4.0 / k1) * fc2) / f2
    upper = ((4.0 / k2) * fc2 - f2) / f2
    i, j = int(np.argmin(lower)), int(np.argmin(upper))

    origin = np.zeros(spec.ambient_shape, dtype=np.complex128)
    v_min = _profile_tangent(spec, bounds.argmin_profile)
    v_max = _profile_tangent(spec, bounds.argmax_profile)
    f2_min = eval2_many(metric, origin, v_min)
    f2_max = eval2_many(metric, origin, v_max)
    g_min = domains.minkowski_gauge(spec, v_min) ** 2
    g_max = domains.minkowski_gauge(spec, v_max) ** 2
    eq_lower = float(abs(f2_min - (4.0 / k1) * g_min) / f2_min)
    eq_upper = float(abs(f2_max - (4.0 / k2) * g_max) / f2_max)
    return SandwichReport(float(lower[i]), float(upper[j]), eq_lower, eq_upper,
                          (zs[i], vs[i], float(f2[i]), float(fc2[i])),
                          (zs[j], vs[j], float(f2[j]), float(fc2[j])))


# ---------------------------------------------------------------------------
# holomorphic map corpus


def _pad_compatible(source: DomainSpec, target: DomainSpec) -> bool:
    if source.kind == "IV" or target.kind == "IV":
        return False
    sm, sn = source.ambient_shape
    tm, tn = target.ambient_shape
    if sm > tm or sn > tn:
        return False
    if target.kind == "I":
        return True  # any matrix class includes into the rectangle
    # symmetric/skew targets need the same symmetry from the source
    return source.kind == target.kind


def _corpus_kinds(source: DomainSpec, target: DomainSpec):
    kinds = ["constant", "slice"]
    if source == target:
        kinds += ["auto", "chain", "contract"]
        shape = source.ambient_shape
        if len(shape) == 2 and shape[0] == shape[1]:
            kinds += ["poly"]  # Z^d needs a square Z
    if source != target and _pad_compatible(source, target):
        kinds += ["pad", "pad_contract"]
    return kinds


def _random_unitary(n, rng):
    return am._haar_unitary(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))


def _contraction_body(spec: DomainSpec, rng) -> object:
    rho = CORPUS_RHO * float(rng.uniform(0.5, 1.0))
    if spec.kind == "IV":
        theta = float(rng.uniform(0.0, 2 * np.pi))
        d = am._haar_orthogonal(rng.standard_normal((spec.dims[0],) * 2))
        return am.VectorLinear(rho * np.exp(1j * theta), d)
    mdim, ndim = spec.ambient_shape
    if spec.kind == "I":
        return am.SandwichScale(
            rho * _random_unitary(mdim, rng), _random_unitary(ndim, rng)
        )
    a = np.sqrt(rho) * _random_unitary(mdim, rng)
    return am.SandwichScale(a, a.T)  # A Z A' keeps the symmetry class


def _polynomial_body(spec: DomainSpec, rng) -> object:
    """sum_d c_d Z^d, its coefficients divided by max(1, sum |c_d|): then
    ||p(Z)|| <= sum |c_d| ||Z||^d <= ||Z|| < 1, so p maps into the domain."""
    degrees = (1, 3) if spec.kind == "III" else (1, 2, 3)
    coeffs = []
    for d in degrees:
        if rng.uniform() < 0.7:
            c = 0.2 * (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
            coeffs.append((d, complex(c)))
    if not coeffs:
        coeffs = [(1, 0.5 + 0.0j)]
    total = max(1.0, sum(abs(c) for _, c in coeffs))
    return am.MatrixPolynomial(tuple((d, c / total) for d, c in coeffs))


def generate_maps(source: DomainSpec, target: DomainSpec, seed: int = 0,
                  count: int = 50):
    """count holomorphic maps source -> target, each into target by
    construction.

    The identity leads when source == target; attempt a makes the next map,
    of kind _corpus_kinds[a mod len].  default_rng(seed) gives one seed per
    attempt, and a contraction or polynomial body (and a slice's entry)
    draws from the rng too, in attempt order.  Then one domains.draw_grid
    call draws the constants and slice tangents on target and the auto/chain
    automorphisms on source, with their isotropy draws.  No kind leaves
    target: constants are target points, slices and contractions have gauge
    < CORPUS_RHO, paddings keep the gauge, automorphisms and chains keep the
    domain, and polynomials have sum |c_d| <= 1 (_polynomial_body).
    """
    rng = np.random.default_rng(seed)
    maps = [am.identity_map(source)] if source == target else []
    kinds = _corpus_kinds(source, target)
    plan = []  # (kind, seed, slice entry or rng-drawn body)
    for a in range(count - len(maps)):
        kind = kinds[a % len(kinds)]
        s = int(rng.integers(2**63))
        extra = None
        if kind == "slice":
            if source.kind == "IV":
                extra = (int(rng.integers(source.dims[0])),)
            else:
                sm, sn = source.ambient_shape
                extra = (int(rng.integers(sm)), int(rng.integers(sn)))
        elif kind in ("chain", "contract"):
            extra = _contraction_body(source, rng)
        elif kind == "poly":
            extra = _polynomial_body(source, rng)
        elif kind == "pad_contract":
            extra = _contraction_body(target, rng)
        plan.append((kind, s, extra))

    seeds_of = lambda *names: [s for kind, s, _ in plan if kind in names]
    auto_seeds = seeds_of("auto", "chain")
    constants, slices, *auto_draws = domains.draw_grid(
        [domains.Points(target, seeds_of("constant")),
         domains.Tangents(target, seeds_of("slice"))]
        + am.automorphism_parts(source, auto_seeds))
    gauges = domains.minkowski_gauge_many(target, slices)
    slices = CORPUS_RHO * (slices / gauges.reshape((-1,) + (1,) * (slices.ndim - 1)))
    stack = am.automorphisms_from(source, *auto_draws) if auto_seeds else None
    autos = (am._map_slice(stack, i) for i in range(len(auto_seeds)))
    constants, slices = iter(constants), iter(slices)

    for kind, _, extra in plan:
        if kind == "constant":
            m = am.HoloMap(source, target, am.ConstantMap(next(constants)))
        elif kind == "slice":
            m = am.HoloMap(source, target, am.ScalarSlice(extra, next(slices)))
        elif kind == "auto":
            m = next(autos)
        elif kind == "chain":
            m = am.compose(am.HoloMap(source, target, extra), next(autos))
        elif kind in ("contract", "poly"):
            m = am.HoloMap(source, target, extra)
        elif kind == "pad":
            m = am.HoloMap(source, target, am.PadEmbed())
        else:  # pad_contract
            m = am.compose(am.HoloMap(target, target, extra),
                           am.HoloMap(source, target, am.PadEmbed()))
        maps.append(m)
    return maps[:count]  # count 0 drops the identity


# ---------------------------------------------------------------------------
# the Schwarz inequality harness


def draw_samples(spec: DomainSpec, seeds, n_samples: int = 100):
    """The (zs, vs) of n_samples points and tangents at each seed, stacked.

    Both have shape (len(seeds), n_samples) + ambient shape: row i holds the
    n_samples points and tangents at seed seeds[i], so a corpus passes one
    row per map to schwarz_check.  Every row comes from one
    domains.draw_grid call.
    """
    items = np.array([np.random.default_rng(int(s)).integers(2**63, size=(2, n_samples))
                      for s in seeds], dtype=np.int64).reshape(-1, 2, n_samples)
    shape = (len(items), n_samples) + spec.ambient_shape
    zs, vs = domains.draw_grid([domains.Points(spec, items[:, 0].reshape(-1)),
                                domains.Tangents(spec, items[:, 1].reshape(-1))])
    return zs.reshape(shape), vs.reshape(shape)


def schwarz_check(maps, metric1: MetricSpec, metric2: MetricSpec,
                  k1: float, k2: float, zs, vs):
    """Margins of sqrt(K1/K2) * F1 - f*F2 over sampled (Z;V), one report per map.

    zs and vs are the (maps, n_samples) + ambient stacks of draw_samples,
    row i for map i.  Each map makes one push of its samples; F1 over every
    sample and F2 over every image take one eval2_many call each.  An image
    outside the target raises DomainError from eval2_many, as a map that is
    not into its target is no evidence.  Each report carries the worst
    relative margin and its sample; the caller decides the verdict.
    """
    for f in maps:
        if f.source != metric1.domain or f.target != metric2.domain:
            raise StructureError("map endpoints do not match the metric domains")
    bound = float(np.sqrt(k1 / k2))
    zs = np.asarray(zs, dtype=np.complex128)
    vs = np.asarray(vs, dtype=np.complex128)
    f1 = np.sqrt(eval2_many(metric1, zs, vs))
    pushed = [am.push(f, z, v) for f, z, v in zip(maps, zs, vs, strict=True)]
    imgs, dvs = (np.stack(x) for x in zip(*pushed))
    f2 = np.sqrt(np.maximum(eval2_many(metric2, imgs, dvs), 0.0))
    margins = bound * f1 - f2
    rel = margins / f1
    reports = []
    for row in range(len(maps)):
        i = int(np.argmin(rel[row]))
        reports.append(SchwarzReport(
            bound=bound,
            min_margin=float(np.min(margins[row])),
            min_margin_rel=float(rel[row, i]),
            sup_ratio=float(np.max(f2[row] / f1[row])),
            witness=(zs[row, i], vs[row, i], float(f1[row, i]), float(f2[row, i])),
        ))
    return reports
