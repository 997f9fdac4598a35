"""Gauge (Carathéodory) metric, the 4/K sandwich, and Schwarz-type bounds.

The gauge metric F_C(Z; V) = gauge(dphi_Z V) pulls a tangent back to the
origin with the normalizing automorphism phi_Z and measures it with the
domain's Minkowski gauge.  On the matrix domains W = dphi_Z V = A V D* for
the roots A = C*, D = R* (the normalizing map's) of the Cholesky factors
P = C C*, Q = R R* of the metrics' own frame (metrics.frame_roots); F_C^2 is
the top eigenvalue of W W*, whose spectrum is that of M = P V Q V*.  On the
Lie ball dphi_Z is B(Z, Z)^(-1/2) up to isotropy, so W = V M^(1/2) / Delta in
the Peirce frame (domains.lie_frame).  On every type the sandwich reads F^2
from the same W, and both reduce to the plain gauge at 0.

Against any invariant metric F with curvature pinched in [-K1, -K2] the
gauge satisfies the two-sided bound

    (4/K1) F_C^2  <=  F^2  <=  (4/K2) F_C^2,

and holomorphic maps obey F_2(f(Z); df V) <= sqrt(K1/K2) F_1(Z;V); this
module samples both statements.  The map corpus that probes the latter
(generate_maps) holds only maps into their target by construction, so no
corpus map is tested for range and every image it gives is evidence.
"""
import functools
from dataclasses import dataclass

import numpy as np

from .errors import StructureError
from . import automorphisms as am
from . import curvature
from . import domains
from . import norms
from . import numkernel
from .numkernel import matmul
from .curvature import lie_representative
from .domains import DomainSpec
from .metrics import MetricSpec, eval2_many, frame_roots, power_ladder, trace_f2

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


def _pulled_back(spec: DomainSpec, zs, vs) -> np.ndarray:
    """W = dphi_Z V: A V D* (frame_roots) on types I-III, V M^(1/2) / Delta
    (domains.lie_frame) on the Lie ball."""
    if spec.kind == "IV":
        frame = domains.lie_frame(zs)
        return frame.times_m(vs, 0.5) / frame.delta[..., None]
    a, d = frame_roots(spec, zs)
    return matmul(matmul(a, vs), np.conj(np.swapaxes(d, -1, -2)))


def caratheodory_many(spec: DomainSpec, zs, vs) -> np.ndarray:
    """F_C(Z;V) = gauge(dphi_Z V) over stacks of points and tangents.

    A non-finite point or tangent raises NumericError.  No membership test
    of its own: a point that is not interior raises DomainError from its
    frame, on the matrix types where the gram is not positive definite and
    on the Lie ball where l1 >= 1 (domains.lie_frame).
    """
    zs = domains._finite(np.asarray(zs, dtype=np.complex128))
    vs = domains._finite(np.asarray(vs, dtype=np.complex128))
    return domains.minkowski_gauge_many(spec, _pulled_back(spec, zs, vs))


def _gauge_sides(metric: MetricSpec, zs, vs):
    """(F^2, F_C^2) at (Z;V), or at 0 (W = V) for zs None.  Types I-III: F^2 from
    the power traces of W W* (those of M) and gram_top(W); Lie ball: the origin
    norm of W (norms.eval_phi_norm_many) and gauge(W)^2."""
    spec = metric.domain
    ws = vs if zs is None else _pulled_back(spec, zs, vs)
    if spec.kind == "IV":
        return (norms.eval_phi_norm_many(metric.family, ws, metric.normalization),
                domains.minkowski_gauge_many(spec, ws) ** 2)
    gram = matmul(ws, np.conj(np.swapaxes(ws, -1, -2)))
    return trace_f2(metric, power_ladder(gram, metric.family.k)[1])[0], numkernel.gram_top(ws)


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


@functools.lru_cache(maxsize=norms.METRIC_MEMO)
def _equality_residuals(metric: MetricSpec):
    """(K1, K2, eq_lower, eq_upper): the metric's curvature bounds and the
    relative residuals |F^2 - (4/K) F_C^2| / F^2 of the sandwich at the
    origin, at the K1 and at the K2 extremal profile of curvature_bounds.

    The extremizers, hence the residuals, depend only on the metric, so a
    process computes them once per metric (norms.METRIC_MEMO entries).  The
    two probes are one stack of two at W = V, with no frame.
    """
    spec = metric.domain
    bounds = curvature.curvature_bounds(metric)
    k1, k2 = bounds.k1, bounds.k2
    probes = np.stack([_profile_tangent(spec, bounds.argmin_profile),
                       _profile_tangent(spec, bounds.argmax_profile)])
    f2_eq, g_eq = _gauge_sides(metric, None, probes)
    eq_lower, eq_upper = (abs(f2_eq - (4.0 / np.array([k1, k2])) * g_eq) / f2_eq).tolist()
    return k1, k2, eq_lower, eq_upper


def verify_sandwich(metric: MetricSpec, n_samples: int = 10_000,
                    seed: int = 0) -> SandwichReport:
    """Sample the two-sided gauge bound and probe tightness at extremizers.

    K1, K2 and the two equality residuals come from one memo,
    _equality_residuals, so the margins and the probes read the same bounds.
    Both sides of a sample come from one W = dphi_Z V (_gauge_sides): one
    frame for the samples.  Returns the four residuals and the worst sample
    of each side; the caller decides the verdict.
    """
    spec = metric.domain
    zs, vs = domains.draw_grid(seed, "sandwich", [
        domains.Points(spec, n_samples), domains.Tangents(spec, n_samples)])
    f2, fc2 = _gauge_sides(metric, zs, vs)
    k1, k2, eq_lower, eq_upper = _equality_residuals(metric)
    lower = (f2 - (4.0 / k1) * fc2) / f2
    upper = ((4.0 / k2) * fc2 - f2) / f2
    i, j = int(np.argmin(lower)), int(np.argmin(upper))
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


def _contractions(spec: DomainSpec, isotropy, u) -> object:
    """One stacked contraction body: the Haar rotations of an isotropy part's
    draws (automorphisms._isotropy_body) scaled by rho = CORPUS_RHO (1 + u) / 2
    for the uniforms u, so each map multiplies the gauge by rho < CORPUS_RHO."""
    rho = CORPUS_RHO * 0.5 * (1.0 + u[:, 0])
    body = am._isotropy_body(spec, *isotropy)
    if spec.kind == "IV":
        return am.VectorLinear(rho * body.alpha, body.d)
    root = np.sqrt(rho)[:, None, None]
    # root A Z D root keeps the symmetry class of types II and III
    return am.SandwichScale(root * body.left, root * body.right)


def _polynomial_body(spec: DomainSpec, normals, u) -> object:
    """sum_d c_d Z^d from one item of a Gaussians(n, 6, 3) part: the k-th
    degree is kept when u[k] < 0.7, with c = 0.2 (normals[2k] + i
    normals[2k+1]) / sqrt 2.  The coefficients are divided by
    max(1, sum |c_d|): then ||p(Z)|| <= sum |c_d| ||Z||^d <= ||Z|| < 1, so p
    maps into the domain."""
    degrees = (1, 3) if spec.kind == "III" else (1, 2, 3)
    coeffs = [(d, complex(0.2 * (normals[2 * k] + 1j * normals[2 * k + 1]) / np.sqrt(2)))
              for k, d in enumerate(degrees) if u[k] < 0.7]
    if not coeffs:
        coeffs = [(1, 0.5 + 0.0j)]
    total = max(1.0, sum(abs(c) for _, c in coeffs))
    return am.MatrixPolynomial(tuple((d, c / total) for d, c in coeffs))


def _corpus_parts(source: DomainSpec, target: DomainSpec, plan) -> list:
    """The domains.draw_grid parts of the corpus attempts whose kinds plan
    lists, in order: constant points and slice tangents on target, a uniform
    per axis of each slice entry, the auto and chain automorphisms on
    source, the isotropy draws and a uniform of each contraction (chain,
    contract and pad_contract; on source when it is target, on target
    else), and six normals and three uniforms per polynomial."""
    count = lambda *names: sum(kind in names for kind in plan)
    n_slice, n_contract = count("slice"), count("chain", "contract", "pad_contract")
    contracted = source if source == target else target
    return ([domains.Points(target, count("constant")), domains.Tangents(target, n_slice),
             domains.Gaussians(n_slice, 0, len(source.ambient_shape))]
            + am.automorphism_parts(source, count("auto", "chain"))
            + [am._isotropy_part(contracted, n_contract), domains.Gaussians(n_contract, 0, 1),
               domains.Gaussians(count("poly"), 6, 3)])


def generate_maps(source: DomainSpec, target: DomainSpec, seed: int = 0,
                  count: int = 50):
    """count holomorphic maps source -> target, each into target by
    construction.

    The identity leads when source == target; attempt a makes the next map,
    of kind _corpus_kinds[a mod len].  One domains.draw_grid(seed, "corpus")
    call draws the data of every attempt (_corpus_parts), and the k-th
    attempt that draws from a part reads its item k.  No kind leaves target:
    constants are target points, slices and contractions have gauge
    < CORPUS_RHO, paddings keep the gauge, automorphisms and chains keep the
    domain, and polynomials have sum |c_d| <= 1 (_polynomial_body).
    """
    maps = [am.identity_map(source)] if source == target else []
    kinds = _corpus_kinds(source, target)
    plan = [kinds[a % len(kinds)] for a in range(count - len(maps))]
    (constants, slices, (_, entries), *auto_draws, contract_isotropy, (_, rho_u),
     (poly_normals, poly_u)) = domains.draw_grid(seed, "corpus",
                                                 _corpus_parts(source, target, plan))
    gauges = domains.minkowski_gauge_many(target, slices)
    slices = CORPUS_RHO * (slices / gauges.reshape((-1,) + (1,) * (slices.ndim - 1)))
    entries = (entries * source.ambient_shape).astype(int).tolist()
    n_auto, n_contract = len(auto_draws[0]), len(rho_u)
    auto_stack = am.automorphisms_from(source, *auto_draws) if n_auto else None
    autos = (am._map_slice(auto_stack, i) for i in range(n_auto))
    contracted = source if source == target else target
    contract_stack = am.HoloMap(contracted, contracted, _contractions(
        contracted, contract_isotropy, rho_u)) if n_contract else None
    contractions = (am._map_slice(contract_stack, i).body for i in range(n_contract))
    polys = (_polynomial_body(source, x, u) for x, u in zip(poly_normals, poly_u))
    constants, slices, entries = iter(constants), iter(slices), iter(entries)

    for kind in plan:
        if kind == "constant":
            m = am.HoloMap(source, target, am.ConstantMap(next(constants)))
        elif kind == "slice":
            m = am.HoloMap(source, target, am.ScalarSlice(tuple(next(entries)), next(slices)))
        elif kind == "auto":
            m = next(autos)
        elif kind == "chain":
            m = am.compose(am.HoloMap(source, target, next(contractions)), next(autos))
        elif kind == "contract":
            m = am.HoloMap(source, target, next(contractions))
        elif kind == "poly":
            m = am.HoloMap(source, target, next(polys))
        elif kind == "pad":
            m = am.HoloMap(source, target, am.PadEmbed())
        else:  # pad_contract
            m = am.compose(am.HoloMap(target, target, next(contractions)),
                           am.HoloMap(source, target, am.PadEmbed()))
        maps.append(m)
    return maps[:count]  # count 0 drops the identity


# ---------------------------------------------------------------------------
# the Schwarz inequality harness


def draw_samples(spec: DomainSpec, seed: int, n_maps: int, n_samples: int = 100):
    """The (zs, vs) of n_samples points and tangents for each of n_maps maps.

    Both have shape (n_maps, n_samples) + ambient shape, so a corpus passes
    one row per map to schwarz_check.  They are the two parts of one
    domains.draw_grid(seed, "schwarz_samples") call, reshaped.
    """
    shape = (n_maps, n_samples) + spec.ambient_shape
    zs, vs = domains.draw_grid(seed, "schwarz_samples", [
        domains.Points(spec, n_maps * n_samples), domains.Tangents(spec, n_maps * n_samples)])
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
