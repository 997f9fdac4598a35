"""Command-line front end driven by JSON run configs.

One config describes one domain, one metric, and one task; the subcommand
selects the task and must agree with the config's ``task`` field when both
are present.  Reports are deterministic under a fixed seed — rerunning the
same config reproduces the structured output byte for byte.

Exit codes: 0 all verdicts pass, 1 a verified violation (witness included in
the report), 2 configuration or numeric failure.
"""

import argparse
import csv
import io
import json
import math
import operator
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, curvature, domains, metrics, norms, schwarz
from .domains import DomainSpec
from .errors import ConfigError, DomainError, NumericError, StructureError
from .metrics import MetricSpec

TASKS = ("eval", "certify", "curvature", "sandwich", "schwarz")
FAMILIES = ("bergman", "tk", "affine", "constant")

TOLERANCE_FLOOR = 1e-14
DEFAULT_TOLERANCES = {
    "invariance": 1e-9,
    "mixed": 1e-6,
    "connection": 1e-6,
    "curvature_slack": 1e-7,
    "sandwich_slack": 1e-8,
    "sandwich_equality": 1e-4,
    "schwarz_slack": 1e-8,
}
DEFAULT_SAMPLES = {
    "eval": 100,
    "certify": 100,
    "curvature": 10_000,
    "sandwich": 10_000,
    "schwarz": 100,
}


@dataclass(frozen=True)
class RunConfig:
    task: str
    domain: DomainSpec
    metric: MetricSpec
    target_domain: Optional[DomainSpec]
    target_metric: Optional[MetricSpec]
    seed: int
    samples: int
    maps: int
    tolerances: dict
    points: tuple


@dataclass(frozen=True)
class RunReport:
    task: str
    verdict: str            # "pass" or "violation"
    summary: dict
    table: list             # rows with a common key set
    provenance: dict


# ---------------------------------------------------------------------------
# config parsing

_DOMAIN_KEYS = {"I": ("m", "n"), "II": ("m",), "III": ("m",), "IV": ("n",)}
_METRIC_KEYS = {
    "bergman": {"family", "scale"},
    "tk": {"family", "t", "k", "scale"},
    "affine": {"family", "t", "scale"},
    "constant": {"family", "c", "scale"},
}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_domain(node, path, errs):
    if not isinstance(node, dict):
        errs.append(f"{path}: expected an object")
        return None
    kind = node.get("type")
    if not isinstance(kind, str) or kind.upper() not in _DOMAIN_KEYS:
        errs.append(f"{path}.type: expected one of I, II, III, IV, got {kind!r}")
        return None
    kind = kind.upper()
    extra = sorted(set(node) - {"type", *_DOMAIN_KEYS[kind]})
    if extra:
        errs.extend(f"{path}.{key}: unexpected key for type {kind}"
                    for key in extra)
        return None
    dims = []
    for key in _DOMAIN_KEYS[kind]:
        val = node.get(key)
        if not _is_int(val) or val < 1:
            errs.append(f"{path}.{key}: positive integer required, got {val!r}")
            return None
        dims.append(val)
    try:
        return DomainSpec(kind, tuple(dims))
    except StructureError as exc:
        errs.append(f"{path}: {exc}")
        return None


def _parse_metric(node, spec, path, errs):
    if not isinstance(node, dict):
        errs.append(f"{path}: expected an object")
        return None
    family = node.get("family")
    if family not in FAMILIES:
        errs.append(f"{path}.family: expected one of {FAMILIES}, got {family!r}")
        return None
    extra = sorted(set(node) - _METRIC_KEYS[family])
    if extra:
        errs.extend(f"{path}.{key}: unexpected key for family {family!r}"
                    for key in extra)
        return None
    before = len(errs)
    scale = node.get("scale")
    if scale is not None and not (_is_number(scale) and scale > 0):
        errs.append(f"{path}.scale: positive number required, got {scale!r}")
    if family in ("tk", "affine"):
        t = node.get("t")
        if not (_is_number(t) and t >= 0):
            errs.append(f"{path}.t: t in [0, inf) required, got {t!r}")
    if family == "tk":
        k = node.get("k")
        if not (_is_int(k) and k >= 2):
            errs.append(f"{path}.k: integer k >= 2 required, got {k!r}")
    if family == "constant":
        c = node.get("c", 1.0)
        if not (_is_number(c) and c > 0):
            errs.append(f"{path}.c: positive number required, got {c!r}")
    if len(errs) > before or spec is None:
        return None  # the domain already failed; nothing to attach to
    try:
        if family == "bergman":
            return metrics.bergman_metric(spec, scale=scale)
        if family == "tk":
            return metrics.tk_metric(spec, float(node["t"]), node["k"], scale=scale)
        if family == "affine":
            phi = norms.affine_phi(float(node["t"]))
        else:
            phi = norms.constant_phi(float(node.get("c", 1.0)))
        return metrics.phi_metric(spec, phi, normalization=scale)
    except StructureError as exc:
        errs.append(f"{path}.family: {exc}")
        return None


def _complex_array(node, shape, path, errs):
    """Decode a complex array given as nested lists with [re, im] leaves."""
    try:
        data = np.asarray(node, dtype=float)
    except (TypeError, ValueError):
        errs.append(f"{path}: nested [re, im] number pairs required")
        return None
    if data.shape != shape + (2,):
        errs.append(f"{path}: expected shape {shape + (2,)}, got {data.shape}")
        return None
    return data[..., 0] + 1j * data[..., 1]


def _parse_points(node, spec, path, errs):
    if not isinstance(node, list):
        errs.append(f"{path}: expected a list of objects with keys z, v")
        return ()
    out = []
    for i, entry in enumerate(node):
        if not isinstance(entry, dict) or set(entry) != {"z", "v"}:
            errs.append(f"{path}[{i}]: expected an object with keys z, v")
            continue
        z = _complex_array(entry["z"], spec.ambient_shape, f"{path}[{i}].z", errs)
        v = _complex_array(entry["v"], spec.ambient_shape, f"{path}[{i}].v", errs)
        if v is not None and not np.any(v):
            errs.append(f"{path}[{i}].v: tangent must be nonzero (F(z; 0) = 0)")
        elif z is not None and v is not None:
            out.append((z, v))
    return tuple(out)


def _parse_tolerances(node, path, errs):
    merged = dict(DEFAULT_TOLERANCES)
    if node is None:
        return merged
    if not isinstance(node, dict):
        errs.append(f"{path}: expected an object")
        return merged
    for key in sorted(node):
        if key not in DEFAULT_TOLERANCES:
            errs.append(f"{path}.{key}: unknown tolerance "
                        f"(known: {', '.join(sorted(DEFAULT_TOLERANCES))})")
            continue
        val = node[key]
        if not _is_number(val) or val <= 0:
            errs.append(f"{path}.{key}: positive number required, got {val!r}")
            continue
        merged[key] = max(float(val), TOLERANCE_FLOOR)
    return merged


def parse_config(text: str, task: str = None, seed: int = None,
                 samples: int = None) -> RunConfig:
    """Validate a JSON config document; collect all field errors before failing."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"document: not valid JSON ({exc})"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["document: top level must be an object"])

    errs = []
    known = {"task", "domain", "metric", "target_domain", "target_metric",
             "seed", "samples", "maps", "tolerances", "points"}
    for key in sorted(set(doc) - known):
        errs.append(f"{key}: unexpected key")

    cfg_task = doc.get("task", task)
    if cfg_task not in TASKS:
        errs.append(f"task: expected one of {TASKS}, got {cfg_task!r}")
        cfg_task = None
    elif task is not None and cfg_task != task:
        errs.append(f"task: config says {cfg_task!r} but the subcommand "
                    f"is {task!r}")

    dom_spec = None
    if "domain" not in doc:
        errs.append("domain: missing required key")
    else:
        dom_spec = _parse_domain(doc["domain"], "domain", errs)
    metric = None
    if "metric" not in doc:
        errs.append("metric: missing required key")
    else:
        metric = _parse_metric(doc["metric"], dom_spec, "metric", errs)

    target_dom = target_metric = None
    if "target_domain" in doc or "target_metric" in doc:
        if cfg_task is not None and cfg_task != "schwarz":
            errs.append("target_domain: only valid for the schwarz task")
        if "target_domain" in doc:
            target_dom = _parse_domain(doc["target_domain"], "target_domain", errs)
        tspec = target_dom if target_dom is not None else dom_spec
        tnode = doc.get("target_metric", doc.get("metric"))
        if tnode is not None:
            target_metric = _parse_metric(tnode, tspec, "target_metric", errs)

    seed_val = seed if seed is not None else doc.get("seed", 0)
    if not _is_int(seed_val) or not (0 <= seed_val < 2**64):
        errs.append(f"seed: integer in [0, 2^64) required, got {seed_val!r}")
        seed_val = 0
    samples_val = samples if samples is not None else doc.get("samples")
    if samples_val is None:
        samples_val = DEFAULT_SAMPLES.get(cfg_task, 100)
    if not _is_int(samples_val) or samples_val < 1:
        errs.append(f"samples: positive integer required, got {samples_val!r}")
        samples_val = 1
    maps_val = doc.get("maps", 500 if cfg_task == "schwarz" else 0)
    if cfg_task == "schwarz":
        if not _is_int(maps_val) or maps_val < 1:
            errs.append(f"maps: positive integer required, got {maps_val!r}")
            maps_val = 1
    elif "maps" in doc:
        errs.append("maps: only valid for the schwarz task")
        maps_val = 0

    tolerances = _parse_tolerances(doc.get("tolerances"), "tolerances", errs)

    points = ()
    if "points" in doc:
        if cfg_task != "eval":
            errs.append("points: only valid for the eval task")
        elif dom_spec is not None:
            points = _parse_points(doc["points"], dom_spec, "points", errs)

    if errs:
        raise ConfigError(errs)
    return RunConfig(task=cfg_task, domain=dom_spec, metric=metric,
                     target_domain=target_dom, target_metric=target_metric,
                     seed=seed_val, samples=samples_val, maps=maps_val,
                     tolerances=tolerances, points=points)


# ---------------------------------------------------------------------------
# task runners: each returns (passed, summary, table rows, drawn), where
# drawn maps each sampled check to the count it drew.  The library returns
# raw margins and witnesses; every tolerance is applied here, by holds.


_SENSES = {"<=": operator.le, ">=": operator.ge}


def holds(value, threshold, sense: str) -> bool:
    """The one verdict rule: value <= or >= threshold, as sense says; NaN fails."""
    return bool(_SENSES[sense](value, threshold))


def _gate_row(check: str, value, threshold, sense: str) -> dict:
    """A certify table row: the value, its threshold and the status holds gives."""
    return {"check": check, "value": float(value), "threshold": threshold,
            "status": "pass" if holds(value, threshold, sense) else "fail"}


def _run_eval(cfg: RunConfig):
    rows = []
    for i, (z, v) in enumerate(cfg.points):
        f2 = metrics.eval2(cfg.metric, z, v)
        rows.append({"index": i, "source": "config",
                     "f2": f2, "f": math.sqrt(f2)})
    rng = np.random.default_rng(cfg.seed)
    zs, vs = domains.draw_grid([
        domains.Points(cfg.domain, rng.integers(2**63, size=cfg.samples)),
        domains.Tangents(cfg.domain, rng.integers(2**63, size=cfg.samples))])
    f2s = metrics.eval2_many(cfg.metric, zs, vs)
    for j, f2 in enumerate(f2s):
        rows.append({"index": len(cfg.points) + j, "source": "random",
                     "f2": float(f2), "f": float(np.sqrt(f2))})
    vals = np.array([row["f"] for row in rows])
    ok = bool(np.all(np.isfinite(vals)) and np.all(vals > 0))
    summary = {"count": len(rows), "f_min": float(vals.min()),
               "f_max": float(vals.max()), "f_mean": float(vals.mean()),
               "all_finite_positive": ok}
    drawn = {"eval_points": cfg.samples}
    return ok, summary, rows, drawn


def _run_certify(cfg: RunConfig):
    family = cfg.metric.family
    if isinstance(family, norms.GFamilySpec):
        cert, cert_kind = norms.certify_scc(family), "scc"
    else:
        cert, cert_kind = norms.certify_sn(family), "sn"
    tol = cfg.tolerances
    n = min(cfg.samples, 100)
    deviation = metrics.verify_invariance(cfg.metric, n, cfg.seed)
    rows = [_gate_row(f"{cert_kind}_certificate", cert.worst_margin, 0.0, ">="),
            _gate_row("invariance_deviation", deviation, tol["invariance"], "<=")]
    cert_ok = rows[0]["status"] == "pass"
    fibers = 0
    if cert_ok:
        # connection checks assume a positive definite fundamental tensor
        kb = metrics.verify_kahler_berwald(cfg.metric, seed=cfg.seed)
        fibers = kb.fibers
        rows += [_gate_row(name, value, limit, "<=") for name, value, limit in (
            ("mixed_derivative", kb.mixed_residual, tol["mixed"]),
            ("connection_fiber_variation", kb.gamma_v_variation, tol["connection"]),
            ("connection_symmetry", kb.gamma_symmetry, tol["connection"]),
            ("connection_vs_hermitian", kb.gamma_vs_hermitian, tol["connection"]),
        )]
    ok = all(row["status"] == "pass" for row in rows)
    summary = {
        "certificate": cert_kind,
        "certificate_passed": cert_ok,
        "failed_condition": cert.failed_condition,
        "witness": None if cert.witness is None else np.asarray(cert.witness).tolist(),
        "invariance_deviation": float(deviation),
        "connection_checked": cert_ok,
    }
    drawn = {"invariance_points": n, "invariance_maps": n,
             "connection_fibers": fibers}
    return ok, summary, rows, drawn


def _run_curvature(cfg: RunConfig):
    pair_draws = min(cfg.samples, curvature.PAIR_DRAWS)
    report = curvature.curvature_bounds(cfg.metric)
    bisect_c, search = curvature.bisectional_bound(cfg.metric, report.k1,
                                                   pair_draws, cfg.seed)
    vmin, vmax = curvature.verify_curvature_range(cfg.metric, n_samples=cfg.samples,
                                                  seed=cfg.seed)
    slack = cfg.tolerances["curvature_slack"]
    # signed excesses beyond [-K1 - slack, -K2 + slack], nonpositive inside
    worst_low = float((-report.k1 - slack) - vmin)
    worst_high = float(vmax - (-report.k2 + slack))
    ok = holds(worst_low, 0.0, "<=") and holds(worst_high, 0.0, "<=")
    summary = {
        "K1": float(report.k1), "K2": float(report.k2), "lu": float(report.lu),
        "bisectional_C": float(bisect_c),
        "bisectional_search": float(search),
        "bisectional_excess": float(bisect_c / report.k1 - 1.0),
        "argmin_profile": np.asarray(report.argmin_profile).tolist(),
        "argmax_profile": np.asarray(report.argmax_profile).tolist(),
        "range_ok": ok,
    }
    rows = [{"quantity": name, "value": float(value)} for name, value in (
        ("K1", report.k1), ("K2", report.k2), ("lu", report.lu),
        ("bisectional_C", bisect_c),
        ("worst_low_excess", worst_low), ("worst_high_excess", worst_high))]
    drawn = {"bisectional_pairs": pair_draws, "range_tangents": cfg.samples}
    return ok, summary, rows, drawn


def _run_sandwich(cfg: RunConfig):
    bounds = curvature.curvature_bounds(cfg.metric)
    slack = cfg.tolerances["sandwich_slack"]
    eq_tol = cfg.tolerances["sandwich_equality"]
    report = schwarz.verify_sandwich(cfg.metric, bounds, n_samples=cfg.samples,
                                     seed=cfg.seed)
    sides = (("lower", report.worst_lower, report.witness_lower),
             ("upper", report.worst_upper, report.witness_upper))
    failed = [(side, witness) for side, margin, witness in sides
              if not holds(margin, -slack, ">=")]
    ok = (not failed and holds(report.eq_lower, eq_tol, "<=")
          and holds(report.eq_upper, eq_tol, "<="))
    summary = {
        "K1": float(bounds.k1), "K2": float(bounds.k2),
        "worst_lower_margin": float(report.worst_lower),
        "worst_upper_margin": float(report.worst_upper),
        "equality_lower": float(report.eq_lower),
        "equality_upper": float(report.eq_upper),
        "passed": ok,
    }
    if failed:
        side, (z, v, f2, fc2) = failed[0]  # the lower side first
        summary["witness"] = {"side": side, "f2": float(f2), "fc2": float(fc2),
                              "z": z, "v": v}
    rows = [{"quantity": name, "value": float(value)} for name, value in (
        ("K1", bounds.k1), ("K2", bounds.k2),
        ("worst_lower_margin", report.worst_lower),
        ("worst_upper_margin", report.worst_upper),
        ("equality_lower", report.eq_lower),
        ("equality_upper", report.eq_upper))]
    drawn = {"sandwich_points": cfg.samples}
    return ok, summary, rows, drawn


def _run_schwarz(cfg: RunConfig):
    source, metric1 = cfg.domain, cfg.metric
    target = cfg.target_domain if cfg.target_domain is not None else source
    metric2 = cfg.target_metric if cfg.target_metric is not None else metric1
    bounds1 = curvature.curvature_bounds(metric1)
    bounds2 = bounds1 if metric2 is metric1 else curvature.curvature_bounds(metric2)
    maps = schwarz.generate_maps(source, target, seed=cfg.seed, count=cfg.maps)
    seeds = np.random.default_rng(cfg.seed).integers(2**63, size=len(maps))
    zs, vs = schwarz.draw_samples(source, seeds, cfg.samples)
    reports = schwarz.schwarz_check(maps, metric1, metric2, bounds1.k1, bounds2.k2,
                                    zs, vs)
    slack = cfg.tolerances["schwarz_slack"]
    rows = [{"map_index": i, "kind": type(maps[i].body).__name__,
             "min_margin": float(r.min_margin),
             "min_margin_rel": float(r.min_margin_rel),
             "sup_ratio": float(r.sup_ratio)}
            for i, r in enumerate(reports)]
    worst = min(range(len(reports)), key=lambda i: reports[i].min_margin_rel)
    violations = sum(not holds(r.min_margin_rel, -slack, ">=") for r in reports)
    summary = {
        "bound": float(reports[0].bound),
        "maps": len(maps),
        "samples_per_map": cfg.samples,
        "min_margin_rel": float(reports[worst].min_margin_rel),
        "worst_map_index": worst,
        "worst_map_kind": type(maps[worst].body).__name__,
        "sup_ratio": float(max(r.sup_ratio for r in reports)),
        "violations": violations,
    }
    drawn = {"points_per_map": cfg.samples}
    return violations == 0, summary, rows, drawn


_RUNNERS = {"eval": _run_eval, "certify": _run_certify,
            "curvature": _run_curvature, "sandwich": _run_sandwich,
            "schwarz": _run_schwarz}


def run(config: RunConfig) -> RunReport:
    """Dispatch a validated config and assemble the provenance-stamped report."""
    passed, summary, table, drawn = _RUNNERS[config.task](config)
    provenance = {
        "seed": config.seed,
        "samples": config.samples,
        "effective_samples": drawn,
        "version": __version__,
        "rng_scheme": domains.RNG_SCHEME,
        "domain": str(config.domain),
        "metric": config.metric.label,
        "tolerances": dict(sorted(config.tolerances.items())),
    }
    if config.target_metric is not None:
        provenance["target_metric"] = config.target_metric.label
    return RunReport(config.task, "pass" if passed else "violation", summary,
                     table, provenance)


# ---------------------------------------------------------------------------
# report emission


def _json_default(obj):
    """JSON form of the numpy values and complex numbers in a report."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def emit_report(report: RunReport, format: str = "structured") -> str:
    """Serialize a report: one JSON document, or the table as CSV."""
    if format == "structured":
        doc = {"task": report.task, "verdict": report.verdict,
               "summary": report.summary, "table": report.table,
               "provenance": report.provenance}
        return json.dumps(doc, indent=2, default=_json_default) + "\n"
    if format != "tabular":
        raise StructureError(f"unknown report format {format!r}")
    rows = report.table or [{"key": k, "value": v}
                            for k, v in report.summary.items()]
    # csv writes a numpy float through repr, "np.float64(...)": the rows go
    # through the JSON form, which holds only Python values
    rows = json.loads(json.dumps(rows, default=_json_default))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    columns = list(rows[0].keys())
    writer.writerow(columns)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else str(v)
                         for v in (row[c] for c in columns)])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# entry point

_TASK_HELP = {
    "eval": "evaluate the metric on sampled (and optional configured) (Z; V)",
    "certify": "norm-family certificate plus invariance and connection checks",
    "curvature": "curvature bounds K1, K2, the lu constant, and a range check",
    "sandwich": "two-sided gauge comparison with tightness at extremizers",
    "schwarz": "distortion-bound margins over a generated holomorphic-map corpus",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartanfinsler",
        description="Invariant Finsler metrics on the classical domains: "
                    "evaluation, certification, and comparison runs.")
    sub = parser.add_subparsers(dest="task", required=True)
    for name in TASKS:
        sp = sub.add_parser(name, help=_TASK_HELP[name])
        sp.add_argument("--config", required=True,
                        help="path to a JSON run config")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--samples", type=int, default=None,
                        help="override the config sample count")
        sp.add_argument("--format", choices=("structured", "tabular"),
                        default="structured", help="report format")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text, task=args.task, seed=args.seed,
                              samples=args.samples)
        report = run(config)
        text = emit_report(report, args.format)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except (DomainError, StructureError, NumericError) as exc:
        print(f"{args.task} failed: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a program fault is no verified violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0 if report.verdict == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
