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
    table: dict             # equal-length column lists keyed by column name
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
    """A JSON number with a finite float value; json also reads NaN,
    Infinity and integers too large for a float."""
    if _is_int(x):
        return abs(x) <= sys.float_info.max
    return isinstance(x, float) and math.isfinite(x)


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
    if not np.all(np.isfinite(data)):
        errs.append(f"{path}: finite numbers required")
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
        if "target_metric" not in doc and tspec == dom_spec:
            # the same metric, parsed once so that its errors show once
            target_metric = metric
        elif tnode is not None:
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
# task runners: each returns (passed, summary, table columns, drawn), where
# drawn maps each sampled check to the count it drew.  The library returns
# raw margins and witnesses; every tolerance is applied here, by holds.


_SENSES = {"<=": operator.le, ">=": operator.ge}


def holds(value, threshold, sense: str) -> bool:
    """The one verdict rule: value <= or >= threshold, as sense says; NaN fails."""
    return bool(_SENSES[sense](value, threshold))


def _gate_table(gates) -> dict:
    """The certify table of (check, value, threshold, sense) gates: each
    value, its threshold and the status holds gives."""
    checks, values, thresholds, _ = zip(*gates)
    return {"check": list(checks), "value": list(map(float, values)),
            "threshold": list(thresholds),
            "status": ["pass" if holds(*gate[1:]) else "fail" for gate in gates]}


def _quantity_table(quantities) -> dict:
    """The table of (quantity, value) pairs, each value as a float."""
    names, values = zip(*quantities)
    return {"quantity": list(names), "value": list(map(float, values))}


def _run_eval(cfg: RunConfig):
    config_f2 = [metrics.eval2(cfg.metric, z, v) for z, v in cfg.points]
    config_f = list(map(math.sqrt, config_f2))
    zs, vs = domains.draw_grid(cfg.seed, "eval", [
        domains.Points(cfg.domain, cfg.samples), domains.Tangents(cfg.domain, cfg.samples)])
    f2s = metrics.eval2_many(cfg.metric, zs, vs)
    fs = np.sqrt(f2s)
    vals = np.concatenate((config_f, fs))
    table = {"index": list(range(len(vals))),
             "source": ["config"] * len(config_f) + ["random"] * len(fs),
             "f2": config_f2 + f2s.tolist(), "f": config_f + fs.tolist()}
    ok = bool(np.all(np.isfinite(vals)) and np.all(vals > 0))
    summary = {"count": len(vals), "f_min": float(vals.min()),
               "f_max": float(vals.max()), "f_mean": float(vals.mean()),
               "all_finite_positive": ok}
    drawn = {"eval_points": cfg.samples}
    return ok, summary, table, drawn


def _run_certify(cfg: RunConfig):
    family = cfg.metric.family
    if isinstance(family, norms.GFamilySpec):
        cert, cert_kind = norms.certify_scc(family), "scc"
    else:
        cert, cert_kind = norms.certify_sn(family), "sn"
    tol = cfg.tolerances
    n = min(cfg.samples, 100)
    deviation = metrics.verify_invariance(cfg.metric, n, cfg.seed)
    gates = [(f"{cert_kind}_certificate", cert.worst_margin, 0.0, ">="),
             ("invariance_deviation", deviation, tol["invariance"], "<=")]
    cert_ok = holds(*gates[0][1:])
    fibers = 0
    if cert_ok:
        # connection checks assume a positive definite fundamental tensor
        kb = metrics.verify_kahler_berwald(cfg.metric, seed=cfg.seed)
        fibers = kb.fibers
        gates += [(name, value, limit, "<=") for name, value, limit in (
            ("mixed_derivative", kb.mixed_residual, tol["mixed"]),
            ("connection_fiber_variation", kb.gamma_v_variation, tol["connection"]),
            ("connection_symmetry", kb.gamma_symmetry, tol["connection"]),
            ("connection_vs_hermitian", kb.gamma_vs_hermitian, tol["connection"]),
        )]
    table = _gate_table(gates)
    ok = all(status == "pass" for status in table["status"])
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
    return ok, summary, table, drawn


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
    table = _quantity_table((
        ("K1", report.k1), ("K2", report.k2), ("lu", report.lu),
        ("bisectional_C", bisect_c),
        ("worst_low_excess", worst_low), ("worst_high_excess", worst_high)))
    drawn = {"bisectional_pairs": pair_draws, "range_tangents": cfg.samples}
    return ok, summary, table, drawn


def _run_sandwich(cfg: RunConfig):
    slack = cfg.tolerances["sandwich_slack"]
    eq_tol = cfg.tolerances["sandwich_equality"]
    report = schwarz.verify_sandwich(cfg.metric, n_samples=cfg.samples, seed=cfg.seed)
    sides = (("lower", report.worst_lower, report.witness_lower),
             ("upper", report.worst_upper, report.witness_upper))
    failed = [(side, witness) for side, margin, witness in sides
              if not holds(margin, -slack, ">=")]
    ok = (not failed and holds(report.eq_lower, eq_tol, "<=")
          and holds(report.eq_upper, eq_tol, "<="))
    summary = {
        "K1": float(report.k1), "K2": float(report.k2),
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
    table = _quantity_table((
        ("K1", report.k1), ("K2", report.k2),
        ("worst_lower_margin", report.worst_lower),
        ("worst_upper_margin", report.worst_upper),
        ("equality_lower", report.eq_lower),
        ("equality_upper", report.eq_upper)))
    drawn = {"sandwich_points": cfg.samples}
    return ok, summary, table, drawn


def _run_schwarz(cfg: RunConfig):
    source, metric1 = cfg.domain, cfg.metric
    target = cfg.target_domain if cfg.target_domain is not None else source
    metric2 = cfg.target_metric if cfg.target_metric is not None else metric1
    bounds1 = curvature.curvature_bounds(metric1)
    bounds2 = curvature.curvature_bounds(metric2)
    maps = schwarz.generate_maps(source, target, seed=cfg.seed, count=cfg.maps)
    zs, vs = schwarz.draw_samples(source, cfg.seed, len(maps), cfg.samples)
    reports = schwarz.schwarz_check(maps, metric1, metric2, bounds1.k1, bounds2.k2,
                                    zs, vs)
    slack = cfg.tolerances["schwarz_slack"]
    table = {"map_index": list(range(len(reports))),
             "kind": [type(f.body).__name__ for f in maps],
             "min_margin": [float(r.min_margin) for r in reports],
             "min_margin_rel": [float(r.min_margin_rel) for r in reports],
             "sup_ratio": [float(r.sup_ratio) for r in reports]}
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
    return violations == 0, summary, table, drawn


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


def _row_count(table) -> int:
    """The common length of the table's columns; columns of unequal length
    raise StructureError, so no row is dropped."""
    lengths = set(map(len, table.values()))
    if len(lengths) > 1:
        raise StructureError(f"report table columns differ in length: {sorted(lengths)}")
    return lengths.pop() if lengths else 0


def _rows(table) -> list:
    """The table as one dict per row, its keys in column order."""
    _row_count(table)
    return [dict(zip(table, cells)) for cells in zip(*table.values())]


# The row-template code of a cell of each flat type, whose text is the one
# json.dumps writes (str cells are encoded before they are formatted).  A
# column of a type without an entry (bool, None, complex, arrays, lists,
# numpy scalars other than float64), of mixed types or with a non-finite
# float declines the template for the whole table.
_TEMPLATE_CODE = {float: "%r", int: "%d", str: "%s"}


def _flat_columns(table):
    """(keys, codes, columns) of a table that one row template writes, or
    None.

    None unless the table has rows, every key is a str and every column
    holds finite values of one type in _TEMPLATE_CODE, or numpy float64
    values, which come back as Python floats.
    """
    if not _row_count(table) or not all(type(key) is str for key in table):
        return None
    codes, columns = [], []
    for column in table.values():
        kind, *others = set(map(type, column))
        if kind is np.float64:
            kind, column = float, list(map(float, column))
        if others or kind not in _TEMPLATE_CODE or (
                kind is float and not all(map(math.isfinite, column))):
            return None
        codes.append(_TEMPLATE_CODE[kind])
        columns.append(column)
    return list(table), codes, columns


def _table_json(table):
    """The table as json.dumps(indent=2) writes its rows one level deep,
    from one row template; None where _flat_columns declines the table."""
    flat = _flat_columns(table)
    if flat is None:
        return None
    encode = json.encoder.encode_basestring_ascii
    keys, codes, columns = flat
    fields = ",".join("\n      " + encode(key).replace("%", "%%") + ": " + code
                      for key, code in zip(keys, codes))
    row = "\n    {" + fields + "\n    }"
    columns = [list(map(encode, column)) if code == "%s" else column
               for code, column in zip(codes, columns)]
    return "[" + ",".join(map(row.__mod__, zip(*columns))) + "\n  ]"


def emit_report(report: RunReport, format: str = "structured") -> str:
    """Serialize a report: one JSON document, or the table as CSV.

    The structured document is exactly the text of json.dumps(doc, indent=2)
    with the keys task, verdict, summary, table and provenance, where table
    is the list of report.table's rows.  json's C encoder serves no indented
    output, so a table of flat, finite, single-typed columns is written from
    one row template (%r for float, %d for int, %s for an encoded str) and
    spliced between the json.dumps text of the keys before it and of the
    provenance.  Any other table, and the whole document with it, goes
    through json.dumps of the rows.  The tabular form writes report.table,
    or the summary as key/value rows when the table has no rows: floats by
    repr, everything else by str.  Columns of unequal length raise
    StructureError in both forms.
    """
    if format == "structured":
        head = {"task": report.task, "verdict": report.verdict,
                "summary": report.summary}
        table = _table_json(report.table)
        if table is None:
            doc = {**head, "table": _rows(report.table), "provenance": report.provenance}
            return json.dumps(doc, indent=2, default=_json_default) + "\n"
        # both pieces are top-level objects: drop the head's closing "\n}"
        # and the provenance object's opening "{"
        head = json.dumps(head, indent=2, default=_json_default)
        tail = json.dumps({"provenance": report.provenance}, indent=2,
                          default=_json_default)
        return f'{head[:-2]},\n  "table": {table},{tail[1:]}\n'
    if format != "tabular":
        raise StructureError(f"unknown report format {format!r}")
    table = report.table if _row_count(report.table) else {
        "key": list(report.summary), "value": list(report.summary.values())}
    flat = _flat_columns(table)
    if flat is None:
        # csv writes a numpy float through repr, "np.float64(...)": the rows
        # go through the JSON form, which holds only Python values
        rows = json.loads(json.dumps(_rows(table), default=_json_default))
        header = list(rows[0].keys())
        lines = [[repr(v) if isinstance(v, float) else str(v)
                  for v in (row[c] for c in header)] for row in rows]
    else:
        # csv writes a Python float by repr and an int or a str by str
        header, _, columns = flat
        lines = zip(*columns)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(lines)
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
