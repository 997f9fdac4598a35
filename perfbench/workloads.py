"""Workload request mixes, seeded request generation and output checks.

Each workload is a closed loop with one client: the benchmark sends the next
JSON run config only after the previous report is back.  The workload seed
fixes the order of request types and every config's own ``seed``; the program
receives only the generated configs.  Configs leave ``threads`` and
``tolerances`` at their defaults.

The checks hold each report to what its task promises and, where the paper
gives a closed form for the request, to that value.  Their tolerances equal
the acceptance gates in ``tests/test_acceptance.py`` or are tighter.
"""
import json
import math
import random
from dataclasses import dataclass

# tolerances of the acceptance gates (test_01, test_02/test_03, test_04, test_07/08)
BERGMAN_LU_TOL = 1e-6
TK_LU_TOL = 1e-4
LIE_RATIO_TOL = 1e-4
INVARIANCE_TOL = 1e-9
SLACK_TOL = 1e-8
EQUALITY_TOL = 1e-4

TK_RANK2_LU = math.sqrt((2.0 + math.sqrt(2.0)) / 2.0)


def _dom(kind, **dims):
    return {"type": kind, **dims}


BERGMAN = {"family": "bergman"}
TK12 = {"family": "tk", "t": 1, "k": 2}
TK13 = {"family": "tk", "t": 1, "k": 3}


@dataclass(frozen=True)
class RequestType:
    name: str
    config: dict               # a run config without its seed
    verdict: str = "pass"


# Request types within a workload are sized to cost about the same on the
# pure-numpy eigensolver, so that p50 and p90 do not sit on a boundary
# between types.
WORKLOADS = {
    # test_08's path: many small sampling, membership and eval2_many batches
    "corpus": [
        RequestType("schwarz_I22_tk", {
            "task": "schwarz", "domain": _dom("I", m=2, n=2), "metric": TK12,
            "maps": 5, "samples": 100}),
        RequestType("schwarz_II2_bergman_to_I22_tk", {
            "task": "schwarz", "domain": _dom("II", m=2), "metric": BERGMAN,
            "target_domain": _dom("I", m=2, n=2), "target_metric": TK12,
            "maps": 4, "samples": 100}),
    ],
    # test_07's path: one large eval2_many batch and the per-sample gauge loop
    "bulk": [
        RequestType("sandwich_II3_tk", {
            "task": "sandwich", "domain": _dom("II", m=3), "metric": TK12,
            "samples": 100}),
        RequestType("sandwich_I23_tk", {
            "task": "sandwich", "domain": _dom("I", m=2, n=3), "metric": TK12,
            "samples": 240}),
        RequestType("eval_I33_tk3", {
            "task": "eval", "domain": _dom("I", m=3, n=3), "metric": TK13,
            "samples": 400}),
    ],
    # test_05/test_06's path: finite-difference connection, simplex scans and
    # the Lie-ball stencil; the eigensolver and the samplers are a small share
    "structure": [
        RequestType("certify_I13_tk", {
            "task": "certify", "domain": _dom("I", m=1, n=3), "metric": TK12,
            "samples": 10}),
        RequestType("certify_II2_bergman", {
            "task": "certify", "domain": _dom("II", m=2), "metric": BERGMAN,
            "samples": 10}),
        RequestType("certify_IV3_bergman", {
            "task": "certify", "domain": _dom("IV", n=3), "metric": BERGMAN,
            "samples": 10}),
        RequestType("certify_IV3_affine_t2", {
            "task": "certify", "domain": _dom("IV", n=3),
            "metric": {"family": "affine", "t": 2}, "samples": 20},
            verdict="violation"),
        RequestType("curvature_I22_bergman", {
            "task": "curvature", "domain": _dom("I", m=2, n=2),
            "metric": BERGMAN, "samples": 100}),
        RequestType("curvature_II2_tk", {
            "task": "curvature", "domain": _dom("II", m=2), "metric": TK12,
            "samples": 100}),
        RequestType("curvature_IV4_bergman", {
            "task": "curvature", "domain": _dom("IV", n=4), "metric": BERGMAN,
            "samples": 100}),
    ],
}


@dataclass(frozen=True)
class Request:
    kind: RequestType
    config: dict               # the full run config, seed included
    text: str                  # the JSON document handed to the program


def _request(kind, seed):
    config = dict(kind.config, seed=seed)
    return Request(kind, config, json.dumps(config))


def requests(workload, seed):
    """Endless seeded request stream: shuffled blocks of the workload's mix."""
    rng = random.Random(seed)
    while True:
        order = list(WORKLOADS[workload])
        rng.shuffle(order)
        for kind in order:
            yield _request(kind, rng.randrange(2**32))


def warmup_request(workload, seed):
    """The untimed first request: the mix's first type, its own config seed."""
    kind = WORKLOADS[workload][0]
    return _request(kind, random.Random(f"warmup-{seed}").randrange(2**32))


def setup_configs(workload, seed):
    """One config per request type: what a cold start parses before serving."""
    stream = requests(workload, seed)
    return [next(stream).text for _ in WORKLOADS[workload]]


# ---------------------------------------------------------------------------
# output checks


def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


def _close(name, value, expected, tol, problems):
    if not (_finite(value) and abs(value - expected) <= tol):
        problems.append(f"{name} = {value!r}, expected {expected!r} +- {tol:g}")


def _expected_lu(domain, metric):
    """Closed-form sqrt(K1/K2) from the paper, or None where none applies."""
    if domain["type"] == "I" and metric == BERGMAN:
        return math.sqrt(domain["m"]), BERGMAN_LU_TOL
    if domain["type"] == "I" and domain["m"] == 2 and metric == TK12:
        return TK_RANK2_LU, TK_LU_TOL
    return None


def _check_lu(name, domain, metric, k1, k2, problems):
    if not (_finite(k1) and _finite(k2) and k1 >= k2 > 0.0):
        problems.append(f"curvature bounds K1={k1!r}, K2={k2!r} not K1 >= K2 > 0")
        return
    expected = _expected_lu(domain, metric)
    if expected is not None:
        _close(name, math.sqrt(k1 / k2), expected[0], expected[1], problems)
    if domain["type"] == "IV" and metric == BERGMAN:
        _close("K1/K2", k1 / k2, 2.0, LIE_RATIO_TOL, problems)


def _check_schwarz(cfg, summary, table, problems):
    if summary.get("violations") != 0:
        problems.append(f"violations = {summary.get('violations')!r}")
    if summary.get("maps") != cfg["maps"] or len(table) != cfg["maps"]:
        problems.append(f"{summary.get('maps')!r} maps reported, "
                        f"{len(table)} rows, {cfg['maps']} requested")
    if summary.get("samples_per_map") != cfg["samples"]:
        problems.append(f"samples_per_map = {summary.get('samples_per_map')!r}")
    margins = [row.get("min_margin_rel") for row in table]
    if not all(_finite(x) and x >= -SLACK_TOL for x in margins):
        problems.append("a map's relative margin is below -1e-8 or not finite")
    elif summary.get("min_margin_rel") != min(margins):
        problems.append("summary margin is not the worst map's margin")
    if not all(_finite(row.get("sup_ratio")) for row in table):
        problems.append("a sup_ratio is not finite")
    bound = summary.get("bound")
    if cfg.get("target_domain") is None:
        expected = _expected_lu(cfg["domain"], cfg["metric"])
        if expected is not None:
            _close("bound", bound, expected[0], expected[1], problems)
    elif not (_finite(bound) and bound > 0.0):
        problems.append(f"bound = {bound!r}")


def _check_sandwich(cfg, summary, table, problems):
    if summary.get("passed") is not True:
        problems.append("summary.passed is not true")
    for key in ("worst_lower_margin", "worst_upper_margin"):
        if not (_finite(summary.get(key)) and summary[key] >= -SLACK_TOL):
            problems.append(f"{key} = {summary.get(key)!r}")
    for key in ("equality_lower", "equality_upper"):
        if not (_finite(summary.get(key)) and summary[key] <= EQUALITY_TOL):
            problems.append(f"{key} = {summary.get(key)!r}")
    _check_lu("sqrt(K1/K2)", cfg["domain"], cfg["metric"],
              summary.get("K1"), summary.get("K2"), problems)


def _check_eval(cfg, summary, table, problems):
    if summary.get("count") != cfg["samples"] or len(table) != cfg["samples"]:
        problems.append(f"{len(table)} values for {cfg['samples']} samples")
    for row in table:
        f, f2 = row.get("f"), row.get("f2")
        if not (_finite(f) and _finite(f2) and f > 0.0
                and abs(f * f - f2) <= 1e-12 * f2):
            problems.append(f"value {row.get('index')!r}: f={f!r}, f2={f2!r}")
            break
    if summary.get("all_finite_positive") is not True:
        problems.append("summary.all_finite_positive is not true")


def _check_certify(cfg, summary, table, problems):
    if summary.get("certificate_passed") is False:
        # negative control: the steep affine profile fails its slope bound
        witness = summary.get("witness")
        if summary.get("failed_condition") != "slope_bound":
            problems.append(f"failed_condition = "
                            f"{summary.get('failed_condition')!r}")
        if not (isinstance(witness, list) and witness and _finite(witness[0])
                and witness[0] > 0.5):
            problems.append(f"witness = {witness!r}, expected s > 1/2")
        if summary.get("connection_checked") is not False:
            problems.append("connection checked on a failed certificate")
        return
    if summary.get("connection_checked") is not True or len(table) != 6:
        problems.append(f"{len(table)} checks reported, 6 expected")
    failed = [row.get("check") for row in table if row.get("status") != "pass"]
    if failed:
        problems.append(f"failed checks: {failed}")
    dev = summary.get("invariance_deviation")
    if not (_finite(dev) and dev <= INVARIANCE_TOL):
        problems.append(f"invariance_deviation = {dev!r}")


def _check_curvature(cfg, summary, table, problems):
    if summary.get("range_ok") is not True:
        problems.append("sampled curvature left [-K1, -K2]")
    k1, k2 = summary.get("K1"), summary.get("K2")
    _check_lu("lu", cfg["domain"], cfg["metric"], k1, k2, problems)
    lu = summary.get("lu")
    if _finite(k1) and _finite(k2) and k2 > 0.0:
        _close("lu", lu, math.sqrt(k1 / k2), 1e-12 * math.sqrt(k1 / k2),
               problems)
    c = summary.get("bisectional_C")
    if not (_finite(c) and _finite(k1) and c >= k1):
        problems.append(f"bisectional_C = {c!r} below K1 = {k1!r}")


_CHECKS = {"schwarz": _check_schwarz, "sandwich": _check_sandwich,
           "eval": _check_eval, "certify": _check_certify,
           "curvature": _check_curvature}


def check(request, text):
    """Problems with one emitted report; an empty list means it is correct."""
    cfg = request.config
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if doc.get("task") != cfg["task"]:
        problems.append(f"task = {doc.get('task')!r}")
    if doc.get("verdict") != request.kind.verdict:
        problems.append(f"verdict = {doc.get('verdict')!r}, "
                        f"expected {request.kind.verdict!r}")
    prov = doc.get("provenance", {})
    if prov.get("seed") != cfg["seed"] or prov.get("samples") != cfg["samples"]:
        problems.append(f"provenance seed/samples = {prov.get('seed')!r}/"
                        f"{prov.get('samples')!r}")
    summary, table = doc.get("summary"), doc.get("table")
    if not isinstance(summary, dict) or not isinstance(table, list):
        return problems + ["report lacks a summary or a table"]
    _CHECKS[cfg["task"]](cfg, summary, table, problems)
    return problems
