"""Span and counter recorder for the traced benchmark run.

The recorder wraps public functions of the ``cartanfinsler`` modules from
outside the package: it replaces every module attribute that is bound to a
wrapped function, so names imported with ``from .metrics import eval2_many``
are traced as well as ``metrics.eval2_many``.  Nothing under ``src/`` is
edited, and ``restore()`` puts the original functions back.

Each wrapped call records a span (name, start, end, parent, request id).
Self time is a span's duration minus the time covered by its child spans;
it is accumulated online per layer.  Counters are recorded at the same
boundaries.  A function named in ``WRAPS`` that no longer exists is reported
as missing instead of failing the run.

The recorder is single-threaded: the benchmark leaves the CLI's ``threads``
at its default of 1.
"""
import importlib
import json
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "cartanfinsler"


def _points(batch, shape):
    """Number of items in a stack of arrays whose trailing shape is ``shape``."""
    return int(np.size(batch)) // math.prod(shape)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counters: fn(recorder, args, kwargs, result).  They run only at the
# outermost call of a function (not for apply-inside-apply recursion).

def _count_hermitian_eigs(rec, args, kwargs, result):
    rec.counts["numkernel.calls"] += 1
    rec.counts["numkernel.matrices"] += 1


def _count_eigh_batch(rec, args, kwargs, result):
    rec.counts["numkernel.calls"] += 1
    rec.counts["numkernel.matrices"] += np.shape(_arg(args, kwargs, 0, "ms"))[0]


def _calls(key):
    def count(rec, args, kwargs, result):
        rec.counts[key + ".calls"] += 1
    return count


def _count_apply(rec, args, kwargs, result):
    m = _arg(args, kwargs, 0, "m")
    rec.counts["automorphisms.apply.calls"] += 1
    rec.counts["automorphisms.apply.points"] += _points(
        _arg(args, kwargs, 1, "z"), m.source.ambient_shape)


def _count_eval2_many(rec, args, kwargs, result):
    metric = _arg(args, kwargs, 0, "metric")
    rec.counts["metrics.eval2_many.calls"] += 1
    rec.counts["metrics.eval2_many.points"] += _points(
        _arg(args, kwargs, 1, "zs"), metric.domain.ambient_shape)


def _count_hsc(rec, args, kwargs, result):
    metric = _arg(args, kwargs, 0, "metric")
    rec.counts["curvature.hsc.points"] += _points(
        _arg(args, kwargs, 1, "vs"), metric.domain.ambient_shape)


def _count_caratheodory(rec, args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    rec.counts["schwarz.caratheodory.points"] += _points(
        _arg(args, kwargs, 1, "zs"), spec.ambient_shape)


def _count_bounds(rec, args, kwargs, result):
    metric = _arg(args, kwargs, 0, "metric")
    rec.counts["curvature.bounds.calls"] += 1
    rec.bounds_metrics.add(getattr(metric, "label", id(metric)))


def _count_generate_maps(rec, args, kwargs, result):
    rec.counts["schwarz.generate_maps.kept"] += len(result)


# (module, function, layer, counter).  The layer names the self-time bucket;
# solver entries are counted at hermitian_eigs and eigh_batch only, so that
# pd_sqrt, singular_values and eigvalsh_batch are timed but not double-counted.
WRAPS = [
    ("numkernel", "hermitian_eigs", "numkernel", _count_hermitian_eigs),
    ("numkernel", "eigh_batch", "numkernel", _count_eigh_batch),
    ("numkernel", "eigvalsh_batch", "numkernel", None),
    ("numkernel", "pd_sqrt", "numkernel", None),
    ("numkernel", "singular_values", "numkernel", None),
    ("numkernel", "power_trace", "numkernel", None),
    ("domains", "sample_point", "domains.sample", _calls("domains.sample")),
    ("domains", "sample_tangent", "domains.sample", _calls("domains.sample")),
    ("domains", "contains", "domains.contains", _calls("domains.contains")),
    ("domains", "minkowski_gauge", "domains.gauge", _calls("domains.gauge")),
    ("automorphisms", "apply", "automorphisms.apply", _count_apply),
    ("automorphisms", "differential", "automorphisms.differential",
     _calls("automorphisms.differential")),
    ("automorphisms", "normalizing_automorphism", "automorphisms.normalizing",
     _calls("automorphisms.normalizing")),
    ("automorphisms", "identity_map", "automorphisms.identity", None),
    ("metrics", "eval2_many", "metrics.eval2_many", _count_eval2_many),
    ("metrics", "grad_vbar", "metrics.grad_vbar", _calls("metrics.grad_vbar")),
    ("metrics", "fundamental_tensor", "metrics.fundamental_tensor",
     _calls("metrics.fundamental_tensor")),
    ("metrics", "connection_sample", "metrics.connection", None),
    ("metrics", "hermitian_connection", "metrics.connection", None),
    ("metrics", "verify_kahler_berwald", "metrics.connection", None),
    ("curvature", "curvature_bounds", "curvature.bounds", _count_bounds),
    ("curvature", "hsc_origin_many", "curvature.hsc", _count_hsc),
    ("curvature", "hsc_origin", "curvature.hsc", None),
    ("curvature", "hsc", "curvature.hsc", None),
    ("curvature", "bisectional_origin_many", "curvature.bisectional", None),
    ("curvature", "bisectional_origin", "curvature.bisectional", None),
    # private, but it holds the nested simplex scans of the bisectional bound
    ("curvature", "_bisectional_sup_matrix", "curvature.bisectional", None),
    ("curvature", "_bisectional_sup_lie", "curvature.bisectional", None),
    ("norms", "simplex_scan", "norms.simplex_scan", None),  # see _wrap_scan
    ("norms", "certify_scc", "norms.certify", None),
    ("norms", "certify_sn", "norms.certify", None),
    ("schwarz", "generate_maps", "schwarz.generate_maps", _count_generate_maps),
    ("schwarz", "schwarz_check", "schwarz.schwarz_check",
     _calls("schwarz.schwarz_check")),
    ("schwarz", "caratheodory_many", "schwarz.caratheodory", _count_caratheodory),
    ("schwarz", "caratheodory", "schwarz.caratheodory", None),
    ("schwarz", "verify_sandwich", "schwarz.verify_sandwich", None),
    ("cli", "parse_config", "cli.parse_config", None),
    ("cli", "run", "cli.run", None),
    ("cli", "emit_report", "cli.emit_report", None),
]

# (metric name, unit).  Counts and self times are per-request means.
PER_LAYER = [
    ("numkernel.calls", "count"),
    ("numkernel.matrices", "count"),
    ("numkernel.batch_mean", "count"),
    ("numkernel.self_s", "s"),
    ("domains.sample.calls", "count"),
    ("domains.sample.self_s", "s"),
    ("domains.contains.calls", "count"),
    ("domains.contains.self_s", "s"),
    ("domains.gauge.calls", "count"),
    ("domains.gauge.self_s", "s"),
    ("automorphisms.apply.calls", "count"),
    ("automorphisms.apply.points", "count"),
    ("automorphisms.apply.self_s", "s"),
    ("automorphisms.differential.calls", "count"),
    ("automorphisms.differential.self_s", "s"),
    ("automorphisms.normalizing.calls", "count"),
    ("automorphisms.normalizing.self_s", "s"),
    ("metrics.eval2_many.calls", "count"),
    ("metrics.eval2_many.points", "count"),
    ("metrics.eval2_many.self_s", "s"),
    ("metrics.grad_vbar.calls", "count"),
    ("metrics.grad_vbar.self_s", "s"),
    ("metrics.fundamental_tensor.calls", "count"),
    ("metrics.fundamental_tensor.self_s", "s"),
    ("metrics.connection.self_s", "s"),
    ("curvature.bounds.calls", "count"),
    ("curvature.bounds.per_metric", "ratio"),
    ("curvature.bounds.self_s", "s"),
    ("curvature.hsc.points", "count"),
    ("curvature.hsc.self_s", "s"),
    ("curvature.bisectional.self_s", "s"),
    ("norms.simplex_scan.calls", "count"),
    ("norms.simplex_scan.fn_evals", "count"),
    ("norms.simplex_scan.profiles", "count"),
    ("norms.simplex_scan.self_s", "s"),
    ("norms.certify.self_s", "s"),
    ("schwarz.generate_maps.self_s", "s"),
    ("schwarz.generate_maps.admit_ratio", "ratio"),
    ("schwarz.schwarz_check.calls", "count"),
    ("schwarz.schwarz_check.self_s", "s"),
    ("schwarz.caratheodory.points", "count"),
    ("schwarz.caratheodory.self_s", "s"),
    ("schwarz.verify_sandwich.self_s", "s"),
    ("cli.parse_config.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.emit_report.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


class Recorder:
    """Spans and counters of one traced run, kept in memory until ``dump``.

    Spans live in flat arrays rather than per-span Python objects, which keeps
    the garbage collector from rescanning them while the run goes on.
    """

    def __init__(self):
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.missing = []
        self.request = -1        # -1: outside a request
        self.bounds_metrics = set()
        self.bounds_per_request = []  # (bounds calls, distinct metrics)
        self._bounds_calls = 0   # curvature.bounds.calls when the request began
        self._root = None        # the open request span
        self._names = []         # span name per name id
        self._span_name = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("q")  # -1: a root span
        self._span_request = array("q")
        self._stack = []         # [span id, name id, layer, child time, start]
        self._patched = []       # (module, attribute, original)

    # -- spans -------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._names:
            self._names.append(name)
        return self._names.index(name)

    def _enter(self, name_id, layer):
        sid = len(self._span_start)
        parent = self._stack[-1] if self._stack else None
        start = time.perf_counter()
        self._span_name.append(name_id)
        self._span_start.append(start)
        self._span_end.append(0.0)
        self._span_parent.append(-1 if parent is None else parent[0])
        self._span_request.append(self.request)
        frame = [sid, name_id, layer, 0.0, start]
        self._stack.append(frame)
        return frame, parent

    def _exit(self, frame, parent):
        end = time.perf_counter()
        self._stack.pop()
        self._span_end[frame[0]] = end
        duration = end - frame[4]
        self.self_time[frame[2]] += duration - frame[3]
        if parent is not None:
            parent[3] += duration

    def exclude(self, seconds):
        """Leave ``seconds`` spent outside the program out of the open span's
        self time, as if they were a child span (the host-speed probe)."""
        if self._stack:
            self._stack[-1][3] += seconds

    def begin_request(self, request_id):
        self.request = request_id
        self.bounds_metrics = set()
        self._bounds_calls = self.counts["curvature.bounds.calls"]
        self._root = self._enter(self._name_id("request"), "request")

    def end_request(self):
        self._exit(*self._root)
        self.bounds_per_request.append(
            (self.counts["curvature.bounds.calls"] - self._bounds_calls,
             len(self.bounds_metrics)))
        self.request = -1

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn, name, layer, counter):
        rec = self
        name = self._name_id(name)

        def traced(*args, **kwargs):
            frame, parent = rec._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._exit(frame, parent)
            if counter is not None and (parent is None or parent[1] != name):
                counter(rec, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_scan(self, fn, name, layer):
        """simplex_scan: also count fn_batch evaluations and the profiles."""
        rec = self
        inner = self._wrap(fn, name, layer, None)

        def traced(fn_batch, *args, **kwargs):
            def counted(y):
                rec.counts["norms.simplex_scan.fn_evals"] += 1
                rec.counts["norms.simplex_scan.profiles"] += len(y)
                return fn_batch(y)

            rec.counts["norms.simplex_scan.calls"] += 1
            return inner(counted, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Import the package's modules and wrap every name in ``WRAPS``."""
        for module_name, fn_name, layer, counter in WRAPS:
            qualified = f"{module_name}.{fn_name}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.missing.append(qualified)
                continue
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.missing.append(qualified)
                continue
            if fn_name == "simplex_scan":
                wrapper = self._wrap_scan(original, qualified, layer)
            else:
                wrapper = self._wrap(original, qualified, layer, counter)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def restore(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self, requests, overhead_frac):
        """Per-request means of the counters and self times, plus ratios."""
        n = max(requests, 1)
        c = self.counts
        out = {}
        for name, _unit in PER_LAYER:
            if name.endswith(".self_s"):
                out[name] = self.self_time[name[: -len(".self_s")]] / n
            else:
                out[name] = c[name] / n
        out["numkernel.batch_mean"] = _ratio(c["numkernel.matrices"],
                                             c["numkernel.calls"])
        calls = sum(b for b, _ in self.bounds_per_request)
        distinct = sum(d for _, d in self.bounds_per_request)
        out["curvature.bounds.per_metric"] = _ratio(calls, distinct)
        # maps added without a probe batch (the identity) are not admissions
        probes = self._children("automorphisms.apply", "schwarz.generate_maps")
        unprobed = self._children("automorphisms.identity_map",
                                  "schwarz.generate_maps")
        out["schwarz.generate_maps.admit_ratio"] = _ratio(
            c["schwarz.generate_maps.kept"] - unprobed, probes)
        out["trace.overhead_frac"] = overhead_frac
        return out

    def _children(self, name, parent_name):
        """Number of ``name`` spans whose direct parent is a ``parent_name`` span."""
        if name not in self._names or parent_name not in self._names:
            return 0
        child, parent = self._names.index(name), self._names.index(parent_name)
        names, parents = self._span_name, self._span_parent
        return sum(1 for sid in range(len(names))
                   if names[sid] == child and parents[sid] >= 0
                   and names[parents[sid]] == parent)

    def dump(self, path):
        """Write the spans as JSON lines (start and end in seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid in range(len(self._span_start)):
                parent = self._span_parent[sid]
                request = self._span_request[sid]
                fh.write(json.dumps({
                    "id": sid, "name": self._names[self._span_name[sid]],
                    "start": self._span_start[sid], "end": self._span_end[sid],
                    "parent": None if parent < 0 else parent,
                    "request": None if request < 0 else request}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0
