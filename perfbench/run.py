"""End-to-end and per-layer benchmark of the cartanfinsler verdict engine.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 36 --trace 0

Run it from the repository root.  It measures the package as the tier-1
tests import it (``src`` on the import path), builds nothing and selects no
backend.  Each workload is a closed loop with one client in this process:
generate a seeded request, pass it through ``cli.parse_config``,
``cli.run`` and ``cli.emit_report`` as ``cli.main`` does, check the report,
repeat until ``--seconds`` have passed.  One untimed warm-up request comes
first.

Times are host-normalized: a timer probe measures the host's changing CPU
speed while the loop runs and the request times are rescaled to a fixed
host speed (see ``hostspeed.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
loop untraced for half the time and traced for the other half, and reports
the per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object; the run's environment stamp and full results go
to ``.perfbench_out/`` in the repository root.  See ``README.md`` here.
"""
import os

# Pin BLAS and OpenMP to one thread before numpy is first imported.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
COLD_STARTS = 5
COLD_START_TIMEOUT_S = 60
PROBE_INTERVAL_S = 0.05

END_TO_END = [
    ("requests_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("failed_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# The result carries the metrics BENCHMARK.json registers.  failed_frac is 0
# on correct code, so it is printed and kept in the result file only; the
# result's ``failed`` and ``correct`` carry it.
REGISTERED = ["requests_per_s", "latency_p50_s", "latency_p90_s", "setup_s",
              "peak_rss_mb"]


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "absent"


def _threads_flag(cli):
    """Whether the CLI still accepts --threads (a ROADMAP item retires it)."""
    try:
        args, _ = cli.build_parser().parse_known_args(
            ["eval", "--config", "-", "--threads", "2"])
    except (AttributeError, SystemExit):
        return "absent"
    return "present" if getattr(args, "threads", None) == 2 else "absent"


def environment(cli, workload, seed, trace):
    import numpy
    from cartanfinsler import numkernel

    backend = getattr(numkernel, "backend", None)

    def module(name):
        return "present" if importlib.util.find_spec(name) else "absent"

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "eigensolver": backend() if callable(backend) else "absent",
        "CARTANFINSLER_PURE": os.environ.get("CARTANFINSLER_PURE", "absent"),
        "cartanfinsler._kernel": module("cartanfinsler._kernel"),
        "cartanfinsler._kernel_py": module("cartanfinsler._kernel_py"),
        "cli --threads": _threads_flag(cli),
        "blas_threads": {var: os.environ[var] for var in PINNED_THREADS},
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def measure_setup(workload, seed):
    """Median host-normalized time from launching a fresh interpreter until
    it is ready.

    The child prints CLOCK_MONOTONIC, which all processes share, once it has
    imported the package and parsed the configs, then the time its host-speed
    probes took and their mean (see ``hostspeed.py``); its teardown is not
    counted.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    times = []
    for _ in range(COLD_STARTS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        child = subprocess.run([sys.executable, str(HERE / "cold_start.py"),
                                workload, str(seed)], cwd=ROOT, env=env,
                               check=True, capture_output=True, text=True,
                               timeout=COLD_START_TIMEOUT_S)
        ready, probed, speed = (float(x) for x in child.stdout.split()[-3:])
        times.append((ready - start - probed) * hostspeed.REFERENCE_S / speed)
    return statistics.median(times)


def serve_one(cli, request, probe=None):
    """parse -> run -> emit, as cli.main does; returns (seconds, problems).

    With a running ``hostspeed.Probe`` the seconds are host-normalized.
    """
    first = len(probe.samples) if probe is not None else 0
    start = time.perf_counter()
    try:
        config = cli.parse_config(request.text, task=request.config["task"])
        text = cli.emit_report(cli.run(config))
    except Exception as exc:  # a raising request is a failed request
        problems = [f"{type(exc).__name__}: {exc}"]
    else:
        problems = None
    end = time.perf_counter()
    elapsed = (probe.normalize(start, end, first) if probe is not None
               else end - start)
    if problems is None:
        problems = workloads.check(request, text)
    return elapsed, problems


def serve(cli, workload, seed, seconds, probe, recorder=None):
    """Closed loop with one client for ``seconds``; a started request finishes.

    ``requests_per_s`` is correct requests over the summed host-normalized
    request latencies; ``probe`` is the running ``hostspeed.Probe``.
    """
    stream = workloads.requests(workload, seed)
    starts, latencies, kinds, failures = [], [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        request = next(stream)
        starts.append(time.perf_counter() - start)
        if recorder is not None:
            recorder.begin_request(len(latencies))
        try:
            elapsed, problems = serve_one(cli, request, probe)
        finally:
            if recorder is not None:
                recorder.end_request()
        latencies.append(elapsed)
        kinds.append(request.kind.name)
        if problems:
            failures.append({"request": len(latencies) - 1,
                             "type": request.kind.name,
                             "seed": request.config["seed"],
                             "problems": problems})
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start
    return {"wall_s": wall, "starts": starts, "latencies": latencies, "kinds": kinds,
            "failures": failures,
            "requests_per_s": (len(latencies) - len(failures)) / sum(latencies)}


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def by_type(loop):
    out = {}
    for kind in sorted(set(loop["kinds"])):
        times = [t for k, t in zip(loop["kinds"], loop["latencies"]) if k == kind]
        out[kind] = {"count": len(times), "median_s": statistics.median(times)}
    return out


def end_to_end(loop, setup_s):
    lat = loop["latencies"]
    return {
        "requests_per_s": loop["requests_per_s"],
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": _p90(lat),
        "failed_frac": len(loop["failures"]) / len(lat),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cartanfinsler" / "cli.py").is_file():
        print(f"no cartanfinsler sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    setup_s = None
    if not args.trace:
        setup_s = measure_setup(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    from cartanfinsler import cli

    env = environment(cli, args.workload, args.seed, args.trace)
    print("environment: " + json.dumps(env), flush=True)
    warm_seconds, warm_problems = serve_one(
        cli, workloads.warmup_request(args.workload, args.seed))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        import tracer

        with hostspeed.Probe(PROBE_INTERVAL_S) as probe:
            untraced = serve(cli, args.workload, args.seed, args.seconds / 2,
                             probe)
        recorder = tracer.Recorder()
        recorder.install()
        try:
            with hostspeed.Probe(PROBE_INTERVAL_S, recorder.exclude) as probe:
                traced = serve(cli, args.workload, args.seed,
                               args.seconds / 2, probe, recorder)
        finally:
            recorder.restore()
        recorder.dump(OUT / f"{args.workload}.spans.jsonl")
        overhead = (1.0 - traced["requests_per_s"] / untraced["requests_per_s"]
                    if untraced["requests_per_s"] else 0.0)
        values = recorder.layer_metrics(len(traced["latencies"]), overhead)
        units = dict(tracer.PER_LAYER)
        loops = {"untraced": untraced, "traced": traced}
        env["missing"] = recorder.missing
        print("missing: " + json.dumps(recorder.missing))
    else:
        with hostspeed.Probe(PROBE_INTERVAL_S) as probe:
            timed = serve(cli, args.workload, args.seed, args.seconds, probe)
        loops = {"timed": timed}
        values = end_to_end(loops["timed"], setup_s)
        units = dict(END_TO_END)
    durations = [d for _, d in probe.samples] or [float("nan")]
    env["probe_s"] = {"count": len(probe.samples),
                      "median": statistics.median(durations),
                      "reference": hostspeed.REFERENCE_S}
    print("host-speed probes: " + json.dumps(env["probe_s"]))

    attempted = 1 + sum(len(loop["latencies"]) for loop in loops.values())
    failures = [f for loop in loops.values() for f in loop["failures"]]
    if warm_problems:
        failures.append({"request": "warm-up", "problems": warm_problems})
    for name, loop in loops.items():
        print(f"{name} loop: {len(loop['latencies'])} requests "
              f"in {loop['wall_s']:.2f} s")
        for kind, stats in by_type(loop).items():
            print(f"  {kind:34s} {stats['count']:4d} x {stats['median_s']:.4f} s")
    for failure in failures[:10]:
        print("FAILED " + json.dumps(failure))
    for name, value in values.items():
        print(f"{name:38s} {value:14.6g} {units[name]}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in (units if args.trace else REGISTERED)},
    }
    detail = {"environment": env, "warmup_s": warm_seconds,
              "metrics": values, "failures": failures,
              "loops": {name: {"wall_s": loop["wall_s"],
                               "count": len(loop["latencies"]),
                               "by_type": by_type(loop),
                               "requests": list(zip(loop["starts"],
                                                    loop["latencies"],
                                                    loop["kinds"]))}
                        for name, loop in loops.items()}}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n",
                                      encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
