"""Check that the host-speed probe tracks a workload's requests.

    python3 perfbench/calibrate.py --workload corpus --seconds 60

Serves the workload's request types (one fixed config seed each) in a loop
under the probe of ``hostspeed.py`` and regresses, per request type, the log
of each request's own time on the log of the mean probe time inside it.
A slope (beta) of 1 means the host's slow state stretches the requests by
the same factor as the probe, so normalizing divides the state out; a slope
of 1.1 leaves a bias of 1.6 ** 0.1 - 1 = 5% between runs held in the fast
(about 0.55 ms a probe) and the slow state (about 0.9 ms).  Nothing is
written; run it from the repository root.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402

INTERVAL_S = 0.02


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from cartanfinsler import cli

    requests = [workloads._request(kind, 12345) for kind in workloads.WORKLOADS[args.workload]]
    points = {r.kind.name: [] for r in requests}   # (log probe, log own time)
    with hostspeed.Probe(INTERVAL_S) as probe:
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            for request in requests:
                first = len(probe.samples)
                start = time.perf_counter()
                cli.emit_report(cli.run(cli.parse_config(request.text)))
                end = time.perf_counter()
                inside = [d for s, d in probe.samples[first:] if start <= s < end]
                if len(inside) >= 2:
                    points[request.kind.name].append(
                        (math.log(statistics.mean(inside)),
                         math.log(end - start - sum(inside))))
    # centre each request type on its own means, then pool
    xs, ys = [], []
    for pairs in points.values():
        if len(pairs) < 2:
            continue
        mx = statistics.mean(x for x, _ in pairs)
        my = statistics.mean(y for _, y in pairs)
        xs += [x - mx for x, _ in pairs]
        ys += [y - my for _, y in pairs]
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    syy = sum(y * y for y in ys)
    if not sxx or not syy:
        print("too few requests, or the host never changed speed")
        return 1
    print(f"{args.workload}: {len(xs)} requests, probe median "
          f"{statistics.median(d for _, d in probe.samples) * 1e3:.3f} ms, "
          f"beta {sxy / sxx:.3f}, r2 {sxy * sxy / (sxx * syy):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
