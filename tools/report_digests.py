"""SHA-256 digests of the reports of the benchmark's request streams.

    python3 tools/report_digests.py --seeds 1 7 --requests 150
    diff <(python3 tools/report_digests.py --src ../other/src) \
         <(python3 tools/report_digests.py)

For every workload and seed it serves the untimed warm-up request and the
first N requests of the seeded stream of ``perfbench/workloads.py``, as
``perfbench/run.py`` does (``cli.parse_config``, ``cli.run``,
``cli.emit_report``), and prints one line per report:

    <workload> <seed> <index> <request type> <json sha256> <csv sha256>

the SHA-256 of the structured (JSON) and of the tabular (CSV) text that
``cli.emit_report`` writes.  The index of the warm-up is ``warmup``.  A
change that claims byte-identical reports leaves the output of the two
checkouts equal, so comparing them is one ``diff``.  ``--src`` selects the
package sources (default: ``src`` of this checkout); the request streams
always come from this checkout's ``perfbench/workloads.py``, which the tool
only imports.
"""
import os

# Pin BLAS and OpenMP to one thread before numpy is first imported, as the
# benchmark does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digests(cli, workloads, workload, seed, n_requests):
    """(index, request type, sha256 of the structured form, sha256 of the
    tabular form) of the warm-up and the first n_requests reports of one
    workload stream."""
    stream = itertools.chain(
        [("warmup", workloads.warmup_request(workload, seed))],
        enumerate(itertools.islice(workloads.requests(workload, seed), n_requests)))
    for index, request in stream:
        config = cli.parse_config(request.text, task=request.config["task"])
        report = cli.run(config)
        yield (index, request.kind.name,
               *(hashlib.sha256(cli.emit_report(report, form).encode()).hexdigest()
                 for form in ("structured", "tabular")))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    parser.add_argument("--requests", type=int, default=150,
                        help="requests per workload stream after the warm-up")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the cartanfinsler package")
    args = parser.parse_args(argv)
    workloads = _workloads()
    if not (args.src / "cartanfinsler" / "cli.py").is_file():
        parser.error(f"no cartanfinsler package under {args.src}")
    sys.path.insert(0, str(args.src.resolve()))
    from cartanfinsler import cli

    for workload in workloads.WORKLOADS:
        for seed in args.seeds:
            for line in digests(cli, workloads, workload, seed, args.requests):
                print(workload, seed, *line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
