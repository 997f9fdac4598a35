"""One cold start of a workload, timed from outside by ``run.py``.

Imports ``cartanfinsler`` in a fresh interpreter and parses one config of
each request type in the workload, which builds their domain and metric
specs: the state the program is in when it can serve its first request.
Then it prints the system-wide monotonic clock, which the parent compares
with the time it launched this interpreter, the seconds its host-speed
probes took since numpy was imported, and their mean (see ``hostspeed.py``).

    PYTHONPATH=src python3 perfbench/cold_start.py <workload> <seed>
"""
import sys
import time

import hostspeed

PROBE_INTERVAL_S = 0.01


def main(workload, seed):
    with hostspeed.Probe(PROBE_INTERVAL_S) as probe:
        from cartanfinsler import cli

        import workloads

        for text in workloads.setup_configs(workload, seed):
            cli.parse_config(text)
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    durations = [d for _, d in probe.samples] or [hostspeed.REFERENCE_S]
    print(ready, sum(durations), sum(durations) / len(durations))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
