"""Benchmark of the hyptrig auditor, end to end and per layer.

    python3 bench/run.py --workload audit-sweep --seed 17 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
./src, nothing is installed.  The run repeats whole rounds of the
workload's ops for --seconds, checks every round's outputs, and prints
one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 wraps the layer
functions (see tracing.py), reports the per-layer metrics and writes the
spans of the first traced round to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("audit-sweep", "bessel-endpoint", "closed-forms")
# fresh interpreters timed per run for setup_s; the median is reported
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ops_per_s", "ops/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, print the ready time, exit")
    return parser.parse_args(argv)


def load_workloads():
    """Import the benchmark's workloads against ./src, never an installed copy."""
    sys.path.insert(0, SRC)
    import hyptrig
    if os.path.dirname(os.path.abspath(hyptrig.__file__)) != os.path.join(SRC, "hyptrig"):
        raise RuntimeError(f"hyptrig imported from {hyptrig.__file__}, not {SRC}")
    import workloads
    return workloads


def setup_probe(args) -> int:
    load_workloads().make(args.workload, args.seed, OUT_DIR)
    print(repr(time.monotonic()))
    return 0


def setup_timer(workload: str, seed: int):
    """A callable timing one fresh interpreter from start to the first
    timed op: imports plus input preparation, in a child process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]

    def probe() -> float:
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        return float(proc.stdout.split()[-1]) - t0

    return probe


def measure(workload, seconds: float, trace: bool, probe=None,
            out_dir: str = OUT_DIR) -> dict:
    """Run whole rounds for `seconds`, checking each, and assemble the result.

    The SETUP_PROBES calls of `probe` are spread over the run, between
    rounds, so that setup_s samples the same stretch of machine time as
    the rounds; the time they take is added to the run.
    """
    failed, problems = workload.reference_round()
    rounds = 1
    walls, cpus, setups, layer_rounds, kept = [], [], [], [], []
    tracer = tracing.Tracer() if trace else None
    ctx = tracing.patched(tracer) if trace else contextlib.nullcontext()
    t_start = time.perf_counter()
    t_end = t_start + seconds
    with ctx:
        while True:
            if tracer is not None:
                tracer.clear()
            c0 = time.process_time()
            t0 = time.perf_counter()
            out = workload.run_round()
            t1 = time.perf_counter()
            c1 = time.process_time()
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
            f, p = workload.check_round(out)
            failed += f
            problems += p
            rounds += 1
            if tracer is not None:
                spans = tracer.spans()
                layer_rounds.append(tracing.round_metrics(tracer.names, spans, t1 - t0,
                                                          workload.report_bytes))
                if not kept:
                    kept.append(spans)
            now = time.perf_counter()
            if probe is not None and len(setups) < SETUP_PROBES and \
                    now - t_start >= len(setups) * seconds / SETUP_PROBES:
                setups.append(probe())
                t_end += time.perf_counter() - now
            if time.perf_counter() >= t_end:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while probe is not None and len(setups) < SETUP_PROBES:
        setups.append(probe())
    problems += workload.final_checks()

    if trace:
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"trace-{workload.name}-{workload.seed}.json"), kept)
        metrics = {name: {"value": statistics.median(r[name] for r in layer_rounds),
                          "unit": unit} for name, unit in tracing.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(walls),
            "ops_per_s": workload.ops_per_round / statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    return {"correct": not problems, "attempted": rounds * workload.ops_per_round,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hyptrig", "__init__.py")):
        print(f"bench: no hyptrig sources at {SRC}; run from the root of a "
              f"source checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    workloads = load_workloads()
    workload = workloads.make(args.workload, args.seed, OUT_DIR)
    probe = None if args.trace else setup_timer(args.workload, args.seed)
    result = measure(workload, args.seconds, bool(args.trace), probe)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
