"""Benchmark entry point: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  With `--trace 0` it starts the
workload's process four times for set-up alone, two before and two after
the measured run, and prints the end-to-end metrics of `BENCHMARK.json`; with
`--trace 1` it starts one traced run and prints the per-layer metrics.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 when that object
was printed and every check's negative controls were rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"
TIME_LIMIT_S = 170.0      # the whole command must end within 180 s
SETUP_PROBES = 4          # set-up only processes, besides the measured one
# one BLAS/OpenMP thread keeps runs steady on a shared machine; the
# operations spend their time in element-wise numpy, not in BLAS
THREADS = "1"


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def worker_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


def run_worker(args, run_dir, deadline, *extra):
    """Start worker.py, wait for it, and return its JSON line."""
    spawned_at = time.time()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(spawned_at), "--run-dir", str(run_dir),
           "--size", args.size, *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the next process")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=worker_env(),
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_metrics(pass_metrics):
    names = pass_metrics[0].keys()
    return {name: statistics.median(m[name] for m in pass_metrics)
            for name in names}


def measure(args, run_dir, deadline):
    """Metric values, sample counts, and the measured run's record."""
    if args.trace:
        result = run_worker(args, run_dir, deadline)
        values = median_metrics(result["pass_metrics"])
        samples = {name: len(result["pass_metrics"]) for name in values}
        return values, samples, result

    def probe():
        return run_worker(args, run_dir, deadline, "--setup-only")["setup_s"]

    # the machine's speed drifts over tens of seconds: probes on both sides
    # of the measured run keep one slow stretch from setting the median
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    result = run_worker(args, run_dir, deadline)
    setups.append(result["setup_s"])
    setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(result["pass_wall_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    samples = {"setup_s": len(setups),
               "wall_s": len(result["pass_wall_s"]),
               "peak_rss_mb": 1}
    return values, samples, result


def main(argv=None) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: reduced inputs, for the self-test only")
    args = parser.parse_args(argv)

    bench = load_benchmark()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "bbmlab" / "__init__.py").is_file():
        print(f"no bbmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = bench["per_layer" if args.trace else "end_to_end"]

    run_dir = RUNS / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        values, samples, result = measure(args, run_dir,
                                          start + TIME_LIMIT_S)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    for problem in result["problems"] + result["controls_accepted"]:
        print(f"problem: {problem}")
    for op, share in result["pair_shares"].items():
        print(f"in-support pair share {op}: {100 * share:.2f}%")
    for m in declared:
        print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']} "
              f"(median, {samples[m['name']]} samples)")
    print(f"operations: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    correct = not result["controls_accepted"]
    RUNS.mkdir(exist_ok=True)
    summary = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    (RUNS / f"result-{args.workload}-s{args.seed}-t{args.trace}.json") \
        .write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
