"""One workload in one fresh process; `run.py` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --spawned-at T --run-dir DIR [--setup-only]
        [--size full|small]

Set-up (import `bbmlab`, build the workload's inputs) is timed from
`--spawned-at`, the parent's wall clock just before it started this
process.  The worker then runs whole passes over the workload's
operations until `--seconds` have elapsed, checks every output, runs each
check's negative controls, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_bbmlab():
    """Import the package from this checkout's `src`, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import bbmlab
    if Path(bbmlab.__file__).resolve().parent != src / "bbmlab":
        raise ImportError(f"bbmlab imported from {bbmlab.__file__}, "
                          f"not from {src}")


def run_passes(ops, seconds, tracer):
    """Whole passes until `seconds` have elapsed; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.begin_pass()
        wall = 0.0
        outputs = []
        for op in ops:
            t0 = time.perf_counter()
            try:
                raw = op.run()
            except Exception:
                wall += time.perf_counter() - t0
                outputs.append(("raised", traceback.format_exc(limit=3)))
                continue
            wall += time.perf_counter() - t0
            outputs.append(("ok", op.capture(raw)))
        record = {"wall_s": wall, "outputs": outputs}
        if tracer:
            record["metrics"] = tracer.pass_metrics(wall)
        passes.append(record)
        if time.perf_counter() - start >= seconds:
            return passes


def verify(ops, passes):
    """Check every output; run each check's negative controls once.

    Returns (failed operations, their problems, controls accepted)."""
    failed = 0
    problems = []
    accepted = []
    controlled = set()
    for index, record in enumerate(passes):
        for op, (status, out) in zip(ops, record["outputs"]):
            found = [out] if status == "raised" else op.check(out)
            if found:
                failed += 1
                problems.append(f"pass {index} {op.name}: {found[0]}")
                continue
            if op.name in controlled:
                continue
            controlled.add(op.name)
            accepted += [f"{op.name}: negative control '{label}' accepted"
                         for label, wrong in op.controls(out)
                         if not op.check(wrong)]
    return failed, problems, accepted


def pair_shares(ops):
    """In-support pair share of each operation that runs an energy pass."""
    from workloads import in_support_share
    shares = {}
    for op in ops:
        if op.support is not None:
            within, total = in_support_share(*op.support)
            shares[op.name] = within / total
    return shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)

    _import_bbmlab()
    import tracing
    from workloads import WORKLOADS

    warnings.filterwarnings(
        "ignore", message="kernel scale nu=.*below the resolved bound",
        category=RuntimeWarning)
    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[args.workload](args.seed, args.size, run_dir)
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(tracing.boundaries())
    try:
        passes = run_passes(ops, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, problems, accepted = verify(ops, passes)
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "attempted": len(passes) * len(ops),
        "failed": failed,
        "problems": problems,
        "controls_accepted": accepted,
        "pair_shares": pair_shares(ops),
    }
    if tracer:
        result["pass_metrics"] = [p["metrics"] for p in passes]
        trace_name = f"trace-{args.workload}-s{args.seed}.json"
        tracer.dump(run_dir.parent / trace_name)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
