"""Quick self-test of the benchmark, about a minute on two cores.

    python3 perfbench/selftest.py

Runs every workload at reduced size, untraced and traced, and asserts that
the last line has the result keys, that no operation failed, that every
check's negative controls were rejected, and that the printed metric
names and units are exactly those of `BENCHMARK.json`.  It also checks
that the tracer refuses a name that no longer exists, and that the
benchmark exits non-zero without a result where there are no sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)


def check_run(bench, workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, \
        f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, f"{workload}: keys {sorted(result)}"
    assert result["correct"] is True, f"{workload}: not correct"
    assert result["attempted"] >= 1 and result["failed"] == 0, \
        f"{workload}: {result['failed']} of {result['attempted']} failed"
    declared = bench["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected, f"{workload}: metrics {printed}"
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, f"{workload}: {name} {m}"
        assert isinstance(m["value"], (int, float)) \
            and math.isfinite(m["value"]), f"{workload}: {name} {m}"
    for name in ("wall_s", "peak_rss_mb", "setup_s"):
        if not trace:
            assert result["metrics"][name]["value"] > 0, f"{workload}: {name}"
    return result


def check_tracer_refuses_missing_name():
    sys.path.insert(0, str(HERE))
    import tracing
    module = types.ModuleType("moved")
    tracer = tracing.Tracer()
    try:
        tracer.install([(module, "gone", "layer", None)])
    except LookupError:
        return
    raise AssertionError("tracer accepted a missing name")


def check_fails_without_sources():
    bare = HERE / "_runs" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_runs", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench(bare, "disk-bump", 0)
        assert proc.returncode != 0, "ran without sources"
        assert not proc.stdout.strip(), "printed a result without sources"
        assert "no bbmlab sources" in proc.stderr, proc.stderr
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_tracer_refuses_missing_name()
    check_fails_without_sources()
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            result = check_run(bench, workload, trace)
            print(f"ok {workload} trace={trace}: "
                  f"{result['attempted']} operations")
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
