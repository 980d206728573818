"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload at ``--scale tiny`` (one scene, per_family=1, 3 x 200
memories) with ``--trace 0`` and ``--trace 1`` on seed 0, and with
``--trace 0`` on seed 1. Each run must exit 0, pass its checks, and print as
its last line a result with exactly the keys the benchmark contract names,
carrying every metric of BENCHMARK.json with its unit. Last, it copies only
BENCHMARK.json and the benchmark's directory into a scratch directory and
checks that the benchmark fails there without printing a result. Exit code 0
means every check held.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
TIMEOUT_S = 180


def run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed, trace in ((0, 0), (0, 1), (1, 0)):
            proc = run(ROOT, workload, seed, trace)
            where = f"{workload} seed={seed} trace={trace}"
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("attempted", 0) < 1:
                failures.append(f"{where}: correct={result.get('correct')} attempted={result.get('attempted')}")
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])
                failures.append(f"{where}: missing {missing} extra {extra} wrong units {units}")
            for name, metric in result.get("metrics", {}).items():
                if not isinstance(metric.get("value"), (int, float)):
                    failures.append(f"{where}: {name} is not a number")
            printed_only = ("error_rate", "query_ms_p99") if trace == 0 else ("error_rate",)
            for name in printed_only:
                if f"\nmetric {name} " not in proc.stdout:
                    failures.append(f"{where}: no '{name}' metric line")
            print(f"ran {where}: {len(got)} metrics", flush=True)

    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(bare, "memory_ops", 0, 0)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print("FAIL " + failure)
    print("selftest " + ("ok" if not failures else f"failed: {len(failures)} problem(s)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
