"""objsearch benchmark: one command, three seeded closed-loop workloads.

    python3 perfbench/run.py --workload desk_suite --seed 0 --seconds 30 --trace 0

Workloads (each one client, serial, ``parallelism=1``, in this process):

* ``desk_suite``: run_suite over generate_suite(per_family=3), 84 tasks x
  {oracle, realistic} x {random, sg_s, tr_s, star}, budget 20: the paper's
  protocol at desk scale (600-record memories). Prepare-side (patrol, build)
  changes show here.
* ``fullscale_suite``: run_suite over generate_suite(per_family=1,
  ticks_per_day=1300), 33 tasks x oracle x the same methods (3,900-record
  memories). Decision-state and payload changes show here; patrol-count
  changes should not, since there is one mode.
* ``memory_ops``: the memory layer with no policy at 7,800 records (scene 1,
  6 days x 1300 ticks): build, persist/load round trips, and a seeded
  retrieval mix through ActionExecutor.execute, plus the same mix on a
  600-record memory. File-format, index and payload changes show here.

Every workload reports every end-to-end metric. So each suite workload also
runs memory rounds on its first task's memory (build, persist/load round
trip, retrieval mix). They take turns with run_suite calls of one task
each, and are timed apart from them.

``--trace 0`` measures the end-to-end metrics with no tracing for
``--seconds``. Every time in them is a wall time scaled to the host's
fast pace (see pace.py), so that the host's slow stretches do not show as
slower code. ``--trace 1`` runs the workload's fixed minimum of work once
untraced, then once with objsearch's public functions wrapped (see
tracing.py), and reports the per-layer metrics. The last line of
stdout is the JSON result; the lines before it are the environment, the
checks, the digests and every metric with its sample count. The exit code is
1 when a correctness check fails and 2 when the objsearch sources are missing.
"""

from __future__ import annotations

import os

# One BLAS thread: the workloads are single-client, and extra threads on a
# 2-vCPU host would measure the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("desk_suite", "fullscale_suite", "memory_ops")
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 15, 2.0  # set-up repeats; the median is reported


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "commit": git_commit(),
    }


# -- metrics ---------------------------------------------------------------------


def end_to_end(wl, out, setup: list[tuple[int, float, int]], factors: list[float]) -> dict:
    """name -> (value, unit, samples), every end-to-end metric. Ingest,
    persist and load are medians over the run's builds, persists and loads.
    Times are paced: each timed block's wall time times its factor (see
    pace.py)."""

    def paced(blocks):
        return [(n, wall * factors[i]) for n, wall, i in blocks]

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    q = [ms for _, ms in paced(out.query_ms)]
    if wl.name == "memory_ops":
        throughput, samples = len(q) / (sum(q) / 1e3), len(q)
    else:
        suite = paced(out.suite)
        throughput, samples = sum(n for n, _ in suite) / sum(s for _, s in suite), len(suite)
    return {
        "setup_s": (statistics.median(s for _, s in paced(setup)), "s", len(setup)),
        "throughput_per_s": (throughput, "1/s", samples),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "ingest_records_per_s": (statistics.median(n / s for n, s in paced(out.ingest)), "1/s", len(out.ingest)),
        "persist_s": (statistics.median(s for _, s in paced(out.persist_s)), "s", len(out.persist_s)),
        "load_s": (statistics.median(s for _, s in paced(out.load_s)), "s", len(out.load_s)),
        "query_ms_p50": (float(np.percentile(q, 50)), "ms", len(q)),
        "query_ms_p90": (float(np.percentile(q, 90)), "ms", len(q)),
    }


def error_rate(wl, out) -> tuple[float, int, int]:
    """Crash episodes over episodes on the suites, error outcomes over
    retrievals on memory_ops."""
    if wl.name == "memory_ops":
        return out.retrieval_errors / max(1, out.retrievals), out.retrieval_errors, out.retrievals
    return out.crashes / max(1, out.episodes), out.crashes, out.episodes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: one scene, per_family=1, 3 x 200 memories (self-test)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "objsearch" / "__init__.py").is_file():
        print(f"perfbench: objsearch sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    env = environment(args.seed)
    OUT_DIR.mkdir(exist_ok=True)

    import workloads as w
    from tracing import Tracer, layer_metrics

    wl = w.Workload(args.workload, args.seed, w.SCALES[args.scale], OUT_DIR)
    out = w.Samples()
    setup = []
    while len(setup) < SETUP_MIN or (sum(s for _, s, _ in setup) < SETUP_SECONDS and len(setup) < SETUP_MAX):
        start = time.perf_counter()
        wl.setup()
        setup.append((1, *out.pace.block(start)))
    if args.trace == 0:
        wl.run(out, None if args.scale == "tiny" else args.seconds)
        factors = out.pace.factors()
        metrics = end_to_end(wl, out, setup, factors)
    else:
        # Fixed work on both sides, so that the wall times compare.
        start = time.perf_counter()
        wl.run(out)
        untraced = time.perf_counter() - start
        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            wl.run(out, tracer=tracer)
            traced = time.perf_counter() - start
        finally:
            tracer.uninstall()
        tracer.write(f"{wl.path}-spans.jsonl")
        metrics = layer_metrics(tracer)
        metrics["bench.log_bytes_per_episode"] = (out.log_bytes_per_episode, "B", len(out.digests))
        metrics["bench.log_max_line_bytes"] = (float(out.log_max_line_bytes), "B", len(out.digests))
        metrics["bench.trace_overhead_frac"] = (traced / untraced - 1.0, "fraction", 1)
        cover = tracer.child_cover("bench.run_suite", ("bench.prepare_task", "bench.run_task_episode"))
        metrics["bench.run_suite.cover_frac"] = (cover, "fraction", len(out.digests))
        for name, ms in sorted(tracer.self_times_ms().items(), key=lambda kv: -kv[1])[:25]:
            print(f"self_ms {name} {ms:.3f}")

    out.check("retrieval_errors", out.retrieval_errors == 0,
              f"{out.retrieval_errors} error outcomes of {out.retrievals}")
    if out.digests:
        # With --trace 1 the first pass is untraced and the second traced.
        out.check("suite.same_digests", len(set(out.digests)) == 1,
                  f"report/log sha256 equal over {len(out.digests)} passes")
    rate, failed, attempted = error_rate(wl, out)
    env["loadavg_end"] = list(os.getloadavg())
    correct = all(ok for _, ok, _ in out.checks)

    print("env " + json.dumps(env, sort_keys=True))
    for name, ok, detail in out.checks:
        print(f"check {name} {'ok' if ok else 'FAIL'} {detail}")
    for report_sha, log_sha in sorted(set(out.digests)):
        print(f"digest reports sha256={report_sha} episodes.jsonl sha256={log_sha}")
    if args.trace == 0:
        print(f"pace readings={len(out.pace.readings)} factor_median={statistics.median(factors):.4f} "
              f"factor_min={min(factors):.4f} factor_max={max(factors):.4f}")
    print(f"metric error_rate {rate!r} fraction samples={attempted}")
    if args.trace == 0:
        q = [ms * factors[i] for _, ms, i in out.query_ms]
        print(f"metric query_ms_p99 {float(np.percentile(q, 99))!r} ms samples={len(q)}")
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} {value!r} {unit} samples={n}")
    result = {
        "correct": correct,
        "attempted": int(out.episodes + out.retrievals),
        "failed": int(out.crashes + out.retrieval_errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    record = {"workload": wl.name, "trace": args.trace, "env": env, "result": result,
              "samples": {name: n for name, (_, _, n) in metrics.items()},
              "checks": out.checks, "digests": sorted(set(out.digests)),
              "pace": {"readings": out.pace.readings, "parts": out.pace.parts, "blocks": out.pace.blocks},
              "blocks": {"setup": setup, "suite": out.suite, "ingest": out.ingest, "persist": out.persist_s,
                         "load": out.load_s, "query_ms": out.query_ms}}
    with open(f"{wl.path}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
