"""ncfock benchmark: one workload, one seed, one closed-loop run.

    python3 benchmark/run.py --workload pick_stream|norm_sweep|quotient_ladder
                             --seed N --seconds T --trace 0|1

Run from the root of a source checkout; ncfock is imported from ./src.
The run starts one worker that sets up and runs the closed loop for T
seconds, with SETUP_PROBES fresh interpreters that only set up (import
plus one warm-up request) split around it; set-up time is the median over
all of them.
Every answer is checked.  Human-readable lines, each metric with its unit
and sample count, come first; the last stdout line is the JSON result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1 (the
worker then also runs a traced loop; spans go to .bench_work/).

BLAS threads are set to the number of usable CPUs, the library's
out-of-box behaviour, whatever the calling shell has set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 12
PROBE_TIMEOUT_S = 10


def git_commit(root: str) -> str:
    """HEAD of the checkout, or "unknown" outside a git tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def worker_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(nproc)
    env["OMP_NUM_THREADS"] = str(nproc)
    return env


def run_worker(args, env, extra, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORKDIR] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def complete_cycles(loop: dict) -> dict:
    """Requests of the cycles the loop finished, and each cycle's request rate.

    A cycle runs from the start of its first request to the start of the
    next cycle (or the end of the loop).  Falls back to every request when
    no cycle finished.
    """
    cycles, starts = loop["cycles"], loop["starts"] + [loop["wall"]]
    done = set(loop["complete"])
    first, last = {}, {}
    for i, c in enumerate(cycles):
        first.setdefault(c, i)
        last[c] = i
    if not done:
        print("warning: no complete cycle; timing over all requests", file=sys.stderr)
        return {"requests": list(range(len(cycles))),
                "rates": [len(cycles) / loop["wall"]]}
    rates = [(last[c] - first[c] + 1) / (starts[last[c] + 1] - starts[first[c]])
             for c in sorted(done)]
    return {"requests": [i for i, c in enumerate(cycles) if c in done], "rates": rates}


def print_failures(label: str, loop: dict, limit: int = 20):
    for i, reason in sorted(loop["failures"].items(), key=lambda t: int(t[0]))[:limit]:
        print(f"  FAILED {label}request {i} ({loop['kinds'][int(i)]}): {reason}")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ncfock", "__init__.py")):
        print(f"no ncfock sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    env = worker_env(nproc)

    def probe():
        return run_worker(args, env, ["--probe"], PROBE_TIMEOUT_S)["setup_s"]

    # half the probes before the loop and half after, so that the median
    # set-up time covers the same stretch of the host's speed as the loop
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    res = run_worker(args, env, [], args.seconds + 60)
    if not res["ncfock"].startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"imported ncfock from {res['ncfock']}, not from this checkout", file=sys.stderr)
        return 2
    setups.append(res["setup_s"])
    setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]

    loop = res["loop"]
    timed = complete_cycles(loop)
    lat = [loop["latencies"][i] for i in timed["requests"]]
    n = len(lat)
    attempted = len(loop["kinds"])
    failed = len(loop["failures"])
    end_to_end = {
        "setup_s": (statistics.median(setups), "s", f"samples={len(setups)}"),
        "throughput_rps": (statistics.median(timed["rates"]), "1/s",
                           f"median of {len(timed['rates'])} cycles, {n} requests"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms", f"samples={n}"),
        "latency_p95_ms": (1e3 * percentile(lat, 0.95), "ms",
                           f"samples={n}, {n - math.ceil(0.95 * n)} above"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", "samples=1"),
    }
    print(f"env: commit={git_commit(ROOT)} nproc={nproc} blas_threads={res['blas_threads']} "
          f"blas={res['blas']['name']} {res['blas']['version']} numpy={res['numpy']} "
          f"scipy={res['scipy']} python={sys.version.split()[0]}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"closed loop, 1 client, wall={loop['wall']:.3f} s, "
          f"{len(timed['rates'])} complete cycles")
    for name, (value, unit, count) in end_to_end.items():
        print(f"  {name:<16} {value:12.4f} {unit:<4} ({count})")
    print(f"  {'failed_frac':<16} {failed / max(attempted, 1):12.4f} {'1':<4} "
          f"(failed={failed} of {attempted})")
    if res["norm_gaps"]:
        print(f"  {'norm_gap_rel':<16} {res['norm_gap_rel']:12.6f} {'1':<4} "
              f"(samples={res['norm_gaps']})")
    print_failures("", loop)

    metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in end_to_end.items()}
    if args.trace:
        traced = res["traced"]
        attempted += traced["requests"]
        failed += len(traced["failures"])
        metrics = {}
        print(f"traced loop: {traced['requests']} requests, {traced['spans']} spans "
              f"in {traced['spans_file']}")
        for name, value in traced["layers"].items():
            metrics[name] = {"value": value, "unit": unit_of(name)}
            print(f"  {name:<36} {value:14.6g} {unit_of(name)}")
        for key in ("bounds_by_kind", "kernel_builds_by_kind", "quotient_builds_by_kind"):
            for kind, calls in traced[key].items():
                print(f"  {key}: {kind}: {calls:.2f}")
        print_failures("traced ", traced)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


UNITS = {"calls": "count", "errors": "count", "self_s": "s",
         "dim3": "flop/req", "interpolant_terms": "count/req", "mult_entries": "count/req",
         "kernel_rows": "count/req", "ambient_dim": "count/req", "report_bytes": "B/req",
         "bounds_per_norm_request": "count/req", "kernel_builds_per_request": "count/req",
         "builds_per_request": "count/req", "norm_gap_rel": "1",
         "traced_throughput_ratio": "ratio"}


def unit_of(name: str) -> str:
    return UNITS[name.split(".", 1)[1]]


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
