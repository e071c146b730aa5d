"""One benchmark process: set up, warm up, then run a closed loop.

    python3 benchmark/worker.py --workload W --seed S --seconds T --trace 0|1
                                --workdir DIR [--probe]

Inputs are generated before the set-up clock starts.  Set-up time runs
from just before ``import ncfock`` to the first timed request and covers
the import and one untimed warm-up request.  With --probe the process stops
there.  Otherwise one client sends the workload's requests one after the
other for T seconds (closed loop, single process).  With --trace 1 that
loop gets T/2 and a second loop over the same requests runs for T/2 with
every public ncfock function traced.
The last line of stdout is one JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (standard library only)


def closed_loop(client, reqs, seconds: float, tracer=None) -> dict:
    """Send requests one at a time until `seconds` have passed or `reqs` ends.

    Returns per-request kinds, cycles, latencies and loop start times, the
    failures (request index -> reason: exception, exit code or check), the
    wall time, and `complete`: the cycles the loop finished.
    """
    out = {"kinds": [], "cycles": [], "latencies": [], "starts": [], "failures": {}}
    start = perf_counter()
    deadline = start + seconds
    pending = None
    for i, req in enumerate(reqs):
        if perf_counter() >= deadline:
            pending = req
            break
        out["starts"].append(perf_counter() - start)
        client.prepare(req)
        if tracer is not None:
            tracer.request = i
        t0 = perf_counter()
        try:
            answer = client.call(req)
            error = None
        except Exception as exc:  # a failed request is counted, never fatal
            error = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if tracer is not None:
            tracer.request = -1
        if error is None:
            error = client.check(req, answer)
        out["kinds"].append(req["kind"])
        out["cycles"].append(req["cycle"])
        out["latencies"].append(t1 - t0)
        if error is not None:
            out["failures"][i] = error
    out["wall"] = perf_counter() - start
    cycles = sorted(set(out["cycles"]))
    if pending is not None and cycles and pending["cycle"] == cycles[-1]:
        cycles.pop()
    out["complete"] = cycles
    return out


def blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    warmup = workloads.warmup_request(args.workload, args.seed)
    t_setup = perf_counter()
    import ncfock
    import client as client_mod
    c = client_mod.Client(args.workdir)
    c.prepare(warmup)
    c.call(warmup)
    setup_s = perf_counter() - t_setup
    out = {"setup_s": setup_s, "ncfock": os.path.abspath(ncfock.__file__)}
    if args.probe:
        print(json.dumps(out))
        return 0

    # a traced run splits its time between an untraced and a traced loop
    seconds = args.seconds / 2 if args.trace else args.seconds
    loop_client = client_mod.Client(args.workdir)
    loop = closed_loop(loop_client, workloads.requests(args.workload, args.seed), seconds)
    import numpy as np
    import scipy
    out.update(loop=loop,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               numpy=np.__version__, scipy=scipy.__version__, blas=blas_info(np),
               blas_threads=os.environ.get("OPENBLAS_NUM_THREADS"),
               norm_gaps=len(loop_client.norm_gaps), norm_gap_rel=median(loop_client.norm_gaps))
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        traced_client = client_mod.Client(args.workdir)
        with tracer:
            traced = closed_loop(traced_client, workloads.requests(args.workload, args.seed),
                                 seconds, tracer=tracer)
        kinds = traced["kinds"]
        layers = tracer.layer_metrics(kinds, traced["wall"])
        layers["freealg.norm_gap_rel"] = median(traced_client.norm_gaps)
        layers["bench.traced_throughput_ratio"] = (
            (len(kinds) / traced["wall"]) / (len(loop["kinds"]) / loop["wall"]))
        spans_path = os.path.join(args.workdir, f"spans-{args.workload}-{args.seed}.npz")
        tracer.write(spans_path)
        out.update(traced={
            "requests": len(kinds), "failures": traced["failures"], "kinds": kinds,
            "layers": layers, "spans": len(tracer.spans), "spans_file": spans_path,
            "kernel_builds_by_kind": tracer.calls_by_kind("poisson.poisson_kernel", kinds),
            "bounds_by_kind": tracer.calls_by_kind("freealg.sup_norm_bounds", kinds),
            "quotient_builds_by_kind": tracer.calls_by_kind("ideals.build_quotient", kinds)})
    print(json.dumps(out))
    return 0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


if __name__ == "__main__":
    sys.exit(main())
