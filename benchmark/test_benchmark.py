"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q benchmark/test_benchmark.py
"""

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import client  # noqa: E402
import ncfock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


def first(workload, seed, count, keep=lambda req: True):
    return list(itertools.islice(filter(keep, workloads.requests(workload, seed)), count))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert first(workload, 7, 300) == first(workload, 7, 300)
    assert first(workload, 7, 300) != first(workload, 8, 300)
    assert workloads.warmup_request(workload, 7) == workloads.warmup_request(workload, 7)
    json.dumps(first(workload, 7, 50))   # requests are plain JSON data


def test_tracer_attributes_cross_module_call_to_callee():
    T = ncfock.RowContraction([np.diag([0.3, 0.1]), np.diag([0.2, 0.4])])
    p = ncfock.NcPolynomial(2, {(): 0.5, (1,): 1.0})
    original = ncfock.freealg.sup_norm_bounds
    tracer = tracing.Tracer()
    with tracer:
        assert ncfock.poisson.sup_norm_bounds is not original
        ncfock.poisson.von_neumann_margin(T, p, 3)
    assert ncfock.poisson.sup_norm_bounds is original
    names = [tracer.names[i] for i in tracer.spans.name]
    assert names[0] == "poisson.von_neumann_margin"
    bounds = names.index("freealg.sup_norm_bounds")
    assert tracer.spans.parent[bounds] == 0
    wall = tracer.spans.end[0] - tracer.spans.start[0]
    metrics = tracer.layer_metrics([], wall)
    assert metrics["poisson.calls"] == 1
    assert metrics["freealg.calls"] >= 1 and metrics["numerics.calls"] >= 1
    assert metrics["freealg.self_s"] > 0.0
    assert metrics["bench.self_s"] == pytest.approx(0.0, abs=1e-12)


def test_layer_self_times_and_bench_account_for_wall(tmp_path):
    tracer = tracing.Tracer()
    with tracer:
        loop = worker.closed_loop(
            client.Client(str(tmp_path)),
            itertools.islice(workloads.requests("quotient_ladder", 3), 16), 60.0, tracer=tracer)
    assert len(loop["kinds"]) == 16 and not loop["failures"]
    wall = loop["wall"]
    metrics = tracer.layer_metrics(loop["kinds"], wall)
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + metrics["bench.self_s"] == pytest.approx(wall, rel=1e-9)
    assert min(tracer.self_times()) >= -1e-9
    # spans only run inside timed requests, so the benchmark's own share is
    # at least the loop time spent outside them
    assert metrics["bench.self_s"] >= wall - sum(loop["latencies"]) - 1e-9
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    extra = {"freealg.norm_gap_rel", "bench.traced_throughput_ratio"}
    assert set(declared) == set(metrics) | extra
    assert all(run.unit_of(name) == unit for name, unit in declared.items())


def flipped_certify(problem, tol=1e-10):
    cert = ncfock.pick.certify(problem, tol)
    return dataclasses.replace(cert, feasible=not cert.feasible)


def test_wrong_answer_raises_failures(tmp_path, monkeypatch):
    reqs = first("pick_stream", 5, 6, keep=lambda req: not req["interpolant"])
    assert not worker.closed_loop(client.Client(str(tmp_path)), reqs, 60.0)["failures"]
    monkeypatch.setattr(ncfock, "certify", flipped_certify)
    loop = worker.closed_loop(client.Client(str(tmp_path)), reqs, 60.0)
    assert len(loop["failures"]) == len(loop["kinds"]) == len(reqs)
    assert all(reason.startswith("check: verdict") for reason in loop["failures"].values())


def test_unexpected_exit_code_raises_failures(tmp_path, monkeypatch):
    reqs = first("norm_sweep", 5, 4, keep=lambda req: req["kind"].startswith("cli:poisson c0"))
    monkeypatch.setattr(ncfock.cli, "main", lambda argv: 1)
    failures = worker.closed_loop(client.Client(str(tmp_path)), reqs, 60.0)["failures"]
    assert sorted(failures.values()) == ["check: exit code 1"] * len(reqs)


def test_complete_cycles_time_only_finished_cycles():
    loop = {"cycles": [0, 0, 1, 1, 2], "starts": [0.0, 1.0, 2.0, 2.5, 3.0], "wall": 4.0,
            "complete": [0, 1]}
    timed = run.complete_cycles(loop)
    assert timed["requests"] == [0, 1, 2, 3]
    assert timed["rates"] == [1.0, 2.0]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "pick_stream",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
