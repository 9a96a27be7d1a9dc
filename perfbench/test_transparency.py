"""Checks that the benchmark measures without changing what it measures.

    python3 -m pytest perfbench/test_transparency.py

Not part of the repository's test suite (tests/); takes about half a minute.
gausson is left out because one repetition takes about nine seconds; it
shares every traced code path with the two workloads checked here.
"""

import json
import os
import re
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPANS_DIR = os.path.join(HERE, "out", "test-spans")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def spawn(*args):
    _, rec, err = run.Runner(time.monotonic() + 120).spawn("child.py", [str(a) for a in args])
    assert rec is not None, err
    return rec


def traced_pair(workload, seed):
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, f"{workload}-{seed}.json")
    plain = spawn(workload, seed, 0, 1, "run")["reps"][0]
    traced = spawn(workload, seed, 0, 1, "trace", spans_path)["reps"][0]
    with open(spans_path) as fh:
        spans, results = tracing.merge(json.load(fh)["reps"][0]["processes"])
    os.remove(spans_path)
    return plain, traced, spans, results


def test_trace_is_transparent_in_process():
    wl = workloads.WORKLOADS["nonexistence"]
    plain, traced, spans, results = traced_pair(wl.name, 3)
    assert plain["output"] == traced["output"]
    stages = tracing.solver_stages(spans, results, wl.rearrange_every)
    # the trace's counts are the program's own
    assert [s["iterations"] for s in stages] == traced["output"]["stage_iterations"]
    assert all(s["grad_evals"] == s["iterations"] for s in stages)
    assert wl.gate(traced["output"])[0]


def test_trace_is_transparent_across_pool_workers():
    wl = workloads.WORKLOADS["sweep_cli"]
    plain, traced, spans, results = traced_pair(wl.name, 3)
    assert plain["output"] == traced["output"]
    assert wl.gate(traced["output"])[0]
    if traced["output"]["jobs"] > 1:
        pids = {pid for name, _, _, _, pid in spans if name == "minimizer.energy_map"}
        assert len(pids) >= 2, "worker spans were not collected"
    points = [s for s in spans if s[0] == "minimizer.energy_map"]
    assert len(points) == wl.points
    assert len(results) == wl.points * 3  # three eps stages per point


def test_other_seed_changes_inputs_and_passes_gates():
    wl = workloads.WORKLOADS["nonexistence"]
    a = spawn(wl.name, 1, 0, 1, "run")["reps"][0]["output"]
    b = spawn(wl.name, 2, 0, 1, "run")["reps"][0]["output"]
    assert a != b
    assert wl.gate(a)[0] and wl.gate(b)[0]


def test_metric_names():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    # the traced run emits exactly the per-layer metrics BENCHMARK.json lists
    _, layer_rec, err = run.Runner(time.monotonic() + 120).spawn("layers.py", [])
    assert layer_rec is not None, err
    _, traced, spans, results = traced_pair("nonexistence", 1)
    emitted, _ = run.trace_metrics(workloads.WORKLOADS["nonexistence"], spans, results,
                                   traced["wall_s"])
    emitted = set(emitted) | set(layer_rec["metrics"]) | {"trace.overhead_s", "cli.import_s"}
    assert emitted == {m["name"] for m in bench["per_layer"]}
