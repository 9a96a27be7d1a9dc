"""subnls benchmark driver.

    python3 perfbench/run.py --workload gausson --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Workloads, metric names, units and
the "why" of each workload come from BENCHMARK.json; workloads.py defines the
inputs and the correctness gates.

--trace 0 measures the end-to-end metrics.  Each repetition runs in a fresh
child process (child.py) with BLAS/OpenMP threads pinned to 1.  A run first
starts SETUP_PROBES set-up-only children, then cycles through the workload's
repetitions (repetition k draws its inputs from default_rng([seed, k])): one
full cycle always, further repetitions while they fit in --seconds.

  wall_s       median over repetitions, first solver call to checked result
  wall_ref_s   the same, with each repetition's wall scaled by CAL_REF_S over
               the time of a fixed NumPy kernel (child.calibrate) timed
               around it: the host's speed drifts by up to 1.6x within
               minutes, and this ratio cancels most of that drift
  setup_s      median over all children, launch to end of set-up (imports,
               config/spec and grid build, first sign-structure fill)
  peak_rss_mb  median over repetitions of the largest peak resident set of
               the child or of any of its pool workers

--trace 1 measures the per-layer metrics: the layer table (layers.py), then
the first repetitions of the cycle (a quarter of it, at most one batch) run
in one untraced child and again in one traced child.  The two must give
bit-identical answers; their wall-time difference is the tracing overhead.
The spans go to perfbench/out/spans/<workload>.json.

Every repetition's answer passes the workload's gate or counts as failed.
The last line of standard output is the JSON result; lines before it give
the run context, each metric with unit and sample count, and the accuracy of
the answers (energy_err, lambda_err) against the closed form.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 3
# child.calibrate() takes this long on the 2-core host the bounds were set on
CAL_REF_S = 0.015
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    def __init__(self, deadline):
        self.deadline = deadline
        self.env = child_env()

    def spawn(self, script, args):
        """Run one child to completion; return (launch time, record or None,
        error text)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 1.0:
            return None, None, "no time left"
        launch = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, script), *args],
                                cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return launch, None, "timed out"
        finally:
            # pool workers left behind by a crashed child share its group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            return launch, None, f"exit {proc.returncode}: {err.strip()[-400:]}"
        return launch, json.loads(out.strip().splitlines()[-1]), ""


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def context(args, bench):
    facts = {
        "seed": args.seed,
        "workload": args.workload,
        "why": next(w["why"] for w in bench["workloads"] if w["name"] == args.workload),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "thread_env": {var: "1" for var in THREAD_VARS},
        "loadavg_at_start": os.getloadavg(),
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("context " + json.dumps(facts))
    return facts


def summary(name, unit, values):
    lo, hi = quartiles(values)
    print(f"metric {name} = {statistics.median(values):.6g} {unit} "
          f"(median of {len(values)}, quartiles {lo:.6g} .. {hi:.6g})")


def rss_mb(record):
    return max(record["rss_self_kb"], record["rss_workers_kb"]) / 1024.0


def measure(args, wl, runner, started):
    """Untraced run: end-to-end metrics."""
    setups, walls, walls_ref, rss, accs = [], [], [], [], []
    attempted = failed = 0
    for _ in range(SETUP_PROBES):
        launch, rec, err = runner.spawn("child.py", [wl.name, str(args.seed), "0", "1", "setup"])
        if rec is None:
            raise RuntimeError(f"set-up child failed: {err}")
        setups.append(rec["setup_end"] - launch)
    first = 0
    durations = []
    while first < wl.reps or (time.monotonic() - started + statistics.median(durations)
                              <= args.seconds):
        attempted += wl.batch
        launch, rec, err = runner.spawn(
            "child.py", [wl.name, str(args.seed), str(first % wl.reps), str(wl.batch), "run"])
        first += wl.batch
        if rec is None:
            failed += wl.batch
            print(f"child failed: {err}", file=sys.stderr)
            break
        durations.append(time.monotonic() - launch)
        setups.append(rec["setup_end"] - launch)
        rss.append(rss_mb(rec))
        for r in rec["reps"]:
            walls.append(r["wall_s"])
            walls_ref.append(r["wall_s"] * CAL_REF_S / r["cal_s"])
            ok, reason, acc = wl.gate(r["output"])
            accs.append(acc)
            if not ok:
                failed += 1
                print(f"rep {r['rep']} failed its gate: {reason}", file=sys.stderr)
    samples = {}
    if walls:
        samples = {"wall_s": walls, "wall_ref_s": walls_ref, "setup_s": setups,
                   "peak_rss_mb": rss}
    return attempted, failed, samples, accs


def outputs_identical(a, b):
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def trace_metrics(wl, spans, results, wall):
    stages = tracing.solver_stages(spans, results, wl.rearrange_every)
    totals = tracing.self_times(spans)
    it = sum(s["iterations"] for s in stages)
    m = {
        "minimizer.iterations": it,
        "minimizer.iterations_max_stage": max((s["iterations"] for s in stages), default=0),
        "minimizer.energy_evals": sum(s["energy_evals"] for s in stages),
        "minimizer.energy_evals_initial_guess": sum(
            s["energy_evals_initial_guess"] for s in stages),
        "minimizer.grad_evals": sum(s["grad_evals"] for s in stages),
        "minimizer.backtracks": sum(s["backtracks"] for s in stages),
        "minimizer.armijo_accept_ratio": (sum(s["accepted"] for s in stages)
                                          / max(1, sum(s["trials"] for s in stages))),
        "minimizer.iter_us": 1e6 * sum(s["solver_s"] for s in stages) / max(1, it),
        "trace.spans": len(spans),
    }
    for layer in tracing.LAYERS:
        self_s, calls = totals.get(layer, (0.0, 0))
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.calls"] = calls
    # pool workers: per-point time is the worker's energy_map span
    points = [(pid, b - a) for name, a, b, parent, pid in spans
              if name == "minimizer.energy_map"]
    busy = {}
    for pid, dt in points:
        busy[pid] = busy.get(pid, 0.0) + dt
    if points:
        mean = sum(dt for _, dt in points) / len(points)
        m["cli.sweep_imbalance"] = max(dt for _, dt in points) / mean
        m["cli.pool_wait_s"] = wall - max(busy.values())
    else:
        m["cli.sweep_imbalance"] = 1.0
        m["cli.pool_wait_s"] = 0.0
    return m, stages


def measure_traced(args, wl, runner):
    """Traced run: per-layer metrics, transparency check, tracing overhead."""
    import layers

    print("predictions (layer metric -> end-to-end metric, workloads, expectation):")
    for row in layers.PREDICTIONS:
        print("  " + " | ".join(row))
    _, layer_rec, err = runner.spawn("layers.py", [])
    if layer_rec is None:
        raise RuntimeError(f"layer table failed: {err}")
    print("layer table (timeit, min of repeats; cache state last):")
    for name, value, state in layer_rec["rows"]:
        print(f"  {name:48s} {value:12.4f}  {state}")
    spans_dir = os.path.join(OUT_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    # one child pair: untraced, then traced, on the same repetitions
    count = min(wl.batch, max(1, wl.reps // 4))
    spans_path = os.path.join(spans_dir, f"{wl.name}.json")
    common = [wl.name, str(args.seed), "0", str(count)]
    recs = {}
    for mode, extra in (("run", []), ("trace", [spans_path])):
        _, rec, err = runner.spawn("child.py", common + [mode] + extra)
        if rec is None:
            print(f"{mode} child failed: {err}", file=sys.stderr)
            return count, count, {}, []
        recs[mode] = rec
    with open(spans_path) as fh:
        traced_reps = json.load(fh)["reps"]
    failed = 0
    per_rep, overheads, accs = [], [], []
    for plain, traced, spans_rec in zip(recs["run"]["reps"], recs["trace"]["reps"],
                                        traced_reps):
        ok, reason, acc = wl.gate(traced["output"])
        accs.append(acc)
        if not outputs_identical(plain["output"], traced["output"]):
            ok, reason = False, "traced answer differs from the untraced one"
        if not ok:
            failed += 1
            print(f"rep {traced['rep']} failed: {reason}", file=sys.stderr)
        overheads.append(traced["wall_s"] - plain["wall_s"])
        spans, results = tracing.merge(spans_rec["processes"])
        m, stages = trace_metrics(wl, spans, results, traced["wall_s"])
        if hasattr(wl, "points") and m["minimizer.energy_map.calls"] != wl.points:
            print("pool worker spans missing: per-point times unavailable", file=sys.stderr)
        per_rep.append(m)
        print(f"rep {traced['rep']} stages (iterations, energy evals, grad evals, "
              f"backtracks, accept ratio):")
        for st in stages:
            print(f"  {st['iterations']:6d} {st['energy_evals']:6d} {st['grad_evals']:6d} "
                  f"{st['backtracks']:6d} {st['accepted'] / max(1, st['trials']):.4f}")
    samples = {k: [v] for k, v in layer_rec["metrics"].items()}
    samples.update({k: [m[k] for m in per_rep] for k in per_rep[0]})
    samples["trace.overhead_s"] = overheads
    samples["cli.import_s"] = [rec["import_s"] for rec in recs.values()]
    return count, failed, samples, accs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "subnls", "__init__.py")):
        print("subnls sources not found under src/: run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    facts = context(args, bench)
    os.makedirs(OUT_DIR, exist_ok=True)
    runner = Runner(started + RUN_LIMIT_S)
    if args.trace:
        attempted, failed, samples, accs = measure_traced(args, wl, runner)
        wanted = bench["per_layer"]
    else:
        attempted, failed, samples, accs = measure(args, wl, runner, started)
        wanted = bench["end_to_end"]
    if not samples:
        print("no repetition completed", file=sys.stderr)
        return 1

    metrics = {}
    for spec in wanted:
        values = samples[spec["name"]]
        summary(spec["name"], spec["unit"], values)
        metrics[spec["name"]] = {"value": statistics.median(values), "unit": spec["unit"]}
    if not args.trace:
        summary("wall_s", "s", samples["wall_s"])
    for key in sorted({k for acc in accs for k in acc}):
        summary(key, "abs", [acc[key] for acc in accs if key in acc])
    print(f"metric ops_failed = {failed} of {attempted} attempted")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = os.path.join(OUT_DIR, f"report-{wl.name}-trace{args.trace}.json")
    with open(report, "w") as fh:
        json.dump({"context": facts, "result": result, "samples": samples,
                   "accuracy": accs}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
