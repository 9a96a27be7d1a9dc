#!/usr/bin/env python3
"""One JSON bench record of the current tree.

    python3 scripts/bench.py BENCH_<n>.json

Run from the root of a source checkout.  The record holds:

* ``machine``: nproc and the Python, numpy and scipy versions;
* ``perfbench``: for every workload of BENCHMARK.json, the last line of
  ``perfbench/run.py --workload W --seed 301 --seconds 10 --trace 0`` (its
  medians of wall_ref_s, setup_s and peak_rss_mb, and its operation counts);
  perfbench does all the end-to-end timing, this script adds no second engine;
* ``import``: the cumulative ``-X importtime`` of ``import subnls.cli`` in a
  fresh interpreter, the median of IMPORT_RUNS;
* ``solves``: in this process, the rho = 20 continuation (log, N = 3,
  r_max 20, default schedule) at n = 2000 and n = 8000 and the rho = 10
  collapse run (mu = 2 mu*, p = 4, n = 2000), each with its median wall time
  over SOLVE_RUNS runs, its limit's energy, lambda, status and limit_kind,
  the SolverResult counters of the limit (sums over every stage solved,
  the eps = 0 limit stage's included) and the number of log records at
  WARNING or above that one run creates;
* ``sweep``: in this process, acceptance 4's 8-point energy_map (log,
  N = 3, r_max 20, n = 2000, default schedule, rho_k = 18 * 2^(k/2)), its
  median wall time over SOLVE_RUNS runs and each point's c, status and
  iterations;
* ``sweep_down``: in this process, the decreasing energy_map (14, 10) (log,
  N = 3, r_max 16, n = 400, default schedule), whose second radius lies
  below the branch's lambda = 0 point: each point's status and iterations;
* ``cli``: in this process, the median wall time over CLI_RUNS repeated
  ``cli.main`` calls, each command first called once to warm up (the first
  call builds the parser and pays argparse's own first use): ``threshold
  --alpha 1 --p 4``, and a 3-radius ``sweep-rho`` from 18 to 36 on
  configs/quick.ini into a temporary directory, with each command's exit
  code; their standard output is discarded;
* ``fingerprint``: the digest of scripts/stage_fingerprint.py and its work
  lines (per configuration and the total);
* ``layers``: microseconds per call, the minimum over LAYER_REPEAT timeit
  repeats, of what one solver iteration is made of, at n = 500, 2000 and
  8000 (log, N = 3, rho = 20, r_max 20, eps = 1e-3, on initial_guess's
  field): a stage's energy, g_eps and g_eps' each at a fresh evaluated
  point (one _At per call, so no |s|, ln s^2 or g(|s|) carries over), one
  preconditioner apply, and one sphere Newton step, with g_eps' taken at a
  point the stage has evaluated, as in the solver;
* ``tier1``: the wall time, exit code and outcome counts (passed, failed,
  ...) of one run of the tier-1 suite,
  ``python -m pytest -q --continue-on-collection-errors``; a failing test
  is recorded, not raised on.

It adds no dependency and takes about 50 s on a 2-core machine, most of it
in the three perfbench runs and the tier-1 suite.
"""

import contextlib
import importlib.metadata
import io
import json
import logging
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
import timeit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from subnls import cli  # noqa: E402
from subnls import grid as gr  # noqa: E402
from subnls import minimizer as mz  # noqa: E402
from subnls import nonlinearity as nl  # noqa: E402

PERFBENCH_ARGS = ("--seed", "301", "--seconds", "10", "--trace", "0")
IMPORT_RUNS = 5
SOLVE_RUNS = 5
CLI_RUNS = 20
COUNTERS = ("iterations", "newton_steps") + mz._EVAL_COUNTS
LAYER_SIZES = (500, 2000, 8000)
LAYER_REPEAT = 5
LAYER_TARGET_S = 0.02  # the length of one timed repeat


def env():
    out = dict(os.environ)
    out["PYTHONPATH"] = SRC + (os.pathsep + out["PYTHONPATH"] if out.get("PYTHONPATH") else "")
    return out


def run(args, check=True):
    """The finished Python child started in ROOT with args (its stdout and
    stderr captured as text); raises on a nonzero exit when check is set."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env(),
                          capture_output=True, text=True, check=False)
    if check and proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return proc


def machine():
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": importlib.metadata.version("scipy")}


def perfbench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    out = {}
    for name in names:
        stdout = run(["perfbench/run.py", "--workload", name, *PERFBENCH_ARGS]).stdout
        out[name] = json.loads(stdout.strip().splitlines()[-1])
    return out


def import_seconds():
    """Cumulative seconds of the top-level ``subnls.cli`` line of
    -X importtime, which covers everything that import loads."""
    times = []
    for _ in range(IMPORT_RUNS):
        stderr = run(["-X", "importtime", "-c", "import subnls.cli"]).stderr
        cumulative = [int(line.split("|")[1]) for line in stderr.splitlines()
                      if line.startswith("import time:") and line.split("|")[2] == " subnls.cli"]
        times.append(cumulative[-1] * 1e-6)
    return {"subnls.cli_s": statistics.median(times), "runs": IMPORT_RUNS}


class RecordCount(logging.Handler):
    """Counts the records that reach it."""

    def __init__(self, level):
        super().__init__(level)
        self.count = 0

    def emit(self, record):
        self.count += 1


def solve_record(config):
    grid = config.make_grid()
    walls = []
    warnings = RecordCount(logging.WARNING)
    logging.getLogger("subnls").addHandler(warnings)
    for _ in range(SOLVE_RUNS):
        warnings.count = 0
        start = time.perf_counter()
        res = mz.continuation(config, grid=grid)
        walls.append(time.perf_counter() - start)
    logging.getLogger("subnls").removeHandler(warnings)
    lim = res.limit
    return {"wall_s": statistics.median(walls), "runs": SOLVE_RUNS,
            "energy": lim.energy, "lambda": lim.lam, "status": lim.status,
            "limit_kind": lim.limit_kind, "warning_records": warnings.count,
            **{k: getattr(lim, k) for k in COUNTERS}}


def solves():
    log3 = nl.log_power(1.0, 0.0, 4.0, dim=3)
    collapse = nl.log_power(1.0, 2.0 * nl.mu_threshold(1.0, 4.0), 4.0, dim=3)
    return {
        "rho20_n2000": solve_record(mz.SolveConfig(spec=log3, rho=20.0, r_max=20.0, n=2000)),
        "rho20_n8000": solve_record(mz.SolveConfig(spec=log3, rho=20.0, r_max=20.0, n=8000)),
        "collapse_rho10_n2000": solve_record(
            mz.SolveConfig(spec=collapse, rho=10.0, r_max=20.0, n=2000)),
    }


def sweep():
    config = mz.SolveConfig(spec=nl.log_power(1.0, 0.0, 4.0, dim=3), rho=18.0, r_max=20.0,
                            n=2000)
    rhos = [18.0 * 2 ** (k / 2.0) for k in range(8)]
    walls = []
    for _ in range(SOLVE_RUNS):
        start = time.perf_counter()
        points = mz.energy_map(config, rhos)
        walls.append(time.perf_counter() - start)
    return {"wall_s": statistics.median(walls), "runs": SOLVE_RUNS,
            "points": [{"rho": p.rho, "c": p.c_value, "status": p.status,
                        "iterations": p.iterations} for p in points]}


def sweep_down():
    config = mz.SolveConfig(spec=nl.log_power(1.0, 0.0, 4.0, dim=3), rho=14.0, r_max=16.0,
                            n=400)
    return {"points": [{"rho": p.rho, "status": p.status, "iterations": p.iterations}
                       for p in mz.energy_map(config, [14.0, 10.0])]}


def cli_calls():
    def median_wall(argv):
        walls = []
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
            for _ in range(CLI_RUNS):
                start = time.perf_counter()
                cli.main(argv)
                walls.append(time.perf_counter() - start)
        return statistics.median(walls), code

    with tempfile.TemporaryDirectory() as tmp:
        threshold_s, threshold_code = median_wall(["threshold", "--alpha", "1", "--p", "4"])
        sweep_s, sweep_code = median_wall(["sweep-rho", "--config",
                                           os.path.join(ROOT, "configs", "quick.ini"),
                                           "18", "36", "3", "--out", tmp])
    return {"threshold_s": threshold_s, "threshold_exit": threshold_code,
            "sweep_rho_s": sweep_s, "sweep_rho_exit": sweep_code, "runs": CLI_RUNS}


def fingerprint():
    proc = run(["scripts/stage_fingerprint.py"])
    work = {}
    for line in proc.stderr.splitlines():
        name, _, counts = line.rpartition(": ")
        work[name] = {k: int(v) for k, v in (kv.split("=") for kv in counts.split())}
    return {"digest": proc.stdout.strip(), "work": work}


def per_call_us(fn):
    """Microseconds per call of fn: the minimum over LAYER_REPEAT repeats of
    a loop that lasts about LAYER_TARGET_S."""
    timer = timeit.Timer(fn)
    number = 1
    while timer.timeit(number) < LAYER_TARGET_S:
        number *= 2
    return 1e6 * min(timer.repeat(LAYER_REPEAT, number)) / number


def layers():
    spec = nl.logarithmic(1.0, dim=3)
    eps, rho = 1e-3, 20.0
    out = {}
    for n in LAYER_SIZES:
        grid = gr.RadialGrid(3, 20.0, n)
        u = mz.initial_guess(spec, grid, rho, eps).values
        stage = mz._bind_stage(grid, spec, eps)
        lam = mz.extract_lambda(gr.RadialField(grid, u), spec, eps)
        res = -gr.laplacian_values(grid, u) - stage.g(mz._At(u, grid)) + lam * u
        m_u = float(np.dot(grid.w, u * u))
        apply = mz._sobolev_preconditioner(grid)
        rhs2 = np.empty((n, 2), order="F")
        held = [None]

        def fresh(f):
            # a new point per call, held until the next call has built its
            # own: dropped at once, its arrays let malloc trim the heap and
            # fault it back in on every call (3x the time at n = 8000)
            def call():
                held[0] = x = mz._At(u, grid)
                return f(x)
            return call

        row = {name: per_call_us(fresh(f))
               for name, f in (("energy", stage.energy), ("g_eps", stage.g),
                               ("g_eps_prime", stage.dg))}
        row["precond_apply"] = per_call_us(lambda: apply(res))
        at = mz._At(u, grid)
        stage.energy(at)
        row["newton_step_sphere"] = per_call_us(
            lambda: mz._newton_step(grid, u, m_u, res, lam, rho, True, stage.dg(at), rhs2))
        out[f"n{n}"] = row
    return {"us_per_call": out, "repeat": LAYER_REPEAT, "eps": eps}


def tier1():
    started = time.perf_counter()
    # the known-red acceptance 2 makes pytest exit 1: record it, do not raise
    proc = run(["-m", "pytest", "-q", "--continue-on-collection-errors"], check=False)
    wall = time.perf_counter() - started
    # pytest's summary line, e.g. "1 failed, 380 passed in 7.38s"
    summary = proc.stdout.strip().splitlines()[-1]
    counts = {outcome: int(k) for k, outcome in re.findall(r"(\d+) ([a-z]+)", summary)}
    return {"wall_s": wall, "exit_code": proc.returncode, "counts": counts}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    started = time.perf_counter()
    record = {"machine": machine(), "perfbench": perfbench(), "import": import_seconds(),
              "solves": solves(), "sweep": sweep(), "sweep_down": sweep_down(),
              "cli": cli_calls(),
              "fingerprint": fingerprint(),
              "layers": layers(), "tier1": tier1()}
    record["bench_s"] = time.perf_counter() - started
    with open(argv[0], "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {argv[0]} in {record['bench_s']:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
