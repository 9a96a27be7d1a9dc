"""Repetitions of one workload, in a fresh process.

    python3 perfbench/child.py <workload> <seed> <first rep> <count> <mode> [<spans path>]

Runs repetitions first .. first+count-1 one after another, after one set-up.
mode is ``run`` (untraced), ``trace`` (spans of the repetitions, not of the
set-up, recorded and written to the spans path) or ``setup`` (stop after
set-up).  The last line of standard
output is one JSON record: the monotonic time at which set-up ended, the
import time of ``subnls.cli``, each repetition's timed wall, output record
and calibration time (mean of the kernel timed before and after it), and
the peak resident sets of this process and of its pool workers.
run.py starts this with BLAS/OpenMP threads pinned to 1 and ``src`` on the
path.
"""

import json
import os
import resource
import sys
import time
import traceback


def calibrate():
    """Seconds for a fixed NumPy kernel shaped like the solver's inner loop:
    elementwise log, where, searchsorted and a weighted dot on 1000 doubles.
    Timed around every repetition so run.py can express wall time in units
    of this kernel, which cancels the host's speed drift."""
    import numpy as np

    x = np.linspace(1e-3, 2.0, 1000)
    edges = np.array([0.3, 1.0])
    start = time.perf_counter()
    for _ in range(1000):
        y = x * x
        z = np.where(x > 0.5, y * np.log(y), -y)
        np.dot(z, x)
        np.searchsorted(edges, x)
    return time.perf_counter() - start


def main(argv):
    name, seed, first, count, mode = argv[0], int(argv[1]), int(argv[2]), int(argv[3]), argv[4]
    t0 = time.perf_counter()
    import subnls.cli  # noqa: F401  (numpy, scipy and every subnls module)
    import_s = time.perf_counter() - t0

    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    states = [wl.setup(seed, rep) for rep in range(first, first + count)]
    record = {"setup_end": time.monotonic(), "import_s": import_s, "reps": []}
    tracer = None
    if mode == "trace":
        spans_path = argv[5]
        worker_dir = spans_path + ".workers"
        os.makedirs(worker_dir, exist_ok=True)
        tracer = tracing.Tracer(worker_dir)
        tracer.install()
    traced = []
    if mode != "setup":
        cal = calibrate()
        for rep, state in zip(range(first, first + count), states):
            start = time.perf_counter()
            try:
                output = wl.run(state)
            except Exception as exc:  # a failed repetition is counted, not fatal
                output = {"error": traceback.format_exception_only(exc)[-1].strip()}
            wall = time.perf_counter() - start
            cal_before, cal = cal, calibrate()
            record["reps"].append({"rep": rep, "wall_s": wall, "output": output,
                                   "cal_s": (cal_before + cal) / 2})
            if tracer is not None:
                traced.append({"rep": rep, "processes": tracer.collect()})
    if tracer is not None:
        tracer.uninstall()
        os.rmdir(worker_dir)
        with open(spans_path, "w") as fh:
            json.dump({"run_id": f"{name}-seed{seed}", "reps": traced}, fh)
    record["rss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["rss_workers_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
