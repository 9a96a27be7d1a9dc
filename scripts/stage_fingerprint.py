#!/usr/bin/env python3
"""One SHA-256 over the answers of a fixed set of continuations.

    PYTHONPATH=src python3 scripts/stage_fingerprint.py [--verbose] [--expect DIGEST]

Every built-in family runs on a small grid: the log family in N = 2, 3 and
4, log_power with mu > 0, with mu < 0 (two roots of g), with a root of g
below the first eps (the cutoff ramp spans two sign intervals), and below
the nonexistence threshold (a collapse run), saturation and power_sublinear.
Each configuration runs three starts (the plain seed and two jittered ones,
as multistart draws them) and a 3-point energy_map.  The digest covers, for
every stage and every limit, its to_json_dict() record without the solver's
work counters, its residual bundle and the bytes of its field; a start
without a limit contributes the status of the stage that ended it and its
stages; and every energy_map point without its iterations.  Two trees that
print the same digest give bit-identical answers on all of these.  --verbose
also prints one line per record, and --expect DIGEST makes the exit status 1
when the digest differs from DIGEST (0 when it matches).  stdout is the digest line alone; stderr
gets the solver's work (iterations, Newton steps, preconditioner solves,
energy evaluations), which the digest leaves out, so that a change in work
shows next to an unchanged digest: one line per configuration, summed over
every stage of its starts (the eps = 0 limit stage included, through the
limit's counters), then the total over all configurations.  Each
configuration also gets a "<name> energy_map: iterations=N" line, the sum of
its energy_map points' iterations, which the total leaves out.
"""

import argparse
import dataclasses
import hashlib
import json
import logging
import sys

import numpy as np

from subnls import minimizer as mz
from subnls import nonlinearity as nl

# work counters, not answers: a change may count the same work differently
COUNTERS = ("energy_evals", "grad_evals", "backtracks", "precond_solves")
# the work summed to stderr
WORK = ("iterations", "newton_steps", "precond_solves", "energy_evals")
SCHEDULE = (1e-1, 1e-2, 1e-3)
STARTS = 3

# (name, spec, rho, r_max, n, max_iter)
CONFIGS = [
    ("log N=2", nl.logarithmic(1.0, dim=2), 12.0, 16.0, 200, 20000),
    ("log N=3", nl.logarithmic(1.0, dim=3), 20.0, 16.0, 200, 20000),
    ("log N=4", nl.logarithmic(1.0, dim=4), 30.0, 16.0, 200, 20000),
    ("log_power mu>0 N=3", nl.log_power(1.0, 0.7, 3.0, dim=3), 20.0, 16.0, 200, 20000),
    ("log_power mu<0 N=2", nl.log_power(1.0, -0.05, 4.0, dim=2), 12.0, 16.0, 200, 20000),
    ("log_power mu<0 N=3", nl.log_power(1.0, -0.05, 4.0, dim=3), 20.0, 16.0, 200, 20000),
    ("log_power small root N=4", nl.log_power(1.0, 2400.0, 4.0, dim=4), 2.0, 8.0, 200, 20000),
    ("log_power collapse N=3", nl.log_power(1.0, 2.0 * nl.mu_threshold(1.0, 4.0), 4.0, dim=3),
     10.0, 16.0, 120, 60000),
    ("saturation N=3", nl.saturation(dim=3), 20.0, 16.0, 200, 20000),
    ("power_sublinear N=2", nl.power_sublinear(0.5, dim=2), 3.0, 12.0, 120, 60000),
]


def record(res) -> dict:
    out = {k: v for k, v in res.to_json_dict().items() if k not in COUNTERS}
    out["bundle"] = dataclasses.asdict(res.bundle)
    out["u"] = hashlib.sha256(res.u.values.tobytes()).hexdigest()
    return out


def add_work(work, res):
    # a limit's counters are the sums over every stage solved, the eps = 0
    # stage's included; without a limit, sum the stages
    for s in [res.limit] if res.limit is not None else res.stages:
        for k in WORK:
            work[k] += getattr(s, k)


def format_work(work) -> str:
    return " ".join(f"{k}={v}" for k, v in work.items())


def runs(config, work, sweep_work):
    """(label, payload) for every start and every energy_map point; adds the
    WORK counters of every start's stages to work and the energy_map
    points' iterations to sweep_work."""
    grid = config.make_grid()
    for j in range(STARTS):
        # the seeds multistart draws: none for start 0, then j
        rng = np.random.default_rng(j) if j else None
        res = mz.continuation(config, grid=grid, rng=rng)
        add_work(work, res)
        stages = [record(s) for s in res.stages]
        if res.limit is None:
            yield f"start {j}", {"status": res.status, "stages": stages}
            continue
        yield f"start {j}", {"stages": stages, "limit": record(res.limit),
                             "eps_monotone": res.eps_monotone,
                             "total_iterations": res.total_iterations}
    rhos = [config.rho * f for f in (1.0, 1.1, 1.2)]
    points = [dataclasses.asdict(p) for p in mz.energy_map(config, rhos)]
    sweep_work["iterations"] += sum(p.pop("iterations") for p in points)
    yield "energy_map", points


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--expect", metavar="DIGEST",
                        help="exit 1 unless the digest equals DIGEST")
    args = parser.parse_args(argv)
    logging.disable(logging.WARNING)
    digest = hashlib.sha256()
    total = dict.fromkeys(WORK, 0)
    for name, spec, rho, r_max, n, max_iter in CONFIGS:
        config = mz.SolveConfig(spec=spec, rho=rho, r_max=r_max, n=n, eps_schedule=SCHEDULE,
                                max_iter=max_iter)
        work = dict.fromkeys(WORK, 0)
        sweep_work = {"iterations": 0}
        for label, payload in runs(config, work, sweep_work):
            line = json.dumps([name, label, payload], sort_keys=True)
            digest.update(line.encode())
            if args.verbose:
                print(line)
        print(f"{name}: {format_work(work)}", file=sys.stderr)
        print(f"{name} energy_map: {format_work(sweep_work)}", file=sys.stderr)
        for k in WORK:
            total[k] += work[k]
    print(digest.hexdigest())
    print(f"total: {format_work(total)}", file=sys.stderr)
    if args.expect is not None and digest.hexdigest() != args.expect:
        print(f"digest differs from the expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
