#!/usr/bin/env python3
"""Where the seeds of minimizer.initial_guess lead: one default continuation
per start over a grid of specs, radii and grids, each limit classed.

    PYTHONPATH=src python3 scripts/seed_scan.py [--verbose] [--expect DIGEST]

The grid: for every N in {2, 3, 4, 5} and alpha in {0.05, 0.5, 1, 2, 10},
log and log_power at every (mu/alpha, p) of LOG_POWER that the family
accepts; for every N, saturation and power_sublinear with omega in
{0.1, 0.5, 0.9} (266 specs).  Each spec runs at every rho of RHOS on every
(r_max, n) of GRIDS, from a plain start and a default_rng(1) start:
12,768 continuations with the default schedule, several minutes on a 2-core
host.  Each limit is classed as
- ground_state: converged on the sphere with E < 0, lambda > 0 and
  lambda h^2 < 1 (the multiplier is resolved by the grid);
- spike: the same with lambda h^2 >= 1;
- positive: any other converged sphere point;
- collapse: any other limit;
- no_limit: a stage did not converge.
stdout gets the counts per region and class (the regions: log, log_power
mu > 0 by diagnostics.nonexistence_verdict, log_power mu* < mu < 0,
saturation, power_sublinear), the total iterations and, last, one SHA-256
over every start's spec, rho, grid, start, status, limit_kind, E, lambda and
on_sphere.  --verbose also prints one line per start, with its class and
iterations, and --expect DIGEST makes the exit status 1 when the digest
differs from DIGEST (0 when it matches).
"""

import argparse
import dataclasses
import hashlib
import json
import logging
import sys

import numpy as np

from subnls import diagnostics as dg
from subnls import minimizer as mz
from subnls import nonlinearity as nl

DIMS = (2, 3, 4, 5)
ALPHAS = (0.05, 0.5, 1.0, 2.0, 10.0)
# (mu/alpha, p) of log_power
LOG_POWER = ((0.7, 3.0), (0.05, 3.0), (0.02, 4.0), (5.0, 3.0), (-0.05, 4.0), (-0.1, 4.0),
             (-0.2, 4.0), (-0.25, 4.0), (-0.1, 3.0), (-0.3, 3.0), (-0.01, 6.0), (2400.0, 4.0),
             (1.0, 2.5), (0.001, 6.0))
OMEGAS = (0.1, 0.5, 0.9)
RHOS = (0.5, 2.0, 5.0, 10.0, 20.0, 40.0, 150.0, 1000.0)
GRIDS = ((8.0, 120), (16.0, 200), (40.0, 400))
CLASSES = ("ground_state", "spike", "positive", "collapse", "no_limit")


def specs():
    for dim in DIMS:
        for alpha in ALPHAS:
            yield nl.logarithmic(alpha, dim=dim)
            for ratio, p in LOG_POWER:
                try:
                    yield nl.log_power(alpha, ratio * alpha, p, dim=dim)
                except ValueError:
                    pass  # p above 2* or roots outside the root search
        yield nl.saturation(dim=dim)
        for omega in OMEGAS:
            yield nl.power_sublinear(omega, dim=dim)


def region(spec) -> str:
    if spec.family != "log_power":
        return spec.family
    if spec.mu > 0.0:
        return f"log_power mu>0 {dg.nonexistence_verdict(spec)}"
    return "log_power mu*<mu<0" if nl.g4_verdict(spec) == nl.HOLDS else "log_power mu<=mu*"


def classify(lim, grid) -> str:
    if lim is None:
        return "no_limit"
    if lim.status == "converged" and lim.on_sphere:
        if lim.energy < 0.0 and lim.lam > 0.0:
            return "ground_state" if lim.lam * grid.h**2 < 1.0 else "spike"
        return "positive"
    return "collapse"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--expect", metavar="DIGEST",
                        help="exit 1 unless the digest equals DIGEST")
    args = parser.parse_args(argv)
    logging.disable(logging.WARNING)
    digest = hashlib.sha256()
    counts = {}
    iterations = 0
    for spec in specs():
        row = counts.setdefault(region(spec), dict.fromkeys(CLASSES, 0))
        for rho in RHOS:
            for r_max, n in GRIDS:
                config = mz.SolveConfig(spec=spec, rho=rho, r_max=r_max, n=n)
                grid = config.make_grid()
                for start in (0, 1):
                    rng = np.random.default_rng(1) if start else None
                    res = mz.continuation(config, grid=grid, rng=rng)
                    lim = res.limit
                    rec = [dataclasses.asdict(spec), rho, r_max, n, start, res.status]
                    rec += ([None] * 4 if lim is None else
                            [lim.limit_kind, lim.energy, lim.lam, lim.on_sphere])
                    line = json.dumps(rec)
                    digest.update(line.encode())
                    cls = classify(lim, grid)
                    row[cls] += 1
                    iterations += res.total_iterations
                    if args.verbose:
                        print(json.dumps([rec, cls, res.total_iterations]))
    print("region," + ",".join(CLASSES))
    for name, row in counts.items():
        print(f"{name}," + ",".join(str(row[c]) for c in CLASSES))
    print(f"total iterations: {iterations}")
    print(digest.hexdigest())
    if args.expect is not None and digest.hexdigest() != args.expect:
        print(f"digest differs from the expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
