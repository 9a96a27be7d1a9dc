"""The three benchmark workloads: inputs made from a seed, the call into the
program, and the correctness gate applied to each run's answer.

A run cycles through ``reps`` repetitions, ``batch`` of them per fresh
child process (see child.py).  Repetition k of a run with seed s draws its
inputs from ``np.random.default_rng([s, k])``, so the same seed always gives
the same inputs and the run's median averages over several of them: one
solver start varies by 10-30% in iterations from the next, because the
Barzilai-Borwein path depends sensitively on where it starts.

``setup`` covers what a user pays before the solver starts (spec or config
build, grid build, first fill of the sign-structure cache); ``run`` is the
timed part and returns a JSON-serialisable record (child.py replaces it with
{"error": ...} when the program raises); ``gate`` checks it against the
closed form or the collapse rule and returns (passed, reason, accuracy).
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil

import numpy as np

from subnls import cli
from subnls import minimizer as mz
from subnls import nonlinearity as nl

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SWEEP_CONFIG = os.path.join(HERE, "sweep.ini")

# Closed-form Gausson for g = s ln s^2 in three dimensions (alpha = 1):
# u = A exp(-r^2/2), rho^2 = A^2 pi^(3/2), lambda = ln A^2 - 3.
def gausson_energy(rho: float) -> float:
    m = rho * rho
    return m * (2.0 - 0.5 * math.log(m) + 0.75 * math.log(math.pi))


def gausson_lambda(rho: float) -> float:
    return 2.0 * math.log(rho) - 1.5 * math.log(math.pi) - 3.0


# Discretization bands, second order in the grid step h: the measured errors
# are 0.16*h^2*rho^2 in E and 0.3*h^2 in lambda; the bands leave a factor 4
# and 8 of headroom so a gate failure means a wrong answer, not a grid effect.
ENERGY_BAND = 0.6
LAMBDA_BAND = 2.5
# ROADMAP rule for collapse runs: converge to zero, never stop early.
COLLAPSE_MASS = 1e-8
COLLAPSE_ENERGY = 1e-5


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng([seed, rep])


class Gausson:
    name = "gausson"
    reps = 5
    batch = 5
    rho = 20.0
    rearrange_every = 25

    def setup(self, seed, rep):
        spec = nl.log_power(1.0, 0.0, 4.0, dim=3)
        config = mz.SolveConfig(spec=spec, rho=self.rho, r_max=20.0, n=1000,
                                rearrange_every=self.rearrange_every)
        grid = config.make_grid()
        nl.G_plus_value(spec, np.ones(1))
        return config, grid, rep_rng(seed, rep)

    def run(self, state):
        config, grid, rng = state
        res = mz.continuation(config, grid=grid, rng=rng)
        return {
            "energy": res.limit.energy,
            "lambda": res.limit.lam,
            "mass": res.limit.mass,
            "on_sphere": res.limit.on_sphere,
            "converged": all(s.converged for s in res.stages),
            "eps_monotone": res.eps_monotone,
            "stage_iterations": [s.iterations for s in res.stages],
            "h": grid.h,
        }

    def gate(self, out):
        if "error" in out:
            return False, out["error"], {}
        e_err = abs(out["energy"] - gausson_energy(self.rho))
        l_err = abs(out["lambda"] - gausson_lambda(self.rho))
        acc = {"energy_err": e_err, "lambda_err": l_err}
        if not (out["converged"] and out["on_sphere"] and out["eps_monotone"]):
            return False, "not converged on the sphere with monotone stages", acc
        h2 = out["h"] ** 2
        if not e_err <= ENERGY_BAND * h2 * self.rho ** 2:
            return False, f"energy error {e_err:.3g} outside the band", acc
        if not l_err <= LAMBDA_BAND * h2:
            return False, f"lambda error {l_err:.3g} outside the band", acc
        return True, "", acc


class Nonexistence:
    name = "nonexistence"
    reps = 72
    batch = 24
    rho = 10.0
    rearrange_every = 0

    def setup(self, seed, rep):
        spec = nl.log_power(1.0, 2.0 * nl.mu_threshold(1.0, 4.0), 4.0, dim=3)
        config = mz.SolveConfig(spec=spec, rho=self.rho, r_max=16.0, n=120,
                                eps_schedule=(1e-1, 1e-2, 1e-3), max_iter=60000)
        grid = config.make_grid()
        nl.G_plus_value(spec, np.ones(1))
        return config, grid, rep_rng(seed, rep)

    def run(self, state):
        config, grid, rng = state
        res = mz.continuation(config, grid=grid, rng=rng)
        return {
            "energy": res.limit.energy,
            "lambda": res.limit.lam,
            "mass": res.limit.mass,
            "converged": all(s.converged for s in res.stages),
            "stage_iterations": [s.iterations for s in res.stages],
        }

    def gate(self, out):
        if "error" in out:
            return False, out["error"], {}
        acc = {"energy_err": abs(out["energy"])}
        if not out["converged"]:
            return False, "a stage did not converge", acc
        if not out["mass"] <= COLLAPSE_MASS * self.rho ** 2:
            return False, f"mass {out['mass']:.3g} did not collapse", acc
        if not abs(out["energy"]) <= COLLAPSE_ENERGY:
            return False, f"|E| = {abs(out['energy']):.3g} above the collapse bound", acc
        return True, "", acc


class SweepCli:
    name = "sweep_cli"
    reps = 12
    batch = 4
    points = 4
    rearrange_every = 0

    def setup(self, seed, rep):
        cfg = cli.load_config(SWEEP_CONFIG)
        config = cli.build_solve_config(cfg)
        grid = config.make_grid()
        nl.G_plus_value(config.spec, np.ones(1))
        # sqrt(2)-spaced radii, all above the negativity threshold 17.44.  They
        # are fixed: sweep-rho takes no seed, and moving them can expose the
        # stall recorded in test_known_defects.py.
        rho_min = 18.0
        rho_max = rho_min * 2.0 ** 1.5
        jobs = max(1, min(2, len(os.sched_getaffinity(0))))
        out_dir = os.path.join(OUT_DIR, f"sweep-{os.getpid()}")
        argv = ["sweep-rho", "--config", SWEEP_CONFIG, repr(rho_min), repr(rho_max),
                str(self.points), "--jobs", str(jobs), "--out", out_dir]
        return argv, out_dir, grid.h

    def run(self, state):
        argv, out_dir, h = state
        code = cli.main(argv)
        rows = []
        checks = []
        if code == cli.EXIT_OK:
            with open(os.path.join(out_dir, "energy_map.csv")) as fh:
                rows = [[float(r["rho"]), float(r["c_value"]), r["converged"]]
                        for r in csv.DictReader(fh)]
            with open(os.path.join(out_dir, "energy_map_properties.json")) as fh:
                checks = [[c["check_name"], c["pass"]] for c in json.load(fh)]
        shutil.rmtree(out_dir, ignore_errors=True)
        return {"exit_code": code, "rows": rows, "checks": checks,
                "jobs": int(argv[argv.index("--jobs") + 1]), "h": h}

    def gate(self, out):
        if "error" in out:
            return False, out["error"], {}
        errs = [abs(c - gausson_energy(rho)) for rho, c, _ in out["rows"]]
        acc = {"energy_err": max(errs) if errs else math.inf}
        if out["exit_code"] != cli.EXIT_OK:
            return False, f"exit code {out['exit_code']}", acc
        if len(out["rows"]) != self.points:
            return False, f"{len(out['rows'])} CSV rows", acc
        if len(out["checks"]) != 4 or not all(p for _, p in out["checks"]):
            return False, f"property checks {out['checks']}", acc
        for (rho, c, _), err in zip(out["rows"], errs):
            if not err <= ENERGY_BAND * out["h"] ** 2 * rho * rho:
                return False, f"c({rho:.6g}) error {err:.3g} outside the band", acc
        return True, "", acc


WORKLOADS = {w.name: w for w in (Gausson(), Nonexistence(), SweepCli())}
