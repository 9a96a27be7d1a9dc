"""Program defects found while building the benchmark, kept visible.

    python3 -m pytest perfbench/test_known_defects.py

Each test states the behaviour the program should have and is marked as an
expected failure (strict): when the defect is fixed the test passes, strict
mode turns that into a failure, and the marker and the workaround it names
should both be removed.
"""

import dataclasses
import os

import numpy as np
import pytest

from subnls import cli
from subnls import minimizer as mz
from subnls import nonlinearity as nl

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.xfail(strict=True, raises=mz.ContinuationAborted,
                   reason="the eps = 1e-3 stage stalls above tol_grad = 1e-8 even with "
                          "100000 iterations; the sweep_cli workload keeps its radii fixed "
                          "for this reason")
def test_sweep_point_converges_at_rho_25_5557():
    # the second radius of a sweep-rho run from 18.0706 (a 0.39% shift of the
    # workload's 18) on the quick-style n = 800 grid
    config = cli.build_solve_config(cli.load_config(os.path.join(HERE, "sweep.ini")))
    config = dataclasses.replace(config, n=800, rho=25.555714713498855)
    result = mz.continuation(config)
    assert result.limit.converged


@pytest.mark.xfail(strict=True, raises=mz.ContinuationAborted,
                   reason="the eps = 1e-2 stage exhausts max_iter = 20000 from this start "
                          "on the n = 500 grid; the gausson workload stays on n = 1000, "
                          "where about 75 seeded starts have not hit it")
def test_gausson_converges_from_jittered_start_on_n500():
    # repetition 2 of seed 203 in the benchmark's seeding
    spec = nl.log_power(1.0, 0.0, 4.0, dim=3)
    config = mz.SolveConfig(spec=spec, rho=20.0, r_max=20.0, n=500, rearrange_every=25)
    result = mz.continuation(config, rng=np.random.default_rng([203, 2]))
    assert result.limit.converged
