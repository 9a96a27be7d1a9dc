"""Shared fixtures: reference solver runs reused across test modules, the
independent shooting oracle for the planar cubic ground state, and the
end-of-run echo of the acceptance criterion lines."""

import numpy as np
import pytest

from subnls import grid as gr
from subnls import minimizer as mz
from subnls import nonlinearity as nl

# one line per acceptance criterion, echoed after the summary so the
# PASS/FAIL verdicts stay visible under output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def log_spec3():
    return nl.log_power(1.0, 0.0, 4.0, dim=3)


@pytest.fixture(scope="session")
def grid3():
    return gr.RadialGrid(3, 20.0, 2000)


# a seven-stage eps schedule, for the tests that measure the eps-family
# itself (monotonicity, the approach to E_0); the default has one stage
SEVEN_STAGES = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4)


@pytest.fixture(scope="session")
def gausson_run(log_spec3):
    """Seven-stage continuation at rho=20 on the reference grid.

    The exact minimizer is the Gaussian profile with E = m(2 - ln m / 2 +
    3 ln(pi)/4) = -54.8739 and lambda = 2 ln(rho) - 1.5 ln(pi) - 3 = 1.27440.
    """
    cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, eps_schedule=SEVEN_STAGES)
    return mz.continuation(cfg)


@pytest.fixture(scope="session")
def quick_run(log_spec3):
    cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, r_max=16.0, n=800,
                         eps_schedule=(1e-1, 1e-2, 1e-3))
    return mz.continuation(cfg)


@pytest.fixture(scope="session")
def planar_run():
    """N=2 ground state for the pure log nonlinearity at rho=12; the exact
    energy is m(1.5 - ln m / 2 + ln(pi)/2) = -59.36, lambda = ln m - ln pi - 2."""
    spec = nl.logarithmic(1.0, dim=2)
    cfg = mz.SolveConfig(spec=spec, rho=12.0, r_max=16.0, n=900,
                         eps_schedule=(1e-1, 1e-2, 1e-3))
    return mz.continuation(cfg)


def cubic_ground_state_norm2():
    """|Q|_2^2 for the planar ground state of Q'' + Q'/r - Q + Q^3 = 0 by
    shooting on Q(0); independent of the radial-grid machinery."""
    from scipy.integrate import solve_ivp

    def rhs(r, y):
        q, dq, _ = y
        return [dq, q - q**3 - (dq / r if r > 0 else 0.0), 2.0 * np.pi * q * q * r]

    def shoot(b, r_end=30.0):
        r0 = 1e-8
        y0 = [b + (b - b**3) / 4 * r0**2, (b - b**3) / 2 * r0, 0.0]

        crossed = lambda r, y: y[0]          # overshoot: profile crosses zero
        crossed.terminal = True
        rebound = lambda r, y: y[1]          # undershoot: positive local minimum
        rebound.terminal = True
        rebound.direction = 1
        sol = solve_ivp(rhs, (r0, r_end), y0, rtol=1e-10, atol=1e-12,
                        events=[crossed, rebound])
        if sol.t_events[0].size:
            return +1, sol.y[2][-1]
        if sol.t_events[1].size:
            return -1, sol.y[2][-1]
        return 0, sol.y[2][-1]

    lo, hi = 1.5, 3.5
    norm2 = None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        side, val = shoot(mid)
        if side > 0:
            hi = mid
        elif side < 0:
            lo = mid
        else:
            norm2 = val
            break
        norm2 = val
    return norm2


@pytest.fixture(scope="session")
def weinstein_constant():
    """Best planar constant for |u|_4 <= C |grad u|_2^(1/2) |u|_2^(1/2):
    C = (2/|Q|_2^2)^(1/4) with Q the cubic ground state."""
    norm2 = cubic_ground_state_norm2()
    assert 11.0 < norm2 < 12.5, norm2
    return (2.0 / norm2) ** 0.25


@pytest.fixture(scope="session")
def gn24():
    return gr.gn_constant(2, 4.0)
