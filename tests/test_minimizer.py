import logging
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import SEVEN_STAGES
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from subnls import diagnostics as dg
from subnls import grid as gr
from subnls import minimizer as mz
from subnls import nonlinearity as nl


@pytest.fixture(scope="module")
def small_grid():
    return gr.RadialGrid(3, 10.0, 300)


def random_bump(grid, rng, scale=1.0):
    width = rng.uniform(0.6, 2.5)
    amp = rng.uniform(0.3, 2.0) * scale
    wiggle = 1.0 + 0.3 * np.sin(rng.uniform(0, 6) + grid.r * rng.uniform(0.5, 2.0))
    return gr.RadialField(grid, amp * wiggle * np.exp(-((grid.r / width) ** 2)))


def test_energy_zero_field(small_grid, log_spec3):
    assert mz.energy_eps(gr.zeros(small_grid), log_spec3, 0.1) == 0.0
    assert mz.energy_eps(gr.zeros(small_grid), log_spec3, 0.0) == 0.0


def test_energy_monotone_in_eps(small_grid, log_spec3):
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = random_bump(small_grid, rng)
        vals = [mz.energy_eps(u, log_spec3, e) for e in (0.5, 0.1, 0.02, 0.004)]
        assert all(b >= a - 1e-11 * (1 + abs(a)) for a, b in zip(vals, vals[1:]))


def test_energy_eps_below_unregularized(small_grid):
    rng = np.random.default_rng(3)
    for spec in (nl.logarithmic(1.0, dim=3), nl.log_power(1.0, 0.4, 3.0, dim=3),
                 nl.saturation(dim=3)):
        for _ in range(5):
            u = random_bump(small_grid, rng)
            J = mz.energy_eps(u, spec, 0.0)
            Je = mz.energy_eps(u, spec, 0.05)
            assert Je <= J + 1e-11 * (1 + abs(J))


def test_gradient_zero_field(small_grid, log_spec3):
    g = mz.grad_energy_eps(gr.zeros(small_grid), log_spec3, 0.1)
    assert np.all(g.values == 0.0)


def fd_orders(grid, spec, rng):
    """Observed orders of central differences of energy_eps against the
    analytic gradient, over random bumps, directions and eps."""
    orders = []
    for _ in range(10):
        u = random_bump(grid, rng)
        v = random_bump(grid, rng)
        eps = rng.uniform(0.02, 0.5)
        gv = gr.inner(mz.grad_energy_eps(u, spec, eps), v)
        errs = []
        for t in (1e-3, 1e-4):
            up = gr.RadialField(grid, u.values + t * v.values)
            dn = gr.RadialField(grid, u.values - t * v.values)
            fd = (mz.energy_eps(up, spec, eps) - mz.energy_eps(dn, spec, eps)) / (2 * t)
            errs.append(abs(fd - gv))
        if errs[1] > 1e-12:
            orders.append(math.log10(errs[0] / errs[1]))
    return orders


def test_gradient_finite_difference(small_grid, log_spec3):
    assert np.median(fd_orders(small_grid, log_spec3, np.random.default_rng(4))) >= 1.9


@pytest.mark.parametrize("spec", [
    nl.log_power(1.0, 0.4, 3.0, dim=3),
    nl.log_power(1.0, -0.05, 4.0, dim=3),   # two sign changes of g
    nl.log_power(1.0, 2400.0, 4.0, dim=3),  # sign change below most eps
    nl.saturation(dim=3),
    nl.power_sublinear(0.5, dim=3),
], ids=["log_power_mu0.4", "log_power_two_roots", "log_power_small_root",
        "saturation", "power_sublinear"])
def test_gradient_finite_difference_families(small_grid, spec):
    orders = fd_orders(small_grid, spec, np.random.default_rng(4))
    assert len(orders) >= 5
    assert np.median(orders) >= 1.9


def test_gradient_small_amplitude_fully_ramped(small_grid, log_spec3):
    # with eps above sup|u| the cutoff is the pure ramp everywhere
    rng = np.random.default_rng(5)
    u = random_bump(small_grid, rng, scale=0.2)
    eps = 0.9
    assert np.abs(u.values).max() < eps
    sv = nl.eval_split(log_spec3, u.values)
    expected = sv.g_plus - (np.abs(u.values) / eps) * sv.g_minus
    got = np.atleast_1d(nl.g_eps(log_spec3, u.values, eps))
    assert np.allclose(got, expected, atol=1e-14)


def test_project_disc_scaling(small_grid):
    rng = np.random.default_rng(6)
    u = random_bump(small_grid, rng)
    rho = math.sqrt(gr.mass(u)) / 2.0  # mass(u) = 4 rho^2
    p = gr.RadialField(small_grid, mz._rescale(small_grid.w, u.values, rho)[0])
    assert gr.mass(p) == pytest.approx(rho**2, rel=1e-12, abs=0.0)
    assert np.allclose(p.values, 0.5 * u.values)
    again = mz._rescale(small_grid.w, p.values, rho)[0]
    assert np.array_equal(again, p.values)  # idempotent


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.floats(min_value=0.2, max_value=5.0))
def test_project_disc_nonexpansive(seed, rho):
    g = gr.RadialGrid(3, 6.0, 60)
    rng = np.random.default_rng(seed)
    u = gr.RadialField(g, rng.normal(size=g.n))
    v = gr.RadialField(g, rng.normal(size=g.n))
    pu, pv = mz._rescale(g.w, u.values, rho)[0], mz._rescale(g.w, v.values, rho)[0]
    d_before = gr.wnorm(g, u.values - v.values)
    d_after = gr.wnorm(g, pu - pv)
    assert d_after <= d_before * (1 + 1e-12)


@pytest.mark.parametrize("sphere", [True, False])
@pytest.mark.parametrize("first", [1e200, np.inf, np.nan])
def test_rescale_keeps_a_field_of_non_finite_mass_as_it_is(sphere, first):
    # a mass that overflows, or a value that is not finite, is returned as it
    # is with the values unscaled, not as the zero field (or nan) at mass rho^2
    vals = np.array([first, 1.0, 2.0])
    with np.errstate(over="ignore"):
        out, m = mz._rescale(np.ones(3), vals, 5.0, sphere=sphere)
    assert out is vals and not math.isfinite(m)
    # a large mass that is still finite is rescaled as before
    out, m = mz._rescale(np.ones(3), np.array([1e150, 1.0, 2.0]), 5.0, sphere=sphere)
    assert m == 25.0 and out[0] == pytest.approx(5.0, rel=1e-15, abs=0.0)


def test_initial_guess_mass_and_negative_energy(log_spec3):
    grid = gr.RadialGrid(3, 16.0, 800)
    rho = 25.0
    u0 = mz.initial_guess(log_spec3, grid, rho, 0.1)
    assert gr.mass(u0) == pytest.approx(rho**2, rel=1e-8, abs=0.0)
    assert mz.energy_eps(u0, log_spec3, 0.1) < 0.0


def test_initial_guess_fallback_warning():
    # (g4) fails: no candidate has negative energy, and the winner still
    # lies on the sphere
    spec = nl.log_power(1.0, 2 * nl.mu_threshold(1.0, 4.0), 4.0, dim=3)
    grid = gr.RadialGrid(3, 10.0, 200)
    u0 = mz.initial_guess(spec, grid, 5.0, 0.1)
    assert gr.mass(u0) == pytest.approx(25.0, rel=1e-8, abs=0.0)


def test_collapse_continuations_log_no_warning(caplog):
    # the perfbench nonexistence batch: 24 starts of a spec where (g4)
    # fails create no record at WARNING
    spec = nl.log_power(1.0, 2.0 * nl.mu_threshold(1.0, 4.0), 4.0, dim=3)
    cfg = mz.SolveConfig(spec=spec, rho=10.0, r_max=16.0, n=120,
                         eps_schedule=(1e-1, 1e-2, 1e-3), max_iter=60000)
    grid = cfg.make_grid()
    with caplog.at_level(logging.INFO, logger="subnls"):
        for rep in range(24):
            assert mz.continuation(cfg, grid=grid, rng=np.random.default_rng([7, rep])).limit
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


@pytest.mark.parametrize("spec, rho, r_max, n, energy, max_iters", [
    # log_power mu = -0.2, just above mu* = -0.2707, at rho = 150 above
    # rho_bar(-0.2) = 102.59: only the flat-top drop at s0 =
    # nl.drop_level(spec) starts in the basin of the ground state; from the
    # best of the three Gaussians the flow collapses to the zero field
    pytest.param(nl.log_power(1.0, -0.2, 4.0, dim=3), 150.0, 40.0, 200, -842.4163, None,
                 id="drop_mu_near_mu_star"),
    # alpha = 10, mu = -0.1 (mu* = -0.747): the drop at s0 = 3.50 wins; a
    # plateau at level 2.52 ends its eps = 0.1 stage at max_iter
    pytest.param(nl.log_power(10.0, -0.1, 6.0, dim=2), 150.0, 40.0, 400, -111161.2943, 100,
                 id="drop_alpha10_p6_N2"),
    # log alpha = 10: Gaussians of widths fixed at (0.7, 1, 1.5) instead of
    # (0.7, 1, 1.5) alpha^(-1/2), the Gausson width, collapse
    pytest.param(nl.logarithmic(10.0, dim=5), 5.0, 16.0, 200, -20.12689053, None,
                 id="gausson_width_alpha10_N5"),
])
def test_closed_form_seeds_find_the_ground_state(spec, rho, r_max, n, energy, max_iters):
    res = mz.continuation(mz.SolveConfig(spec=spec, rho=rho, r_max=r_max, n=n))
    lim = res.limit
    assert lim.limit_kind == "eps0_stage" and lim.status == "converged" and lim.on_sphere
    assert lim.energy == pytest.approx(energy, rel=1e-6, abs=0.0) and lim.lam > 0
    if max_iters is not None:
        assert res.total_iterations <= max_iters


def test_extract_lambda_linear_eigenproblem(small_grid):
    # for g = alpha s ln s^2, lambda = alpha <u^2 ln u^2>_w / <u^2>_w -
    # kinetic/mass; on the lowest Dirichlet mode kinetic/mass is the
    # eigenvalue, so lambda is the log term minus the eigenvalue
    alpha = 1.5
    spec = nl.logarithmic(alpha, dim=3)
    from scipy.linalg import eigh_tridiagonal

    g = small_grid
    a = g.face_coef
    diag = np.empty(g.n)
    diag[0] = a[0]
    diag[1:] = a[1:] + a[:-1]
    diag = diag / (g.r ** 2 * g.h**2)
    off = -a[:-1] / (np.sqrt(g.r[:-1] ** 2 * g.r[1:] ** 2) * g.h**2)
    lam1, vec = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    mode = gr.RadialField(g, vec[:, 0] / g.r)  # undo the similarity transform

    def log_term(u):
        u2 = u.values**2
        return alpha * np.dot(g.w, u2 * np.log(u2)) / np.dot(g.w, u2)

    lam = mz.extract_lambda(mode, spec, 0.0)
    assert lam == pytest.approx(log_term(mode) - lam1[0], rel=1e-10, abs=0.0)
    rng = np.random.default_rng(8)
    u = random_bump(g, rng)
    assert mz.extract_lambda(u, spec, 0.0) == pytest.approx(
        log_term(u) - gr.kinetic(u) / gr.mass(u), rel=1e-12, abs=0.0)


def test_extract_lambda_sign_flip(small_grid, log_spec3):
    rng = np.random.default_rng(9)
    u = random_bump(small_grid, rng)
    neg = gr.RadialField(small_grid, -u.values)
    for eps in (0.0, 0.1):
        assert mz.extract_lambda(u, log_spec3, eps) == pytest.approx(
            mz.extract_lambda(neg, log_spec3, eps), rel=1e-12, abs=0.0)


def test_extract_lambda_zero_field(small_grid, log_spec3):
    with pytest.raises(ValueError):
        mz.extract_lambda(gr.zeros(small_grid), log_spec3, 0.1)


def test_solve_config_validation(log_spec3):
    with pytest.raises(ValueError):
        mz.SolveConfig(spec=log_spec3, rho=-1.0)
    with pytest.raises(ValueError):
        mz.SolveConfig(spec=log_spec3, rho=1e200)  # rho^2 overflows
    with pytest.raises(ValueError):
        mz.SolveConfig(spec=log_spec3, rho=1.0, eps_schedule=(0.1, 0.2))
    with pytest.raises(ValueError):
        mz.SolveConfig(spec=log_spec3, rho=1.0, eps_schedule=(1.5, 0.1))
    with pytest.raises(ValueError):
        mz.SolveConfig(spec=log_spec3, rho=1.0, eps_schedule=())


def test_single_stage_descent_and_feasibility(log_spec3):
    cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, r_max=16.0, n=800)
    grid = cfg.make_grid()
    u0 = mz.initial_guess(log_spec3, grid, cfg.rho, 0.1)
    E0 = mz.energy_eps(u0, log_spec3, 0.1)
    res = mz.solve_ground_state(cfg, 0.1, u0=u0, grid=grid)
    assert res.converged
    assert res.energy <= E0 + 1e-12 * (1 + abs(E0))
    assert res.mass <= cfg.rho**2 * (1 + 1e-12)
    assert res.lam > 0 and res.on_sphere
    # stationarity contract for the regularized operator
    gfield = mz.grad_energy_eps(res.u, log_spec3, 0.1)
    resid = gfield.values + res.lam * res.u.values
    lap = gr.laplacian_radial(res.u).values
    scale = max(1.0, gr.wnorm(grid, lap)
                + gr.wnorm(grid, np.atleast_1d(nl.g_eps(log_spec3, res.u.values, 0.1)))
                + res.lam * math.sqrt(res.mass))
    assert gr.wnorm(grid, resid) <= 10 * cfg.tol_grad * scale


def test_rearrange_every_is_accepted_and_ignored(caplog):
    # the collapse stage, where a rearrangement every iteration would cost
    # energy evaluations and move the answer: the library accepts the
    # setting silently (the CLI warns once per command, test_cli.py) and
    # it changes nothing
    spec = nl.log_power(1.0, 2.0 * nl.mu_threshold(1.0, 4.0), 4.0, dim=3)
    off = mz.SolveConfig(spec=spec, rho=10.0, r_max=16.0, n=120)
    with caplog.at_level(logging.DEBUG, logger="subnls"):
        on = replace(off, rearrange_every=1)
    assert caplog.records == []
    a, b = mz.solve_ground_state(off, 0.1), mz.solve_ground_state(on, 0.1)
    assert b.energy == a.energy
    assert b.u.values.tobytes() == a.u.values.tobytes()
    assert b.energy_evals == a.energy_evals


def test_ground_state_contract(quick_run):
    lim = quick_run.limit
    assert lim.converged and lim.on_sphere
    assert lim.energy < 0 and lim.lam > 0
    assert lim.bundle.sign_ok and lim.bundle.monotone_ok
    assert lim.bundle.pohozaev_rel <= 1e-3
    assert lim.bundle.nehari_rel <= 1e-3
    assert lim.bundle.boundary_leak <= 1e-6 * np.abs(lim.u.values).max()
    # exact planar-free reference: Gaussian profile energy at this mass
    m = lim.rho**2
    exact = m * (2.0 - 0.5 * math.log(m) + 0.75 * math.log(math.pi))
    assert lim.energy == pytest.approx(exact, rel=2e-3, abs=0.0)
    lam_exact = 2 * math.log(lim.rho) - 1.5 * math.log(math.pi) - 3.0
    assert lim.lam == pytest.approx(lam_exact, rel=2e-3, abs=0.0)


def test_continuation_ordering_and_limit(quick_run):
    res = quick_run
    assert res.eps_monotone
    energies = [s.energy for s in res.stages]
    assert all(b >= a - 1e-9 * (1 + abs(a)) for a, b in zip(energies, energies[1:]))
    assert res.limit.energy >= energies[-1] - 1e-9 * (1 + abs(energies[-1]))
    # multiplier settles along the schedule
    lams = [s.lam for s in res.stages]
    assert abs(lams[-1] - lams[-2]) <= 1e-3 * abs(lams[-1])


def test_energy_lambda_identity(quick_run):
    assert dg.energy_identity_rel(quick_run.limit) <= 1e-3


def test_collapse_below_mass_threshold(log_spec3):
    # rho below the negativity threshold (~17.44): the disc flow must sink
    # into the interior and end at the zero stationary point
    cfg = mz.SolveConfig(spec=log_spec3, rho=8.0, r_max=12.0, n=500,
                         eps_schedule=(1e-1, 1e-2), max_iter=40000)
    res = mz.continuation(cfg)
    lim = res.limit
    assert lim.converged
    assert not lim.on_sphere
    assert abs(lim.energy) <= 1e-5
    assert lim.mass <= 1e-8 * cfg.rho**2


def test_nonexistence_flow_collapse():
    mu = 2 * nl.mu_threshold(1.0, 4.0)
    spec = nl.log_power(1.0, mu, 4.0, dim=3)
    cfg = mz.SolveConfig(spec=spec, rho=10.0, r_max=12.0, n=500,
                         eps_schedule=(1e-1, 1e-2), max_iter=40000)
    res = mz.continuation(cfg)
    assert res.limit.energy >= -1e-9
    assert not res.limit.on_sphere
    ev = dg.existence_evidence([res.limit])
    assert not ev["found"]


def test_continuation_abort_attaches_stages(log_spec3):
    # the first stage runs out of iterations: it is the only stage, and
    # there is no limit
    cfg = mz.SolveConfig(spec=log_spec3, rho=8.0, r_max=12.0, n=500,
                         eps_schedule=(1e-1, 1e-2), max_iter=5)
    res = mz.continuation(cfg)
    assert res.limit is None and res.status == "max_iter"
    assert [(s.eps, s.status) for s in res.stages] == [(1e-1, "max_iter")]
    assert res.total_iterations == 5


def test_continuation_stops_at_the_first_stage_that_did_not_converge(log_spec3, monkeypatch):
    real = mz.solve_ground_state
    solved = []

    def capped(config, eps, **kwargs):
        if eps == 1e-2:
            config = replace(config, max_iter=1)
        solved.append(real(config, eps, **kwargs))
        return solved[-1]

    monkeypatch.setattr(mz, "solve_ground_state", capped)
    cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, r_max=12.0, n=300,
                         eps_schedule=(1e-1, 1e-2, 1e-3))
    res = mz.continuation(cfg)
    # eps = 1e-3 is never solved, and the capped stage is returned last
    assert res.stages == solved and len(solved) == 2
    assert [s.status for s in res.stages] == ["converged", "max_iter"]
    assert [s.converged for s in res.stages] == [True, False]
    assert res.limit is None and res.status == "max_iter"
    assert res.total_iterations == solved[0].iterations + 1


def test_limit_falls_back_when_the_eps0_stage_leaves_the_branch(log_spec3, monkeypatch):
    # an eps = 0 stage capped at one iteration does not end converged, so it
    # is not the limit: the limit is the last eps-stage's point evaluated at
    # eps = 0, with that stage's status and KKT residual, and counters summed
    # over every stage solved, the eps = 0 stage's included
    real = mz.solve_ground_state
    solved = []

    def capped(config, eps, **kwargs):
        if eps == 0.0:
            config = replace(config, max_iter=1)
        solved.append(real(config, eps, **kwargs))
        return solved[-1]

    monkeypatch.setattr(mz, "solve_ground_state", capped)
    cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, r_max=12.0, n=300,
                         eps_schedule=(1e-1, 1e-2))
    res = mz.continuation(cfg)
    last, lim = res.stages[-1], res.limit
    assert res.stages == solved[:2] and [s.eps for s in solved] == [1e-1, 1e-2, 0.0]
    assert solved[-1].status == "max_iter" and solved[-1].iterations == 1
    assert lim.limit_kind == "evaluated" and lim.eps == 0.0
    assert lim.status == last.status == "converged"
    assert lim.kkt_residual == last.kkt_residual
    for key in ("iterations", "newton_steps") + mz._EVAL_COUNTS:
        assert getattr(lim, key) == sum(getattr(s, key) for s in solved), key
    assert res.total_iterations == lim.iterations
    assert lim.energy == mz.energy_eps(last.u, log_spec3, 0.0)


def test_energy_map_flags_and_values(log_spec3):
    cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, r_max=16.0, n=600,
                         eps_schedule=(1e-1, 1e-2, 1e-3))
    rhos = [18.0, 18.0 * math.sqrt(2), 36.0]
    pts = mz.energy_map(cfg, rhos)
    assert [p.rho for p in pts] == rhos
    assert all(p.converged for p in pts)
    assert pts[0].c_value > pts[1].c_value > pts[2].c_value
    checks = dg.energy_map_properties(pts)
    assert all(c.passed for c in checks)


def test_energy_map_per_point_failure_continues(log_spec3):
    cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, r_max=12.0, n=300,
                         eps_schedule=(1e-1, 1e-2), max_iter=3)
    pts = mz.energy_map(cfg, [18.0, 25.0])
    assert len(pts) == 2
    assert not any(p.converged for p in pts)


def sweep_config(**kwargs):
    # the settings of the benchmark's sweep_cli workload (perfbench/sweep.ini)
    return mz.SolveConfig(spec=nl.logarithmic(1.0, dim=3), rho=20.0, r_max=16.0, n=400,
                          eps_schedule=(1e-1, 1e-2, 1e-3), tol_grad=1e-8, **kwargs)


def test_energy_map_warm_start_saves_iterations(monkeypatch):
    # each point after the first is one corrector stage from its predicted
    # start, which reaches the standalone c(rho) in fewer solver iterations
    # than the points solved cold
    cfg = sweep_config()
    rhos = [18.0 * 2 ** (k / 2.0) for k in range(4)]
    real = mz.solve_ground_state
    iterations = []

    def counting(*args, **kwargs):
        res = real(*args, **kwargs)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(mz, "solve_ground_state", counting)
    pts = mz.energy_map(cfg, rhos)
    warm = sum(iterations)
    assert warm == sum(p.iterations for p in pts)
    iterations.clear()
    alone = [mz.continuation(replace(cfg, rho=r)).limit.energy for r in rhos]
    assert warm < sum(iterations)
    for p, c in zip(pts, alone):
        assert p.converged and p.eps == 0.0 and p.status == "converged"
        assert p.c_value == pytest.approx(c, rel=1e-9, abs=0.0)


def record_sweep(monkeypatch):
    # the continuations an energy_map runs, by radius, and every stage it
    # solves, in order
    real_solve, real_continuation = mz.solve_ground_state, mz.continuation
    runs, solved = {}, []

    def solving(config, eps, **kwargs):
        solved.append(real_solve(config, eps, **kwargs))
        return solved[-1]

    def recording(config, **kwargs):
        runs[config.rho] = real_continuation(config, **kwargs)
        return runs[config.rho]

    monkeypatch.setattr(mz, "solve_ground_state", solving)
    monkeypatch.setattr(mz, "continuation", recording)
    return runs, solved


@pytest.mark.parametrize("spec, rhos, r_max, n", [
    (nl.logarithmic(1.0, dim=2), [12.0, 14.0, 16.0, 20.0], 16.0, 400),
    (nl.logarithmic(1.0, dim=3), [18.0, 22.0, 27.0, 36.0], 16.0, 400),
    (nl.log_power(1.0, -0.05, 4.0, dim=3), [20.0, 22.0, 25.0, 30.0], 16.0, 400),
    # rescaling alone, without the secant, takes 101-158 iterations at the
    # last three radii
    (nl.log_power(1.0, 0.7, 3.0, dim=3), list(np.linspace(8.0, 30.0, 6)), 20.0, 1000),
    (nl.saturation(dim=3), [20.0, 22.0, 24.0, 27.0], 16.0, 400),
], ids=["log N=2", "log N=3", "log_power mu<0", "log_power mu>0", "saturation"])
def test_energy_map_corrector_matches_standalone(spec, rhos, r_max, n, monkeypatch):
    # the first radius runs the full continuation, its eps = 0 stage
    # included, every later one a single corrector stage at eps = 0, from the
    # rescaled neighbour or the secant through two, which is the point's
    # limit; each c(rho) is the standalone limit's energy, itself an eps = 0
    # stage
    cfg = mz.SolveConfig(spec=spec, rho=rhos[0], r_max=r_max, n=n,
                         eps_schedule=(1e-1, 1e-2, 1e-3))
    runs, solved = record_sweep(monkeypatch)
    pts = mz.energy_map(cfg, rhos)
    assert list(runs) == [rhos[0]]
    first = runs[rhos[0]]
    k = len(first.stages)  # solved[k] is the first radius's eps = 0 stage
    assert first.limit.limit_kind == "eps0_stage"
    assert (solved[k].eps, solved[k].rho) == (0.0, rhos[0])
    correctors = solved[k + 1:]
    assert [s.rho for s in correctors] == rhos[1:]
    assert all(s.eps == 0.0 and s.kkt_residual <= cfg.tol_grad for s in correctors)
    assert pts[0].iterations == first.total_iterations == first.limit.iterations
    assert first.total_iterations == sum(s.iterations for s in solved[:k + 1])
    for p, s in zip(pts[1:], correctors):
        assert p.iterations == s.iterations <= 8
    monkeypatch.undo()
    for p in pts:
        alone = mz.continuation(replace(cfg, rho=p.rho)).limit
        assert alone.limit_kind == "eps0_stage"
        assert p.converged and p.status == "converged" and p.eps == 0.0
        assert p.c_value == pytest.approx(alone.energy, rel=1e-9, abs=0.0)


def test_energy_map_collapsed_sweep_runs_no_corrector(monkeypatch):
    # every power_sublinear point collapses off the sphere, so each radius
    # runs the full continuation unseeded and no corrector stage is solved
    cfg = mz.SolveConfig(spec=nl.power_sublinear(0.5, dim=2), rho=3.0, r_max=12.0, n=120,
                         eps_schedule=(1e-1, 1e-2, 1e-3), max_iter=60000)
    rhos = [3.0, 3.3, 3.6]
    runs, solved = record_sweep(monkeypatch)
    pts = mz.energy_map(cfg, rhos)
    assert list(runs) == rhos
    assert solved == [s for rho in rhos for s in runs[rho].stages]
    for p in pts:
        assert p.status == "collapsed" and p.iterations == runs[p.rho].total_iterations


def test_energy_map_failed_or_collapsed_point_seeds_nothing(monkeypatch):
    # rho = 18 aborts on max_iter in its last stage after two completed
    # ones, and rho = 10 (below the negativity threshold 17.44), whose
    # multiplier predicted from rho = 25 is negative, runs a continuation
    # that collapses off the sphere; the point after each is bit-identical
    # to its standalone run
    cfg = sweep_config()
    real_solve, real_continuation = mz.solve_ground_state, mz.continuation

    def capped(config, eps, **kwargs):
        if config.rho == 18.0 and eps == config.eps_schedule[-1]:
            config = replace(config, max_iter=1)
        return real_solve(config, eps, **kwargs)

    monkeypatch.setattr(mz, "solve_ground_state", capped)
    runs, solved = record_sweep(monkeypatch)
    pts = mz.energy_map(cfg, [18.0, 25.0, 10.0, 20.0])
    assert [p.converged for p in pts] == [False, True, True, True]
    assert [p.status for p in pts] == ["max_iter", "converged", "collapsed", "converged"]
    assert pts[0].eps == cfg.eps_schedule[1]
    assert all(s.status == "collapsed" and not s.on_sphere for s in runs[10.0].stages)
    # no corrector is solved: the stages outside the runs' stage lists are
    # the eps = 0 limit stages of the runs at rho = 25 and 20
    rest = [s for s in solved if not any(s is t for r in runs.values() for t in r.stages)]
    assert pts[2].iterations == runs[10.0].total_iterations
    assert sorted(s.rho for s in rest) == [20.0, 25.0]
    assert all(s.eps == 0.0 and s.at is runs[s.rho].limit.at for s in rest)
    assert runs[10.0].limit.limit_kind == "evaluated"

    def fingerprint(res):
        return [(s.iterations, s.energy, s.lam, s.u.values.tobytes()) for s in res.stages]

    alone = {rho: real_continuation(replace(cfg, rho=rho)) for rho in (25.0, 20.0)}
    for rho, res in alone.items():
        assert fingerprint(res) == fingerprint(runs[rho])
        assert res.limit.energy == runs[rho].limit.energy


def test_energy_map_collapsed_corrector_falls_back(monkeypatch):
    # a prediction that reports a positive multiplier at rho = 10 lets the
    # corrector from rho = 25 run: it collapses, and the point falls back to
    # the continuation, which collapses off the sphere too; the point costs
    # both
    cfg = sweep_config()
    real_predict = mz._predict
    monkeypatch.setattr(mz, "_predict",
                        lambda *args: (real_predict(*args)[0], 1.0))
    runs, solved = record_sweep(monkeypatch)
    pts = mz.energy_map(cfg, [25.0, 10.0])
    assert list(runs) == [25.0, 10.0]
    rest = [s for s in solved if not any(s is t for r in runs.values() for t in r.stages)]
    (corrector,) = [s for s in rest if s.rho == 10.0]
    assert corrector.eps == 0.0 and corrector.status == "collapsed" and not corrector.on_sphere
    assert pts[1].iterations == corrector.iterations + runs[10.0].total_iterations
    assert pts[1].status == "collapsed" and runs[10.0].limit.limit_kind == "evaluated"
    assert pts[1].c_value == mz.continuation(replace(cfg, rho=10.0)).limit.energy


def test_disc_feasibility_every_iteration(log_spec3):
    # drive the same projected update the solver uses and check the iterate
    # never leaves the disc
    g = gr.RadialGrid(3, 12.0, 300)
    rho = 20.0
    u = mz.initial_guess(log_spec3, g, rho, 0.1).values
    tau = 1e-3
    for _ in range(200):
        grad = mz.grad_energy_eps(gr.RadialField(g, u), log_spec3, 0.1).values
        u = mz._rescale(g.w, u - tau * grad, rho)[0]
        assert float(np.dot(g.w, u * u)) <= rho**2 * (1 + 1e-12)


def patch_stage(monkeypatch, **wrappers):
    """Inject faults where every stage evaluates: each keyword names a field
    of the stage that mz._bind_stage binds (energy, g, dg) and maps it to
    wrapper(real function, grid) -> replacement."""
    real = mz._bind_stage

    def bound(grid, spec, eps):
        stage = real(grid, spec, eps)
        return stage._replace(**{name: wrap(getattr(stage, name), grid)
                                 for name, wrap in wrappers.items()})

    monkeypatch.setattr(mz, "_bind_stage", bound)


def test_nan_trial_energy_ends_nonfinite(small_grid, log_spec3, monkeypatch):
    # NaN compares false both ways, so it must not pass for "no increase"
    calls = []

    def poisoned(energy, grid):
        def first_real_then_nan(vals):
            calls.append(vals)
            E, dens = energy(vals)
            return (E if len(calls) == 1 else math.nan), dens
        return first_real_then_nan

    patch_stage(monkeypatch, energy=poisoned)
    cfg = mz.SolveConfig(spec=log_spec3, rho=5.0, r_max=10.0, n=300)
    u0 = random_bump(small_grid, np.random.default_rng(7))
    res = mz.solve_ground_state(cfg, 0.1, u0=u0, grid=small_grid)
    assert res.status == "nonfinite" and not res.converged
    assert res.to_json_dict()["converged"] is False
    assert len(calls) > 2


def test_rising_trial_energy_ends_backtrack_exhausted(small_grid, log_spec3, monkeypatch):
    # every trial reads 1 above the start's energy, far beyond rounding: from
    # a huge first step 60 halvings find no decrease before the steps reach
    # rounding level, and the stage ends with a status instead of raising
    calls = []

    def rising(energy, grid):
        def start_then_one_above(vals):
            calls.append(energy(vals))
            return calls[0][0] + (len(calls) > 1), calls[-1][1]
        return start_then_one_above

    patch_stage(monkeypatch, energy=rising)
    monkeypatch.setattr(mz, "STEP_INIT", 1e6)
    cfg = mz.SolveConfig(spec=log_spec3, rho=5.0, r_max=10.0, n=300)
    u0 = random_bump(small_grid, np.random.default_rng(7))
    res = mz.solve_ground_state(cfg, 0.1, u0=u0, grid=small_grid)
    assert res.status == "backtrack_exhausted" and not res.converged
    assert res.backtracks == 60


def test_multistart_keeps_starts_after_a_step_failure(log_spec3, monkeypatch, caplog):
    starts = []

    def second_fails(config, grid=None, rng=None):
        starts.append(rng)
        if len(starts) == 2:
            ended = SimpleNamespace(eps=1e-2, status="nonfinite")
            return mz.ContinuationResult(stages=[ended], limit=None)
        return mz.ContinuationResult(stages=[], limit=len(starts))

    monkeypatch.setattr(mz, "continuation", second_fails)
    cfg = mz.SolveConfig(spec=log_spec3, rho=5.0, r_max=10.0, n=100)
    with caplog.at_level(logging.WARNING, logger="subnls.minimizer"):
        assert mz.multistart(replace(cfg, multistarts=4)) == [1, 3, 4]
    assert "start 1 skipped: stage eps=0.01 ended nonfinite" in caplog.messages
    # start 0 runs unjittered, start j >= 1 draws from default_rng(j)
    assert starts[0] is None
    for j in (1, 2, 3):
        assert starts[j].random(4).tolist() == np.random.default_rng(j).random(4).tolist()


def kkt_residual(res, spec, eps):
    """Relative KKT residual |g_eps + lam u| / scale, computed outside the
    solver from the returned field and multiplier."""
    grid = res.u.grid
    gfield = mz.grad_energy_eps(res.u, spec, eps)
    lap = gr.laplacian_radial(res.u).values
    scale = max(1.0, gr.wnorm(grid, lap)
                + gr.wnorm(grid, np.atleast_1d(nl.g_eps(spec, res.u.values, eps)))
                + res.lam * math.sqrt(res.mass))
    return gr.wnorm(grid, gfield.values + res.lam * res.u.values) / scale


@pytest.mark.parametrize("n", [700, 800, 900, 1000, 1100])
def test_single_stage_stops_on_the_kkt_test(log_spec3, n):
    cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, r_max=16.0, n=n)
    res = mz.solve_ground_state(cfg, 0.1)
    assert res.status == "converged" and res.converged
    assert res.on_sphere and res.lam > 0
    assert kkt_residual(res, log_spec3, 0.1) <= cfg.tol_grad


def test_stage_iterations_flat_in_n(log_spec3):
    # the preconditioned step sees no h^-2 stiffness: a 4x finer grid may
    # not double the work of any stage
    counts = {}
    for n in (500, 2000):
        cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, r_max=16.0, n=n,
                             eps_schedule=(1e-1, 1e-2, 1e-3))
        counts[n] = [s.iterations for s in mz.continuation(cfg).stages]
    assert all(b <= 2 * a for a, b in zip(counts[500], counts[2000])), counts


def test_every_trial_field_stays_in_the_disc(log_spec3, monkeypatch):
    masses = []

    def spy(energy, grid):
        def recorded(x):
            masses.append(gr.mass(gr.RadialField(grid, x.s)))
            return energy(x)
        return recorded

    patch_stage(monkeypatch, energy=spy)
    cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, r_max=16.0, n=600,
                         eps_schedule=(1e-1, 1e-2))
    res = mz.continuation(cfg)
    assert all(s.status == "converged" for s in res.stages)
    assert len(masses) > res.total_iterations
    assert max(masses) <= cfg.rho**2 * (1 + 1e-12)


def test_stage_status_of_each_exit(log_spec3, monkeypatch):
    cfg = mz.SolveConfig(spec=log_spec3, rho=8.0, r_max=12.0, n=300, max_iter=40000)
    collapsed = mz.solve_ground_state(cfg, 0.1)
    assert collapsed.status == "collapsed" and collapsed.converged
    capped = mz.solve_ground_state(replace(cfg, max_iter=3), 0.1)
    assert capped.status == "max_iter" and not capped.converged
    assert capped.to_json_dict()["status"] == "max_iter"
    # an energy with its minimum at the start never passes Armijo: from a
    # small step the trials reach rounding level (a stall), from a huge one
    # backtracking runs out first; neither counts as converged
    grid = collapsed.u.grid
    u0 = mz.initial_guess(log_spec3, grid, cfg.rho, 0.1)
    patch_stage(monkeypatch, energy=lambda energy, grid: lambda x: (
        gr.wnorm(grid, x.s - u0.values) ** 2, energy(x)[1]))
    stalled = mz.solve_ground_state(cfg, 0.1, u0=u0)
    assert stalled.status == "stalled" and stalled.iterations == 1
    assert not stalled.converged
    monkeypatch.setattr(mz, "STEP_INIT", 1e6)
    exhausted = mz.solve_ground_state(cfg, 0.1, u0=u0)
    assert exhausted.status == "backtrack_exhausted" and exhausted.iterations == 1
    assert not exhausted.converged


def test_step_failure_keeps_completed_stages(log_spec3, monkeypatch):
    # the second stage ends backtrack_exhausted: the continuation returns
    # both stages and no limit, and the energy_map point keeps the first
    real = mz.solve_ground_state
    done = []

    def second_stage_fails(config, eps, **kwargs):
        result = real(config, eps, **kwargs)
        done.append(replace(result, status="backtrack_exhausted") if done else result)
        return done[-1]

    monkeypatch.setattr(mz, "solve_ground_state", second_stage_fails)
    cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, r_max=12.0, n=300,
                         eps_schedule=(1e-1, 1e-2))
    res = mz.continuation(cfg)
    assert res.stages == done and len(done) == 2
    assert res.limit is None and res.status == "backtrack_exhausted"
    done.clear()
    (point,) = mz.energy_map(cfg, [20.0])
    assert point.c_value == done[0].energy and not point.converged
    assert point.eps == done[0].eps


def test_nonfinite_stage_point_keeps_its_last_converged_stage(log_spec3, monkeypatch):
    assert not hasattr(mz, "StepFailure")
    real = mz.solve_ground_state
    done = []

    def fails_at_rho_20_stage_2(config, eps, **kwargs):
        result = real(config, eps, **kwargs)
        if config.rho == 20.0 and eps == 1e-2:
            return replace(result, status="nonfinite")
        if config.rho == 20.0:
            done.append(result)
        return result

    monkeypatch.setattr(mz, "solve_ground_state", fails_at_rho_20_stage_2)
    cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, r_max=12.0, n=300,
                         eps_schedule=(1e-1, 1e-2))
    # the point whose second stage ended nonfinite keeps its last converged
    # stage, and the sweep goes on unseeded
    failed, after = mz.energy_map(cfg, [20.0, 22.0])
    assert (failed.c_value, failed.eps, failed.converged) == (done[0].energy, 1e-1, False)
    alone = mz.continuation(replace(cfg, rho=22.0))
    assert after.converged and after.c_value == alone.limit.energy


def test_newton_cuts_continuation_iterations(log_spec3):
    # each stage, the eps = 0 limit stage included, ends in Newton steps on
    # the KKT system; the descent alone takes 269 iterations over the seven
    # eps-stages
    cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, r_max=20.0, n=1000,
                         eps_schedule=SEVEN_STAGES)
    res = mz.continuation(cfg)
    assert res.limit.limit_kind == "eps0_stage"
    for s in res.stages + [res.limit]:
        assert s.status == "converged" and s.on_sphere
        assert s.newton_steps >= 1 and s.kkt_residual <= cfg.tol_grad
        assert s.to_json_dict()["newton_steps"] == s.newton_steps
        assert s.to_json_dict()["kkt_residual"] == s.kkt_residual
    assert res.total_iterations <= 80
    assert res.limit.newton_steps > sum(s.newton_steps for s in res.stages)


def test_newton_from_the_first_iterate_on_the_sphere(log_spec3, monkeypatch):
    # from the plain start every stage, the eps = 0 limit stage's included,
    # is on the sphere with lambda_hat > 0 at its first iterate, so it takes
    # Newton steps from there and never descends: no preconditioner is
    # factored or applied.  A collapse run descends into the disc, factoring
    # it once per stage, and finishes on Newton steps inside the disc.
    factored = []
    real = mz._sobolev_preconditioner

    def counted(grid):
        factored.append(grid.n)
        return real(grid)

    monkeypatch.setattr(mz, "_sobolev_preconditioner", counted)
    cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, r_max=16.0, n=400,
                         eps_schedule=SEVEN_STAGES)
    res = mz.continuation(cfg)
    assert len(res.stages) == len(SEVEN_STAGES)
    for s in res.stages:
        assert s.status == "converged" and s.on_sphere
        assert s.precond_solves == 0 and s.iterations == s.newton_steps + 1
    # the limit's counters are the stages' sums plus the eps = 0 stage's
    limit = res.limit
    assert limit.limit_kind == "eps0_stage" and limit.status == "converged" and limit.on_sphere
    zero_iterations = limit.iterations - sum(s.iterations for s in res.stages)
    zero_newton = limit.newton_steps - sum(s.newton_steps for s in res.stages)
    assert limit.precond_solves == 0 and zero_iterations == zero_newton + 1
    assert factored == []
    collapsed = mz.solve_ground_state(replace(cfg, rho=8.0), 0.1)
    assert collapsed.status == "collapsed" and collapsed.newton_steps > 0
    assert collapsed.precond_solves > 0 and factored == [cfg.n]


def test_collapse_stage_iterations_flat_in_n():
    # below the threshold the flow collapses into the disc, where Newton
    # steps on the positive-definite Hessian finish the first stage in a
    # count independent of the grid: 11 at n = 500, 2000 and 8000, against
    # 43 for the descent alone.  The collapse ends the seven-stage schedule
    # there.
    spec = nl.log_power(1.0, 2.0 * nl.mu_threshold(1.0, 4.0), 4.0, dim=3)
    first = set()
    for n in (500, 2000, 8000):
        cfg = mz.SolveConfig(spec=spec, rho=10.0, r_max=20.0, n=n, eps_schedule=SEVEN_STAGES)
        res = mz.continuation(cfg)
        (stage,) = res.stages
        assert res.limit.limit_kind == "evaluated" and res.limit.status == "collapsed"
        assert stage.status == "collapsed" and stage.mass <= 1e-10 * cfg.rho ** 2
        assert stage.newton_steps > 0
        first.add(stage.iterations)
    assert len(first) == 1 and first.pop() <= 12


# (spec, rho, r_max) of two runs that collapse: log_power below mu*, and
# power_sublinear, whose G is negative everywhere
COLLAPSES = {
    "log_power_below_mu_star": (nl.log_power(1.0, 2.0 * nl.mu_threshold(1.0, 4.0), 4.0, dim=3),
                                10.0, 16.0),
    "power_sublinear": (nl.power_sublinear(0.5, dim=2), 3.0, 12.0),
}


@pytest.mark.parametrize("schedule", [(1e-1, 1e-2), (1e-1, 1e-2, 1e-3), SEVEN_STAGES],
                         ids=["2_stages", "3_stages", "7_stages"])
@pytest.mark.parametrize("name", list(COLLAPSES))
def test_collapse_ends_the_schedule(name, schedule):
    # E_eps only grows as eps falls, so each stage after a collapse would be
    # handed its zero field and end at its first check without moving it:
    # the continuation stops at the collapse, and its limit is, field for
    # field, the one built by running the full schedule stage by stage
    spec, rho, r_max = COLLAPSES[name]
    cfg = mz.SolveConfig(spec=spec, rho=rho, r_max=r_max, n=120, eps_schedule=schedule,
                         max_iter=60000)
    grid = cfg.make_grid()
    res = mz.continuation(cfg, grid=grid)
    (stage,) = res.stages
    assert stage.status == "collapsed" and stage.eps == schedule[0]
    full, start = [], None
    for eps in schedule:
        full.append(mz.solve_ground_state(cfg, eps, grid=grid, start=start))
        start = full[-1].at
    assert full[0].to_json_dict() == stage.to_json_dict()
    for s in full[1:]:
        assert s.status == "collapsed" and s.iterations == 1
        assert s.u.values is full[0].u.values
    ref, lim = mz._limit(cfg, grid, full), res.limit
    assert lim.limit_kind == ref.limit_kind == "evaluated"
    for k in ("energy", "lam", "mass", "kinetic"):
        assert getattr(lim, k) == getattr(ref, k), k
    assert lim.u.values.tobytes() == ref.u.values.tobytes()
    assert lim.bundle == ref.bundle
    # what moves: the limit's status and KKT residual are the collapsed
    # stage's, and each stage skipped is one iteration, one energy and one
    # gradient evaluation less
    assert lim.status == "collapsed" and lim.kkt_residual == stage.kkt_residual
    skipped = len(schedule) - 1
    for k in ("iterations", "energy_evals", "grad_evals"):
        assert getattr(ref, k) - getattr(lim, k) == skipped, k
    for k in ("newton_steps", "backtracks", "precond_solves"):
        assert getattr(ref, k) == getattr(lim, k), k


def test_converged_stages_run_the_whole_schedule(quick_run):
    # no stage of a run on the sphere collapses, so it keeps every stage
    assert [s.eps for s in quick_run.stages] == [1e-1, 1e-2, 1e-3]
    assert all(s.status == "converged" and s.on_sphere for s in quick_run.stages)


def test_newton_rejection_falls_back_to_the_descent(log_spec3, monkeypatch):
    # a wrong-signed g_eps' gives steps that the residual test must reject;
    # the descent then finishes every stage, the eps = 0 limit stage's
    # included, at the same energies
    cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, r_max=20.0, n=1000,
                         eps_schedule=SEVEN_STAGES)
    good = mz.continuation(cfg)
    real_step = mz._newton_step
    trials, flipped = [], []

    def counted(*args):
        trials.append(1)
        return real_step(*args)

    def wrong_sign(dg, grid):
        def negated(vals):
            flipped.append(1)
            return -dg(vals)
        return negated

    patch_stage(monkeypatch, dg=wrong_sign)
    monkeypatch.setattr(mz, "_newton_step", counted)
    bad = mz.continuation(cfg)
    assert len(bad.stages) == len(SEVEN_STAGES)
    assert all(s.status == "converged" for s in bad.stages)
    for res in (good, bad):
        limit = res.limit
        assert limit.limit_kind == "eps0_stage" and limit.status == "converged"
        assert limit.on_sphere
    # the limit's Newton steps are every stage's, the eps = 0 stage's included
    assert len(trials) > bad.limit.newton_steps
    # every Newton step saw the injected derivative
    assert len(flipped) == len(trials)
    for a, b in zip(good.stages + [good.limit], bad.stages + [bad.limit]):
        assert b.energy == pytest.approx(a.energy, rel=1e-9, abs=0.0)


def test_rejected_newton_trial_descends_in_the_same_iteration():
    # start 1 of log_power mu = 0.7: the first sphere Newton trial of the
    # eps = 0.1 stage raises E_eps and is rejected, and the same iteration
    # descends.  The next iterate's trial is kept, and Newton steps finish
    # the stage in 7 iterations at the same limit energy
    spec = nl.log_power(1.0, 0.7, 3.0, dim=3)
    cfg = mz.SolveConfig(spec=spec, rho=20.0, r_max=16.0, n=200,
                         eps_schedule=(1e-1, 1e-2, 1e-3))
    res = mz.continuation(cfg, rng=np.random.default_rng(1))
    first = res.stages[0]
    assert first.status == "converged" and first.on_sphere
    assert first.iterations <= 8 and first.precond_solves > 0
    assert res.limit.limit_kind == "eps0_stage"
    assert res.limit.energy == pytest.approx(-820.620971956088, rel=1e-12, abs=0.0)


def test_newton_step_with_a_zero_border_pivot_gives_no_step():
    # g_eps' = -inf makes every diagonal entry of A infinite, so
    # <W u, A^-1 W u> = 0: the bordered system has no step, and the solver
    # descends instead of dividing by zero
    grid = gr.RadialGrid(3, 10.0, 50)
    u = np.exp(-grid.r ** 2)
    m_u = gr.mass(gr.RadialField(grid, u))
    rhs2 = np.empty((grid.n, 2), order="F")
    step = mz._newton_step(grid, u, m_u, np.zeros(grid.n), 1.0, math.sqrt(m_u), True,
                           np.full(grid.n, -np.inf), rhs2)
    assert step is None


def test_interior_newton_step_whose_mass_overflows_gives_no_step():
    # A = K is positive definite and the solved step is finite, near 1e201,
    # but its mass overflows: no step, where the trial used to be evaluated
    # with its infinite mass and then rejected
    grid = gr.RadialGrid(3, 10.0, 50)
    u = np.exp(-grid.r ** 2)
    m_u = gr.mass(gr.RadialField(grid, u))
    res = np.full(grid.n, 1e200)
    k_diag, k_off = grid._kinetic_bands
    d_fac, e_fac, info = mz.dpttrf(k_diag, k_off)
    x = mz.dpttrs(d_fac, e_fac, grid.w * res)[0]
    assert info == 0 and np.all(np.isfinite(u - x))
    rhs2 = np.empty((grid.n, 2), order="F")
    # the solver calls the step with overflow warnings off
    with np.errstate(over="ignore"):
        assert not math.isfinite(float(np.dot(grid.w, (u - x) ** 2)))
        step = mz._newton_step(grid, u, m_u, res, 0.0, 20.0, False, np.zeros(grid.n), rhs2)
    assert step is None


def test_newton_trial_that_lowers_the_energy_is_kept():
    # the perfbench collapse configuration from default_rng([1, 0]): the
    # first iteration descends into the disc, and the second is an interior
    # Newton trial that takes E_eps from 11.6 to 1.29 while the residual
    # falls only from 0.916 to 0.900.  Lowering the energy is enough to keep
    # it; the stage then collapses in 10 iterations
    spec = nl.log_power(1.0, 2.0 * nl.mu_threshold(1.0, 4.0), 4.0, dim=3)
    cfg = mz.SolveConfig(spec=spec, rho=10.0, r_max=16.0, n=120,
                         eps_schedule=(1e-1, 1e-2, 1e-3), max_iter=60000)
    grid = cfg.make_grid()

    def after(k):
        # the stage's record after its first k iterations
        return mz.solve_ground_state(replace(cfg, max_iter=k), 0.1, grid=grid,
                                     rng=np.random.default_rng([1, 0]))

    before, trial = after(1), after(2)
    assert before.status == trial.status == "max_iter"
    assert before.newton_steps == 0 and before.precond_solves == 1
    assert not before.on_sphere and before.mass < cfg.rho ** 2
    assert trial.newton_steps == 1 and trial.precond_solves == 1
    assert trial.energy < before.energy - 1.0
    assert 0.5 * before.kkt_residual < trial.kkt_residual < before.kkt_residual
    full = after(cfg.max_iter)
    assert full.status == "collapsed" and full.iterations == 10
    assert full.mass <= 1e-10 * cfg.rho ** 2


def test_newton_trial_of_overflowing_mass_is_rejected(monkeypatch):
    # the perfbench collapse configuration from default_rng([11, 0]), with the
    # first interior Newton trial scaled by 1e200: its mass overflows, so it
    # keeps its values and an infinite mass, its energy is not finite, and it
    # is rejected.  Rescaled, it was the zero field at a tracked mass rho^2,
    # kept for its lower energy, and the stage record divided by its mass 0
    spec = nl.log_power(1.0, 2.0 * nl.mu_threshold(1.0, 4.0), 4.0, dim=3)
    cfg = mz.SolveConfig(spec=spec, rho=10.0, r_max=16.0, n=120,
                         eps_schedule=(1e-1, 1e-2, 1e-3), max_iter=60000)
    newton_step = mz._newton_step
    scaled = []

    def overflowing_once(grid, u, m_u, res, lam, rho, on_boundary, dg, rhs2):
        step = newton_step(grid, u, m_u, res, lam, rho, on_boundary, dg, rhs2)
        if step is None or on_boundary or scaled:
            return step
        scaled.append(step)
        return mz._rescale(grid.w, step[0] * 1e200, rho)

    monkeypatch.setattr(mz, "_newton_step", overflowing_once)
    res = mz.continuation(cfg, rng=np.random.default_rng([11, 0]))
    assert len(scaled) == 1
    for r in [*res.stages, res.limit]:
        assert math.isfinite(r.mass) and math.isfinite(r.energy)
        assert not (r.converged and r.on_sphere and not np.any(r.u.values))
    assert res.stages[-1].status == "collapsed"
    assert res.stages[-1].mass <= 1e-10 * cfg.rho ** 2


def test_slow_gausson_starts_take_no_descent_step():
    # the perfbench Gausson starts from default_rng([1, 0]) and [1, 4] (log,
    # rho = 20, n = 1000): every Newton trial lowers E_eps, so both the
    # eps-stage (6 and 7 iterations) and the eps = 0 stage finish on Newton
    # steps alone and never factor the preconditioner
    cfg = mz.SolveConfig(spec=nl.log_power(1.0, 0.0, 4.0, dim=3), rho=20.0, r_max=20.0,
                         n=1000)
    grid = cfg.make_grid()
    for seed in ([1, 0], [1, 4]):
        res = mz.continuation(cfg, grid=grid, rng=np.random.default_rng(seed))
        (stage,) = res.stages
        assert stage.status == "converged" and stage.iterations <= 8, seed
        limit = res.limit
        assert limit.limit_kind == "eps0_stage" and limit.status == "converged"
        assert limit.precond_solves == limit.backtracks == 0, seed
        # each of the two stages ends on its KKT check after its Newton steps
        assert stage.iterations == stage.newton_steps + 1
        assert limit.iterations == limit.newton_steps + 2


COUNTERS = ("energy_evals", "grad_evals", "backtracks", "precond_solves")


# the collapse run is log_power at 1.5 mu*, rho = 12, whose stage both
# backtracks and rejects a Newton trial (at 2 mu*, rho = 10 it does
# neither: every Newton trial there is kept)
@pytest.mark.parametrize("mu, rho", [(0.0, 20.0), (1.5 * nl.mu_threshold(1.0, 4.0), 12.0)],
                         ids=["newton_finish", "collapse"])
def test_solver_counters_are_deterministic_and_consistent(mu, rho, monkeypatch):
    # each iteration but the last takes one Newton step or one descent
    # step, and a rejected Newton trial shares its iteration with the
    # descent step that follows it.  A Newton trial, accepted or rejected,
    # is one energy and one gradient evaluation; a descent step is one
    # energy per Armijo trial, one gradient and one or two preconditioner
    # solves.  Spies count each stage's Newton trials (a step that returns
    # None is no trial: the descent runs in the same iteration) and keep
    # every stage record, the eps = 0 limit stage's included.
    trials, solved = [], []
    real_solve = mz.solve_ground_state

    def solve(*args, **kwargs):
        trials.append(0)
        solved.append(real_solve(*args, **kwargs))
        return solved[-1]

    def counted(step):
        def spy(*args):
            out = step(*args)
            trials[-1] += out is not None
            return out
        return spy

    monkeypatch.setattr(mz, "solve_ground_state", solve)
    monkeypatch.setattr(mz, "_newton_step", counted(mz._newton_step))
    spec = nl.log_power(1.0, mu, 4.0, dim=3)
    cfg = mz.SolveConfig(spec=spec, rho=rho, r_max=16.0, n=300,
                         eps_schedule=(1e-1, 1e-2, 1e-3), max_iter=60000)
    first, again = mz.continuation(cfg), mz.continuation(cfg)
    # the ground state adds its eps = 0 stage, the collapse run none
    eps0 = first.limit.limit_kind == "eps0_stage"
    assert eps0 == (mu == 0.0)
    ran = len(first.stages) + eps0
    assert len(trials) == len(solved) == 2 * ran
    assert solved[:len(first.stages)] == first.stages
    for s, tried in zip(solved[:ran], trials):
        assert s.status in ("converged", "collapsed")
        assert all(type(getattr(s, k)) is int for k in COUNTERS)
        rejected = tried - s.newton_steps
        assert rejected >= 0
        assert s.grad_evals == s.iterations + rejected
        assert s.energy_evals == s.iterations + s.backtracks + rejected
        descent = s.iterations - 1 - s.newton_steps
        assert descent <= s.precond_solves <= 2 * descent
        assert all(s.to_json_dict()[k] == getattr(s, k) for k in COUNTERS)
    for k in COUNTERS + ("iterations", "newton_steps"):
        assert getattr(first.limit, k) == sum(getattr(s, k) for s in solved[:ran])
    if eps0:
        assert first.limit.kkt_residual == solved[ran - 1].kkt_residual
    # neither relation above is vacuous on these runs: both take Newton
    # steps, the collapse run also backtracks and rejects a Newton trial
    assert first.limit.newton_steps > 0
    if mu != 0.0:
        assert first.limit.backtracks > 0
        assert sum(trials[:ran]) > first.limit.newton_steps
    assert ([s.to_json_dict() for s in first.stages + [first.limit]]
            == [s.to_json_dict() for s in again.stages + [again.limit]])


def gausson_energy(rho):
    # closed-form E_0 of the Gausson (log, N = 3, alpha = 1) at mass rho^2
    m = rho * rho
    return m * (2.0 - 0.5 * math.log(m) + 0.75 * math.log(math.pi))


def test_eps0_limit_converges_at_order_two_in_h(log_spec3):
    # the limit is the eps = 0 stage itself, so its only error against the
    # closed-form Gausson is the grid's: 2.495e-2, 6.24e-3, 1.56e-3 at
    # n = 1000, 2000, 4000, order 2 in h = r_max/(n + 1)
    hs, errors = [], []
    for n in (1000, 2000, 4000):
        cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, r_max=20.0, n=n)
        lim = mz.continuation(cfg).limit
        assert lim.limit_kind == "eps0_stage" and lim.status == "converged"
        assert lim.eps == 0.0 and lim.on_sphere and lim.kkt_residual <= cfg.tol_grad
        hs.append(cfg.r_max / (n + 1))
        errors.append(abs(lim.energy - gausson_energy(cfg.rho)))
    for k in (0, 1):
        order = math.log(errors[k] / errors[k + 1]) / math.log(hs[k] / hs[k + 1])
        assert 1.95 <= order <= 2.05, (errors, order)


def test_eps_problems_approach_the_limit_from_below(gausson_run):
    # E_eps < E_0 at every stage of the seven-stage schedule, and the gap to
    # the eps = 0 stage's E_0 shrinks at least 30x per decade of eps from
    # 1e-2 to 1e-4 (measured 48x and 57x)
    lim = gausson_run.limit
    assert lim.limit_kind == "eps0_stage"
    gaps = {s.eps: lim.energy - s.energy for s in gausson_run.stages}
    assert all(gap > 0.0 for gap in gaps.values()), gaps
    assert gaps[1e-2] >= 30.0 * gaps[1e-3]
    assert gaps[1e-3] >= 30.0 * gaps[1e-4]


def test_default_schedule_iteration_budget(log_spec3):
    # the default schedule is one eps-stage and the eps = 0 limit stage: the
    # rho = 20, n = 2000 continuation takes at most 15 solver iterations in
    # all (5 + 7 measured), against 29 over the seven-stage schedule
    cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, r_max=20.0, n=2000)
    assert cfg.eps_schedule == mz.DEFAULT_EPS_SCHEDULE == (1e-1,)
    res = mz.continuation(cfg)
    assert res.limit.limit_kind == "eps0_stage"
    assert res.total_iterations == res.limit.iterations <= 15
    assert res.limit.iterations > res.stages[0].iterations


def test_energy_map_second_radius_below_the_zero_multiplier_runs_cold(log_spec3, monkeypatch):
    # with one known neighbour the multiplier is predicted by the Nehari
    # quotient of the rescaled start: from rho = 14 it is negative at
    # rho = 10, so no corrector runs and the point costs exactly its
    # standalone iterations
    cfg = mz.SolveConfig(spec=log_spec3, rho=14.0, r_max=16.0, n=400)
    runs, solved = record_sweep(monkeypatch)
    pts = mz.energy_map(cfg, [14.0, 10.0])
    assert list(runs) == [14.0, 10.0]
    assert [s.rho for s in solved if s.rho == 10.0] == [s.rho for s in runs[10.0].stages]
    monkeypatch.undo()
    alone = mz.continuation(replace(cfg, rho=10.0))
    assert pts[1].iterations == alone.total_iterations
    assert pts[1].status == "collapsed" and pts[1].c_value == alone.limit.energy


def test_energy_map_point_below_the_zero_multiplier_runs_cold(log_spec3, monkeypatch):
    # in a decreasing log N = 3 sweep the secant through the limit
    # multipliers at rho = 16 and 14 predicts lambda < 0 at rho = 10 (the
    # branch's lambda = 0 point is 10.58), where a corrector from rho = 14
    # could only collapse: the point runs cold and costs exactly its
    # standalone iterations, and every other point keeps its c
    cfg = mz.SolveConfig(spec=log_spec3, rho=25.0, r_max=16.0, n=400)
    rhos = [25.0, 20.0, 16.0, 14.0, 10.0]
    runs, solved = record_sweep(monkeypatch)
    pts = mz.energy_map(cfg, rhos)
    assert list(runs) == [25.0, 10.0]
    assert [s.rho for s in solved if s.rho == 10.0] == [s.rho for s in runs[10.0].stages]
    monkeypatch.undo()
    alone = {p.rho: mz.continuation(replace(cfg, rho=p.rho)) for p in pts}
    assert pts[-1].iterations == alone[10.0].total_iterations
    assert pts[-1].status == "collapsed" and pts[-1].c_value == alone[10.0].limit.energy
    for p in pts[:-1]:
        assert p.converged and p.status == "converged" and p.eps == 0.0
        assert p.c_value == pytest.approx(alone[p.rho].limit.energy, rel=1e-9, abs=0.0)


STAGE_STATUSES = {"converged", "collapsed", "stalled", "nonfinite", "backtrack_exhausted",
                  "max_iter"}


def _decade(lo, hi):
    return st.integers(lo, hi).map(lambda k: 10.0 ** k)


@st.composite
def _extreme_continuation(draw):
    # a finite spec and solve config drawn across many decades, each refused
    # one skipped, and the seed of a jittered start (None: the plain start)
    family = draw(st.sampled_from(sorted(nl._FAMILIES)))
    draws = {"alpha": _decade(-300, 300),
             "mu": st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), _decade(-300, 300)).map(
                 lambda t: t[0] * t[1]),
             "p_exp": st.sampled_from([2.000001, 2.5, 3.0, 10.0 / 3.0, 4.0, 6.0, 100.0, 1e300]),
             "omega": st.sampled_from([1e-300, 1e-8, 0.05, 0.5, 0.9, 1.0 - 1e-16])}
    kw = {f: draw(draws[f]) for f in nl._FAMILIES[family].params}
    dim = draw(st.sampled_from([2, 3, 5]))
    try:
        config = mz.SolveConfig(spec=nl.NonlinearitySpec(family, dim, **kw),
                                rho=draw(_decade(-150, 150)), r_max=draw(_decade(-50, 100)),
                                n=draw(st.sampled_from([3, 8, 40])),
                                max_iter=draw(st.integers(1, 40)))
        config.make_grid()
    except ValueError:
        assume(False)
    return config, draw(st.none() | st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_extreme_continuation())
# rho^(omega+2) overflowed in the eps = 0 limit's primitive P, which it drops
@example((mz.SolveConfig(spec=nl.power_sublinear(0.9, dim=3), rho=1e150, r_max=1.0, n=40,
                         max_iter=40), None))
def test_continuation_ends_in_a_documented_status(run):
    # no exception and no numpy warning, whatever the spec, grid and start
    config, seed = run
    rng = None if seed is None else np.random.default_rng(seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = mz.continuation(config, rng=rng)
    assert {s.status for s in res.stages} <= STAGE_STATUSES
    assert not [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
