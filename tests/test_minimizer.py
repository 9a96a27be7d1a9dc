import logging
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
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
    p = mz.project_disc(u, rho)
    assert gr.mass(p) == pytest.approx(rho**2, rel=1e-12)
    assert np.allclose(p.values, 0.5 * u.values)
    again = mz.project_disc(p, rho)
    assert np.array_equal(again.values, p.values)  # idempotent


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.floats(min_value=0.2, max_value=5.0))
def test_project_disc_nonexpansive(seed, rho):
    g = gr.RadialGrid(3, 6.0, 60)
    rng = np.random.default_rng(seed)
    u = gr.RadialField(g, rng.normal(size=g.n))
    v = gr.RadialField(g, rng.normal(size=g.n))
    pu, pv = mz.project_disc(u, rho), mz.project_disc(v, rho)
    d_before = gr.wnorm(g, u.values - v.values)
    d_after = gr.wnorm(g, pu.values - pv.values)
    assert d_after <= d_before * (1 + 1e-12)


def test_initial_guess_mass_and_negative_energy(log_spec3):
    grid = gr.RadialGrid(3, 16.0, 800)
    rho = 25.0
    u0 = mz.initial_guess(log_spec3, grid, rho, 0.1)
    assert gr.mass(u0) == pytest.approx(rho**2, rel=1e-8)
    assert mz.energy_eps(u0, log_spec3, 0.1) < 0.0


def test_initial_guess_fallback_warning(caplog):
    spec = nl.log_power(1.0, 2 * nl.mu_threshold(1.0, 4.0), 4.0, dim=3)
    grid = gr.RadialGrid(3, 10.0, 200)
    with caplog.at_level(logging.WARNING, logger="subnls.minimizer"):
        u0 = mz.initial_guess(spec, grid, 5.0, 0.1)
    assert "falling back" in caplog.text
    assert gr.mass(u0) == pytest.approx(25.0, rel=1e-8)


def test_dilated_witness_kinetic_scaling(log_spec3):
    # along the dilated family the gradient term scales like rho^(2-4/N)
    grid = gr.RadialGrid(3, 40.0, 2400)
    level = 2.0
    kins = []
    rhos = (20.0, 40.0, 80.0)
    for rho in rhos:
        u = mz.dilated_witness(log_spec3, grid, rho, level)
        assert gr.mass(u) == pytest.approx(rho**2, rel=1e-8)
        kins.append(gr.kinetic(u))
    expo = 2.0 - 4.0 / 3.0
    for rho, kin in zip(rhos[1:], kins[1:]):
        predicted = kins[0] * (rho / rhos[0]) ** expo
        assert kin == pytest.approx(predicted, rel=2e-2)


def test_extract_lambda_linear_eigenproblem(small_grid):
    # g(s) = 2s makes lambda = 2 - kinetic/mass; on the lowest Dirichlet
    # mode that is 2 minus the eigenvalue
    spec = nl.custom(lambda s: 2.0 * s, G=lambda s: s * s, dim=3)
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
    lam = mz.extract_lambda(mode, spec, 0.0)
    assert lam == pytest.approx(2.0 - lam1[0], rel=1e-10)
    rng = np.random.default_rng(8)
    u = random_bump(g, rng)
    assert mz.extract_lambda(u, spec, 0.0) == pytest.approx(
        2.0 - gr.kinetic(u) / gr.mass(u), rel=1e-12, abs=0.0)


def test_extract_lambda_sign_flip(small_grid, log_spec3):
    rng = np.random.default_rng(9)
    u = random_bump(small_grid, rng)
    neg = gr.RadialField(small_grid, -u.values)
    for eps in (0.0, 0.1):
        assert mz.extract_lambda(u, log_spec3, eps) == pytest.approx(
            mz.extract_lambda(neg, log_spec3, eps), rel=1e-12)


def test_extract_lambda_zero_field(small_grid, log_spec3):
    with pytest.raises(ValueError):
        mz.extract_lambda(gr.zeros(small_grid), log_spec3, 0.1)


def test_solve_config_validation(log_spec3):
    with pytest.raises(ValueError):
        mz.SolveConfig(spec=log_spec3, rho=-1.0)
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
    # energy evaluations and move the answer: the setting warns once and
    # changes nothing
    spec = nl.log_power(1.0, 2.0 * nl.mu_threshold(1.0, 4.0), 4.0, dim=3)
    off = mz.SolveConfig(spec=spec, rho=10.0, r_max=16.0, n=120)
    with caplog.at_level(logging.WARNING, logger="subnls.minimizer"):
        on = replace(off, rearrange_every=1)
    assert [r.getMessage() for r in caplog.records] == [
        "rearrange_every = 1 is ignored: the solver no longer rearranges"]
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
    assert lim.energy == pytest.approx(exact, rel=2e-3)
    lam_exact = 2 * math.log(lim.rho) - 1.5 * math.log(math.pi) - 3.0
    assert lim.lam == pytest.approx(lam_exact, rel=2e-3)


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
    # each point seeded from the one before reaches the standalone c(rho)
    # in fewer solver iterations than the points solved cold
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
    iterations.clear()
    alone = [mz.continuation(replace(cfg, rho=r)).limit.energy for r in rhos]
    assert warm < sum(iterations)
    for p, c in zip(pts, alone):
        assert p.converged and p.eps == 0.0
        assert p.c_value == pytest.approx(c, rel=1e-9, abs=0.0)


def test_energy_map_failed_or_collapsed_point_seeds_nothing(monkeypatch):
    # rho = 18 aborts on max_iter in its last stage after two completed
    # ones, and rho = 10 (below the negativity threshold 17.44) collapses off
    # the sphere; the point after each is bit-identical to its standalone run
    cfg = sweep_config()
    real_solve, real_continuation = mz.solve_ground_state, mz.continuation
    runs = {}

    def capped(config, eps, **kwargs):
        if config.rho == 18.0 and eps == config.eps_schedule[-1]:
            config = replace(config, max_iter=1)
        return real_solve(config, eps, **kwargs)

    def recording(config, **kwargs):
        runs[config.rho] = real_continuation(config, **kwargs)
        return runs[config.rho]

    monkeypatch.setattr(mz, "solve_ground_state", capped)
    monkeypatch.setattr(mz, "continuation", recording)
    pts = mz.energy_map(cfg, [18.0, 25.0, 10.0, 20.0])
    assert [p.converged for p in pts] == [False, True, True, True]
    assert pts[0].eps == cfg.eps_schedule[1]
    assert all(s.status == "collapsed" and not s.on_sphere for s in runs[10.0].stages)

    def fingerprint(res):
        return [(s.iterations, s.energy, s.lam, s.u.values.tobytes()) for s in res.stages]

    alone = {rho: real_continuation(replace(cfg, rho=rho)) for rho in (25.0, 20.0)}
    for rho, res in alone.items():
        assert fingerprint(res) == fingerprint(runs[rho])
        assert res.limit.energy == runs[rho].limit.energy
    # the stages of rho = 25 do seed rho = 20, but not once marked collapsed
    # or off the sphere
    cfg20, seeds = replace(cfg, rho=20.0), runs[25.0].stages
    assert fingerprint(real_continuation(cfg20, warm=seeds)) != fingerprint(alone[20.0])
    for mark in ({"status": "collapsed"}, {"on_sphere": False}):
        marked = [replace(s, **mark) for s in seeds]
        assert fingerprint(real_continuation(cfg20, warm=marked)) == fingerprint(alone[20.0])


def test_disc_feasibility_every_iteration(log_spec3):
    # drive the same projected update the solver uses and check the iterate
    # never leaves the disc
    g = gr.RadialGrid(3, 12.0, 300)
    rho = 20.0
    u = mz.initial_guess(log_spec3, g, rho, 0.1).values
    tau = 1e-3
    for _ in range(200):
        grad = mz.grad_energy_eps(gr.RadialField(g, u), log_spec3, 0.1).values
        u = mz.project_disc(gr.RadialField(g, u - tau * grad), rho).values
        assert float(np.dot(g.w, u * u)) <= rho**2 * (1 + 1e-12)


def patch_stage(monkeypatch, **wrappers):
    """Inject faults where every stage evaluates: each keyword names a field
    of the stage that mz._bind_stage binds (energy, g, dg) and maps it to
    wrapper(real function, grid) -> replacement."""
    real = mz._bind_stage

    def bound(fields, spec, eps):
        stage = real(fields, spec, eps)
        return stage._replace(**{name: wrap(getattr(stage, name), fields.grid)
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
        def recorded(vals):
            masses.append(gr.mass(gr.RadialField(grid, vals)))
            return energy(vals)
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
    patch_stage(monkeypatch, energy=lambda energy, grid: lambda vals: (
        gr.wnorm(grid, vals - u0.values) ** 2, energy(vals)[1]))
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
    # each stage ends in Newton steps on the KKT system; the descent alone
    # takes 269 iterations over this schedule
    cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, r_max=20.0, n=1000)
    res = mz.continuation(cfg)
    for s in res.stages:
        assert s.status == "converged" and s.on_sphere
        assert s.newton_steps >= 1 and s.kkt_residual <= cfg.tol_grad
        assert s.to_json_dict()["newton_steps"] == s.newton_steps
        assert s.to_json_dict()["kkt_residual"] == s.kkt_residual
    assert res.total_iterations <= 80
    assert res.limit.newton_steps == sum(s.newton_steps for s in res.stages)


def test_newton_from_the_first_iterate_on_the_sphere(log_spec3, monkeypatch):
    # from the plain start every stage is on the sphere with lambda_hat > 0
    # at its first iterate, so it takes Newton steps from there and never
    # descends: no preconditioner is factored or applied.  A collapse run
    # descends into the disc, factoring it once per stage, and finishes on
    # Newton steps inside the disc.
    factored = []
    real = mz._sobolev_preconditioner

    def counted(grid):
        factored.append(grid.n)
        return real(grid)

    monkeypatch.setattr(mz, "_sobolev_preconditioner", counted)
    cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, r_max=16.0, n=400)
    res = mz.continuation(cfg)
    assert len(res.stages) == len(mz.DEFAULT_EPS_SCHEDULE)
    for s in res.stages:
        assert s.status == "converged" and s.on_sphere
        assert s.precond_solves == 0 and s.iterations == s.newton_steps + 1
    assert factored == []
    collapsed = mz.solve_ground_state(replace(cfg, rho=8.0), 0.1)
    assert collapsed.status == "collapsed" and collapsed.newton_steps > 0
    assert collapsed.precond_solves > 0 and factored == [cfg.n]


def test_collapse_stage_iterations_flat_in_n():
    # below the threshold the flow collapses into the disc, where Newton
    # steps on the positive-definite Hessian finish the first stage in a
    # count independent of the grid: 13 at n = 500, 2000 and 8000, against
    # 36, 30 and 41 for the descent alone
    spec = nl.log_power(1.0, 2.0 * nl.mu_threshold(1.0, 4.0), 4.0, dim=3)
    first = set()
    for n in (500, 2000, 8000):
        cfg = mz.SolveConfig(spec=spec, rho=10.0, r_max=20.0, n=n)
        stages = mz.continuation(cfg).stages
        for s in stages:
            assert s.status == "collapsed" and s.mass <= 1e-10 * cfg.rho ** 2
        assert stages[0].newton_steps > 0
        first.add(stages[0].iterations)
    assert len(first) == 1 and first.pop() <= 15


def test_newton_rejection_falls_back_to_the_descent(log_spec3, monkeypatch):
    # a wrong-signed g_eps' gives steps that the residual test must reject;
    # the descent then finishes every stage at the same energies
    cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, r_max=20.0, n=1000)
    good = mz.continuation(cfg).stages
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
    bad = mz.continuation(cfg).stages
    assert all(s.status == "converged" for s in bad)
    assert len(trials) > sum(s.newton_steps for s in bad)
    # every Newton step saw the injected derivative
    assert len(flipped) == len(trials)
    for a, b in zip(good, bad):
        assert b.energy == pytest.approx(a.energy, rel=1e-9, abs=0.0)


COUNTERS = ("energy_evals", "grad_evals", "backtracks", "precond_solves")


@pytest.mark.parametrize("mu, rho", [(0.0, 20.0), (2.0 * nl.mu_threshold(1.0, 4.0), 10.0)],
                         ids=["newton_finish", "collapse"])
def test_solver_counters_are_deterministic_and_consistent(mu, rho, monkeypatch):
    # each iteration but the last makes one Newton trial or one descent
    # step.  A Newton trial, accepted or rejected, is one energy and one
    # gradient evaluation; a descent step is one energy per Armijo trial,
    # one gradient and one or two preconditioner solves.
    # Spies count each stage's Newton trials (a step that returns None is
    # no trial: inside the disc the descent runs in the same iteration).
    trials = []
    real_solve = mz.solve_ground_state

    def solve(*args, **kwargs):
        trials.append(0)
        return real_solve(*args, **kwargs)

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
    assert len(trials) == 2 * len(first.stages)
    for s, tried in zip(first.stages, trials):
        assert s.status in ("converged", "collapsed")
        assert all(type(getattr(s, k)) is int for k in COUNTERS)
        assert s.grad_evals == s.iterations
        assert s.energy_evals == s.iterations + s.backtracks
        assert s.newton_steps <= tried
        descent = s.iterations - 1 - tried
        assert descent <= s.precond_solves <= 2 * descent
        assert all(s.to_json_dict()[k] == getattr(s, k) for k in COUNTERS)
    for k in COUNTERS + ("iterations", "newton_steps"):
        assert getattr(first.limit, k) == sum(getattr(s, k) for s in first.stages)
    # neither relation above is vacuous on these runs: both take Newton
    # steps, the collapse run also backtracks and rejects a Newton trial
    assert first.limit.newton_steps > 0
    if mu != 0.0:
        assert first.limit.backtracks > 0
        assert sum(trials[:len(first.stages)]) > first.limit.newton_steps
    assert ([s.to_json_dict() for s in first.stages + [first.limit]]
            == [s.to_json_dict() for s in again.stages + [again.limit]])
