import math

import numpy as np
import pytest

from subnls import diagnostics as dg
from subnls import grid as gr
from subnls import minimizer as mz
from subnls import nonlinearity as nl


def test_residuals_zero_solution(log_spec3):
    g = gr.RadialGrid(3, 8.0, 100)
    bundle = dg.residual_bundle(gr.zeros(g), 0.0, 0.0, log_spec3)
    assert bundle.pohozaev_rel == 0.0
    assert bundle.nehari_rel == 0.0


def test_nehari_zero_by_construction(log_spec3):
    # the multiplier is defined exactly by the pairing it is tested with
    g = gr.RadialGrid(3, 8.0, 200)
    rng = np.random.default_rng(1)
    u = gr.RadialField(g, rng.uniform(0.5, 1.5) * np.exp(-g.r**2))
    for eps in (0.0, 0.1):
        lam = mz.extract_lambda(u, log_spec3, eps)
        assert dg.residual_bundle(u, lam, eps, log_spec3).nehari_rel <= 1e-14


def test_residuals_converged_run(quick_run, log_spec3):
    # fresh evaluations, not the bundle the solver built from its own
    for stage in quick_run.stages[-2:]:
        bundle = dg.residual_bundle(stage.u, stage.lam, stage.eps, log_spec3)
        assert bundle.pohozaev_rel <= 1e-3
        assert bundle.nehari_rel <= 1e-3
    lim = quick_run.limit
    assert dg.residual_bundle(lim.u, lim.lam, lim.eps, log_spec3).pohozaev_rel <= 1e-3


def test_pohozaev_sharpens_under_refinement(log_spec3):
    # grid-refinement oracle: the residual of the same run drops with h
    vals = []
    for n in (400, 800):
        cfg = mz.SolveConfig(spec=log_spec3, rho=20.0, r_max=16.0, n=n,
                             eps_schedule=(1e-1, 1e-2, 1e-3))
        lim = mz.continuation(cfg).limit
        vals.append(dg.residual_bundle(lim.u, lim.lam, lim.eps, log_spec3).pohozaev_rel)
    assert vals[1] <= vals[0]


def test_planar_run_identities(planar_run):
    # in the plane the kinetic term drops from the scaling identity and the
    # energy identity reduces to E = (kinetic - lambda rho^2)/2
    lim = planar_run.limit
    assert lim.converged and lim.on_sphere and lim.lam > 0 and lim.energy < 0
    assert lim.bundle.pohozaev_rel <= 1e-3
    assert dg.energy_identity_rel(lim) <= 1e-3
    spec = nl.logarithmic(1.0, dim=2)
    dens = nl.G_value(spec, lim.u.values)
    balance = 2.0 * float(np.dot(lim.u.grid.w, dens)) - lim.lam * lim.mass
    assert abs(balance) <= 1e-3 * (lim.kinetic + abs(lim.energy))
    m = lim.rho**2
    exact = m * (1.5 - 0.5 * math.log(m) + 0.5 * math.log(math.pi))
    assert lim.energy == pytest.approx(exact, rel=5e-3, abs=0.0)


def test_shape_check():
    g = gr.RadialGrid(3, 8.0, 200)
    gauss = gr.from_function(g, lambda r: np.exp(-(r**2)))
    assert dg.shape_check(gauss) == (True, True)
    wavy = gr.from_function(g, lambda r: np.sin(r) * np.exp(-r))
    sign_ok, _ = dg.shape_check(wavy)
    assert not sign_ok
    hump = gr.from_function(g, lambda r: r * np.exp(-r))
    _, mono = dg.shape_check(hump)
    assert not mono
    assert dg.shape_check(gr.zeros(g)) == (True, True)


def test_boundary_leak():
    g = gr.RadialGrid(3, 10.0, 100)
    vals = np.zeros(g.n)
    vals[-3] = 0.5
    assert dg.boundary_leak(gr.RadialField(g, vals)) == 0.5
    assert dg.boundary_leak(gr.zeros(g)) == 0.0


def test_mass_condition_zero_eta(log_spec3):
    for rho in (1.0, 1e3, 1e6, 1e12):
        value, holds = dg.mass_condition(log_spec3, rho)
        assert value == 0.0 and holds


def test_mass_condition_threshold_flip(gn24):
    # planar critical power p = 4 with mu = 1: the flag flips at
    # rho* = (p/(2 mu C^p))^(N/4)
    spec = nl.log_power(1.0, 1.0, 4.0, dim=2)
    C = gn24.value
    rho_star = (4.0 / (2.0 * 1.0 * C**4)) ** (2.0 / 4.0)
    v_lo, ok_lo = dg.mass_condition(spec, rho_star * 0.999, gn_est=gn24)
    v_hi, ok_hi = dg.mass_condition(spec, rho_star * 1.001, gn_est=gn24)
    assert ok_lo and not ok_hi
    assert v_lo < 1.0 < v_hi


def test_mass_condition_power_law(gn24):
    spec = nl.log_power(1.0, 1.0, 4.0, dim=2)
    v1, _ = dg.mass_condition(spec, 1.0, gn_est=gn24)
    v2, _ = dg.mass_condition(spec, 2.0, gn_est=gn24)
    assert v2 == pytest.approx(2.0 ** (4.0 / 2.0) * v1, rel=1e-12, abs=0.0)


def test_mass_condition_infinite_eta():
    spec = nl.log_power(1.0, 0.5, 4.0, dim=3)  # supercritical positive power
    value, holds = dg.mass_condition(spec, 1.0)
    assert math.isinf(value) and not holds


def test_nonexistence_verdict_examples():
    verdict, spec = dg.nonexistence_verdict, nl.log_power
    assert verdict(spec(1.0, 0.0, 4.0, dim=3)) == dg.EXISTS_LARGE_RHO
    assert verdict(spec(1.0, -2 * math.exp(-2), 4.0, dim=3)) == dg.BOUNDARY
    assert verdict(spec(1.0, -1.0, 4.0, dim=3)) == dg.NO_NONTRIVIAL
    # a positive power above the mass-critical 2 + 4/N: (g3) fails
    assert verdict(spec(1.0, 0.1, 4.0, dim=3)) == dg.UNBOUNDED_BELOW
    assert verdict(spec(1.0, 2400.0, 4.0, dim=4)) == dg.UNBOUNDED_BELOW
    assert verdict(spec(1.0, 0.7, 3.0, dim=3)) == dg.EXISTS_LARGE_RHO
    # a positive power at the mass-critical 2 + 4/N: existence depends on rho
    assert verdict(spec(1.0, 0.1, 10.0 / 3.0, dim=3)) == dg.MASS_CRITICAL
    assert verdict(spec(1.0, 0.1, 4.0, dim=2)) == dg.MASS_CRITICAL
    assert verdict(spec(1.0, 0.1, 3.0, dim=4)) == dg.MASS_CRITICAL
    with pytest.raises(ValueError):
        verdict(spec(1.0, 0.0, 7.0, dim=3))
    # the verdict is the log_power family's, as the threshold report is
    with pytest.raises(ValueError, match="log_power"):
        verdict(nl.logarithmic(1.0, dim=3))


def test_nonexistence_verdict_scaling_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        alpha = rng.uniform(0.2, 5.0)
        p = rng.uniform(2.2, 5.5)
        mu = rng.uniform(-1.5, 0.5)
        base = dg.nonexistence_verdict(nl.log_power(alpha, mu, p, dim=2))
        c = rng.uniform(0.5, 10.0)
        assert dg.nonexistence_verdict(nl.log_power(c * alpha, c * mu, p, dim=2)) == base


def _pts(rhos, cs, converged=True):
    return [mz.EnergyMapPoint(rho=r, c_value=c, eps=0.0, converged=converged)
            for r, c in zip(rhos, cs)]


def test_energy_map_properties_synthetic_pass():
    rhos = [18.0 * 2 ** (k / 2.0) for k in range(5)]
    # exact Gaussian-profile energies for the pure log nonlinearity
    cs = [r * r * (2.0 - math.log(r * r) / 2 + 0.75 * math.log(math.pi)) for r in rhos]
    checks = dg.energy_map_properties(_pts(rhos, cs))
    assert all(c.passed for c in checks)
    names = [c.check_name for c in checks]
    assert names == ["monotone_nonincreasing", "subadditivity",
                     "scaling_inequality", "divergence_proxy"]


def test_energy_map_properties_constructed_violation():
    rhos = [10.0, 10.0 * math.sqrt(2), 20.0]
    cs = [-5.0, -9.0, -20.0]
    # push the middle value up so subadditivity fails by exactly 1
    tol = 1e-2 * 20.0
    cs[1] = 2 * cs[0] + tol + 1.0
    checks = {c.check_name: c for c in dg.energy_map_properties(_pts(rhos, cs))}
    sub = checks["subadditivity"]
    assert not sub.passed
    assert sub.margin == pytest.approx(1.0 + tol, rel=1e-12, abs=0.0)


def test_energy_map_properties_without_triples_says_why():
    # 203.65 rounds 18 * 2**3.5, so no radius equals a hypot of two others to 1e-9
    rhos = list(np.geomspace(18.0, 203.65, 8))
    cs = [r * r * (2.0 - math.log(r * r) / 2 + 0.75 * math.log(math.pi)) for r in rhos]
    checks = {c.check_name: c for c in dg.energy_map_properties(_pts(rhos, cs))}
    sub = checks.pop("subadditivity")
    assert not sub.passed and sub.margin == -math.inf
    assert sub.details["triples"] == 0 and "no in-grid triple" in sub.details["reason"]
    assert all(c.passed and "reason" not in c.details for c in checks.values())


def test_energy_map_properties_needs_points():
    with pytest.raises(ValueError):
        dg.energy_map_properties(_pts([1.0, 2.0], [-1.0, -2.0]))
    with pytest.raises(ValueError):
        dg.energy_map_properties(_pts([1.0, 2.0, 3.0], [-1, -2, -3], converged=False))


def test_property_report_json():
    rhos = [18.0 * 2 ** (k / 2.0) for k in range(3)]
    cs = [r * r * (2.0 - math.log(r * r) / 2 + 0.75 * math.log(math.pi)) for r in rhos]
    pts = _pts(rhos, cs)
    payload = dg.property_report_json(dg.energy_map_properties(pts), pts)
    assert {row["check_name"] for row in payload} == {
        "monotone_nonincreasing", "subadditivity", "scaling_inequality",
        "divergence_proxy"}
    for row in payload:
        assert set(row) == {"check_name", "pass", "margin", "tolerance", "inputs_digest"}


def test_existence_evidence(quick_run):
    ev = dg.existence_evidence([quick_run.limit])
    assert ev["found"]
    assert ev["best_energy"] == quick_run.limit.energy
