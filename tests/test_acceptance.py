"""Acceptance suite: one test per release criterion, each printing a visible
PASS/FAIL line with its measured numbers.  Tolerances are pinned here, not
deferred to calibration.
"""

import json
import math
import sys
import time

import numpy as np
from conftest import ACCEPTANCE_LINES

from subnls import cli
from subnls import diagnostics as dg
from subnls import grid as gr
from subnls import minimizer as mz
from subnls import nonlinearity as nl
from subnls import orlicz as ox

PI32 = math.pi ** 1.5


def _report(num, name, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}{tail}"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def test_acceptance_1_threshold_reproduction():
    t0 = time.time()
    worst_mu = 0.0
    worst_gt = 0.0
    alphas = (0.5, 1.0, 2.0, 5.0)
    ps = (2.5, 3.0, 4.0, 6.0, 8.0)
    for alpha in alphas:
        for p in ps:
            closed = -alpha * p / (p - 2.0) * math.exp(-p / 2.0)
            worst_mu = max(worst_mu, abs(nl.mu_threshold(alpha, p) - closed))
            worst_gt = max(worst_gt, abs(nl.gtilde_max(alpha, closed, p)))
    elapsed = time.time() - t0
    ok = worst_mu <= 1e-12 and worst_gt <= 1e-10 and elapsed < 1.0
    _report(1, "threshold reproduction", ok,
            f"max |mu-closed|={worst_mu:.2e}, max |gtilde(mu*)|={worst_gt:.2e}, "
            f"{len(alphas)*len(ps)} points, {elapsed:.2f}s")
    assert worst_mu <= 1e-12
    assert worst_gt <= 1e-10
    assert elapsed < 1.0


def test_acceptance_2_ground_state_rho10(log_spec3):
    # Pinned configuration: alpha=1, mu=0, p=4, N=3, rho=10, n=2000, r_max=20.
    # For this nonlinearity the disc infimum is exactly 0 whenever
    # rho <= e^2 pi^(3/4) ~= 17.44 (the Gaussian-profile energy
    # m(2 - ln m/2 + 3 ln(pi)/4) is positive below that mass and the sphere
    # multiplier is negative there, so every descent path sinks into the
    # interior).  At rho=10 no negative-energy sphere minimizer exists; the
    # solver verifiably collapses to the zero stationary point.  The
    # criterion is asserted as stated and is expected to fail on the
    # energy/multiplier signs; the identical contract passes at rho=20
    # (see acceptance 3, which shares that run).
    t0 = time.time()
    cfg = mz.SolveConfig(spec=log_spec3, rho=10.0, r_max=20.0, n=2000,
                         max_iter=60000, rearrange_every=25)
    stage_times = []
    stages = []
    grid = cfg.make_grid()
    u0 = None
    aborted = False
    for eps in cfg.eps_schedule:
        s0 = time.time()
        res = mz.solve_ground_state(cfg, eps, u0=u0, grid=grid)
        stage_times.append(time.time() - s0)
        stages.append(res)
        if not res.converged:
            aborted = True
            break
        u0 = res.u
    elapsed = time.time() - t0
    u = stages[-1].u
    m = gr.mass(u)
    lam = mz.extract_lambda(u, log_spec3, 0.0) if m > 0 else 0.0
    energy = mz.energy_eps(u, log_spec3, 0.0)
    bundle = dg.residual_bundle(u, lam, 0.0, log_spec3)
    on_sphere = abs(m - 100.0) <= 1e-6 * 100.0
    conditions = {
        "converged": all(s.converged for s in stages) and not aborted,
        "energy<0": energy < 0.0,
        "lambda>0": lam > 0.0,
        "on_sphere@1e-6": on_sphere,
        "pohozaev<=1e-3": bundle.pohozaev_rel <= 1e-3,
        "nehari<=1e-3": bundle.nehari_rel <= 1e-3,
        "constant_sign": bundle.sign_ok,
        "radially_nonincreasing": bundle.monotone_ok,
        "stage<=60s": max(stage_times) <= 60.0,
        "total<=600s": elapsed <= 600.0,
    }
    ok = all(conditions.values())
    failed = [k for k, v in conditions.items() if not v]
    _report(2, "ground-state run rho=10", ok,
            f"energy={energy:.3e}, lambda={lam:.3e}, mass={m:.3e}, "
            f"{elapsed:.0f}s; failed: {', '.join(failed) if failed else 'none'}")
    assert ok, (f"unmet at rho=10: {failed}; the disc infimum is 0 below "
                f"rho ~= 17.44 for this nonlinearity, so no negative-energy "
                f"sphere minimizer exists at rho=10 (flow collapses; "
                f"energy={energy:.3e}, mass={m:.3e})")


def test_acceptance_3_eps_monotonicity_and_limit(gausson_run):
    # the seven-stage schedule; the limit is the eps = 0 stage, a KKT point of
    # the unregularized problem, and continues the nondecreasing chain
    res = gausson_run
    lim = res.limit
    energies = [s.energy for s in res.stages] + [lim.energy]
    lams = [s.lam for s in res.stages]
    nondecreasing = all(b >= a - 1e-9 * (1 + abs(a))
                        for a, b in zip(energies, energies[1:]))
    de = abs(energies[-2] - energies[-3]) / abs(energies[-2])
    dl = abs(lams[-1] - lams[-2]) / abs(lams[-1])
    at_zero = (lim.limit_kind == "eps0_stage" and lim.status == "converged"
               and lim.kkt_residual <= 1e-8)
    ok = nondecreasing and de <= 1e-3 and dl <= 1e-3 and res.eps_monotone and at_zero
    _report(3, "eps-monotonicity and limit", ok,
            f"c_eps nondecreasing to the limit={nondecreasing}, last-two dE={de:.2e}, "
            f"dlambda={dl:.2e}, limit {lim.limit_kind} kkt={lim.kkt_residual:.1e} "
            f"(run at rho=20, seven stages)")
    assert nondecreasing and res.eps_monotone
    assert de <= 1e-3
    assert dl <= 1e-3
    assert at_zero


def test_acceptance_4_energy_map_properties(tmp_path):
    t0 = time.time()
    cfg_path = tmp_path / "sweep.ini"
    cfg_path.write_text(
        "[nonlinearity]\nfamily = log_power\nalpha = 1.0\nmu = 0.0\np = 4.0\n"
        "[grid]\ndim = 3\nr_max = 20.0\nn = 2000\n"
        "[solver]\nrho = 20.0\n"
        f"[output]\ndirectory = {tmp_path/'out'}\n")
    steps = 8
    rho_min = 18.0
    rho_max = rho_min * 2 ** ((steps - 1) / 2.0)  # sqrt(2)-spaced grid
    rc = cli.main(["sweep-rho", "--config", str(cfg_path), str(rho_min),
                   str(rho_max), str(steps), "--jobs", "4",
                   "--out", str(tmp_path / "out")])
    elapsed = time.time() - t0
    rows = json.loads((tmp_path / "out" / "energy_map_properties.json").read_text())
    by_name = {r["check_name"]: r for r in rows}
    csv_lines = (tmp_path / "out" / "energy_map.csv").read_text().strip().splitlines()
    ok = (rc == 0 and elapsed <= 1800.0
          and all(r["pass"] for r in rows)
          and len(csv_lines) == steps + 1)
    _report(4, "energy-map properties", ok,
            "; ".join(f"{n}={'pass' if by_name[n]['pass'] else 'FAIL'}"
                      f"(margin {by_name[n]['margin']:.3g})"
                      for n in ("monotone_nonincreasing", "subadditivity",
                                "scaling_inequality", "divergence_proxy"))
            + f"; {elapsed:.0f}s")
    assert rc == 0
    assert all(r["pass"] for r in rows)
    assert elapsed <= 1800.0


def test_acceptance_5_nonexistence_consistency():
    mu = 2.0 * nl.mu_threshold(1.0, 4.0)
    spec = nl.log_power(1.0, mu, 4.0, dim=3)
    verdict = dg.nonexistence_verdict(spec)
    cfg = mz.SolveConfig(spec=spec, rho=10.0, r_max=16.0, n=1200,
                         eps_schedule=(1e-1, 1e-2, 1e-3), max_iter=60000,
                         multistarts=5)
    limits = mz.multistart(cfg)
    ev = dg.existence_evidence(limits, energy_tol=1e-6)
    ok = (verdict == dg.NO_NONTRIVIAL and len(limits) == 5
          and ev["best_energy"] >= -1e-6 and not ev["found"])
    _report(5, "nonexistence consistency", ok,
            f"verdict={verdict}, best_energy={ev['best_energy']:.2e}, "
            f"sphere-stationary found={ev['found']} over {len(limits)} starts")
    assert verdict == dg.NO_NONTRIVIAL
    assert len(limits) == 5
    assert ev["best_energy"] >= -1e-6
    assert not ev["found"]


def test_acceptance_6_gradient_correctness(log_spec3):
    grid = gr.RadialGrid(3, 10.0, 300)
    rng = np.random.default_rng(42)
    orders = []
    for _ in range(50):
        width = rng.uniform(0.6, 2.5)
        amp = rng.uniform(0.3, 2.0)
        u = gr.RadialField(grid, amp * (1 + 0.3 * np.sin(rng.uniform(0, 6) + grid.r))
                           * np.exp(-((grid.r / width) ** 2)))
        v = gr.RadialField(grid, rng.uniform(0.2, 1.5)
                           * np.exp(-((grid.r / rng.uniform(0.6, 2.5)) ** 2))
                           * np.cos(rng.uniform(0, 3) + grid.r))
        eps = rng.uniform(0.02, 0.5)
        gv = gr.inner(mz.grad_energy_eps(u, log_spec3, eps), v)
        errs = []
        for t in (1e-3, 1e-4):
            up = gr.RadialField(grid, u.values + t * v.values)
            dn = gr.RadialField(grid, u.values - t * v.values)
            fd = (mz.energy_eps(up, log_spec3, eps)
                  - mz.energy_eps(dn, log_spec3, eps)) / (2 * t)
            errs.append(abs(fd - gv))
        if errs[1] > 1e-13:
            orders.append(math.log10(errs[0] / errs[1]))
    observed = float(np.median(orders))
    ok = observed >= 1.9
    _report(6, "gradient correctness", ok,
            f"median FD order {observed:.3f} over {len(orders)} informative "
            f"of 50 triples")
    assert observed >= 1.9


def test_acceptance_7_quadrature_operator_oracles(grid3):
    gauss = gr.from_function(grid3, lambda r: np.exp(-(r**2) / 2.0))
    mass_rel = abs(gr.mass(gauss) - PI32) / PI32
    kin = gr.kinetic(gauss)
    kin_rel = abs(kin - 1.5 * PI32) / (1.5 * PI32)
    rng = np.random.default_rng(1)
    sbp_rel = 0.0
    for _ in range(3):
        u = gr.RadialField(grid3, rng.normal(size=grid3.n))
        k = gr.kinetic(u)
        sbp_rel = max(sbp_rel, abs(k + gr.inner(gr.laplacian_radial(u), u)) / k)
    from scipy.special import jn_zeros

    g2 = gr.RadialGrid(2, 15.0, 1200)
    ev = gr.lowest_dirichlet_eigenvalue(g2)[0]
    exact = (jn_zeros(0, 1)[0] / g2.r_max) ** 2
    eig_rel = abs(ev - exact) / exact
    ok = mass_rel <= 1e-3 and kin_rel <= 1e-3 and sbp_rel <= 1e-10 and eig_rel <= 1e-3
    _report(7, "quadrature/operator oracles", ok,
            f"mass rel={mass_rel:.1e}, kinetic rel={kin_rel:.1e}, "
            f"SBP rel={sbp_rel:.1e}, eigenvalue rel={eig_rel:.1e}")
    assert mass_rel <= 1e-3
    assert kin_rel <= 1e-3
    assert sbp_rel <= 1e-10
    assert eig_rel <= 1e-3


def test_acceptance_8_orlicz_suite():
    grid = gr.RadialGrid(3, 10.0, 400)
    rng = np.random.default_rng(11)
    A_families = (ox.pure_q(1.5), ox.log_matched(1.0))
    worst_modular = 0.0
    worst_homog = 0.0
    worst_triangle = -np.inf
    for k in range(100):
        vals = rng.normal(size=grid.n) * np.exp(-grid.r / rng.uniform(0.5, 3.0))
        u = gr.RadialField(grid, vals)
        v = gr.RadialField(grid, rng.normal(size=grid.n) * np.exp(-grid.r))
        A = A_families[k % 2]
        nu = ox.luxemburg_norm(u, A)
        worst_modular = max(worst_modular, abs(ox.modular(u, A, nu) - 1.0))
        c = rng.uniform(-3.0, 3.0)
        nc = ox.luxemburg_norm(gr.RadialField(grid, c * vals), A)
        worst_homog = max(worst_homog, abs(nc - abs(c) * nu) / max(nu, 1e-30))
        ns = ox.luxemburg_norm(gr.RadialField(grid, u.values + v.values), A)
        worst_triangle = max(worst_triangle,
                             ns - (nu + ox.luxemburg_norm(v, A)))
    dval, dder = ox.knot_mismatch(ox.log_matched(1.0))
    q_exact = True
    for q in (1.2, 1.5, 1.9, 2.0):
        rep = ox.check_delta2_nabla2(ox.pure_q(q))
        q_exact &= abs(rep.c_delta - q) <= 1e-12 and abs(rep.c_nabla - q) <= 1e-12
    ok = (worst_modular <= 1e-8 and worst_homog <= 1e-8
          and worst_triangle <= 1e-8 and abs(dval) <= 1e-10
          and abs(dder) <= 1e-10 and q_exact)
    _report(8, "Orlicz suite", ok,
            f"modular eq={worst_modular:.1e}, homogeneity={worst_homog:.1e}, "
            f"triangle excess={worst_triangle:.1e}, gluing=({dval:.1e},{dder:.1e}), "
            f"pure-power ratios exact={q_exact}")
    assert worst_modular <= 1e-8
    assert worst_homog <= 1e-8
    assert worst_triangle <= 1e-8
    assert abs(dval) <= 1e-10 and abs(dder) <= 1e-10
    assert q_exact


def test_acceptance_9_mass_condition_flip(gn24, weinstein_constant):
    # planar mass-critical power p = 4 with mu = 1; the flip radius from the
    # ascent estimate must agree with the one from the independent shooting
    # constant within the uncertainty band, and the flag must flip exactly
    # at the computed radius
    spec = nl.log_power(1.0, 1.0, 4.0, dim=2)
    C = gn24.value
    rho_star = (4.0 / (2.0 * C**4)) ** (2.0 / 4.0)
    rho_oracle = (4.0 / (2.0 * weinstein_constant**4)) ** (2.0 / 4.0)
    band = 2.0 * 2 * 0.05  # d(ln rho*) = (N/4) p d(ln C) with 5% C-tolerance
    _, ok_lo = dg.mass_condition(spec, rho_star * (1 - 1e-6), gn_est=gn24)
    _, ok_hi = dg.mass_condition(spec, rho_star * (1 + 1e-6), gn_est=gn24)
    rel_gap = abs(rho_star - rho_oracle) / rho_oracle
    ok = ok_lo and not ok_hi and rel_gap <= band
    _report(9, "mass-condition flip", ok,
            f"rho*={rho_star:.5f}, shooting oracle rho*={rho_oracle:.5f} "
            f"(rel gap {rel_gap:.2%}, band {band:.0%}), flip exact={ok_lo and not ok_hi}")
    assert ok_lo and not ok_hi
    assert rel_gap <= band
