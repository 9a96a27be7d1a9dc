#!/usr/bin/env python3
"""Reference ground-state run: g(s) = s ln s^2 in R^3 at rho = 20.

Prints the stage-by-stage continuation and its eps = 0 limit (the limit's
iterations count every stage), and compares the limit against the
exact Gaussian profile, whose energy and multiplier are known in closed form
at this mass (E = m(2 - ln m / 2 + 3 ln(pi) / 4) = -54.8739, lambda =
2 ln(rho) - 1.5 ln(pi) - 3 = 1.27440).
"""

import math
import time

from subnls import diagnostics as dg
from subnls import minimizer as mz
from subnls import nonlinearity as nl

spec = nl.log_power(1.0, 0.0, 4.0, dim=3)
cfg = mz.SolveConfig(spec=spec, rho=20.0)

t0 = time.time()
res = mz.continuation(cfg)
elapsed = time.time() - t0

print(f"{'eps':>8} {'energy':>14} {'lambda':>10} {'iters':>7} {'pohozaev':>10} status")
for s in res.stages:
    print(f"{s.eps:8.0e} {s.energy:14.6f} {s.lam:10.6f} {s.iterations:7d} "
          f"{s.bundle.pohozaev_rel:10.2e} {s.status}")
lim = res.limit
print(f"{'limit':>8} {lim.energy:14.6f} {lim.lam:10.6f} {lim.iterations:7d} "
      f"{lim.bundle.pohozaev_rel:10.2e} {lim.status} ({lim.limit_kind})")

m = cfg.rho**2
exact_E = m * (2.0 - 0.5 * math.log(m) + 0.75 * math.log(math.pi))
exact_lam = 2 * math.log(cfg.rho) - 1.5 * math.log(math.pi) - 3.0
print(f"\nexact Gaussian-profile values: E = {exact_E:.6f}, lambda = {exact_lam:.6f}")
print(f"energy identity residual: {dg.energy_identity_rel(lim):.2e}")
print(f"shape: sign_ok={lim.bundle.sign_ok} monotone_ok={lim.bundle.monotone_ok} "
      f"boundary_leak={lim.bundle.boundary_leak:.2e}")
print(f"eps-ordering of minima respected: {res.eps_monotone}")
print(f"total time {elapsed:.1f}s, {res.total_iterations} iterations")
