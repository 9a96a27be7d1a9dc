"""Identity and inequality checks on computed solutions and energy-map sweeps.

Residuals are relative with a 1e-30 floor in the denominator so the zero
solution is well defined.  The scaling (Pohozaev) identity reads

    (N-2) int |grad u|^2 + N lambda int u^2 = 2N int Geps(u)

with the regularized primitive while eps > 0 and the plain one in the limit;
the Nehari identity is the equation tested against u itself.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import nonlinearity as nl
from .grid import RadialField, gn_constant, kinetic, mass

_FLOOR = 1e-30


@dataclass
class ResidualBundle:
    pohozaev_rel: float
    nehari_rel: float
    sign_ok: bool
    monotone_ok: bool
    boundary_leak: float


def _rel(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + _FLOOR)


class IdentityParts(NamedTuple):
    """The integrals the Pohozaev and Nehari identities are built from."""
    kinetic: float   # int |grad u|^2
    mass: float      # int u^2
    density: float   # int G_eps(u)
    pairing: float   # int g_eps(u) u


def identity_parts(u: RadialField, kin: float, density: np.ndarray,
                   g: np.ndarray) -> IdentityParts:
    """Parts of u from its kinetic term and its nodal G_eps(u) and g_eps(u);
    the solver passes its own evaluations, residual_bundle fresh ones."""
    w = u.grid.w
    return IdentityParts(kin, mass(u), float(w.dot(density)),
                         float(w.dot(g * u.values)))


def shape_check(u: RadialField) -> tuple:
    """(sign_ok, monotone_ok): constant sign and |u| nonincreasing in r,
    both up to a relative tolerance of 1e-8."""
    vals = u.values
    sup = float(np.max(np.abs(vals))) if vals.size else 0.0
    if sup == 0.0:
        return True, True
    sign_ok = float(np.min(vals)) * float(np.max(vals)) >= -1e-8 * sup * sup
    diffs = np.diff(np.abs(vals))
    monotone_ok = bool(np.all(diffs <= 1e-8 * sup))
    return bool(sign_ok), monotone_ok


def boundary_leak(u: RadialField) -> float:
    """Largest |u| on the outer tenth of the grid; nonzero values flag a
    truncation radius too small for the achieved decay."""
    tail = max(1, int(0.1 * u.grid.n))
    return float(np.max(np.abs(u.values[-tail:])))


def residual_bundle(u: RadialField, lam: float, eps: float,
                    spec: nl.NonlinearitySpec) -> ResidualBundle:
    """u's residual bundle at lam from fresh evaluations of G_eps and g_eps."""
    parts = identity_parts(u, kinetic(u), nl.G_eps(spec, u.values, eps),
                           nl.g_eps(spec, u.values, eps))
    return bundle_from_parts(u, lam, parts)


def bundle_from_parts(u: RadialField, lam: float, p: IdentityParts) -> ResidualBundle:
    dim = u.grid.dim
    sign_ok, monotone_ok = shape_check(u)
    return ResidualBundle(
        pohozaev_rel=_rel((dim - 2.0) * p.kinetic + dim * lam * p.mass, 2.0 * dim * p.density),
        nehari_rel=_rel(p.kinetic + lam * p.mass, p.pairing),
        sign_ok=sign_ok,
        monotone_ok=monotone_ok,
        boundary_leak=boundary_leak(u),
    )


def energy_identity_rel(result) -> float:
    """Relative residual of E = kinetic/N - lambda rho^2 / 2, the energy form
    of the scaling identity for sphere-saturating solutions."""
    dim = result.u.grid.dim
    predicted = result.kinetic / dim - result.lam * result.mass / 2.0
    return _rel(result.energy, predicted)


def mass_condition(spec: nl.NonlinearitySpec, rho: float, gn_est=None) -> tuple:
    """Left side of the smallness condition 2 eta C^(2+4/N) rho^(4/N) < 1
    and whether it holds; eta is the mass-critical growth coefficient and C
    the Gagliardo-Nirenberg estimate at the critical exponent."""
    eta = nl.eta_coefficient(spec)
    if eta == 0.0:
        return 0.0, True
    if math.isinf(eta):
        return math.inf, False
    pc = spec.mass_critical_exp
    if gn_est is None:
        gn_est = gn_constant(spec.dim, pc)
    value = 2.0 * eta * gn_est.value**pc * rho ** (4.0 / spec.dim)
    return value, bool(value < 1.0)


EXISTS_LARGE_RHO = "exists_large_rho"
BOUNDARY = "boundary"
NO_NONTRIVIAL = "no_nontrivial"
UNBOUNDED_BELOW = "unbounded_below"
MASS_CRITICAL = "mass_critical"


def nonexistence_verdict(spec: nl.NonlinearitySpec) -> str:
    """Analytic verdict for a log_power spec.  For mu > 0 it is
    mass_critical when p = 2 + 4/N within 1e-12 relative (whether a
    solution exists then depends on rho, see mass_condition) and
    unbounded_below when p > 2 + 4/N (a mass-supercritical positive power,
    so (g3) fails and the energy is unbounded below on every sphere);
    otherwise mu is compared with the threshold -alpha p/(p-2) e^(-p/2)
    within 1e-12."""
    if spec.family != "log_power":
        raise ValueError("nonexistence verdict applies to the log_power family")
    if spec.mu > 0.0 and spec.mass_critical:
        return MASS_CRITICAL
    if spec.mu > 0.0 and spec.p_exp > spec.mass_critical_exp:
        return UNBOUNDED_BELOW
    mu_star = nl.mu_threshold(spec.alpha, spec.p_exp)
    tol = 1e-12 * max(1.0, abs(mu_star))
    if spec.mu > mu_star + tol:
        return EXISTS_LARGE_RHO
    if spec.mu < mu_star - tol:
        return NO_NONTRIVIAL
    return BOUNDARY


def existence_evidence(results: Sequence, energy_tol: float = 1e-6,
                       lambda_tol: float = 1e-8) -> dict:
    """Empirical existence from solver runs: a negative-energy
    sphere-saturating converged stationary point counts as a find."""
    best = min((r.energy for r in results), default=math.nan)
    found = any(r.converged and r.on_sphere and r.lam > lambda_tol
                and r.energy <= -energy_tol for r in results)
    return {"found": found, "best_energy": best, "runs": len(results)}


@dataclass
class PropertyCheck:
    check_name: str
    passed: bool
    margin: float
    tolerance: float
    details: dict

    def to_json_dict(self, inputs_digest: str) -> dict:
        return {"check_name": self.check_name, "pass": self.passed,
                "margin": self.margin, "tolerance": self.tolerance,
                "inputs_digest": inputs_digest}


def _worst(violations):
    return max(violations) if violations else -math.inf


def energy_map_properties(points: Sequence) -> list:
    """Checks on a computed rho -> c(rho) curve: monotone nonincreasing,
    subadditive over in-grid triples rho_k^2 = rho_i^2 + rho_j^2, the
    dilation inequality c(sqrt(s) rho) <= s c(rho) over in-grid pairs, and a
    finite-sample divergence proxy c(rho_max) < 2 c(rho_max/sqrt(2)) - tol
    (an unbounded limit cannot be asserted numerically; the proxy is the
    documented surrogate).  Margins are worst violations: positive means
    the inequality failed by that much; the tolerance tol is 1e-2 max |c|.
    """
    pts = [p for p in points if p.converged]
    if len(pts) < 3:
        raise ValueError("need at least 3 converged points")
    pts = sorted(pts, key=lambda p: p.rho)
    rho = np.asarray([p.rho for p in pts])
    c = np.asarray([p.c_value for p in pts])
    tol = 1e-2 * float(np.max(np.abs(c)))
    checks = []

    mono_viol = [float(c[i + 1] - c[i]) for i in range(len(c) - 1)]
    m = _worst(mono_viol)
    checks.append(PropertyCheck("monotone_nonincreasing", m <= tol, m, tol,
                                {"pairs": len(mono_viol)}))

    sub_viol = []
    triples = 0
    for i in range(len(rho)):
        for j in range(i, len(rho)):
            target = math.hypot(rho[i], rho[j])
            k = int(np.argmin(np.abs(rho - target)))
            if abs(rho[k] - target) <= 1e-9 * target:
                triples += 1
                sub_viol.append(float(c[k] - (c[i] + c[j])))
    m = _worst(sub_viol)
    reason = {} if triples else {"reason": "no in-grid triple rho_k^2 = rho_i^2 + rho_j^2"}
    checks.append(PropertyCheck("subadditivity", bool(triples and m <= tol), m, tol,
                                {"triples": triples, **reason}))

    scale_viol = []
    pairs = 0
    for i in range(len(rho)):
        for j in range(i + 1, len(rho)):
            s = (rho[j] / rho[i]) ** 2
            pairs += 1
            scale_viol.append(float(c[j] - s * c[i]))
    m = _worst(scale_viol)
    checks.append(PropertyCheck("scaling_inequality", bool(pairs and m <= tol), m, tol,
                                {"pairs": pairs}))

    target = rho[-1] / math.sqrt(2.0)
    k = int(np.argmin(np.abs(rho - target)))
    if abs(rho[k] - target) <= 2e-2 * target:
        viol = float(c[-1] - (2.0 * c[k] - tol))
        checks.append(PropertyCheck("divergence_proxy", viol <= 0.0, viol, tol,
                                    {"rho_max": float(rho[-1]), "rho_half": float(rho[k])}))
    else:
        checks.append(PropertyCheck("divergence_proxy", False, math.inf, tol,
                                    {"reason": "no grid point near rho_max/sqrt(2)"}))
    return checks


def points_digest(points: Sequence) -> str:
    payload = json.dumps([[p.rho, p.c_value, p.eps, p.converged] for p in points],
                         sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def property_report_json(checks: Sequence[PropertyCheck], points: Sequence) -> list:
    digest = points_digest(points)
    return [c.to_json_dict(digest) for c in checks]
