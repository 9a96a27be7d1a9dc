"""Constrained minimization of the regularized energy

    E_eps(u) = 1/2 int |grad u|^2 + int Gminus_eps(u) - int Gplus(u)

over the L2 disc {mass(u) <= rho^2}, and the continuation eps -> 0 that
recovers the unregularized ground state.

Each stage runs in two phases.  The globalization is projected descent
along the Sobolev gradient P g, with P = (sigma I - Lap)^-1 and g the L2
gradient (the backward-Euler step of the normalized gradient flow), a
Barzilai-Borwein step proposal and Armijo backtracking along the projection
arc, both measured in the metric of P.  Against the plain L2 gradient, whose
condition number grows like h^-2, this keeps the iteration count of a stage
flat as the grid is refined.  From a stage's first iterate on, each
iteration tries one Newton step on the symmetric tridiagonal Hessian
K + lambda W - W diag(g_eps'(u)), which finishes the stage in a few
iterations instead of the descent's linear tail.  The step has two cases.
On the sphere with a positive multiplier it solves the KKT system
F(u, lambda) = 0, the Hessian bordered by W u (one LAPACK gtsv solve).
Inside the disc the constraint is inactive, lambda = 0, and it solves the
unbordered system when the Hessian is positive definite (one LAPACK
pttrf/pttrs); where it is not, the iteration descends.  A Newton step that
does not halve the residual, or raises the energy, is rejected and the
descent carries on until the residual has fallen another decade.  The
preconditioner is factored only when a stage first descends.  A stage ends
on its KKT test.

Minimizing over the disc rather than the sphere is deliberate: the disc is
weakly closed, a minimizer with positive multiplier is automatically pushed
onto the sphere, and runs where the flow collapses into the interior are
exactly the nonexistence evidence the diagnostics consume; there the
interior Newton steps finish the collapse to the zero field in a number of
iterations that does not grow with n.  How a stage ended is data, never an
exception: SolverResult.status, converged only for "converged" and
"collapsed".  A continuation stops at its first stage that did not converge
and returns it last, without a limit (ContinuationResult).
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import nonlinearity as nl
# bound at import, not in the preconditioner: every solve needs LAPACK, so a
# missing or broken one fails the import instead of a run.  _lapack loads
# scipy's Fortran wrapper file alone (3-10 ms); only its fallback, all of
# scipy.linalg.lapack, costs about 0.3 s of start-up
from ._lapack import dgtsv, dpttrf, dpttrs
from .grid import (RadialField, RadialGrid, face_differences, kinetic, kinetic_values,
                   laplacian_values, mass, sphere_area, wnorm)

log = logging.getLogger("subnls.minimizer")

DEFAULT_EPS_SCHEDULE = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
# shift sigma of the preconditioner P = (sigma I - Lap)^-1, and the cap on a
# proposed step.  Steps are O(1) in the metric of P, but near the zero field
# the BB step approaches (sigma + l1)/l1 with l1 ~ (pi/r_max)^2 the lowest
# Dirichlet eigenvalue, about 1e3 at r_max = 100
SOBOLEV_SHIFT = 1.0
STEP_MAX = 1e4
# first step proposal, backtracking factor and Armijo constant
STEP_INIT = 1e-3
BACKTRACK = 0.5
ARMIJO = 1e-4
# relative tolerance on the mass for a field to count as on the sphere
TOL_MASS = 1e-9


class ContinuationAborted(RuntimeError):
    """Raised nowhere: a continuation reports a stage that did not converge
    in ContinuationResult.  The name stays while perfbench imports it."""


@dataclass
class SolveConfig:
    spec: nl.NonlinearitySpec
    rho: float
    r_max: float = 20.0
    n: int = 2000
    eps_schedule: Sequence[float] = DEFAULT_EPS_SCHEDULE
    tol_grad: float = 1e-8
    max_iter: int = 20000
    # accepted and ignored: the solver no longer rearranges, and the field
    # goes once perfbench stops passing it
    rearrange_every: int = 0
    multistarts: int = 1

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        sched = tuple(self.eps_schedule)
        if not sched:
            raise ValueError("eps schedule must be nonempty")
        if any(not (0.0 < e < 1.0) for e in sched):
            raise ValueError("eps values must lie in (0, 1)")
        if any(b <= a for a, b in zip(sched[1:], sched[:-1])):
            raise ValueError("eps schedule must be strictly decreasing")
        # a KKT residual is never below a tolerance <= 0
        if not self.tol_grad > 0:
            raise ValueError("tol_grad must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.multistarts < 1:
            raise ValueError("multistarts must be at least 1")
        self.eps_schedule = sched
        if self.rearrange_every:
            log.warning("rearrange_every = %d is ignored: the solver no longer "
                        "rearranges", self.rearrange_every)

    def make_grid(self) -> RadialGrid:
        return RadialGrid(self.spec.dim, self.r_max, self.n)


@dataclass
class SolverResult:
    """Record of one stage (or of a continuation's eps = 0 limit): the
    field, its multiplier, energy, mass and kinetic term, how the stage
    ended and what it cost.  It is built from the solver's own last
    evaluations (_result); u may share its array with the stage's start u0
    (and so with the previous stage's u).  converged is derived from status;
    bundle, the residual bundle, is computed from parts on first access and
    then kept."""

    u: RadialField
    lam: float
    energy: float
    eps: float
    rho: float
    mass: float
    kinetic: float
    iterations: int
    newton_steps: int
    kkt_residual: float
    on_sphere: bool
    status: str
    # the stage's evaluations of E_eps and of the gradient, its rejected
    # Armijo trials and its preconditioner solves (a limit: sums over stages)
    energy_evals: int
    grad_evals: int
    backtracks: int
    precond_solves: int
    # the integrals of u's Pohozaev and Nehari identities
    # (diagnostics.IdentityParts), from which bundle is built
    parts: object = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        return self.status in ("converged", "collapsed")

    @functools.cached_property
    def bundle(self):
        """u's residual bundle (diagnostics.ResidualBundle) at lam, built
        from parts on first access and kept; None without parts."""
        if self.parts is None:
            return None
        from .diagnostics import bundle_from_parts

        return bundle_from_parts(self.u, self.lam, self.parts)

    def to_json_dict(self) -> dict:
        return {
            "rho": self.rho,
            "eps": self.eps,
            "lambda": self.lam,
            "energy": self.energy,
            "mass": self.mass,
            "kinetic": self.kinetic,
            "iterations": self.iterations,
            "newton_steps": self.newton_steps,
            "kkt_residual": self.kkt_residual,
            "energy_evals": self.energy_evals,
            "grad_evals": self.grad_evals,
            "backtracks": self.backtracks,
            "precond_solves": self.precond_solves,
            "converged": self.converged,
            "on_sphere": self.on_sphere,
            "status": self.status,
            "pohozaev_residual": getattr(self.bundle, "pohozaev_rel", None),
            "nehari_residual": getattr(self.bundle, "nehari_rel", None),
        }


@dataclass
class EnergyMapPoint:
    rho: float
    c_value: float
    eps: float
    converged: bool


@dataclass
class ContinuationResult:
    """The stages of one continuation, ending with the stage that ended it,
    and the eps = 0 limit, None when that stage did not converge."""

    stages: list
    limit: Optional[SolverResult]

    @property
    def status(self) -> str:
        return self.stages[-1].status

    @property
    def eps_monotone(self) -> bool:
        """Whether the stage minima are nondecreasing as eps decreases (the
        regularized energies increase pointwise)."""
        return all(b.energy >= a.energy - 1e-9 * (1.0 + abs(a.energy))
                   for a, b in zip(self.stages, self.stages[1:]))

    @property
    def total_iterations(self) -> int:
        return sum(s.iterations for s in self.stages)


def energy_eps(u: RadialField, spec: nl.NonlinearitySpec, eps: float) -> float:
    """Discrete E_eps(u); eps=0 evaluates the unregularized energy."""
    return _bind_stage(_Fields(u.grid), spec, eps).energy(u.values)[0]


def grad_energy_eps(u: RadialField, spec: nl.NonlinearitySpec, eps: float) -> RadialField:
    """L2-gradient field -Lap u - g_eps(u); consistent with energy_eps at
    machine level thanks to exact summation by parts."""
    return RadialField(u.grid, _grad_parts(_bind_stage(_Fields(u.grid), spec, eps), u.values)[0])


def _grad_parts(stage, vals):
    # one laplacian_values call per gradient evaluation (perfbench's tracer
    # counts gradient evaluations by these calls), from the array's cached
    # face differences
    grid = stage.fields.grid
    lap = laplacian_values(grid, vals, stage.fields.at(vals).d)
    rhs = stage.g(vals)
    return -lap - rhs, lap, rhs


class _At(nl.Point):
    """The nl.Point of one nodal array plus what the grid derives from it,
    each computed on first use: the face differences, which the kinetic term
    and every Laplacian of the array are built from, and the kinetic term
    (the arithmetic of grid.kinetic_values and grid.laplacian_values, so
    sharing changes no bit)."""

    __slots__ = ("grid", "_d", "_kinetic")

    def __init__(self, vals, grid):
        super().__init__(vals)
        self.grid = grid
        self._d = self._kinetic = None

    @property
    def d(self):
        if self._d is None:
            self._d = face_differences(self.grid, self.s)
        return self._d

    @property
    def kinetic(self):
        if self._kinetic is None:
            self._kinetic = kinetic_values(self.grid, self.s, self.d)
        return self._kinetic


class _Fields:
    """A per-array cache over one grid: the _At of the last array evaluated
    and of the one kept, matched by identity.  The solver keeps its current
    iterate, so that the stage's record, the next stage's start and the
    eps = 0 limit, which see the same array, reuse its evaluations whatever
    was evaluated since: the stages and the limit of one continuation (one
    grid, one spec) are all bound on its one cache.  No caller writes into
    an array it has passed here."""

    __slots__ = ("grid", "held")

    def __init__(self, grid: RadialGrid):
        self.grid = grid
        self.held = [None, None]  # the last array's _At, the kept one's

    def at(self, vals) -> _At:
        held = self.held
        for x in held:
            if x is not None and x.s is vals:
                return x
        held[0] = x = _At(vals, self.grid)
        return x

    def keep(self, vals):
        self.held[1] = self.at(vals)


class _Stage(NamedTuple):
    energy: Callable  # vals -> (E_eps(vals), its nodal density G_eps(vals))
    g: Callable       # vals -> g_eps(vals)
    dg: Callable      # vals -> g_eps'(vals)
    fields: _Fields   # the cache the three evaluate through


def _bind_stage(fields: _Fields, spec: nl.NonlinearitySpec, eps: float) -> _Stage:
    """Everything one eps-stage evaluates on bare nodal arrays, bound once
    (nl.bind_eps): the solver's trial energies, gradients and Newton
    Jacobians, the seeds' energies, the records of the stage and of the
    eps = 0 limit, and the public energy_eps and grad_energy_eps.

    The three evaluate through the cache fields (on the stage's grid),
    which keeps per array one |s|, s^2, ln s^2 and g(|s|) for the trial's
    G_eps, the accepted point's g_eps and the next Newton Jacobian's
    g_eps', and one set of face differences for its kinetic term and the
    Laplacian of each gradient evaluation.  The energy is summed in double
    precision: a stage ends on the Newton residual test, whose energy
    margin 1e-12 (1 + |E|) lies far above that rounding.  A trial field
    that is not finite raises ValueError, as RadialField does; the array is
    scanned only when the energy is not finite."""
    kern = nl.bind_eps(spec, eps)
    at, w = fields.at, fields.grid.w

    def energy(vals):
        x = at(vals)
        dens = kern.G(x)
        E = 0.5 * x.kinetic - float(np.dot(w, dens))
        if not math.isfinite(E) and not np.isfinite(vals).all():
            raise ValueError("field values must be finite")
        return E, dens

    return _Stage(energy, lambda vals: kern.g(at(vals)), lambda vals: kern.dg(at(vals)),
                  fields)


def _rescale(w, vals, rho, sphere=False):
    """Nodal values rescaled radially to mass rho^2 under quadrature weights
    w: onto the sphere when sphere is set (the zero field stays zero), else
    onto the disc {mass <= rho^2} (identity inside, rescale outside).
    Returns (values, mass)."""
    m = float(np.dot(w, vals * vals))
    if m <= (0.0 if sphere else rho * rho):
        return vals, m
    return vals * (rho / math.sqrt(m)), rho * rho


def project_disc(u: RadialField, rho: float) -> RadialField:
    """Radial projection onto {mass <= rho^2}: identity inside, rescale outside."""
    return RadialField(u.grid, _rescale(u.grid.w, u.values, rho)[0])


def extract_lambda(u: RadialField, spec: nl.NonlinearitySpec, eps: float) -> float:
    """Multiplier from the Nehari pairing: (int g_eps(u) u - |grad u|^2)/|u|^2."""
    m = mass(u)
    if m <= 0.0:
        raise ValueError("cannot extract a multiplier from the zero field")
    pairing = float(np.dot(u.grid.w, nl.g_eps(spec, u.values, eps) * u.values))
    return (pairing - kinetic(u)) / m


def _plateau(r, level, base_radius, taper):
    out = np.full_like(r, float(level))
    ramp = (r >= base_radius) & (r < base_radius + taper)
    out[ramp] = level * 0.5 * (1.0 + np.cos(math.pi * (r[ramp] - base_radius) / taper))
    out[r >= base_radius + taper] = 0.0
    return out


@functools.lru_cache(maxsize=128)
def _plateau_mass(dim, level, base_radius, taper):
    # continuum mass of the base profile via fine 1-D quadrature
    rq = np.linspace(0.0, base_radius + taper, 4001)
    fq = _plateau(rq, level, base_radius, taper) ** 2 * rq ** (dim - 1)
    return sphere_area(dim) * np.trapezoid(fq, rq)


def dilated_witness(spec, grid, rho, level, base_radius=1.0, taper=1.0):
    """Mass-rho dilation of a fixed mollified plateau at the given level.

    The base profile is level on [0, R0] with a half-cosine taper of the
    given width; dilation u(sigma r) with sigma = (mass0/rho^2)^(1/N)
    preserves the amplitude and scales the kinetic term like rho^(2-4/N).
    """
    return RadialField(grid, _witness(grid, rho, level, base_radius, taper))


def _witness(grid, rho, level, base_radius=1.0, taper=1.0):
    mass0 = _plateau_mass(grid.dim, level, base_radius, taper)
    sigma = (mass0 / rho**2) ** (1.0 / grid.dim)
    return _rescale(grid.w, _plateau(grid.r * sigma, level, base_radius, taper), rho,
                    sphere=True)[0]


def initial_guess(spec, grid, rho, eps, rng=None) -> RadialField:
    """Negative-energy seed on the mass sphere when one is available.

    Candidates: the dilated plateau witness at a level where G > 0, plus
    amplitude-matched Gaussians of a few widths; the lowest-energy candidate
    wins.  Without a positive level (so no negative-energy seed exists) a
    Gaussian of mass rho^2 is returned with a warning.
    """
    return RadialField(grid, _guess(_bind_stage(_Fields(grid), spec, eps), spec, rho, rng))


def _guess(stage, spec, rho, rng):
    """initial_guess's winner as a bare array, its candidates scored by the
    stage's energy; the stage's cache keeps the best so far."""
    grid = stage.fields.grid
    widths = [0.7, 1.0, 1.5]
    if rng is not None:
        widths = [w * float(rng.uniform(0.7, 1.4)) for w in widths]
    amp = rho * math.pi ** (-grid.dim / 4.0)
    candidates = [_rescale(grid.w, amp * np.exp(-(grid.r / wdt) ** 2 / 2.0), rho, sphere=True)[0]
                  for wdt in widths]
    level = nl.find_positive_level(spec)
    if level is None:
        log.warning("no level with positive primitive: falling back to a "
                    "Gaussian seed of mass rho^2 (no negative-energy start)")
    else:
        for lv in (level * 1.5, max(level * 1.5, amp)):
            candidates.append(_witness(grid, rho, lv))
    best = best_energy = None
    for vals in candidates:
        energy = stage.energy(vals)[0]
        # the first of equal energies wins, as with min()
        if best is None or energy < best_energy:
            best, best_energy = vals, energy
            stage.fields.keep(vals)
    return best


def _sobolev_preconditioner(grid: RadialGrid):
    """x -> P x with P = (sigma I - Lap_h)^-1, sigma = SOBOLEV_SHIFT,
    self-adjoint in the w-inner product.

    P x solves (sigma W + K) d = W x, where W = diag(w) and K is the matrix
    of kinetic() (grid._kinetic_bands); the system is symmetric
    positive-definite tridiagonal and is factored once, here
    (solve_ground_state calls this on a stage's first descent step).
    """
    k_diag, k_off = grid._kinetic_bands
    d_fac, e_fac, info = dpttrf(SOBOLEV_SHIFT * grid.w + k_diag, k_off)
    if info != 0:
        raise np.linalg.LinAlgError(f"Sobolev factorization failed (info={info})")
    w = grid.w

    def apply(x):
        return dpttrs(d_fac, e_fac, w * x)[0]

    return apply


def _newton_step(grid, u, m_u, res, lam, rho, on_boundary, dg, rhs2):
    """One Newton step from (u, lam) with W res = K u + lam W u - W g_eps(u),
    on the symmetric tridiagonal A = K + lam W - W diag(g_eps'(u)) (dg is
    the stage's g_eps').

    On the sphere it solves the KKT system F(u, lam) = (W res,
    (u^T W u - rho^2)/2) = 0: A, indefinite on the ground state, is bordered
    by W u, and one LAPACK gtsv solve of A [x1, x2] = [W res, W u]
    eliminates the border, in place in rhs2, a Fortran-ordered (n, 2)
    buffer of the caller's; the new values are rescaled onto the sphere.
    Inside the disc the constraint is inactive (lam = 0, res = g): LAPACK
    pttrf factors A exactly when it is positive definite, pttrs solves
    A x = W g, and u - x is projected onto the disc.  Returns the new values
    and their mass, or None when A is singular (on the sphere) or not
    positive definite (inside), or the step is not finite.
    """
    w = grid.w
    k_diag, k_off = grid._kinetic_bands
    diag = k_diag + w * (lam - dg(u))
    if on_boundary:
        wu = w * u
        np.multiply(w, res, out=rhs2[:, 0])
        rhs2[:, 1] = wu
        x, info = dgtsv(k_off, diag, k_off, rhs2, overwrite_d=1, overwrite_b=1)[3:]
        if info != 0:
            return None
        x1, x2 = x[:, 0], x[:, 1]
        d_lam = (0.5 * (m_u - rho * rho) - float(np.dot(wu, x1))) / float(np.dot(wu, x2))
        v = u - x1 - d_lam * x2
    else:
        d_fac, e_fac, info = dpttrf(diag, k_off)
        if info != 0:
            return None
        v = u - dpttrs(d_fac, e_fac, w * res)[0]
    if not np.all(np.isfinite(v)):
        return None
    return _rescale(w, v, rho, sphere=on_boundary)


# what a stage counts besides iterations and Newton steps (SolverResult)
_EVAL_COUNTS = ("energy_evals", "grad_evals", "backtracks", "precond_solves")


def solve_ground_state(config: SolveConfig, eps: float,
                       u0: Optional[RadialField] = None,
                       grid: Optional[RadialGrid] = None,
                       rng=None, fields: Optional[_Fields] = None) -> SolverResult:
    """Minimize E_eps over the disc of radius rho in two phases: a
    Sobolev-preconditioned projected BB descent that globalizes, then Newton
    steps on the KKT system that finish the stage.

    Descent: the step is -P g with P = (sigma I - Lap)^-1 and g the L2
    gradient; on the sphere, when -P g points out of the disc, P g is
    replaced by its P-tangent part P g - (<u, P g>/<u, P u>) P u and the
    step is rescaled back radially, so that the fixed points are exactly
    the KKT points.  Step lengths (the Armijo decrease and the BB proposal)
    are measured in the metric <x, P^-1 x> = sigma |x|^2 + kinetic(x).

    Newton finish: from a stage's first iterate on, each iteration tries
    one Newton step (_newton_step), on the KKT system while the iterate is
    on the sphere with lambda_hat > 0, and on the gradient while it is
    strictly inside the disc and nonzero.  Inside, a Hessian that is not
    positive definite gives no step, and the same iteration descends.  A
    step is accepted when it at least halves the residual without raising
    E_eps beyond rounding; otherwise the iterate stays, and the descent runs
    until the residual has fallen by another decade before the next try.
    A Newton trial, accepted or rejected, is one iteration with one energy
    and one gradient evaluation, so max_iter bounds the work.  The
    preconditioner is factored on the stage's first descent step, so a
    stage of Newton steps alone never factors it.

    Stops (status "converged") when the KKT residual  g + lambda_hat * u
    (lambda_hat the Nehari quotient on the sphere, 0 inside) drops below
    tol_grad relative to the natural operator scale.  The other exits are
    "collapsed" (the iterate has sunk to the zero field, which also counts
    as converged), "stalled" (steps at rounding level), and, when 60
    halvings find no Armijo decrease, "nonfinite" if the last trial energy
    is not finite and "backtrack_exhausted" otherwise; "max_iter" ends an
    exhausted budget.  No numerical ending raises.
    config.rearrange_every is accepted and ignored (SolveConfig).

    The stage's kernels are bound once (_bind_stage), and every trial,
    gradient and Newton Jacobian is evaluated on bare nodal arrays through
    them and the cache fields (continuation passes its own; by default the
    stage makes one), one pass per array: a trial's energy, the
    gradient there once it is accepted and the next Newton Jacobian share
    one log, one g(|s|) and one set of face differences.  The start is u0's
    own array when it lies in the disc, so a stage that starts where the
    last one ended reuses its evaluations.  The stage record reuses the last
    iterate's energy, density, g_eps and kinetic term (see _result), and
    counts the evaluations made.
    """
    spec, rho = config.spec, config.rho
    if grid is None:
        grid = config.make_grid()
    w = grid.w
    if fields is None:
        fields = _Fields(grid)
    stage = _bind_stage(fields, spec, eps)
    vals0 = _guess(stage, spec, rho, rng) if u0 is None else u0.values
    solve_precond = None  # factored on the stage's first descent step
    rhs2 = np.empty((grid.n, 2), order="F")  # the sphere Newton step's right-hand sides
    counts = dict.fromkeys(_EVAL_COUNTS, 0)

    def wdot(a, b):
        return float(np.dot(w, a * b))

    def energy_of(vals):
        counts["energy_evals"] += 1
        return stage.energy(vals)

    def grad_of(vals):
        counts["grad_evals"] += 1
        return _grad_parts(stage, vals)

    def precond(x):
        nonlocal solve_precond
        if solve_precond is None:
            solve_precond = _sobolev_preconditioner(grid)
        counts["precond_solves"] += 1
        return solve_precond(x)

    def kkt(u, m_u, g, lap, rhs):
        # (relative KKT residual, its vector, lambda_hat, on the boundary)
        on_boundary = m_u >= rho * rho * (1.0 - 1e-12)
        lam_hat = max(0.0, -wdot(g, u) / m_u) if (on_boundary and m_u > 0) else 0.0
        res = g + lam_hat * u
        scale = max(1.0, wnorm(grid, lap) + wnorm(grid, rhs)
                    + lam_hat * math.sqrt(max(m_u, 0.0)))
        return wnorm(grid, res) / scale, res, lam_hat, on_boundary

    u, m_u = _rescale(w, vals0, rho)
    fields.keep(u)
    E, dens = energy_of(u)
    g, lap, rhs = grad_of(u)
    rel, res, lam_hat, on_boundary = kkt(u, m_u, g, lap, rhs)
    tau = STEP_INIT
    newton_gate = math.inf
    newton_steps = 0
    status = None
    for it in range(1, config.max_iter + 1):
        if rel <= config.tol_grad:
            status = "converged"
            break
        if m_u <= 1e-10 * rho * rho and E >= -1e-12 * (1.0 + rho * rho):
            # the flow has contracted into the zero stationary point; finish
            # here instead of grinding out the remaining geometric decay
            status = "collapsed"
            break

        if rel <= newton_gate and (lam_hat > 0.0 if on_boundary else m_u > 0.0):
            step = _newton_step(grid, u, m_u, res, lam_hat, rho, on_boundary, stage.dg, rhs2)
            if step is not None:
                v, m_v = step
                E_v, dens_v = energy_of(v)
                g_v, lap_v, rhs_v = grad_of(v)
                kkt_v = kkt(v, m_v, g_v, lap_v, rhs_v)
                if E_v <= E + 1e-12 * (1.0 + abs(E)) and kkt_v[0] <= 0.5 * rel:
                    u, m_u, E, dens, g, lap, rhs = v, m_v, E_v, dens_v, g_v, lap_v, rhs_v
                    rel, res, lam_hat, on_boundary = kkt_v
                    fields.keep(u)
                    newton_steps += 1
                    continue
            if on_boundary or step is not None:
                # rejected: the descent carries on until the residual has
                # fallen by another decade
                newton_gate = 0.1 * rel
                continue
            # inside the disc with a Hessian that is not positive definite:
            # descend in this iteration and leave the gate alone

        d = precond(g)
        if on_boundary:
            ud = wdot(u, d)
            if ud < 0.0:
                # -P g points out of the disc: move along the sphere instead
                pu = precond(u)
                d = d - (ud / wdot(u, pu)) * pu
        t = tau
        for _ in range(60):
            v, m_v = _rescale(w, u - t * d, rho)
            E_v, dens_v = energy_of(v)
            dv = v - u
            dd = wdot(dv, dv)
            ss = SOBOLEV_SHIFT * dd + kinetic_values(grid, dv)  # <dv, P^-1 dv>
            if E_v <= E - ARMIJO * ss / max(t, 1e-300):
                break
            if math.sqrt(dd) <= 1e-16 * (1.0 + math.sqrt(m_u)) and math.isfinite(E_v):
                # step has collapsed to rounding level: treat as stationary
                status = "stalled"
                break
            counts["backtracks"] += 1
            t *= BACKTRACK
        else:
            status = "backtrack_exhausted" if math.isfinite(E_v) else "nonfinite"
        if status is not None:
            break

        g_v, lap_v, rhs_v = grad_of(v)
        sy = wdot(dv, g_v - g)
        tau = min(max(ss / sy, 1e-12), STEP_MAX) if sy > 0 else min(t * 2.0, STEP_MAX)
        u, m_u, E, dens, g, lap, rhs = v, m_v, E_v, dens_v, g_v, lap_v, rhs_v
        rel, res, lam_hat, on_boundary = kkt(u, m_u, g, lap, rhs)
        fields.keep(u)
    else:
        status = "max_iter"

    result = _result(config, fields.at(u), eps, E, dens, rhs, m_u, status,
                     iterations=it, newton_steps=newton_steps, kkt_residual=rel, **counts)
    log.info("stage eps=%g: E=%.6g lam=%.4g iters=%d newton=%d kkt=%.2g status=%s "
             "on_sphere=%s", eps, E, result.lam, it, newton_steps, rel, status,
             result.on_sphere)
    return result


def _result(config, at, eps, energy, dens, g, m, status, **solver) -> SolverResult:
    """Record of the field at (an _At) at eps from the evaluations the caller
    already made there: its energy E_eps, nodal density G_eps, g_eps and
    kinetic term, and the mass m it tracked.  The multiplier (the Nehari
    quotient) comes from them and the mass; the residual bundle is built
    from the same parts on first access (SolverResult.bundle).  solver
    holds the iteration, Newton-step and evaluation counts and the final
    relative KKT residual."""
    from .diagnostics import identity_parts

    rho = config.rho
    u = RadialField(at.grid, at.s)
    parts = identity_parts(u, at.kinetic, dens, g)
    # extract_lambda's quotient
    lam = (parts.pairing - parts.kinetic) / parts.mass if m > 0 else 0.0
    return SolverResult(
        u=u, lam=lam, energy=energy, eps=eps, rho=rho, mass=m, kinetic=parts.kinetic,
        on_sphere=abs(m - rho * rho) <= TOL_MASS * rho * rho, status=status,
        parts=parts, **solver,
    )


def continuation(config: SolveConfig, grid: Optional[RadialGrid] = None,
                 rng=None, warm=None) -> ContinuationResult:
    """Warm-started solves along the eps schedule plus the eps=0 limit object.

    The limit reports the unregularized energy and the multiplier recomputed
    from the unregularized Nehari quotient, so its identity residuals are
    measured against the true nonlinearity.  The run stops at the first
    stage that does not converge; it is then the last of the stages and the
    limit is None.  Every stage, every warm-seed comparison and the limit
    evaluate through one cache (_Fields).

    warm is the stages of a neighbouring continuation on the same grid and
    schedule (energy_map passes the previous radius).  Stage j >= 1 then
    starts from whichever has the lower E_eps at eps_j: this run's stage j-1
    field, or warm[j]'s field rescaled to mass rho^2, the latter only when
    warm[j] converged on the sphere.  Stage 0 always starts from
    initial_guess, and warm=None is the plain continuation.
    """
    if grid is None:
        grid = config.make_grid()
    fields = _Fields(grid)
    stages = []
    u0 = None
    for j, eps in enumerate(config.eps_schedule):
        if warm and j and warm[j].status == "converged" and warm[j].on_sphere:
            seed = _rescale(grid.w, warm[j].u.values, config.rho, sphere=True)[0]
            energy = _bind_stage(fields, config.spec, eps).energy
            if energy(seed)[0] < energy(u0.values)[0]:
                fields.keep(seed)
                u0 = RadialField(grid, seed)
        result = solve_ground_state(config, eps, u0=u0, grid=grid, rng=rng, fields=fields)
        stages.append(result)
        if not result.converged:
            return ContinuationResult(stages=stages, limit=None)
        u0 = result.u
    u = stages[-1].u
    at_zero = _bind_stage(fields, config.spec, 0.0)
    energy, dens = at_zero.energy(u.values)
    limit = _result(config, fields.at(u.values), 0.0, energy, dens, at_zero.g(u.values),
                    mass(u), stages[-1].status, kkt_residual=stages[-1].kkt_residual,
                    **{k: sum(getattr(s, k) for s in stages)
                       for k in ("iterations", "newton_steps") + _EVAL_COUNTS})
    return ContinuationResult(stages=stages, limit=limit)


def multistart(config: SolveConfig) -> list:
    """config.multistarts independent continuations: start 0 from the plain
    initial guess, start j >= 1 jittered by np.random.default_rng(j).  All
    limits are recorded (distinct equal-energy profiles are kept, not
    adjudicated).  A start whose continuation has no limit (a stage did not
    converge) is logged and skipped, so the list may be empty."""
    out = []
    grid = config.make_grid()
    for j in range(config.multistarts):
        rng = np.random.default_rng(j) if j > 0 else None
        res = continuation(config, grid=grid, rng=rng)
        if res.limit is None:
            log.warning("start %d skipped: stage eps=%g ended %s", j, res.stages[-1].eps,
                        res.status)
        else:
            out.append(res.limit)
    return out


def energy_map(config: SolveConfig, rho_list: Sequence[float]) -> list:
    """Ground-state-energy samples c(rho) along a list of radii, solved in
    order in this process, each point's continuation warm-started from the
    stages of the point before it (see continuation).  A point without a
    limit is flagged with the energy and eps of its last converged stage
    (nan when none converged), seeds nothing, and the sweep continues."""
    points = []
    grid = config.make_grid()
    warm = None
    for rho in rho_list:
        res = continuation(replace(config, rho=float(rho)), grid=grid, warm=warm)
        if res.limit is None:
            log.warning("rho=%g: stage eps=%g ended %s", rho, res.stages[-1].eps, res.status)
        # the limit, or the stage before the one that ended the run
        done = res.limit or (res.stages[-2] if len(res.stages) > 1 else None)
        points.append(EnergyMapPoint(rho=float(rho),
                                     c_value=done.energy if done else math.nan,
                                     eps=done.eps if done else math.nan,
                                     converged=res.limit is not None))
        warm = res.stages if res.limit else None
    return points
