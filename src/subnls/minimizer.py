"""Constrained minimization of the regularized energy

    E_eps(u) = 1/2 int |grad u|^2 + int Gminus_eps(u) - int Gplus(u)

over the L2 disc {mass(u) <= rho^2}, and the continuation eps -> 0 that
recovers the unregularized ground state: the eps-stages of the schedule
(one, 1e-1, by default) globalize, and the limit is the same stage solver
run at eps = 0 from the last stage's point, a KKT point of the
unregularized problem itself.

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
ptsv).  The energy globalizes the Newton step: it is kept when it
lowers the energy beyond rounding, or halves the residual without raising
the energy beyond rounding; a trial that gives no step or is rejected
leaves the iterate, and the same iteration descends.  The descent's first
trial step is the unit step in the metric of P.  The preconditioner is
factored only when a stage first descends.  A stage ends on its KKT test.

Minimizing over the disc rather than the sphere is deliberate: the disc is
weakly closed, a minimizer with positive multiplier is automatically pushed
onto the sphere, and runs where the flow collapses into the interior are
exactly the nonexistence evidence the diagnostics consume; there the
interior Newton steps finish the collapse to the zero field in a number of
iterations that does not grow with n.  How a stage ended is data, never an
exception: SolverResult.status, converged only for "converged" and
"collapsed".  A continuation stops at its first stage that did not converge
and returns it last, without a limit (ContinuationResult).  It also stops
at its first stage that collapsed: G_minus^eps grows pointwise as eps
falls, so E_eps' >= E_eps for eps' < eps, and every later stage would end
on the collapse test at its first check, on the same array.  Its limit is
the eps = 0 stage when the last stage converged on the sphere with a
positive multiplier and the eps = 0 stage converges on the sphere
(limit_kind "eps0_stage"); otherwise, a collapse for one, it is the last
stage's point evaluated at eps = 0 (limit_kind "evaluated").  A sweep in rho
(energy_map) continues along the branch at eps = 0: each radius after the
first is one eps = 0 stage from a start predicted by its neighbours, which
is itself the point's limit, with the full continuation as fallback and in
place of a corrector whose predicted multiplier is not positive.

Every field the solver evaluates is an explicit point (_At): built once per
trial, it carries what the kernels share there, and the stage keeps the
accepted one.  A stage hands its last point on (SolverResult.at) to the next
stage, the eps = 0 one included, as its start, so what a point carries is
computed once per array and nothing is looked up.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import nonlinearity as nl
# bound at import, not in the preconditioner: every solve needs LAPACK, so a
# missing or broken one fails the import instead of a run.  _lapack loads
# scipy's Fortran wrapper file alone (3-10 ms); only its fallback, all of
# scipy.linalg.lapack, costs about 0.3 s of start-up
from ._lapack import dgtsv, dptsv, dpttrf, dpttrs
from .diagnostics import bundle_from_parts, identity_parts
from .grid import (RadialField, RadialGrid, face_differences, kinetic, kinetic_values,
                   laplacian_values, mass, sphere_area, wnorm)

log = logging.getLogger("subnls.minimizer")

# one eps-stage globalizes, and the eps = 0 stage finishes from its point
# (_limit); a longer schedule traces the eps-family itself
DEFAULT_EPS_SCHEDULE = (1e-1,)
# shift sigma of the preconditioner P = (sigma I - Lap)^-1, and the cap on a
# proposed step.  Steps are O(1) in the metric of P, but near the zero field
# the BB step approaches (sigma + l1)/l1 with l1 ~ (pi/r_max)^2 the lowest
# Dirichlet eigenvalue, about 1e3 at r_max = 100
SOBOLEV_SHIFT = 1.0
STEP_MAX = 1e4
# first step proposal (the unit step in the metric of P), backtracking
# factor and Armijo constant
STEP_INIT = 1.0
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
    # accepted and ignored, silently: the solver no longer rearranges, and
    # the field goes once perfbench stops passing it (cli.build_solve_config
    # warns about a nonzero INI value)
    rearrange_every: int = 0
    multistarts: int = 1

    def __post_init__(self):
        # rho^2, the mass, must be finite and positive too
        if not (self.rho > 0.0 and self.rho * self.rho < math.inf):
            raise ValueError(f"rho must be positive with a finite rho^2, got {self.rho}")
        if self.rho * self.rho == 0.0:
            raise ValueError(f"rho = {self.rho} has a mass rho^2 that underflows to 0")
        sched = tuple(self.eps_schedule)
        if not sched:
            raise ValueError("eps schedule must be nonempty")
        if any(not (0.0 < e < 1.0) for e in sched):
            raise ValueError("eps values must lie in (0, 1)")
        if any(b <= a for a, b in zip(sched[1:], sched[:-1])):
            raise ValueError("eps schedule must be strictly decreasing")
        # a KKT residual is never below a tolerance <= 0, and always below inf
        if not 0.0 < self.tol_grad < math.inf:
            raise ValueError("tol_grad must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.multistarts < 1:
            raise ValueError("multistarts must be at least 1")
        self.eps_schedule = sched

    def make_grid(self) -> RadialGrid:
        return RadialGrid(self.spec.dim, self.r_max, self.n)


@dataclass
class SolverResult:
    """Record of one stage (or of a continuation's eps = 0 limit, which
    limit_kind names): the field, its multiplier, energy, mass and kinetic
    term, how the stage ended and what it cost.  It is built from the
    solver's own last evaluations (_result); at is the evaluated point (_At)
    of u, which the next stage starts from, so u may share its array with
    the previous stage's u.  converged is derived from status; bundle, the residual
    bundle, is computed from parts on first access and then kept."""

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
    # Armijo trials and its preconditioner solves (a limit: sums over every
    # stage solved, the eps = 0 stage's included)
    energy_evals: int
    grad_evals: int
    backtracks: int
    precond_solves: int
    # the integrals of u's Pohozaev and Nehari identities
    # (diagnostics.IdentityParts), from which bundle is built
    parts: object = field(default=None, repr=False)
    # u's evaluated point, handed on to the next stage; not in to_json_dict
    at: object = field(default=None, repr=False)
    # a limit's kind: "eps0_stage" (the eps = 0 stage, a KKT point of the
    # unregularized problem) or "evaluated" (the last stage's point
    # evaluated at eps = 0); None for a stage
    limit_kind: Optional[str] = None

    @property
    def converged(self) -> bool:
        return self.status in ("converged", "collapsed")

    @functools.cached_property
    def bundle(self):
        """u's residual bundle (diagnostics.ResidualBundle) at lam, built
        from parts on first access and kept; None without parts."""
        if self.parts is None:
            return None
        return bundle_from_parts(self.u, self.lam, self.parts)

    def to_json_dict(self) -> dict:
        """The record's fields without the field values and points (u, parts,
        at), lam as "lambda", plus converged and the two identity residuals."""
        out = {"lambda" if f.name == "lam" else f.name: getattr(self, f.name)
               for f in fields(self) if f.name not in ("u", "parts", "at")}
        out.update(converged=self.converged,
                   pohozaev_residual=getattr(self.bundle, "pohozaev_rel", None),
                   nehari_residual=getattr(self.bundle, "nehari_rel", None))
        return out


@dataclass
class EnergyMapPoint:
    rho: float
    c_value: float
    eps: float
    converged: bool
    # the solver iterations the point cost (a corrector stage plus any full
    # continuation, its eps = 0 stage included) and the status of its last
    # stage
    iterations: int = 0
    status: str = ""


@dataclass
class ContinuationResult:
    """The stages of one continuation, ending with the stage that ended it
    (the last of the schedule, the first that did not converge or the first
    that collapsed), and the eps = 0 limit, None when that stage did not
    converge."""

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
        """Every solver iteration of the run, the eps = 0 stage's included."""
        if self.limit is not None:
            return self.limit.iterations
        return sum(s.iterations for s in self.stages)


def energy_eps(u: RadialField, spec: nl.NonlinearitySpec, eps: float) -> float:
    """Discrete E_eps(u); eps=0 evaluates the unregularized energy."""
    return _bind_stage(u.grid, spec, eps).energy(_At(u.values, u.grid))[0]


def grad_energy_eps(u: RadialField, spec: nl.NonlinearitySpec, eps: float) -> RadialField:
    """L2-gradient field -Lap u - g_eps(u); consistent with energy_eps at
    machine level thanks to exact summation by parts."""
    stage = _bind_stage(u.grid, spec, eps)
    return RadialField(u.grid, _grad_parts(stage, _At(u.values, u.grid))[0])


def _grad_parts(stage, x):
    # one laplacian_values call per gradient evaluation (perfbench's tracer
    # counts gradient evaluations by these calls), from the point's face
    # differences
    lap = laplacian_values(x.grid, x.s, x.d)
    rhs = stage.g(x)
    return -lap - rhs, lap, rhs


class _At(nl.Point):
    """The evaluated point of one nodal array: the nl.Point (|s|, s^2 and,
    on first use, ln s^2 and g(|s|)) plus what the grid derives from the
    array, each computed on first use: the face differences, which the
    kinetic term and every Laplacian of the array are built from, and the
    kinetic term (the arithmetic of grid.kinetic_values and
    grid.laplacian_values, so sharing changes no bit).  The solver builds
    one per trial and keeps the accepted one; a stage hands its last one on
    to the next stage and to the eps = 0 limit.  Nothing writes into the
    array while its point is in use."""

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


class _Stage(NamedTuple):
    energy: Callable  # _At -> (E_eps there, its nodal density G_eps)
    g: Callable       # _At -> g_eps there
    dg: Callable      # _At -> g_eps' there


def _bind_stage(grid: RadialGrid, spec: nl.NonlinearitySpec, eps: float) -> _Stage:
    """Everything one eps-stage evaluates, bound once (nl.bind_eps) and
    taking an evaluated point (_At) on grid: the solver's trial energies,
    gradients and Newton Jacobians, the seeds' energies, the records of the
    stage and of the eps = 0 limit, and the public energy_eps and
    grad_energy_eps.

    The point keeps one |s|, s^2, ln s^2 and g(|s|) for the trial's G_eps,
    the accepted point's g_eps and the next Newton Jacobian's g_eps', and
    one set of face differences for its kinetic term and the Laplacian of
    each gradient evaluation.  The energy is summed in double precision: a
    stage ends on the Newton residual test, whose energy margin
    1e-12 (1 + |E|) lies far above that rounding.  A trial field that is not
    finite has an energy that is not finite, which the solver rejects
    (status "nonfinite")."""
    kern = nl.bind_eps(spec, eps)
    w = grid.w

    def energy(x):
        dens = kern.G(x)
        return 0.5 * x.kinetic - float(w.dot(dens)), dens

    return _Stage(energy, kern.g, kern.dg)


def _rescale(w, vals, rho, sphere=False, slack=0.0):
    """Nodal values rescaled radially to mass rho^2 under quadrature weights
    w: onto the sphere when sphere is set (the zero field stays zero), else
    onto the disc {mass <= rho^2 (1 + slack)} (identity inside, rescale
    outside).  Returns (values, mass).  A mass that is not finite (an
    overflow or a non-finite value) is returned as it is, with the values
    unscaled: scaling by rho/sqrt(m) would give the zero field, or nan, at a
    mass rho^2 it does not have."""
    m = float(w.dot(vals * vals))
    if m <= (0.0 if sphere else rho * rho * (1.0 + slack)) or not math.isfinite(m):
        return vals, m
    return vals * (rho / math.sqrt(m)), rho * rho


def extract_lambda(u: RadialField, spec: nl.NonlinearitySpec, eps: float) -> float:
    """Multiplier from the Nehari pairing: (int g_eps(u) u - |grad u|^2)/|u|^2."""
    m = mass(u)
    if m <= 0.0:
        raise ValueError("cannot extract a multiplier from the zero field")
    pairing = float(np.dot(u.grid.w, nl.g_eps(spec, u.values, eps) * u.values))
    return (pairing - kinetic(u)) / m


def _plateau(r, level):
    # level on [0, 1], a half-cosine taper to 0 on [1, 2], 0 beyond
    out = np.full_like(r, float(level))
    ramp = (r >= 1.0) & (r < 2.0)
    out[ramp] = level * 0.5 * (1.0 + np.cos(math.pi * (r[ramp] - 1.0)))
    out[r >= 2.0] = 0.0
    return out


@functools.lru_cache(maxsize=128)
def _plateau_mass(dim, level):
    # continuum mass of the base profile via fine 1-D quadrature
    rq = np.linspace(0.0, 2.0, 4001)
    fq = _plateau(rq, level) ** 2 * rq ** (dim - 1)
    return sphere_area(dim) * np.trapezoid(fq, rq)


def _witness(grid, rho, level):
    """Nodal values of the mass-rho dilation of the plateau at the given
    level: u(sigma r), with sigma = (m0/rho^2)^(1/N) and m0 the plateau's
    mass, keeps the amplitude and scales the kinetic term like rho^(2-4/N)."""
    sigma = (_plateau_mass(grid.dim, level) / rho**2) ** (1.0 / grid.dim)
    return _rescale(grid.w, _plateau(grid.r * sigma, level), rho, sphere=True)[0]


def initial_guess(spec, grid, rho, eps, rng=None) -> RadialField:
    """Negative-energy seed on the mass sphere when one is available.

    Candidates: the dilated plateau witness at a level where G > 0, plus
    amplitude-matched Gaussians of a few widths; the lowest-energy candidate
    wins.  Without a positive level (so no negative-energy seed exists) a
    Gaussian of mass rho^2 is returned, and the fallback is logged at INFO:
    every start of such a spec takes it, so the commands that start solves
    (cli.cmd_solve, cli.cmd_sweep_rho) report it once, at WARNING.
    """
    return RadialField(grid, _guess(_bind_stage(grid, spec, eps), grid, spec, rho, rng)[0].s)


def _guess(stage, grid, spec, rho, rng):
    """initial_guess's winner as an evaluated point (_At) on grid and its
    score, the pair (E_eps, density) of the stage's energy, by which every
    candidate is scored."""
    widths = [0.7, 1.0, 1.5]
    if rng is not None:
        widths = [w * float(rng.uniform(0.7, 1.4)) for w in widths]
    amp = rho * math.pi ** (-grid.dim / 4.0)
    candidates = [_rescale(grid.w, amp * np.exp(-(grid.r / wdt) ** 2 / 2.0), rho, sphere=True)[0]
                  for wdt in widths]
    level = nl.find_positive_level(spec)
    if level is None:
        log.info("no level with positive primitive: falling back to a "
                 "Gaussian seed of mass rho^2 (no negative-energy start)")
    else:
        # the two levels coincide when amp <= 1.5 level: score that seed once
        for lv in dict.fromkeys((level * 1.5, max(level * 1.5, amp))):
            candidates.append(_witness(grid, rho, lv))
    best = None
    for vals in candidates:
        x = _At(vals, grid)
        scored = stage.energy(x)
        # the first of equal energies wins, as with min()
        if best is None or scored[0] < best[1][0]:
            best = x, scored
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
    on the symmetric tridiagonal A = K + lam W - W diag(g_eps'(u)) (dg holds
    the values g_eps'(u)).

    On the sphere it solves the KKT system F(u, lam) = (W res,
    (u^T W u - rho^2)/2) = 0: A, indefinite on the ground state, is bordered
    by W u, and one LAPACK gtsv solve of A [x1, x2] = [W res, W u]
    eliminates the border, in place in rhs2, a Fortran-ordered (n, 2)
    buffer of the caller's; the new values are rescaled onto the sphere.
    Inside the disc the constraint is inactive (lam = 0, res = g): one
    LAPACK ptsv solve factors A = K - W diag(g_eps'(u)), which succeeds
    exactly when A is positive definite, solves A x = W g, and u - x is
    projected onto the disc.  Returns the new values and their mass, or
    None when there is no step: A or <W u, A^-1 W u> singular (sphere), A
    not positive definite (inside), or a mass that is not finite, which
    _rescale returns for values that are not finite or whose mass overflows.
    """
    w = grid.w
    k_diag, k_off = grid._kinetic_bands
    if on_boundary:
        diag = k_diag + w * (lam - dg)
        wu = w * u
        np.multiply(w, res, out=rhs2[:, 0])
        rhs2[:, 1] = wu
        x, info = dgtsv(k_off, diag, k_off, rhs2, overwrite_d=1, overwrite_b=1)[3:]
        x1, x2 = x[:, 0], x[:, 1]
        den = float(np.dot(wu, x2))
        if info != 0 or den == 0.0:
            return None
        d_lam = (0.5 * (m_u - rho * rho) - float(np.dot(wu, x1))) / den
        v = u - x1 - d_lam * x2
    else:
        x, info = dptsv(k_diag - w * dg, k_off, w * res, overwrite_d=1, overwrite_b=1)[2:]
        if info != 0:
            return None
        v = u - x
    v, m_v = _rescale(w, v, rho, sphere=on_boundary)
    return (v, m_v) if math.isfinite(m_v) else None


# what a stage counts besides iterations and Newton steps (SolverResult)
_EVAL_COUNTS = ("energy_evals", "grad_evals", "backtracks", "precond_solves")


@np.errstate(over="ignore", invalid="ignore")
def solve_ground_state(config: SolveConfig, eps: float,
                       u0: Optional[RadialField] = None,
                       grid: Optional[RadialGrid] = None,
                       rng=None, start: Optional[_At] = None) -> SolverResult:
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
    strictly inside the disc and nonzero.  A step is accepted when it
    lowers E_eps beyond rounding, E_v < E - 1e-12 (1 + |E|), or when it at
    least halves the residual without raising E_eps beyond rounding.  A
    trial that gives no step or is rejected leaves the iterate where it
    is, and the same iteration descends, so E_eps never rises over a
    stage.  The descent's first trial step is STEP_INIT, the unit step in
    the metric of P, and Armijo backtracking guards it.  An accepted
    Newton step is one iteration with one energy and one gradient
    evaluation, and a rejected trial adds those two to its iteration's
    descent step, so max_iter bounds the work.  The preconditioner is
    factored on the stage's first descent step, so a stage of Newton steps
    alone never factors it.

    Stops (status "converged") when the KKT residual  g + lambda_hat * u
    (lambda_hat the Nehari quotient on the sphere, 0 inside) drops below
    tol_grad relative to the natural operator scale.  The other exits are
    "collapsed" (the iterate has sunk to the zero field, which also counts
    as converged), "stalled" (steps at rounding level), and, when 60
    halvings find no Armijo decrease, "nonfinite" if the last trial energy
    is not finite and "backtrack_exhausted" otherwise; "max_iter" ends an
    exhausted budget.  No numerical ending raises, and none warns: numpy's
    overflow and invalid-value warnings are off inside a stage, whose
    non-finite trials end it "nonfinite".
    config.rearrange_every is accepted and ignored (SolveConfig).

    The stage's kernels are bound once (_bind_stage).  Each trial is one
    evaluated point (_At), built once: its energy, the gradient there once
    it is accepted and the next Newton Jacobian share one log, one g(|s|)
    and one set of face differences, and the accepted point is kept.  The
    stage starts from start, an evaluated point on grid (continuation hands
    on the last stage's SolverResult.at), else from u0, else from
    initial_guess's winner; a start that lies in the disc, or within
    1e-12 relative outside it (where a sphere rescale can land), is kept as
    it is, so a stage that starts where the last one ended reuses its
    evaluations, and a winner kept as it is counts its score as the stage's
    first energy evaluation.  The stage record reuses the last point's
    energy, density, g_eps and kinetic term and carries the point itself
    (see _result), and counts the evaluations made.
    """
    spec, rho = config.spec, config.rho
    if grid is None:
        grid = config.make_grid()
    w = grid.w
    stage = _bind_stage(grid, spec, eps)
    seed = None  # initial_guess's score of its winner under this stage
    if start is None:
        if u0 is None:
            start, seed = _guess(stage, grid, spec, rho, rng)
        else:
            start = _At(u0.values, grid)
    solve_precond = None  # factored on the stage's first descent step
    rhs2 = np.empty((grid.n, 2), order="F")  # the sphere Newton step's right-hand sides
    counts = dict.fromkeys(_EVAL_COUNTS, 0)

    def wdot(a, b):
        return float(w.dot(a * b))

    def energy_of(x, known=None):
        # known: the (E_eps, density) of x already computed under stage
        counts["energy_evals"] += 1
        return stage.energy(x) if known is None else known

    def grad_of(x):
        counts["grad_evals"] += 1
        return _grad_parts(stage, x)

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
        res = g if lam_hat == 0.0 else g + lam_hat * u
        scale = max(1.0, wnorm(grid, lap) + wnorm(grid, rhs)
                    + lam_hat * math.sqrt(max(m_u, 0.0)))
        return wnorm(grid, res) / scale, res, lam_hat, on_boundary

    # a sphere rescale lands within rounding of rho^2, on either side, so a
    # start that far outside the disc is kept as it is, not copied.  The
    # descent's projection keeps no slack: a trial kept outside the disc
    # would lie below every projected trial in energy, and Armijo would stall
    u, m_u = _rescale(w, start.s, rho, slack=1e-12)
    x = start if u is start.s else _At(u, grid)
    E, dens = energy_of(x, seed if x is start else None)
    g, lap, rhs = grad_of(x)
    rel, res, lam_hat, on_boundary = kkt(u, m_u, g, lap, rhs)
    tau = STEP_INIT
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

        if lam_hat > 0.0 if on_boundary else m_u > 0.0:
            step = _newton_step(grid, u, m_u, res, lam_hat, rho, on_boundary, stage.dg(x),
                                rhs2)
            if step is not None:
                v, m_v = step
                x_v = _At(v, grid)
                E_v, dens_v = energy_of(x_v)
                g_v, lap_v, rhs_v = grad_of(x_v)
                kkt_v = kkt(v, m_v, g_v, lap_v, rhs_v)
                # kept when it lowers E_eps beyond rounding, or halves the
                # residual without raising E_eps beyond rounding
                tol_E = 1e-12 * (1.0 + abs(E))
                if E_v < E - tol_E or (E_v <= E + tol_E and kkt_v[0] <= 0.5 * rel):
                    x, u, m_u, E, dens, g, lap, rhs = x_v, v, m_v, E_v, dens_v, g_v, lap_v, rhs_v
                    rel, res, lam_hat, on_boundary = kkt_v
                    newton_steps += 1
                    continue
            # no step, or a rejected one: descend in this iteration

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
            x_v = _At(v, grid)
            E_v, dens_v = energy_of(x_v)
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

        g_v, lap_v, rhs_v = grad_of(x_v)
        sy = wdot(dv, g_v - g)
        tau = min(max(ss / sy, 1e-12), STEP_MAX) if sy > 0 else min(t * 2.0, STEP_MAX)
        x, u, m_u, E, dens, g, lap, rhs = x_v, v, m_v, E_v, dens_v, g_v, lap_v, rhs_v
        rel, res, lam_hat, on_boundary = kkt(u, m_u, g, lap, rhs)
    else:
        status = "max_iter"

    result = _result(config, x, eps, E, dens, rhs, m_u, status,
                     iterations=it, newton_steps=newton_steps, kkt_residual=rel, **counts)
    log.info("stage eps=%g: E=%.6g lam=%.4g iters=%d newton=%d kkt=%.2g status=%s "
             "on_sphere=%s", eps, E, result.lam, it, newton_steps, rel, status,
             result.on_sphere)
    return result


def _result(config, at, eps, energy, dens, g, m, status, **solver) -> SolverResult:
    """Record, carrying at, of the evaluated point at (an _At) at eps from
    the evaluations the caller already made there: its energy E_eps, nodal
    density G_eps, g_eps and kinetic term, and the mass m it tracked.  The
    multiplier (the Nehari quotient) comes from them and the mass; the
    residual bundle is built from the same parts on first access
    (SolverResult.bundle).  solver holds the iteration, Newton-step and
    evaluation counts and the final relative KKT residual."""
    rho = config.rho
    u = RadialField(at.grid, at.s)
    parts = identity_parts(u, at.kinetic, dens, g)
    # extract_lambda's quotient
    lam = (parts.pairing - parts.kinetic) / parts.mass if m > 0 else 0.0
    return SolverResult(
        u=u, lam=lam, energy=energy, eps=eps, rho=rho, mass=m, kinetic=parts.kinetic,
        on_sphere=abs(m - rho * rho) <= TOL_MASS * rho * rho, status=status,
        parts=parts, at=at, **solver,
    )


def continuation(config: SolveConfig, grid: Optional[RadialGrid] = None,
                 rng=None) -> ContinuationResult:
    """Warm-started solves along the eps schedule plus the eps=0 limit object.

    Stage 0 starts from initial_guess (jittered by rng) and each later stage
    from the evaluated point (SolverResult.at) the stage before it ended
    on.  The run stops at the first stage that does not converge; it is then
    the last of the stages and the limit is None.  It also stops at the
    first stage that collapsed, since E_eps only grows as eps falls: each
    later stage would end at its first check on the same zero field.
    Otherwise the limit is taken from the last stage (_limit).  Each stage,
    the eps = 0 one included, is solved through the module attribute
    solve_ground_state, so a wrapper set there sees every stage.
    """
    if grid is None:
        grid = config.make_grid()
    stages = []
    start = None
    for eps in config.eps_schedule:
        result = solve_ground_state(config, eps, grid=grid, rng=rng, start=start)
        stages.append(result)
        if not result.converged:
            return ContinuationResult(stages=stages, limit=None)
        if result.status == "collapsed":
            break
        start = result.at
    return ContinuationResult(stages=stages, limit=_limit(config, grid, stages))


@np.errstate(over="ignore", invalid="ignore")
def _limit(config, grid, stages) -> SolverResult:
    """The eps = 0 limit of stages, whose last one converged: on its KKT
    test, or by a collapse, which continuation makes the last stage.

    When that stage converged on the sphere with a positive multiplier, the
    eps = 0 stage is solved from its point (SolverResult.at), through the
    module attribute solve_ground_state; if it converges on the sphere it is
    the limit (limit_kind "eps0_stage"), a KKT point of the unregularized
    problem with its own status and KKT residual.  Otherwise (a collapse,
    an end off the sphere, an eps = 0 stage that did not converge on the
    sphere) the limit is the last stage's point evaluated at eps = 0 and
    carried (limit_kind "evaluated"): the unregularized energy and the
    multiplier recomputed from the unregularized Nehari quotient, so its
    identity residuals are measured against the true nonlinearity, with the
    last stage's status and KKT residual: after a collapse, the collapsed
    stage's, since the stages continuation skips would hand its array on
    unmoved.  Either way the counters are the sums over every stage solved,
    the eps = 0 stage's included."""
    last = stages[-1]
    solved = list(stages)
    if _on_branch(last) and last.lam > 0.0:
        zero = solve_ground_state(config, 0.0, grid=grid, start=last.at)
        solved.append(zero)
        if _on_branch(zero):
            return replace(zero, limit_kind="eps0_stage", **_sums(solved))
        log.info("eps = 0 stage ended %s (on_sphere=%s); the limit is the eps=%g "
                 "point evaluated at eps = 0", zero.status, zero.on_sphere, last.eps)
    at_zero = _bind_stage(grid, config.spec, 0.0)
    energy, dens = at_zero.energy(last.at)
    return _result(config, last.at, 0.0, energy, dens, at_zero.g(last.at),
                   mass(last.u), last.status, kkt_residual=last.kkt_residual,
                   limit_kind="evaluated", **_sums(solved))


def _on_branch(res) -> bool:
    """Whether a stage or limit ended converged on the sphere: the test of
    _limit's eps = 0 stage and of energy_map's correctors and seeds."""
    return res.status == "converged" and res.on_sphere


def _sums(stages) -> dict:
    # a limit's counters: sums over the stages solved
    return {k: sum(getattr(s, k) for s in stages)
            for k in ("iterations", "newton_steps") + _EVAL_COUNTS}


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
    order in this process as a natural-parameter continuation in rho at
    eps = 0.

    A point whose predecessor has a limit that converged on the sphere is
    corrected: one eps = 0 stage (solve_ground_state, through the module
    attribute) from the predicted start (_predict), accepted, as the point's
    limit, when it ends converged on the sphere.  A point whose predicted
    multiplier is not positive lies below the branch's lambda = 0 point,
    where a corrector could only collapse, so it is not corrected.  Every
    other point, and one whose corrector is not accepted, runs the full
    continuation unseeded, so it is bit-identical to a standalone run.  A
    point without a limit is flagged with the energy and eps of its last
    converged stage (nan when none converged), seeds nothing, and the sweep
    continues.  Each point records the solver iterations it cost (corrector
    plus any fallback) and the status of its last stage."""
    points = []
    grid = config.make_grid()
    known = []  # (rho, limit values, limit lambda) of the last points on the branch
    for rho in map(float, rho_list):
        cfg = replace(config, rho=rho)
        res, iterations = None, 0
        if known:
            start, lam = _predict(grid, config.spec, known, rho)
            if lam > 0.0:
                stage = solve_ground_state(cfg, 0.0, grid=grid, start=start)
                iterations = stage.iterations
                if _on_branch(stage):
                    res = ContinuationResult(stages=[stage], limit=stage)
                else:
                    log.info("rho=%g: corrector ended %s (on_sphere=%s); running the full "
                             "continuation", rho, stage.status, stage.on_sphere)
            else:
                log.info("rho=%g: predicted multiplier %.3g is not positive; running the "
                         "full continuation", rho, lam)
        if res is None:
            res = continuation(cfg, grid=grid)
            iterations += res.total_iterations
        if res.limit is None:
            log.warning("rho=%g: stage eps=%g ended %s", rho, res.stages[-1].eps, res.status)
        # the limit, or the stage before the one that ended the run
        done = res.limit or (res.stages[-2] if len(res.stages) > 1 else None)
        points.append(EnergyMapPoint(rho=rho, c_value=done.energy if done else math.nan,
                                     eps=done.eps if done else math.nan,
                                     converged=res.limit is not None,
                                     iterations=iterations, status=res.status))
        if res.limit and _on_branch(res.limit):
            known = known[-1:] + [(rho, res.limit.u.values, res.limit.lam)]
        else:
            known = []
    return points


def _predict(grid, spec, known, rho):
    """The corrector's start at rho, as an evaluated point (_At), and its
    predicted multiplier, from known, the (rho, values, lambda) of one or
    two neighbouring points on the branch, newest last.  With two at
    distinct radii: the secant through their values, rescaled onto the
    sphere of radius rho, and the secant through their multipliers in
    ln rho^2 (exact for log, where lambda is affine in ln rho^2).  With one:
    its values rescaled and the Nehari quotient of that start at eps = 0
    (exact for log too: lambda(k u) = lambda(u) + 2 alpha ln k), from the
    g(|s|) and kinetic term the corrector's first evaluation then reuses."""
    rho1, u1, lam1 = known[-1]
    two = len(known) == 2 and known[0][0] != rho1
    if two:
        rho0, u0, lam0 = known[0]
        u1 = u1 + (rho - rho1) / (rho1 - rho0) * (u1 - u0)
        lam1 = lam1 + math.log(rho / rho1) / math.log(rho1 / rho0) * (lam1 - lam0)
    vals, m = _rescale(grid.w, u1, rho, sphere=True)
    x = _At(vals, grid)
    if not two:
        # extract_lambda's quotient
        pairing = float(np.dot(grid.w, nl.bind_eps(spec, 0.0).g(x) * vals))
        lam1 = (pairing - x.kinetic) / m
    return x, lam1
