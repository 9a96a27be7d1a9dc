"""Nonlinearity families for -Delta u + lambda u = g(u), their splittings
g = g_plus - g_minus and G = G_plus - G_minus, the ramp cutoff used to
regularize the singular negative part, and closed-form existence thresholds.

G_plus collects the increasing part of the primitive,

    G_plus(s) = int_0^s max(g, 0)      for s >= 0,
    G_plus(s) = int_s^0 max(-g, 0)     for s < 0,

so G_plus, G_minus >= 0 while g_minus satisfies s*g_minus(s) >= 0 (it is
negative on the negative half line).  Every family is evaluated from its
closed-form g, g' and antiderivatives G and P = int t g, split at the
sign-change points of g, located once per spec and cached.  bind_eps
binds one (spec, eps) once and returns G_eps, g_eps and g_eps' as functions
of a Point, which computes |s|, s^2, ln s^2, the half-line g(|s|), the
cutoff mask |s| < eps and the power s^(p-2) of log_power once for every
kernel evaluated there; the public functions of the same names wrap it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Optional

import numpy as np

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "numerically-inconclusive"

# s^2 is floored at _TINY^2 before its log, so s^k ln s^2 takes its limit 0 at
# s = 0; the floor sits above the double minimum and cannot underflow
_TINY = 1e-150


@dataclass(frozen=True)
class NonlinearitySpec:
    """A nonlinearity g with spatial dimension, immutable after construction.

    Families: "log" (alpha*s*ln s^2), "log_power" (alpha*s*ln s^2 +
    mu*|s|^(p-2)*s), "saturation" (s^3/(1+s^2)), "power_sublinear"
    (-|s|^(omega-1)*s).  A field that the family does not read
    (_Family.params) must keep its default.
    """

    family: str
    dim: int
    alpha: float = 1.0
    mu: float = 0.0
    p_exp: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        if not 2 <= self.dim < math.inf or int(self.dim) != self.dim:
            raise ValueError(f"dim must be an integer >= 2, got {self.dim}")
        if not all(map(math.isfinite, (self.alpha, self.mu, self.p_exp, self.omega))):
            raise ValueError(f"alpha, mu, p and omega must be finite, got {self.alpha}, "
                             f"{self.mu}, {self.p_exp}, {self.omega}")
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        fam = _FAMILIES[self.family]
        for f in fields(self)[2:]:  # past family and dim
            if f.name not in fam.params and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.family} does not take {f.name}")
        fam.check(self)

    @property
    def mass_critical_exp(self) -> float:
        return 2.0 + 4.0 / self.dim

    @property
    def mass_critical(self) -> bool:
        """p_exp = 2 + 4/N within 1e-12 relative: 10/3 and 2 + 4/3 are adjacent doubles."""
        pc = self.mass_critical_exp
        return abs(self.p_exp - pc) <= 1e-12 * pc

    @property
    def sobolev_critical_exp(self) -> float:
        """2* = 2N/(N-2), infinite for N = 2."""
        return 2.0 * self.dim / (self.dim - 2.0) if self.dim >= 3 else math.inf


def logarithmic(alpha: float = 1.0, *, dim: int) -> NonlinearitySpec:
    return NonlinearitySpec("log", dim, alpha=alpha)


def log_power(alpha: float, mu: float, p: float, *, dim: int) -> NonlinearitySpec:
    return NonlinearitySpec("log_power", dim, alpha=alpha, mu=mu, p_exp=p)


def saturation(*, dim: int) -> NonlinearitySpec:
    return NonlinearitySpec("saturation", dim)


def power_sublinear(omega: float, *, dim: int) -> NonlinearitySpec:
    return NonlinearitySpec("power_sublinear", dim, omega=omega)


class Point:
    """A float array s at which kernels are evaluated, with what the family
    kernels derive from it: |s|, s^2 = |s| |s| and, on first use,
    ln max(s^2, _TINY^2), a spec's half-line g(|s|), the mask |s| < eps of
    a cutoff and a power (s^2)^k.  Every kernel evaluated at the same Point
    shares them, with the arithmetic of evaluating that kernel alone, so
    sharing changes no bit.  The array must not be written to while the
    Point is in use."""

    __slots__ = ("s", "mag", "s2", "_ln_s2", "_g", "_g_spec", "_below", "_below_eps",
                 "_pow", "_pow_k")

    def __init__(self, s):
        self.s = s
        self.mag = np.abs(s)
        self.s2 = self.mag * self.mag
        self._ln_s2 = None
        self._g_spec = self._below_eps = self._pow_k = None

    @property
    def ln_s2(self):
        if self._ln_s2 is None:
            self._ln_s2 = np.log(np.maximum(self.s2, _TINY**2))
        return self._ln_s2

    def half_g(self, spec):
        """g(|s|) of spec's family, kept for the last spec asked for."""
        if self._g_spec is not spec and self._g_spec != spec:
            self._g = _FAMILIES[spec.family].g(spec, self)
            self._g_spec = spec
        return self._g

    def below(self, eps):
        """The mask |s| < eps, kept for the last eps asked for."""
        if self._below_eps != eps:
            self._below = self.mag < eps
            self._below_eps = eps
        return self._below

    def s2_pow(self, k):
        """(s^2)^k, kept for the last exponent asked for."""
        if self._pow_k != k:
            self._pow = self.s2 ** k
            self._pow_k = k
        return self._pow


# ---------------------------------------------------------------------------
# half-line kernels (arguments are Points, read through |s|); every g is odd,
# so the negative axis follows by symmetry.  Each family names the spec fields
# it reads and supplies g, its derivative dg, the pair (G, P) with P(s) =
# int_0^s t g(t) dt, the positive roots of g and its parameter check; each
# takes one log (or power) per node and kernel, and the log families share
# ln s^2 across the kernels at one Point, and g and g' share s^(p-2).


def _log_g(spec, x):
    g = spec.alpha * x.ln_s2 * x.mag
    if spec.mu != 0.0:
        g += spec.mu * x.s2_pow(0.5 * spec.p_exp - 1.0) * x.mag
    return g


def _log_dg(spec, x):
    dg = spec.alpha * (x.ln_s2 + 2.0)
    if spec.mu != 0.0:
        dg += spec.mu * (spec.p_exp - 1.0) * x.s2_pow(0.5 * spec.p_exp - 1.0)
    return dg


def _log_prims(spec, x):
    # in place after the first operation, which copies the shared ln s^2:
    # this is the inner loop of every energy evaluation
    s, s2 = x.mag, x.s2
    a = spec.alpha
    G = x.ln_s2 - 1.0
    G *= s2
    G *= 0.5 * a  # a s^2 (ln s^2 - 1) / 2
    P = G * (2.0 / 3.0)
    P += s2 * (a / 9.0)
    P *= s  # a s^3 (ln s^2 / 3 - 2/9)
    if spec.mu != 0.0:
        p = spec.p_exp
        ts2 = spec.mu * s2 ** (0.5 * p)  # mu*s^p
        G += ts2 * (1.0 / p)
        P += ts2 * s * (1.0 / (p + 1.0))
    return G, P


def _bisect(f, lo, hi, maxiter=2200):
    """Root of f in [lo, hi] by bisection, in plain Python so that the solve
    path never imports scipy.optimize.  It stops on an exact zero or when
    the bracket is two adjacent doubles, and returns the end with the
    smaller |f|; 2200 halvings shrink any finite bracket to adjacent doubles,
    so reaching the cap raises RuntimeError."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
        raise ValueError(f"f({lo}) and f({hi}) must have opposite signs")
    for _ in range(maxiter):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo if abs(flo) <= abs(fhi) else hi
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    raise RuntimeError(f"bisection did not converge in {maxiter} steps")


def _log_roots(spec):
    """Positive roots of g, ascending: the sign changes of h = g(t)/t, in
    [1e-18, 1] for mu > 0 and on either side of the peak t_star of h for
    mu < 0.  A root outside these brackets raises ValueError or
    ArithmeticError, and _check_log_power refuses such a spec."""
    a, mu, p = spec.alpha, spec.mu, spec.p_exp
    if mu == 0.0:
        return (1.0,)

    def h(t):
        return a * math.log(t * t) + mu * t ** (p - 2.0)

    if mu > 0.0:
        return (_bisect(h, 1e-18, 1.0),)
    t_star = (2.0 * a / (-mu * (p - 2.0))) ** (1.0 / (p - 2.0))
    if h(t_star) <= 0.0:
        return ()
    hi = t_star
    while h(hi) > 0.0:
        hi *= 2.0
    r2 = _bisect(h, t_star, hi)
    r1 = _bisect(h, 1e-18 * min(1.0, t_star), t_star)
    return (r1, r2)


def _check_log(spec):
    if not spec.alpha > 0:
        raise ValueError(f"{spec.family} family needs alpha > 0")


def _check_log_power(spec):
    _check_log(spec)
    top = spec.sobolev_critical_exp
    if not 2.0 < spec.p_exp <= top:
        raise ValueError(f"log_power needs 2 < p <= {top} for dim={spec.dim}")
    try:
        _log_roots(spec)
    except (ArithmeticError, ValueError):
        raise ValueError(f"log_power with alpha = {spec.alpha:g}, mu = {spec.mu:g} and "
                         f"p = {spec.p_exp:g}: the roots of g lie outside the brackets of "
                         "its root search") from None


def _check_sublinear(spec):
    if not 0.0 < spec.omega < 1.0:
        raise ValueError("power_sublinear needs 0 < omega < 1")


def _saturation_prims(spec, x):
    s, s2 = x.mag, x.s2
    return 0.5 * (s2 - np.log1p(s2)), s**3 / 3.0 - s + np.arctan(s)


def _sublinear_dg(spec, x):
    # floored like the log: the derivative is unbounded at 0, where the ramp
    # multiplies it by |s|/eps = 0
    w = spec.omega
    return -w * np.maximum(x.mag, _TINY) ** (w - 1.0)


def _sublinear_prims(spec, x):
    w, s = spec.omega, x.mag
    sw1 = -(s ** (w + 1.0))
    return sw1 / (w + 1.0), sw1 * s / (w + 2.0)


class _Family(NamedTuple):
    params: tuple    # the spec fields the family reads; the others keep their defaults
    g: Callable      # (spec, Point) -> g at |s|
    dg: Callable     # (spec, Point) -> g' at |s|
    prims: Callable  # (spec, Point) -> (G, P) at |s|
    roots: Callable  # spec -> positive roots of g, ascending
    check: Callable  # spec -> None; raises ValueError on bad parameters


_FAMILIES = {
    "log": _Family(("alpha",), _log_g, _log_dg, _log_prims, _log_roots, _check_log),
    "log_power": _Family(("alpha", "mu", "p_exp"), _log_g, _log_dg, _log_prims, _log_roots,
                         _check_log_power),
    "saturation": _Family((), lambda spec, x: x.mag**3 / (1.0 + x.s2),
                          lambda spec, x: x.s2 * (3.0 + x.s2) / (1.0 + x.s2) ** 2,
                          _saturation_prims, lambda spec: (), lambda spec: None),
    "power_sublinear": _Family(("omega",), lambda spec, x: -(x.mag**spec.omega),
                               _sublinear_dg, _sublinear_prims, lambda spec: (),
                               _check_sublinear),
}


def _positive_roots(spec):
    return _FAMILIES[spec.family].roots(spec)


class _SignStructure(NamedTuple):
    roots: np.ndarray     # sign changes of g on (0, inf)
    neg: np.ndarray       # g < 0 on interval j = [left_j, roots_j)
    gp_prefix: np.ndarray  # G_plus at left_j
    im_prefix: np.ndarray  # int_0^left_j t g_minus(t) dt
    G_left: np.ndarray    # G at left_j
    P_left: np.ndarray    # P at left_j


@functools.lru_cache(maxsize=128)
def _sign_structure(spec: NonlinearitySpec) -> _SignStructure:
    """Sign intervals of g on the half line and their prefix tables, built
    once per spec."""
    fam = _FAMILIES[spec.family]
    roots = np.asarray(fam.roots(spec), dtype=float)
    left = np.concatenate([[0.0], roots])
    right = np.append(roots, max(2.0 * left[-1], 1.0) * 10.0)
    mid = np.where(left > 0, np.sqrt(left * right), right / 2.0)
    neg = fam.g(spec, Point(mid)) <= 0.0
    G_left, P_left = fam.prims(spec, Point(left))
    gp = np.concatenate([[0.0], np.cumsum(np.where(neg[:-1], 0.0, np.diff(G_left)))])
    im = np.concatenate([[0.0], np.cumsum(np.where(neg[:-1], -np.diff(P_left), 0.0))])
    return _SignStructure(roots, neg, gp, im, G_left, P_left)


@functools.lru_cache(maxsize=256)
def _cutoff_table(spec: NonlinearitySpec, eps: float):
    """Constants of the fused regularized density for one (spec, eps).

    With m = min(|s|, eps), G_plus(s) - G_minus^eps(s) = G(|s|) + K(m), where
    on sign interval j K(m) = c_j + P(m)/eps - G(m) if g < 0 there and
    K(m) = c_j if g > 0.  Returns (c, K(eps), whether a root lies below eps).
    """
    st = _sign_structure(spec)
    c = st.gp_prefix - st.im_prefix / eps - np.where(st.neg, st.P_left / eps, st.G_left)
    j = int(np.searchsorted(st.roots, eps, side="right"))
    G_e, P_e = _FAMILIES[spec.family].prims(spec, Point(np.asarray([eps])))
    K = c[j] + (P_e[0] / eps - G_e[0] if st.neg[j] else 0.0)
    return c, float(K), bool(st.roots.size and st.roots[0] < eps)


def _as_array(s):
    arr = np.asarray(s, dtype=float)
    return arr, arr.ndim == 0


def _shaped(out, arr, scalar):
    return float(out[0]) if scalar else out.reshape(arr.shape)


def g_value(spec: NonlinearitySpec, s):
    return _apply(bind_eps(spec, 0.0).g, s)


def G_value(spec: NonlinearitySpec, s):
    return _apply(bind_eps(spec, 0.0).G, s)


def g_plus_value(spec: NonlinearitySpec, s):
    """Derivative of G_plus: keeps g where s*g(s) > 0, zero elsewhere."""
    arr, scalar = _as_array(s)
    flat = np.atleast_1d(arr)
    g = np.atleast_1d(g_value(spec, flat))
    out = np.where(flat * g > 0.0, g, 0.0)
    return _shaped(out, arr, scalar)


def G_plus_value(spec: NonlinearitySpec, s):
    arr, scalar = _as_array(s)
    x = Point(np.atleast_1d(arr))
    mag = x.mag
    st = _sign_structure(spec)
    j = np.searchsorted(st.roots, mag, side="right")
    G = _FAMILIES[spec.family].prims(spec, x)[0]
    out = np.where(st.neg[j], st.gp_prefix[j], st.gp_prefix[j] - st.G_left[j] + G)
    return _shaped(out, arr, scalar)


@dataclass
class SplitValues:
    g: object
    G: object
    G_plus: object
    G_minus: object
    g_plus: object
    g_minus: object


def eval_split(spec: NonlinearitySpec, s) -> SplitValues:
    """Pointwise nonlinearity, primitive and splittings at s (scalar or array)."""
    g = g_value(spec, s)
    G = G_value(spec, s)
    Gp = G_plus_value(spec, s)
    gp = g_plus_value(spec, s)
    return SplitValues(g=g, G=G, G_plus=Gp, G_minus=Gp - G, g_plus=gp, g_minus=gp - g)


def _check_eps(eps):
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")


def G_minus_eps(spec: NonlinearitySpec, s, eps: float):
    """Cutoff negative-part primitive int_0^s phi_eps(t) g_minus(t) dt, with
    the ramp phi_eps(t) = min(|t|/eps, 1).

    Nonnegative; differs from G_minus by a fixed deficit once |s| >= eps;
    decreases pointwise as eps grows.
    """
    _check_eps(eps)
    arr, scalar = _as_array(s)
    # read off the sign interval of |s|, so that no large G+ cancels: where
    # g < 0, G_minus = gp_j - G and int_0^m t g_minus = im_j - (P - P_j);
    # where g > 0 both are constant.  Beyond eps, G_minus^eps = G_minus - K.
    x = Point(np.atleast_1d(arr))
    mag = x.mag
    st = _sign_structure(spec)
    _, K, _ = _cutoff_table(spec, eps)
    j = np.searchsorted(st.roots, mag, side="right")
    neg = st.neg[j]
    G, P = _FAMILIES[spec.family].prims(spec, x)
    Gm = st.gp_prefix[j] - np.where(neg, G, st.G_left[j])
    ramp = (st.im_prefix[j] - np.where(neg, P - st.P_left[j], 0.0)) / eps
    return _shaped(np.where(mag < eps, ramp, Gm - K), arr, scalar)


class EpsKernels(NamedTuple):
    """G_eps, g_eps and g_eps' of one (spec, eps) as functions of a Point
    over a float array of any shape (eps = 0 gives G, g and g').  Kernels
    evaluated at the same Point share its |s|, s^2, ln s^2, g(|s|), mask
    |s| < eps and power (s^2)^k."""
    G: Callable
    g: Callable
    dg: Callable


@functools.lru_cache(maxsize=256)
def bind_eps(spec: NonlinearitySpec, eps: float) -> EpsKernels:
    """The regularized kernels of one (spec, eps), bound once: the family's
    half-line kernels and, for eps > 0, its sign structure and cutoff table
    (G_eps is one fused pass over |s|, see _cutoff_table).  A solver stage
    calls them on a Point over its bare nodal array; G_eps, g_eps and
    g_eps_prime wrap them for scalars and arrays of any shape."""
    fam = _FAMILIES[spec.family]
    if eps == 0.0:
        return EpsKernels(G=lambda x: fam.prims(spec, x)[0],
                          g=lambda x: np.sign(x.s) * x.half_g(spec),
                          dg=lambda x: fam.dg(spec, x))
    _check_eps(eps)
    eps = float(eps)
    st = _sign_structure(spec)
    c, K, split = _cutoff_table(spec, eps)
    neg0 = bool(st.neg[0])

    def G(x):
        Gm, P = fam.prims(spec, x)
        if split:
            # a root of g lies below eps, so the ramp spans several sign intervals
            j = np.searchsorted(st.roots, x.mag, side="right")
            low = c[j] + np.where(st.neg[j], P / eps, Gm)
        else:
            low = P / eps if neg0 else Gm  # c_0 = 0
        return np.where(x.below(eps), low, Gm + K)

    def g(x):
        s, mag = x.s, x.mag
        gs = np.sign(s) * x.half_g(spec)
        return np.where(s * gs > 0.0, gs, np.minimum(mag / eps, 1.0) * gs)

    def dg(x):
        out = fam.dg(spec, x)
        # the same branch as g: the ramp acts wherever s g(s) <= 0
        gm = x.half_g(spec)
        return np.where((gm <= 0.0) & x.below(eps), (gm + x.mag * out) / eps, out)

    return EpsKernels(G, g, dg)


def _apply(kernel, s):
    arr, scalar = _as_array(s)
    return _shaped(kernel(Point(np.atleast_1d(arr))), arr, scalar)


def g_eps(spec: NonlinearitySpec, s, eps: float):
    """Regularized right-hand side g_plus - phi_eps * g_minus (eps=0 gives g)."""
    return _apply(bind_eps(spec, eps).g, s)


def g_eps_prime(spec: NonlinearitySpec, s, eps: float):
    """Derivative of g_eps in s (eps=0 gives g'), even in s: where g <= 0 and
    |s| < eps it is g/eps + (|s|/eps) g', elsewhere g'."""
    return _apply(bind_eps(spec, eps).dg, s)


def G_eps(spec: NonlinearitySpec, s, eps: float):
    """Regularized primitive G_plus - G_minus^eps (eps=0 gives G) in one
    fused pass over |s|."""
    return _apply(bind_eps(spec, eps).G, s)


# ---------------------------------------------------------------------------
# thresholds for the log + power family


def mu_threshold(alpha: float, p: float) -> float:
    """Coefficient below which no finite-action normalized solution exists:
    -alpha*p/(p-2) * exp(-p/2)."""
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if not 2 < p < math.inf:
        raise ValueError("p must be finite and exceed 2")
    return -alpha * p / (p - 2.0) * math.exp(-p / 2.0)


def gtilde_max(alpha: float, mu: float, p: float) -> float:
    """Maximum over s > 0 of G(s)/s^2 for the log + power family with mu < 0.

    Its sign decides whether the primitive is ever positive; it vanishes
    exactly at mu = mu_threshold(alpha, p).
    """
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if not 2 < p < math.inf:
        raise ValueError("p must be finite and exceed 2")
    if not -math.inf < mu < 0:
        raise ValueError("gtilde_max is defined for finite mu < 0")
    x = alpha * p / (mu * (2.0 - p))
    return alpha / 2.0 * (2.0 / (p - 2.0) * math.log(x) - 1.0) - alpha / (p - 2.0)


def eta_coefficient(spec: NonlinearitySpec) -> float:
    """limsup at infinity of G_plus(s)/|s|^(2+4/N), exact for every family:
    but for log_power's term mu |s|^p / p (mu = 0 in the other families),
    G_plus grows at most like s^2 ln s^2."""
    if spec.mu <= 0:
        return 0.0
    if spec.mass_critical:
        return spec.mu / spec.p_exp
    return 0.0 if spec.p_exp < spec.mass_critical_exp else math.inf


# ---------------------------------------------------------------------------
# assumption report


@dataclass
class AssumptionReport:
    g0: str
    g1: str
    g2: str
    g3: str
    g4: str
    xi0: Optional[float]
    details: dict

    def verdicts(self) -> dict:
        return {"g0": self.g0, "g1": self.g1, "g2": self.g2,
                "g3": self.g3, "g4": self.g4}

    @property
    def any_fails(self) -> bool:
        return FAILS in self.verdicts().values()


@functools.lru_cache(maxsize=128)
@np.errstate(over="ignore", invalid="ignore")
def find_positive_level(spec: NonlinearitySpec) -> Optional[float]:
    """Smallest |s|, among 3000 samples and the roots of g, where the
    primitive G is safely positive; cached per spec, since every solver
    start seeds from it.  G' = g, so G peaks only at a root of g, and just
    above mu* its positive window is a neighbourhood of the larger root
    that the samples miss.  A sample where G overflows is a value, not a
    warning."""
    s = np.concatenate([np.logspace(-6, 6, 3000), _sign_structure(spec).roots])
    ok = G_value(spec, s) > 1e-14 * (1.0 + s**2)
    return float(s[ok].min()) if ok.any() else None


@np.errstate(over="ignore", invalid="ignore")
def check_assumptions(spec: NonlinearitySpec) -> AssumptionReport:
    """Verdicts on the hypotheses (g0)-(g4) of the paper.  Inconclusive is
    a verdict, not an error.

    (g0)-(g3) are decided from closed forms, with no sample of g:
    - (g0) continuity with g(0) = 0 and (g1) G_plus(s) = o(s^2) at 0 hold
      for every spec its family accepts: every g is continuous and odd with
      g(0) = 0, and G_plus vanishes near 0 (g < 0 on (0, r) for the log
      families, on the whole half line for power_sublinear) or behaves like
      s^4/4 (saturation);
    - (g2), the growth cap |g(s)| <= C(1 + |s|^(2*-1)), holds likewise: the
      log_power check enforces p <= 2*, every other g grows at most like
      |s| ln s^2, and for N = 2 every growth is subexponential;
    - (g3), mass-subcriticality of G_plus, holds exactly when
      eta_coefficient is 0.  A mass-critical mu > 0 fails it: existence
      then depends on rho (diagnostics.mass_condition).
    (g4), G > 0 somewhere, is sampled at 3000 points and the roots of g; a
    sample where G overflows is a value, not a warning.
    """
    g3 = HOLDS if eta_coefficient(spec) == 0.0 else FAILS
    # G' = g, so between samples G can only peak at a root of g
    s4 = np.concatenate([np.logspace(-6, 6, 3000), _sign_structure(spec).roots])
    gmax = float(np.max(G_value(spec, s4)))
    xi0 = find_positive_level(spec)
    if gmax > 0 and xi0 is not None:
        g4 = HOLDS
    elif gmax <= -1e-12:
        g4, xi0 = FAILS, None
    else:
        g4, xi0 = INCONCLUSIVE, None
    return AssumptionReport(g0=HOLDS, g1=HOLDS, g2=HOLDS, g3=g3, g4=g4, xi0=xi0,
                            details={"g4_max": gmax})
