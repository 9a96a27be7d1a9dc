"""N-function toolkit: Luxemburg norm on radial fields, the growth
conditions Delta_2 / Nabla_2 in index form, and the two-piece constructions
that match -alpha s^2 ln s^2 near the origin to a quadratic or power tail at
|s| = e^-3 with C^1 gluing.

An N-function A satisfies Delta_2 and Nabla_2 globally exactly when the
index s a(s)/A(s) has a finite sup and an inf above 1 over s > 0
(Krasnosel'skii-Rutickii; Rao & Ren, Theory of Orlicz Spaces).  Every
family has a closed form, so these bounds are exact, not sampled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .grid import RadialField
from .nonlinearity import _bisect

KNOT = math.exp(-3.0)


class OrliczError(RuntimeError):
    pass


@dataclass(frozen=True)
class NFunction:
    """An N-function A with derivative a: nonnegative, even, convex,
    A(s)/s -> 0 at 0 and -> infinity at infinity.

    Families: "log_matched" (log core, quadratic tail), "log_matched_power_tail"
    (log core, |s|^p tail) and "pure_q" (|s|^q/q, q > 1).  A field that the
    family does not read (_PARAMS) must keep its default.
    """

    family: str
    alpha: float = 1.0
    p_exp: float = 0.0
    q_exp: float = 0.0

    def __post_init__(self):
        if self.family not in _PARAMS:
            raise ValueError(f"unknown N-function family {self.family!r}")
        for f in fields(self)[1:]:  # past family
            if f.name not in _PARAMS[self.family] and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.family} does not take {f.name}")
        if self.family == "pure_q":
            # the natural range here is 1 < q < 2, but any finite q > 1 is a
            # valid N-function and the quadratic case is useful for testing
            if not 1 < self.q_exp < math.inf:
                raise ValueError("pure_q needs a finite q > 1")
        elif not 0 < self.alpha < math.inf:
            raise ValueError(f"{self.family} needs a finite alpha > 0")
        elif self.family == "log_matched_power_tail" and not 2 < self.p_exp < math.inf:
            raise ValueError("log_matched_power_tail needs a finite p > 2")

    @property
    def two_piece(self) -> bool:
        """A log core matched at KNOT to a tail (_TAILS)."""
        return self.family in _TAILS

    def A(self, s):
        arr = np.abs(np.asarray(s, dtype=float))
        scalar = arr.ndim == 0
        x = np.atleast_1d(arr)
        if self.two_piece:
            out = np.where(x < KNOT, _CORE[0](self, x), _TAILS[self.family][0](self, x))
        else:
            out = x**self.q_exp / self.q_exp
        return float(out[0]) if scalar else out.reshape(arr.shape)

    def a(self, s):
        arr = np.asarray(s, dtype=float)
        scalar = arr.ndim == 0
        x = np.atleast_1d(arr)
        mag = np.abs(x)
        if self.two_piece:
            out = np.where(mag < KNOT, _CORE[1](self, mag), _TAILS[self.family][1](self, mag))
        else:
            out = mag ** (self.q_exp - 1.0)
        out = out * np.sign(x)
        return float(out[0]) if scalar else out.reshape(arr.shape)


# the fields each family reads; the others keep their defaults
_PARAMS = {"log_matched": ("alpha",), "log_matched_power_tail": ("alpha", "p_exp"),
           "pure_q": ("q_exp",)}


def _xlog(x):
    out = np.zeros_like(x)
    nz = x > 1e-150
    out[nz] = x[nz] ** 2 * np.log(x[nz] ** 2)
    return out


def _safe_log2(x):
    out = np.full_like(x, -1.0)  # value irrelevant where masked by a zero factor
    nz = x > 1e-150
    out[nz] = np.log(x[nz] ** 2)
    return out


# the two-piece families on |s|: the log core -alpha s^2 ln s^2 below KNOT and
# each family's tail beyond it, as (A, a) pairs; A, a and knot_mismatch all
# read these formulas
_CORE = (lambda F, x: -F.alpha * _xlog(x),
         lambda F, x: -2 * F.alpha * x * (_safe_log2(x) + 1.0))
_TAILS = {
    "log_matched": (
        lambda F, x: 3 * F.alpha * x**2 + 4 * F.alpha * KNOT * x - F.alpha * KNOT**2,
        lambda F, x: 6 * F.alpha * x + 4 * F.alpha * KNOT),
    # in x/KNOT, so that no e^(3p) overflows: alpha KNOT^2 (10/p (x/KNOT)^p + 6 - 10/p)
    "log_matched_power_tail": (
        lambda F, x: F.alpha * KNOT**2 * (10 / F.p_exp * (x / KNOT) ** F.p_exp
                                          + 6 - 10 / F.p_exp),
        lambda F, x: 10 * F.alpha * KNOT * (x / KNOT) ** (F.p_exp - 1)),
}


def log_matched(alpha: float = 1.0) -> NFunction:
    return NFunction("log_matched", alpha=alpha)


def log_matched_power_tail(alpha: float, p: float) -> NFunction:
    return NFunction("log_matched_power_tail", alpha=alpha, p_exp=p)


def pure_q(q: float) -> NFunction:
    return NFunction("pure_q", q_exp=q)


def modular(field: RadialField, A: NFunction, kappa: float = 1.0) -> float:
    return float(np.dot(field.grid.w, A.A(field.values / kappa)))


# kappa range searched by luxemburg_norm
NORM_BRACKET = (1e-12, 1e12)


def luxemburg_norm(field: RadialField, A: NFunction) -> float:
    """inf{kappa > 0 : int A(u/kappa) <= 1}, by bisection of ln kappa on
    NORM_BRACKET, where the modular is strictly decreasing; 0 for the zero
    field.  A norm outside the bracket raises OrliczError."""
    if not np.any(field.values):
        return 0.0
    lo, hi = NORM_BRACKET
    with np.errstate(over="ignore"):
        if modular(field, A, hi) > 1.0:
            raise OrliczError(f"modular stays above 1 on the whole bracket "
                              f"[{lo:g}, {hi:g}]: the norm exceeds {hi:g}")
        if modular(field, A, lo) < 1.0:
            raise OrliczError(f"modular stays below 1 on the whole bracket "
                              f"[{lo:g}, {hi:g}]: the norm is below {lo:g}")
        log_kappa = _bisect(lambda x: modular(field, A, math.exp(x)) - 1.0,
                            math.log(lo), math.log(hi))
    return math.exp(log_kappa)


@dataclass
class GrowthReport:
    holds: bool
    c_delta: float
    c_nabla: float


# the exact (sup, inf) of s a(s)/A(s) over s > 0: the log core gives
# 2 + 2/ln s^2 in (5/3, 2); with y = s/KNOT the quadratic tail gives
# 1 + (3y^2 + 1)/(3y^2 + 4y - 1), least at y = (3 + sqrt 21)/6, and the power
# tail 10 y^p/(10/p y^p + 6 - 10/p), rising from 5/3 to p
_INDICES = {"pure_q": lambda A: (A.q_exp, A.q_exp),
            "log_matched": lambda A: (2.0, 1.0 + math.sqrt(3.0 / 7.0)),
            "log_matched_power_tail": lambda A: (A.p_exp, 5.0 / 3.0)}


@functools.lru_cache(maxsize=64)
def check_delta2_nabla2(A: NFunction) -> GrowthReport:
    """The exact sup and inf of s a(s)/A(s) over s > 0; Delta_2 and Nabla_2
    hold (for every accepted N-function) when the sup is finite and the inf > 1."""
    c_delta, c_nabla = _INDICES[A.family](A)
    return GrowthReport(holds=c_delta < math.inf and c_nabla > 1.0, c_delta=c_delta,
                        c_nabla=c_nabla)


def knot_mismatch(A: NFunction) -> tuple:
    """(value jump, derivative jump) of the two branch formulas at |s| = e^-3."""
    if not A.two_piece:
        raise ValueError("knot check applies to the two-piece families")
    k = np.array([KNOT])
    return tuple(float(tail(A, k)[0] - core(A, k)[0])
                 for core, tail in zip(_CORE, _TAILS[A.family]))
