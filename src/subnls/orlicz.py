"""N-function toolkit: Luxemburg norm on radial fields, growth-condition
(Delta_2 / Nabla_2) verification through the ratio s A'(s)/A(s), and the
two-piece constructions that match -alpha s^2 ln s^2 near the origin to a
quadratic or power tail at |s| = e^-3 with C^1 gluing.

Growth verdicts are sampled on |s| in [1e-8, 1e8]; a global analytic
certificate is outside what sampling can deliver, so reports carry the
sampled range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .grid import RadialField
from .nonlinearity import _bisect

KNOT = math.exp(-3.0)

SAMPLED_RANGE = (1e-8, 1e8)


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
    "log_matched_power_tail": (
        lambda F, x: (10 * F.alpha / F.p_exp * math.exp(3 * F.p_exp - 6) * x**F.p_exp
                      + 2 * F.alpha * (3 - 5 / F.p_exp) * KNOT**2),
        lambda F, x: 10 * F.alpha * math.exp(3 * F.p_exp - 6) * x ** (F.p_exp - 1)),
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
    sampled_range: tuple


@functools.lru_cache(maxsize=64)
def check_delta2_nabla2(A: NFunction) -> GrowthReport:
    """Empirical growth constants sup and inf of s a(s)/A(s) over the
    sampled range; the verdict fails when the sup diverges or the inf is
    not above 1.
    """
    s = np.logspace(math.log10(SAMPLED_RANGE[0]), math.log10(SAMPLED_RANGE[1]), 4000)
    ratio = s * np.atleast_1d(A.a(s)) / np.atleast_1d(A.A(s))
    c_delta = float(np.max(ratio))
    c_nabla = float(np.min(ratio))
    ok = np.all(np.isfinite(ratio)) and c_nabla > 1.0
    return GrowthReport(holds=bool(ok), c_delta=c_delta, c_nabla=c_nabla,
                        sampled_range=SAMPLED_RANGE)


def knot_mismatch(A: NFunction) -> tuple:
    """(value jump, derivative jump) of the two branch formulas at |s| = e^-3."""
    if not A.two_piece:
        raise ValueError("knot check applies to the two-piece families")
    k = np.array([KNOT])
    return tuple(float(tail(A, k)[0] - core(A, k)[0])
                 for core, tail in zip(_CORE, _TAILS[A.family]))
