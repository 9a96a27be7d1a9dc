import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnls import grid as gr
from subnls import orlicz as ox


@pytest.fixture(scope="module")
def small_grid():
    return gr.RadialGrid(3, 10.0, 400)


@pytest.fixture(scope="module")
def bump8(small_grid):
    u = gr.from_function(small_grid, lambda r: np.exp(-(r**2)))
    return gr.RadialField(small_grid, u.values * math.sqrt(8.0 / gr.mass(u)))


def test_luxemburg_quadratic(bump8):
    # A(s) = s^2/2 and int u^2 = 8: the modular equals 1 at kappa = 2
    assert ox.luxemburg_norm(bump8, ox.pure_q(2.0)) == pytest.approx(2.0, rel=1e-10)


@pytest.mark.parametrize("c", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_luxemburg_small_norm_precision(bump8, c):
    # int (c u)^2 = 8 c^2, so the pure_q(2) modular equals 1 at kappa = 2c
    norm = ox.luxemburg_norm(gr.RadialField(bump8.grid, c * bump8.values), ox.pure_q(2.0))
    assert norm == pytest.approx(2.0 * c, rel=1e-14, abs=0.0)


def test_luxemburg_zero(small_grid):
    assert ox.luxemburg_norm(gr.zeros(small_grid), ox.pure_q(1.5)) == 0.0


@pytest.mark.parametrize("amp,side", [(1e-14, "below"), (1e14, "above")])
def test_luxemburg_norm_outside_the_bracket(small_grid, amp, side):
    field = gr.from_function(small_grid, lambda r: amp * np.exp(-r))
    with pytest.raises(ox.OrliczError, match=f"stays {side} 1 on the whole bracket"):
        ox.luxemburg_norm(field, ox.pure_q(2.0))


def test_luxemburg_pure_power_closed_form(bump8):
    q = 1.5
    norm = ox.luxemburg_norm(bump8, ox.pure_q(q))
    integral = gr.integrate(bump8, lambda s: np.abs(s) ** q)
    assert norm == pytest.approx((integral / q) ** (1.0 / q), rel=1e-10)


def test_modular_equation_residual(bump8):
    for A in (ox.pure_q(1.5), ox.log_matched(1.0), ox.log_matched_power_tail(1.0, 3.0)):
        k = ox.luxemburg_norm(bump8, A)
        assert abs(ox.modular(bump8, A, k) - 1.0) <= 1e-8


def test_growth_ratios_pure_power():
    for q in (1.2, 1.5, 2.0, 3.0):
        rep = ox.check_delta2_nabla2(ox.pure_q(q))
        assert rep.holds
        assert rep.c_delta == pytest.approx(q, rel=1e-12)
        assert rep.c_nabla == pytest.approx(q, rel=1e-12)


def test_growth_ratio_log_matched_band():
    rep = ox.check_delta2_nabla2(ox.log_matched(1.0))
    assert rep.holds
    assert 1.0 < rep.c_nabla < rep.c_delta <= 2.0 + 1e-9
    # inner piece carries ratio 2 + 2/ln(s^2), checked symbolically
    A = ox.log_matched(1.0)
    for s in (1e-6, 1e-3, 2e-2):
        ratio = s * A.a(s) / A.A(s)
        assert ratio == pytest.approx(2.0 + 2.0 / math.log(s * s), rel=1e-12)


def test_nfunction_axioms_sampled():
    s = np.logspace(-8, 8, 200)
    for A in (ox.pure_q(1.5), ox.log_matched(0.7), ox.log_matched_power_tail(1.0, 4.0)):
        vals = np.atleast_1d(A.A(s))
        assert np.all(vals >= 0)
        assert np.allclose(A.A(-s), vals)  # even
        ratio = vals / s
        assert ratio[0] < 1e-3 and ratio[-1] > 1e3
        # A(s)/s^2 must blow up toward the origin (possibly only like |ln s^2|)
        assert float(A.A(1e-8)) / 1e-16 > 1.5 * float(A.A(1e-4)) / 1e-8 > 0


def test_convexity_of_s_a_s():
    s = np.linspace(-3.0, 3.0, 2001)
    for A in (ox.pure_q(1.5), ox.log_matched(1.0), ox.log_matched_power_tail(1.0, 3.0)):
        f = s * np.atleast_1d(A.a(s))
        second = f[:-2] - 2 * f[1:-1] + f[2:]
        assert np.min(second) >= -1e-9 * np.max(np.abs(f))


@pytest.mark.parametrize("family", ["log_matched", "log_matched_power_tail"])
def test_c1_gluing_at_knot(family):
    A = ox.log_matched(1.3) if family == "log_matched" else ox.log_matched_power_tail(1.3, 2.7)
    dval, dder = ox.knot_mismatch(A)
    assert abs(dval) <= 1e-10
    assert abs(dder) <= 1e-10


@pytest.mark.parametrize("A", [ox.log_matched(1.3), ox.log_matched_power_tail(0.8, 3.5)])
def test_knot_mismatch_reads_the_branches_in_use(A):
    # A and a take the tail at |s| = KNOT and the core just below it, so the
    # jumps reported are those of the formulas A and a evaluate
    below = np.nextafter(ox.KNOT, 0.0)
    dval, dder = ox.knot_mismatch(A)
    assert dval == pytest.approx(A.A(ox.KNOT) - A.A(below), abs=1e-15)
    assert dder == pytest.approx(A.a(ox.KNOT) - A.a(below), abs=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False).filter(lambda c: abs(c) > 1e-8),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_luxemburg_homogeneity(c, seed):
    g = gr.RadialGrid(3, 8.0, 120)
    rng = np.random.default_rng(seed)
    u = gr.RadialField(g, rng.normal(size=g.n) * np.exp(-g.r))
    A = ox.log_matched(1.0)
    n1 = ox.luxemburg_norm(gr.RadialField(g, c * u.values), A)
    n0 = ox.luxemburg_norm(u, A)
    assert n1 == pytest.approx(abs(c) * n0, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_luxemburg_homogeneity_small_scale(seed):
    # the property test above at c = 2e-8, without pytest.approx's absolute
    # floor of 1e-12, which alone would pass any norm of that size
    g = gr.RadialGrid(3, 8.0, 120)
    rng = np.random.default_rng(seed)
    u = gr.RadialField(g, rng.normal(size=g.n) * np.exp(-g.r))
    A = ox.log_matched(1.0)
    n1 = ox.luxemburg_norm(gr.RadialField(g, 2e-8 * u.values), A)
    assert n1 == pytest.approx(2e-8 * ox.luxemburg_norm(u, A), rel=1e-8, abs=0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_luxemburg_triangle(seed):
    g = gr.RadialGrid(3, 8.0, 120)
    rng = np.random.default_rng(seed)
    u = gr.RadialField(g, rng.normal(size=g.n) * np.exp(-g.r))
    v = gr.RadialField(g, rng.normal(size=g.n) * np.exp(-g.r / 2))
    A = ox.pure_q(1.7)
    s = ox.luxemburg_norm(gr.RadialField(g, u.values + v.values), A)
    assert s <= ox.luxemburg_norm(u, A) + ox.luxemburg_norm(v, A) + 1e-8 * (1 + s)


def test_norm_modular_consistency(small_grid):
    # along u_n -> u the norm of the difference and the modular of the
    # difference vanish together, both monotonically
    A = ox.log_matched(1.0)
    base = gr.from_function(small_grid, lambda r: np.exp(-r))
    norms, modulars = [], []
    for k in range(1, 7):
        diff = gr.RadialField(small_grid, base.values / (3.0**k))
        norms.append(ox.luxemburg_norm(diff, A))
        modulars.append(ox.modular(diff, A))
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert all(a > b for a, b in zip(modulars, modulars[1:]))
    assert norms[-1] < 1e-2 and modulars[-1] < 1e-2


def test_nfunction_validation():
    with pytest.raises(ValueError):
        ox.pure_q(1.0)
    with pytest.raises(ValueError):
        ox.log_matched(0.0)
    with pytest.raises(ValueError):
        ox.log_matched_power_tail(1.0, 2.0)
    with pytest.raises(ValueError, match="unknown N-function family 'custom'"):
        ox.NFunction("custom")
    # a field that the family does not read must keep its default
    with pytest.raises(ValueError, match="pure_q does not take alpha"):
        ox.NFunction("pure_q", alpha=5.0, q_exp=1.5)
