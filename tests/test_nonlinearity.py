import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from subnls import cli
from subnls import nonlinearity as nl

E = math.e

FAMILIES = [
    nl.logarithmic(1.0, dim=3),
    nl.logarithmic(2.5, dim=2),
    nl.log_power(1.0, 0.0, 4.0, dim=3),
    nl.log_power(1.0, 0.7, 3.0, dim=3),
    nl.log_power(1.0, -0.2, 4.0, dim=3),   # two sign changes of g
    nl.log_power(1.0, -0.5, 4.0, dim=3),   # below threshold, g <= 0 tail
    nl.saturation(dim=3),
    nl.power_sublinear(0.5, dim=3),
]


def test_split_log_at_e():
    sv = nl.eval_split(nl.logarithmic(1.0, dim=3), E)
    assert sv.G == pytest.approx(E**2 / 2, rel=1e-14, abs=0.0)
    assert sv.G_plus == pytest.approx(E**2 / 2 + 0.5, rel=1e-12)
    assert sv.G_minus == pytest.approx(0.5, rel=1e-12, abs=0.0)


def test_split_gplus_log_quadrature_oracle():
    # adaptive-quadrature oracle for the increasing part, cross-checked
    # against the antiderivative t^2 ln t - t^2/2 of t ln t^2 on [1, e]
    spec = nl.logarithmic(1.0, dim=3)
    oracle = quad(lambda t: max(t * math.log(t * t), 0.0), 0.0, E,
                  points=[1.0], limit=400, epsabs=1e-13)[0]
    antider = (E**2 * 1.0 - E**2 / 2) - (0.0 - 0.5)
    assert oracle == pytest.approx(antider, abs=1e-10)
    assert nl.G_plus_value(spec, E) == pytest.approx(oracle, abs=1e-10)


def test_split_at_zero_all_families():
    for spec in FAMILIES:
        sv = nl.eval_split(spec, 0.0)
        assert sv.g == sv.G == sv.G_plus == sv.G_minus == 0.0


def test_gme_power_sublinear_closed_form():
    spec = nl.power_sublinear(0.5, dim=3)
    assert nl.G_minus_eps(spec, 0.25, 0.25) == pytest.approx(0.05, rel=1e-12, abs=0.0)


def test_gme_zero_and_limit():
    spec = nl.logarithmic(1.0, dim=3)
    assert nl.G_minus_eps(spec, 0.0, 0.3) == 0.0
    s = 1.7
    target = nl.eval_split(spec, s).G_minus
    prev = -np.inf
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        val = nl.G_minus_eps(spec, s, eps)
        assert val >= prev  # monotone in decreasing eps
        prev = val
    assert prev == pytest.approx(target, rel=1e-10)


def test_gme_quadrature_oracle_two_roots():
    spec = nl.log_power(1.0, -0.2, 4.0, dim=3)

    def gm(t):
        g = nl.g_value(spec, t)
        return (g if t * g > 0 else 0.0) - g

    kinks = [r for r in nl._positive_roots(spec)]
    for s, eps in [(0.5, 0.3), (2.0, 0.1), (0.05, 0.1), (8.0, 0.7)]:
        pts = sorted({eps, *[r for r in kinks if r < s]})
        oracle = quad(lambda t: min(abs(t) / eps, 1.0) * gm(t), 0.0, s,
                      points=pts, limit=400, epsabs=1e-13, epsrel=1e-12)[0]
        assert nl.G_minus_eps(spec, s, eps) == pytest.approx(oracle, rel=1e-10, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_split_invariants_sampled(s):
    for spec in FAMILIES:
        sv = nl.eval_split(spec, s)
        scale = abs(sv.G) + abs(sv.G_plus) + 1.0
        assert sv.G_plus >= -1e-12 * scale
        assert sv.G_minus >= -1e-12 * scale
        assert sv.G_plus >= sv.G - 1e-12 * scale
        assert abs(sv.G_plus - sv.G_minus - sv.G) <= 1e-10 * scale
        # the decreasing part pulls against the sign of s
        assert s * sv.g_minus >= -1e-12 * scale


def test_split_oddness_vector():
    rng = np.random.default_rng(0)
    s = rng.normal(scale=3.0, size=200)
    for spec in FAMILIES:
        assert np.allclose(nl.g_value(spec, -s), -np.atleast_1d(nl.g_value(spec, s)), atol=1e-13)
        assert np.allclose(nl.G_value(spec, -s), np.atleast_1d(nl.G_value(spec, s)), atol=1e-13)
        assert np.allclose(nl.G_plus_value(spec, -s), np.atleast_1d(nl.G_plus_value(spec, s)),
                           atol=1e-13)


@pytest.mark.parametrize("eps,eps2", [(0.5, 0.1), (0.3, 0.02), (0.9, 0.5)])
def test_gme_monotone_in_eps(eps, eps2):
    rng = np.random.default_rng(1)
    s = rng.normal(scale=2.0, size=100)
    for spec in FAMILIES:
        hi = np.atleast_1d(nl.G_minus_eps(spec, s, eps2))
        lo = np.atleast_1d(nl.G_minus_eps(spec, s, eps))
        assert np.all(hi >= lo - 1e-12 * (1.0 + np.abs(hi)))


def test_gme_quadratic_bound_small_s():
    s = np.logspace(-9, 0, 200)
    for spec in FAMILIES:
        for eps in (0.5, 1e-2):
            ratio = np.atleast_1d(nl.G_minus_eps(spec, s, eps)) / s**2
            assert np.all(np.isfinite(ratio))
            assert np.max(ratio) < 1e3


def test_mu_threshold_values():
    assert nl.mu_threshold(1, 4) == pytest.approx(-2 * math.exp(-2), rel=1e-15, abs=0.0)
    assert nl.mu_threshold(2, 4) == pytest.approx(-4 * math.exp(-2), rel=1e-15, abs=0.0)
    assert nl.mu_threshold(1, 3) == pytest.approx(-3 * math.exp(-1.5), rel=1e-15, abs=0.0)
    with pytest.raises(ValueError):
        nl.mu_threshold(1, 2.0)
    with pytest.raises(ValueError):
        nl.mu_threshold(-1, 3.0)


def test_gtilde_max_at_threshold_grid():
    for alpha in (0.5, 1.0, 2.0, 5.0):
        for p in (2.5, 3.0, 4.0, 6.0, 8.0):
            mu = nl.mu_threshold(alpha, p)
            assert abs(nl.gtilde_max(alpha, mu, p)) <= 1e-10


def test_gtilde_max_sign_and_oracle():
    from scipy.optimize import minimize_scalar

    def oracle(alpha, mu, p):
        def neg(ls):
            s = math.exp(ls)
            return -(alpha / 2 * (math.log(s * s) - 1) + mu / p * s ** (p - 2))

        res = minimize_scalar(neg, bounds=(-20, 20), method="bounded",
                              options={"xatol": 1e-12})
        return -res.fun

    for alpha, mu, p in [(1.0, -0.1, 4.0), (1.0, -0.5, 4.0), (2.0, -0.3, 3.0)]:
        assert nl.gtilde_max(alpha, mu, p) == pytest.approx(oracle(alpha, mu, p), rel=1e-8)
    assert nl.gtilde_max(1.0, -0.1, 4.0) > 0
    assert nl.gtilde_max(1.0, -0.5, 4.0) < 0


def test_check_assumptions_examples():
    below = nl.check_assumptions(nl.log_power(1.0, -0.5, 4.0, dim=3))
    assert below.g4 == nl.FAILS
    spec = nl.log_power(1.0, 0.0, 4.0, dim=3)
    above = nl.check_assumptions(spec)
    assert above.g4 == nl.HOLDS
    assert above.xi0 is not None and nl.G_value(spec, above.xi0) > 0
    assert nl.G_value(spec, math.e) > 0  # e is itself a valid witness
    sat = nl.check_assumptions(nl.saturation(dim=3))
    assert all(v == nl.HOLDS for v in sat.verdicts().values())


def test_check_assumptions_growth_verdicts():
    # a positive power above 2 + 4/N: G_plus / s^(2+4/N) grows, so (g3) fails
    # while the (g2) growth cap p <= 2* holds
    supercritical = nl.check_assumptions(nl.log_power(1.0, 0.1, 4.0, dim=3))
    assert supercritical.g3 == nl.FAILS and supercritical.g2 == nl.HOLDS
    assert supercritical.any_fails
    # N = 2 has no 2*: (g2) holds for a subexponential growth, and details
    # holds only the (g4) maximum
    planar = nl.check_assumptions(nl.logarithmic(1.0, dim=2))
    assert planar.g2 == nl.HOLDS and set(planar.details) == {"g4_max"}
    # just above mu*, G is positive only on a window between the (g4)
    # samples around the larger root of g, where G peaks: that root is the
    # witness xi0, so (g4) holds
    for p, rel in [(4.0, 1e-8), (4.0, 2e-7), (3.0, 1e-6)]:
        mu_star = nl.mu_threshold(1.0, p)
        spec = nl.log_power(1.0, mu_star + rel * abs(mu_star), p, dim=3)
        near = nl.check_assumptions(spec)
        larger = nl._sign_structure(spec).roots[-1]
        assert near.g4 == nl.HOLDS and near.details["g4_max"] > 0, (p, rel)
        assert near.xi0 == nl.find_positive_level(spec) == larger, (p, rel)
        assert not near.any_fails


def test_check_assumptions_threshold_straddle():
    for alpha, p in [(1.0, 4.0), (2.0, 3.0), (0.5, 5.0)]:
        mu_star = nl.mu_threshold(alpha, p)
        for dmu, expect in [(1e-3, nl.HOLDS), (-1e-3, nl.FAILS)]:
            rep = nl.check_assumptions(nl.log_power(alpha, mu_star + dmu, p, dim=3))
            assert rep.g4 == expect, (alpha, p, dmu, rep.g4)


@pytest.mark.parametrize("spec", [
    nl.logarithmic(1.0, dim=3),
    nl.log_power(1.0, 0.999 * nl.mu_threshold(1.0, 4.0), 4.0, dim=3),  # two roots, near mu*
    nl.log_power(1.0, -0.05, 3.0, dim=3),                              # two roots
    nl.log_power(1.0, 0.7, 3.0, dim=3),                                # one root
], ids=["log", "near_threshold", "two_roots", "one_root"])
def test_g4_max_over_samples_and_roots(spec):
    # G' = g, so G peaks between the (g4) samples only at a root of g
    at_samples = np.max(nl.G_value(spec, np.logspace(-6, 6, 3000)))
    at_roots = np.max(nl.G_value(spec, nl._sign_structure(spec).roots))
    report = nl.check_assumptions(spec)
    assert report.details["g4_max"] == float(max(at_samples, at_roots))
    assert report.g4 == nl.HOLDS


def _check_exit(tmp_path, spec):
    # the INI key of p_exp is p; every other field is its own key
    keys = "".join(f"{'p' if f == 'p_exp' else f} = {getattr(spec, f)!r}\n"
                   for f in nl._FAMILIES[spec.family].params)
    cfg = tmp_path / "check.ini"
    cfg.write_text(f"[nonlinearity]\nfamily = {spec.family}\n{keys}[grid]\ndim = {spec.dim}\n"
                   f"[solver]\nrho = 1.0\n[output]\ndirectory = {tmp_path / 'o'}\n")
    return cli.main(["check", "--config", str(cfg)])


@pytest.mark.parametrize("spec, verdict, expect", [
    # g and G_plus overflow at the old growth samples, which read that as growth
    (nl.logarithmic(1e300, dim=3), "g3", nl.HOLDS),
    (nl.logarithmic(1e300, dim=3), "g2", nl.HOLDS),
    # G_plus / s^(2+4/N) decays like ln s^2 / s^(4/N): too slowly for 40 samples
    (nl.logarithmic(1.0, dim=5), "g3", nl.HOLDS),
    (nl.log_power(1.0, 0.7, 3.0, dim=3), "g3", nl.HOLDS),
    # g_plus / s is large at the small samples but G_plus = 0 below the root of g
    (nl.log_power(1.0, 1e8, 3.0, dim=3), "g1", nl.HOLDS),
    # |g| = s^0.05 falls to 0 too slowly for a sampled ratio
    (nl.power_sublinear(0.05, dim=3), "g0", nl.HOLDS),
    # mass-critical mu > 0: eta = mu/p is not 0
    (nl.log_power(1.0, 0.05, 10.0 / 3.0, dim=3), "g3", nl.FAILS),
], ids=["log_huge_alpha_g3", "log_huge_alpha_g2", "log_N5", "log_power_mu0.7",
        "log_power_mu1e8", "sublinear_omega0.05", "mass_critical"])
def test_check_assumptions_exact_verdicts(spec, verdict, expect):
    assert nl.check_assumptions(spec).verdicts()[verdict] == expect


@pytest.mark.parametrize("spec, rc", [
    (nl.logarithmic(1e300, dim=3), cli.EXIT_OK),
    (nl.log_power(1.0, 0.05, 10.0 / 3.0, dim=3), cli.EXIT_ASSUMPTION),
], ids=["log_huge_alpha", "mass_critical"])
def test_check_exit_code_from_exact_verdicts(tmp_path, spec, rc):
    assert _check_exit(tmp_path, spec) == rc
    payload = json.loads((tmp_path / "o" / "check.json").read_text())
    if rc == cli.EXIT_OK:
        assert set(payload["assumptions"].values()) == {nl.HOLDS}
    assert set(payload["details"]) == {"g4_max"}


def test_threshold_g4_holds_within_the_band_of_mu_star(tmp_path):
    # one double above mu*, G peaks at rounding level: (g4) is inconclusive,
    # and the analytic verdict is boundary within its 1e-12 band, where
    # g4_holds does not claim that mu > mu*
    spec = nl.log_power(1.0, math.nextafter(nl.mu_threshold(1.0, 4.0), 0.0), 4.0, dim=3)
    assert _check_exit(tmp_path, spec) == cli.EXIT_OK
    payload = json.loads((tmp_path / "o" / "check.json").read_text())
    assert payload["assumptions"]["g4"] == nl.INCONCLUSIVE
    assert payload["threshold"]["g4_holds"] is False
    assert payload["threshold"]["verdict"] == "boundary"
    # beyond the band, mu > mu* is claimed
    spec = nl.log_power(1.0, nl.mu_threshold(1.0, 4.0) + 2e-12, 4.0, dim=3)
    _check_exit(tmp_path, spec)
    payload = json.loads((tmp_path / "o" / "check.json").read_text())
    assert payload["threshold"]["g4_holds"] is True
    assert payload["threshold"]["verdict"] == "exists_large_rho"


@pytest.mark.parametrize("spec", [
    nl.logarithmic(1.0, dim=3),
    nl.log_power(1.0, 0.7, 6.0, dim=3),  # p = 2*: the growth cap is sharp
    nl.saturation(dim=3),
    nl.power_sublinear(0.5, dim=3),
], ids=["log", "log_power", "saturation", "power_sublinear"])
def test_closed_form_verdicts_hold_numerically(spec):
    # the facts behind (g0)-(g2) holding for every accepted spec
    small = np.logspace(-1, -250, 250)  # descending to 0
    g = np.abs(nl.g_value(spec, small))
    assert np.all(np.diff(g) <= 0.0) and g[-1] < 1e-100               # g(s) -> 0
    ratio = nl.G_plus_value(spec, small[:60]) / small[:60] ** 2
    assert np.all(np.diff(ratio) <= 0.0) and ratio[-1] < 1e-100       # G_plus = o(s^2)
    big = np.logspace(-3, 50, 600)
    cap = np.abs(nl.g_value(spec, big)) / (1.0 + big ** (spec.sobolev_critical_exp - 1.0))
    assert np.all(np.isfinite(cap))
    assert cap[big >= 10.0].max() <= cap[big <= 10.0].max()           # |g| <= C(1 + s^(2*-1))


def test_eta_coefficient():
    dim = 3
    pc = 2 + 4 / dim
    crit = nl.eta_coefficient(nl.log_power(1.0, 0.6, pc, dim=dim))
    assert crit == pytest.approx(0.6 / pc, rel=1e-14, abs=0.0)
    # 10/3 is the next double above 2 + 4/3 and still the critical exponent
    assert 10.0 / 3.0 != pc
    crit = nl.eta_coefficient(nl.log_power(1.0, 0.6, 10.0 / 3.0, dim=dim))
    assert crit == pytest.approx(0.18, rel=1e-14, abs=0.0)
    sub = nl.eta_coefficient(nl.log_power(1.0, 0.6, 3.0, dim=dim))
    assert sub == 0.0
    assert nl.eta_coefficient(nl.logarithmic(1.0, dim=dim)) == 0.0
    assert math.isinf(nl.eta_coefficient(nl.log_power(1.0, 0.6, 4.0, dim=dim)))


def test_threshold_report(tmp_path):
    # the threshold block of check.json for a log_power spec
    cfg = tmp_path / "thr.ini"
    cfg.write_text("[nonlinearity]\nfamily = log_power\nalpha = 1.0\nmu = -0.1\np = 4.0\n"
                   "[grid]\ndim = 3\n[solver]\nrho = 1.0\n"
                   f"[output]\ndirectory = {tmp_path / 'o'}\n")
    assert cli.main(["check", "--config", str(cfg)]) == cli.EXIT_OK
    payload = json.loads((tmp_path / "o" / "check.json").read_text())
    rep = payload["threshold"]
    assert rep["mu_star"] == pytest.approx(-2 * math.exp(-2))
    assert rep["g4_holds"] and payload["xi0"] is not None
    assert rep["gtilde_max"] > 0
    assert rep["eta"] == 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        nl.log_power(1.0, 0.0, 8.0, dim=3)  # beyond the Sobolev exponent
    nl.log_power(1.0, 0.0, 8.0, dim=2)      # fine in the plane
    with pytest.raises(ValueError):
        nl.power_sublinear(1.5, dim=3)
    for dim in (1, math.inf, math.nan):
        with pytest.raises(ValueError):
            nl.logarithmic(1.0, dim=dim)
    # a field that the family does not read must keep its default: the log
    # kernels would read this mu
    with pytest.raises(ValueError, match="log does not take mu"):
        nl.NonlinearitySpec("log", 3, mu=0.5)


@pytest.mark.parametrize("args,dim", [((math.inf, 0.0, 4.0), 3), ((math.nan, 0.0, 4.0), 3),
                                      ((1.0, math.nan, 4.0), 3), ((1.0, -math.inf, 4.0), 3),
                                      ((1.0, 0.1, math.inf), 2), ((1.0, 0.1, math.nan), 2)],
                         ids=["alpha_inf", "alpha_nan", "mu_nan", "mu_minus_inf",
                              "p_inf_plane", "p_nan_plane"])
def test_log_power_needs_finite_parameters(args, dim):
    with pytest.raises(ValueError):
        nl.log_power(*args, dim=dim)
    alpha, mu, p = args
    if not (math.isfinite(alpha) and math.isfinite(p)):
        with pytest.raises(ValueError):
            nl.mu_threshold(alpha, p)
    with pytest.raises(ValueError):
        nl.gtilde_max(alpha, -abs(mu) or -0.1, p)


def test_spec_exponents():
    assert nl.logarithmic(dim=2).sobolev_critical_exp == math.inf
    spec = nl.log_power(1.0, 0.1, 10.0 / 3.0, dim=3)
    assert spec.sobolev_critical_exp == 6.0 and spec.mass_critical_exp == 2.0 + 4.0 / 3.0
    assert spec.mass_critical  # 10/3 is the next double above 2 + 4/3
    assert not nl.log_power(1.0, 0.1, 3.0, dim=3).mass_critical
    assert nl.log_power(1.0, 0.1, 6.0, dim=3).p_exp == spec.sobolev_critical_exp


MU_STAR = nl.mu_threshold(1.0, 4.0)


def _xlog(t):
    return t * math.log(t * t) if t > 0.0 else 0.0


# (spec, g on the half line written independently of the module)
FUSED_CASES = {
    "log": (nl.logarithmic(1.5, dim=3), lambda t: 1.5 * _xlog(t)),
    "log_power_p3": (nl.log_power(1.0, 0.7, 3.0, dim=3), lambda t: _xlog(t) + 0.7 * t * t),
    # mu = 2 mu*: g < 0 on the whole half line
    "log_power_no_root": (nl.log_power(1.0, 2 * MU_STAR, 4.0, dim=3),
                          lambda t: _xlog(t) + 2 * MU_STAR * t**3),
    # roots 1.027 and 9.487
    "log_power_two_roots": (nl.log_power(1.0, -0.05, 4.0, dim=3),
                            lambda t: _xlog(t) - 0.05 * t**3),
    # root 0.04997, below eps = 0.1
    "log_power_small_root": (nl.log_power(1.0, 2400.0, 4.0, dim=3),
                             lambda t: _xlog(t) + 2400.0 * t**3),
    "saturation": (nl.saturation(dim=3), lambda t: t**3 / (1.0 + t * t)),
    "power_sublinear": (nl.power_sublinear(0.5, dim=3), lambda t: -math.sqrt(t)),
}
FUSED_S = [1e-5, 2e-4, 0.02, 0.04, 0.07, 0.3, 1.0, 1.5, 4.0, 9.0, 12.0]


def _g_eps_oracle(g, t, eps):
    # g_plus - phi_eps * g_minus on t >= 0
    gt = g(t)
    return gt if gt > 0.0 else min(t / eps, 1.0) * gt


@pytest.mark.parametrize("name", sorted(FUSED_CASES))
@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-4])
def test_fused_G_eps_quadrature_oracle(name, eps):
    spec, g = FUSED_CASES[name]
    roots = nl._positive_roots(spec)
    for s in FUSED_S:
        pts = sorted({p for p in (eps, *roots) if p < s})
        oracle = quad(lambda t: _g_eps_oracle(g, t, eps), 0.0, s, points=pts or None,
                      limit=400, epsabs=1e-14, epsrel=1e-13)[0]
        for x in (s, -s):
            assert nl.G_eps(spec, x, eps) == pytest.approx(oracle, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("name", sorted(FUSED_CASES))
@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-4])
def test_fused_g_eps_oracle(name, eps):
    spec, g = FUSED_CASES[name]
    s = np.array(FUSED_S)
    oracle = np.array([_g_eps_oracle(g, t, eps) for t in FUSED_S])
    assert np.allclose(nl.g_eps(spec, s, eps), oracle, rtol=1e-10, atol=1e-10)
    assert np.allclose(nl.g_eps(spec, -s, eps), -oracle, rtol=1e-10, atol=1e-10)


def test_fused_kernel_sign_interval_paths():
    # the small-root case is the only one whose ramp crosses a root of g
    small_root = FUSED_CASES["log_power_small_root"][0]
    assert nl._positive_roots(small_root)[0] == pytest.approx(0.04997, abs=1e-5)
    assert nl._cutoff_table(small_root, 0.1)[2]
    assert not nl._cutoff_table(small_root, 0.01)[2]
    assert nl._positive_roots(FUSED_CASES["log_power_no_root"][0]) == ()
    two = nl._positive_roots(FUSED_CASES["log_power_two_roots"][0])
    assert two == pytest.approx((1.027, 9.487), abs=1e-3)



def test_gme_constant_beyond_last_root():
    # g > 0 beyond the root 0.04997, so G_minus^eps stops growing there; a
    # value formed as G+ - (G+ - G-^eps) drifts with the size of G+ instead
    spec = nl.log_power(1.0, 2400.0, 4.0, dim=3)
    s = np.concatenate([np.geomspace(0.06, 15.8, 200), -np.geomspace(0.06, 15.8, 7)])
    for eps in (1e-1, 1e-2, 1e-4):
        vals = np.atleast_1d(nl.G_minus_eps(spec, s, eps))
        assert vals[0] > 0.0
        assert np.ptp(vals) <= 1e-13 * vals[0]


def _h_log_power(a, mu, p):
    # g(t) / t for t > 0, written exactly as _log_roots evaluates it
    return lambda t: a * math.log(t * t) + mu * t ** (p - 2.0)


@pytest.mark.parametrize("a,mu,p,count", [
    (0.5, 2400.0, 2.5, 1),
    (1.0, 2400.0, 4.0, 1),
    (1.0, 0.7, 3.0, 1),
    (2.0, 1e-3, 3.0, 1),
    (1.0, -0.2, 4.0, 2),
    (1.0, -0.05, 3.0, 2),
    (0.3, -1e-4, 2.5, 2),
])
def test_log_power_roots_to_the_last_double(a, mu, p, count):
    # each root is an exact zero of h or the sign of h flips between it and
    # a neighbouring double: the bracket cannot be made any tighter
    h = _h_log_power(a, mu, p)
    roots = nl._positive_roots(nl.log_power(a, mu, p, dim=3))
    assert len(roots) == count
    for r in roots:
        hr = h(r)
        below, above = h(np.nextafter(r, 0.0)), h(np.nextafter(r, np.inf))
        assert hr == 0.0 or (hr < 0.0) != (below < 0.0) or (hr < 0.0) != (above < 0.0), (r, hr)


def test_bisect_endpoints_signs_and_cap():
    assert nl._bisect(lambda t: t - 2.0, 2.0, 5.0) == 2.0
    assert nl._bisect(lambda t: t - 5.0, 2.0, 5.0) == 5.0
    with pytest.raises(ValueError, match="opposite signs"):
        nl._bisect(lambda t: t * t + 1.0, -1.0, 1.0)
    r = nl._bisect(lambda t: t * t - 2.0, 0.0, 2.0)
    assert r == math.sqrt(2.0) or abs(r - math.sqrt(2.0)) == np.spacing(math.sqrt(2.0))
    # the root 1/3 is not a double, so 10 halvings cannot end the search
    with pytest.raises(RuntimeError, match="10 steps"):
        nl._bisect(lambda t: 3.0 * t - 1.0, 0.0, 1.0, maxiter=10)


@pytest.mark.parametrize("name", sorted(FUSED_CASES))
@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-4])
def test_g_eps_prime_central_difference(name, eps):
    # on both sides of eps and of every root of g, where g_eps' jumps
    spec, _ = FUSED_CASES[name]
    kinks = (eps, *nl._positive_roots(spec))
    s = np.array(sorted(FUSED_S + [k * f for k in kinks for f in (0.97, 1.03)]))
    d = 1e-6 * s
    fd = (nl.g_eps(spec, s + d, eps) - nl.g_eps(spec, s - d, eps)) / (2.0 * d)
    assert np.allclose(nl.g_eps_prime(spec, s, eps), fd, rtol=1e-6, atol=1e-8)
    # even in s, and a scalar in gives a scalar out
    assert np.array_equal(nl.g_eps_prime(spec, -s, eps), nl.g_eps_prime(spec, s, eps))
    assert isinstance(nl.g_eps_prime(spec, 0.5, eps), float)


def test_g_eps_prime_closed_forms():
    # the unregularized g' of each family, and the ramp at s = 0
    t = np.array([0.2, 1.0, 3.0])
    lp = nl.log_power(1.5, 0.7, 3.0, dim=3)
    assert np.allclose(nl.g_eps_prime(lp, t, 0.0),
                       1.5 * (np.log(t * t) + 2.0) + 0.7 * 2.0 * t, rtol=1e-14)
    assert np.allclose(nl.g_eps_prime(nl.saturation(dim=3), t, 0.0),
                       (3 * t**2 + t**4) / (1 + t * t) ** 2, rtol=1e-14)
    assert np.allclose(nl.g_eps_prime(nl.power_sublinear(0.5, dim=3), t, 0.0),
                       -0.5 / np.sqrt(t), rtol=1e-14)
    for spec, _ in FUSED_CASES.values():
        assert nl.g_eps_prime(spec, 0.0, 1e-2) == 0.0


def test_point_keeps_its_shared_values_per_eps_and_exponent():
    # one Point evaluated under two cutoffs and under two exponents p: its
    # kept mask |s| < eps and power (s^2)^(p/2 - 1) are keyed, so every
    # value is the one a fresh Point gives, bit for bit
    s = np.array([-0.5, -0.05, -0.005, 0.0, 0.005, 0.05, 0.5, 2.0])
    shared = nl.Point(s)
    specs = [nl.log_power(1.0, 0.7, 3.0, dim=3), nl.log_power(1.0, 0.7, 4.0, dim=3)]
    for spec in specs:
        for eps in (0.1, 0.01):
            kern = nl.bind_eps(spec, eps)
            for f in kern:
                got, fresh = f(shared), f(nl.Point(s))
                assert got.tobytes() == fresh.tobytes(), (spec.p_exp, eps, f)
