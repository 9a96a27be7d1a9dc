"""Stage and limit records are built from the solver's own last evaluations
(bound once per stage by nonlinearity.bind_eps).  They must equal, with no
tolerance, what the public functions compute afresh on the returned field,
and the bound kernels, alone or sharing one point's |s|, s^2 and ln s^2,
must equal the public G_eps, g_eps and g_eps_prime."""

import numpy as np
import pytest

from subnls import diagnostics as dg
from subnls import grid as gr
from subnls import minimizer as mz
from subnls import nonlinearity as nl

DIMS = (2, 3, 4)


def specs(dim):
    # log_power mu < 0 has two roots of g, both above every eps here; the
    # large mu > 0 puts the root at 0.05, below eps = 0.1, so the cutoff ramp
    # spans two sign intervals (the split path)
    return {
        "log": nl.logarithmic(1.0, dim=dim),
        "saturation": nl.saturation(dim=dim),
        "power_sublinear": nl.power_sublinear(0.5, dim=dim),
        "log_power_mu_pos": nl.log_power(1.0, 0.7, 3.0, dim=dim),
        "log_power_mu_neg": nl.log_power(1.0, -0.05, 4.0, dim=dim),
        "log_power_small_root": nl.log_power(1.0, 2400.0, 4.0, dim=dim),
    }


CASES = [(dim, name) for dim in DIMS for name in specs(dim)]
RHO = {"log_power_small_root": 2.0, "power_sublinear": 3.0}


def fresh_record(res, spec):
    """(energy, lam, kinetic, bundle) of res.u recomputed by the public
    functions."""
    u = res.u
    lam = mz.extract_lambda(u, spec, res.eps) if res.mass > 0 else 0.0
    return (mz.energy_eps(u, spec, res.eps), lam, gr.kinetic(u),
            dg.residual_bundle(u, lam, res.eps, spec))


@pytest.mark.parametrize("dim, name", CASES)
def test_records_equal_fresh_evaluation(dim, name):
    spec = specs(dim)[name]
    cfg = mz.SolveConfig(spec=spec, rho=RHO.get(name, 12.0), r_max=12.0, n=150,
                         eps_schedule=(1e-1, 1e-2), max_iter=20000)
    res = mz.continuation(cfg)
    for rec in res.stages + [res.limit]:
        energy, lam, kin, bundle = fresh_record(rec, spec)
        assert rec.energy == energy
        assert rec.lam == lam
        assert rec.kinetic == kin
        assert rec.bundle == bundle
    if name == "log_power_small_root":
        assert nl._cutoff_table(spec, res.stages[0].eps)[2]


@pytest.mark.parametrize("dim, name", CASES)
@pytest.mark.parametrize("eps", [0.0, 1e-1, 1e-3])
def test_bound_kernels_equal_public_functions(dim, name, eps):
    spec = specs(dim)[name]
    kern = nl.bind_eps(spec, eps)
    t = np.concatenate([[0.0, 1e-300, 1e-9], np.logspace(-4, 2, 61), [eps, 0.04997, 1.0]])
    s = np.concatenate([t, -t])
    public = {"G": nl.G_eps, "g": nl.g_eps, "dg": nl.g_eps_prime}
    # the one-pass paths, in the solver's order (a trial's G_eps, the
    # accepted point's g_eps, the next Newton Jacobian's g_eps'): one Point
    # shared by the three kernels, and a stage evaluating one array
    shared = nl.Point(s)
    stage = mz._bind_stage(gr.RadialGrid(dim, 10.0, s.size), spec, eps)
    stage_out = {"G": stage.energy(s)[1], "g": stage.g(s), "dg": stage.dg(s)}
    for field, fn in public.items():
        bound = getattr(kern, field)(nl.Point(s))
        assert np.array_equal(fn(spec, s, eps), bound)
        assert np.array_equal(getattr(kern, field)(shared), bound)
        assert np.array_equal(stage_out[field], bound)
        assert np.array_equal(fn(spec, s.reshape(2, -1), eps), bound.reshape(2, -1))
        assert np.array_equal(fn(spec, list(s), eps), bound)
        for x, b in zip(s[::7], bound[::7]):
            out = fn(spec, float(x), eps)
            assert type(out) is float and out == b
    if eps == 0.0:
        assert np.array_equal(nl.G_value(spec, s), kern.G(nl.Point(s)))
        assert np.array_equal(nl.g_value(spec, s), kern.g(nl.Point(s)))


def test_bind_eps_rejects_bad_eps(log_spec3):
    for eps in (1.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="eps must lie in"):
            nl.bind_eps(log_spec3, eps)
