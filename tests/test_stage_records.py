"""Stage and limit records are built from the solver's own last evaluations
(bound once per stage by nonlinearity.bind_eps, through one per-array cache
per continuation).  They must equal, with no tolerance, what the public
functions compute afresh on the returned field; the bound kernels, alone or
sharing one point's |s|, s^2, ln s^2 and g(|s|), must equal the public
G_eps, g_eps and g_eps_prime; the cache must compute each array's
quantities once; and the double-precision energy sum must match an exactly
rounded one."""

import math

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
    stage = mz._bind_stage(mz._Fields(gr.RadialGrid(dim, 10.0, s.size)), spec, eps)
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


def spy_computations(monkeypatch):
    """Lists of the arrays at which the solver and the grid compute ln s^2
    (nl.Point), face differences, kinetic terms and Laplacians, and of
    whether each Laplacian was handed its array's face differences."""
    seen = {"ln_s2": [], "differences": [], "kinetic": [], "laplacian": [],
            "laplacian_given_differences": []}
    real_ln_s2 = nl.Point.ln_s2.fget

    def ln_s2(x):
        if x._ln_s2 is None:
            seen["ln_s2"].append(x.s)
        return real_ln_s2(x)

    def recorded(name, fn):
        def spy(grid, vals, *d):
            seen[name].append(vals)
            if name == "laplacian":
                seen["laplacian_given_differences"].append(bool(d))
            return fn(grid, vals, *d)
        return spy

    monkeypatch.setattr(nl.Point, "ln_s2", property(ln_s2))
    for module in (mz, gr):
        for name, attr in (("differences", "face_differences"),
                           ("kinetic", "kinetic_values"),
                           ("laplacian", "laplacian_values")):
            monkeypatch.setattr(module, attr, recorded(name, getattr(gr, attr)))
    return seen


@pytest.mark.parametrize("mu, rho", [(0.0, 20.0), (2.0 * nl.mu_threshold(1.0, 4.0), 10.0)],
                         ids=["newton_finish", "collapse"])
def test_each_array_is_evaluated_once_per_continuation(mu, rho, monkeypatch):
    # one cache serves a continuation: the trials, the seeds, the stage
    # records, the next stage's start and the eps = 0 limit compute ln s^2,
    # the face differences and the kinetic term at most once per distinct
    # array (the lists hold every array, so no id is reused), and each
    # gradient evaluation builds its Laplacian from those differences
    seen = spy_computations(monkeypatch)
    energies = []
    real_bind = mz._bind_stage

    def bind(fields, spec, eps):
        stage = real_bind(fields, spec, eps)

        def energy(vals):
            energies.append(vals)
            return stage.energy(vals)
        return stage._replace(energy=energy)

    monkeypatch.setattr(mz, "_bind_stage", bind)
    spec = nl.log_power(1.0, mu, 4.0, dim=3)
    cfg = mz.SolveConfig(spec=spec, rho=rho, r_max=16.0, n=300,
                         eps_schedule=(1e-1, 1e-2, 1e-3))
    res = mz.continuation(cfg, rng=np.random.default_rng(3))
    for name in ("ln_s2", "differences", "kinetic"):
        arrays = seen[name]
        assert len({id(a) for a in arrays}) == len(arrays), name
    assert len(seen["laplacian"]) == res.limit.grad_evals
    assert all(seen["laplacian_given_differences"])
    # the limit evaluates the last stage's array, and a stage whose field
    # lies in the disc hands that very array on as the next stage's start:
    # each is evaluated twice and computed once
    finals = [s.u.values for s in res.stages]
    assert res.limit.u.values is finals[-1]
    handed_on = [vals for vals in finals[:-1]
                 if float(np.dot(res.limit.u.grid.w, vals * vals)) <= rho * rho]
    assert handed_on
    for vals in handed_on + finals[-1:]:
        assert sum(a is vals for a in energies) >= 2
        for name in ("ln_s2", "differences", "kinetic"):
            assert sum(a is vals for a in seen[name]) == 1, name


def test_stage_energy_sums_to_double_precision():
    # the energy is summed in double precision: on the Gausson at rho = 20
    # it matches an exactly rounded sum (math.fsum) of w G_eps plus the
    # kinetic term to 1e-14, at every eps of the default schedule and at 0
    spec = nl.logarithmic(1.0, dim=3)
    for n in (1000, 8000):
        grid = gr.RadialGrid(3, 20.0, n)
        u = gr.RadialField(grid, 20.0 * np.pi ** -0.75 * np.exp(-grid.r ** 2 / 2.0))
        for eps in mz.DEFAULT_EPS_SCHEDULE + (0.0,):
            dens = nl.G_eps(spec, u.values, eps)
            ref = 0.5 * gr.kinetic(u) - math.fsum(grid.w * dens)
            assert mz.energy_eps(u, spec, eps) == pytest.approx(ref, rel=1e-14, abs=0.0)
