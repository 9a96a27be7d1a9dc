import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnls import grid as gr

PI32 = math.pi ** 1.5


@pytest.fixture(scope="module")
def gauss3(grid3):
    return gr.from_function(grid3, lambda r: np.exp(-(r**2) / 2.0))


def test_mass_zero_field(grid3):
    assert gr.mass(gr.zeros(grid3)) == 0.0


def test_mass_gaussian(grid3, gauss3):
    assert gr.mass(gauss3) == pytest.approx(PI32, rel=1e-4, abs=0.0)


def test_mass_doubling(gauss3):
    doubled = gr.RadialField(gauss3.grid, 2.0 * gauss3.values)
    assert gr.mass(doubled) == pytest.approx(4.0 * gr.mass(gauss3), rel=1e-14, abs=0.0)


def test_kinetic_gaussian(gauss3):
    assert gr.kinetic(gauss3) == pytest.approx(1.5 * PI32, rel=1e-3, abs=0.0)


def test_kinetic_dilation_scaling():
    # same nodal values on a grid shrunk by lam: kinetic scales as lam^(2-N)
    for dim in (2, 3, 4):
        g1 = gr.RadialGrid(dim, 12.0, 300)
        vals = np.exp(-g1.r)
        lam = 2.5
        g2 = gr.RadialGrid(dim, 12.0 / lam, 300)
        k1 = gr.kinetic(gr.RadialField(g1, vals))
        k2 = gr.kinetic(gr.RadialField(g2, vals))
        assert k2 == pytest.approx(lam ** (2 - dim) * k1, rel=1e-12, abs=0.0)


def test_kinetic_flat_region_contributes_nothing():
    # plateau with a cosine skirt: only the skirt carries gradient energy
    g = gr.RadialGrid(3, 12.0, 1200)
    r0, w = 2.0, 1.5

    def prof(r):
        out = np.ones_like(r)
        ramp = (r >= r0) & (r < r0 + w)
        out[ramp] = 0.5 * (1 + np.cos(np.pi * (r[ramp] - r0) / w))
        out[r >= r0 + w] = 0.0
        return out

    u = gr.from_function(g, prof)
    rq = np.linspace(r0, r0 + w, 20001)
    du = -0.5 * np.pi / w * np.sin(np.pi * (rq - r0) / w)
    oracle = gr.sphere_area(3) * np.trapezoid(du**2 * rq**2, rq)
    assert gr.kinetic(u) == pytest.approx(oracle, rel=1e-3, abs=0.0)


def test_summation_by_parts(grid3):
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = gr.RadialField(grid3, rng.normal(size=grid3.n))
        kin = gr.kinetic(u)
        assert abs(kin + gr.inner(gr.laplacian_radial(u), u)) <= 1e-10 * kin


def test_laplacian_symmetry(grid3):
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = gr.RadialField(grid3, rng.normal(size=grid3.n))
        v = gr.RadialField(grid3, rng.normal(size=grid3.n))
        a = gr.inner(gr.laplacian_radial(u), v)
        b = gr.inner(u, gr.laplacian_radial(v))
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1.0)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_laplacian_quadratic_exact(dim):
    g = gr.RadialGrid(dim, 10.0, 500)
    u = gr.from_function(g, lambda r: g.r_max**2 - r**2)
    lap = gr.laplacian_radial(u).values
    assert np.max(np.abs(lap + 2.0 * dim)) <= 1e-6


def test_lowest_dirichlet_eigenvalue_bessel():
    from scipy.special import jn_zeros

    g = gr.RadialGrid(2, 15.0, 1200)
    ev = gr.lowest_dirichlet_eigenvalue(g)[0]
    exact = (jn_zeros(0, 1)[0] / g.r_max) ** 2
    assert ev == pytest.approx(exact, rel=1e-3, abs=0.0)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [300, 1200])
@pytest.mark.parametrize("k", [1, 3])
def test_lowest_dirichlet_eigenvalue_is_eigh_tridiagonal(dim, n, k):
    # the direct stebz call answers what scipy.linalg.eigh_tridiagonal did,
    # bit for bit, on the same similarity-transformed matrix
    from scipy.linalg import eigh_tridiagonal

    g = gr.RadialGrid(dim, 15.0, n)
    a = g.face_coef
    diag = np.empty(g.n)
    diag[0] = a[0]
    diag[1:] = a[1:] + a[:-1]
    diag = diag / (g._rpow * g.h**2)
    off = -a[:-1] / (np.sqrt(g._rpow[:-1] * g._rpow[1:]) * g.h**2)
    expected = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                                eigvals_only=True)
    got = gr.lowest_dirichlet_eigenvalue(g, k)
    assert got.shape == (k,)
    assert got.tobytes() == expected.tobytes()


def test_lowest_dirichlet_eigenvalue_rejects_bad_k():
    g = gr.RadialGrid(3, 5.0, 10)
    for k in (0, 11):
        with pytest.raises(ValueError, match="1 <= k <= n"):
            gr.lowest_dirichlet_eigenvalue(g, k)


def test_integrate_matches_mass_and_zero(grid3, gauss3):
    assert gr.integrate(gauss3, lambda s: s**2) == pytest.approx(gr.mass(gauss3), rel=1e-14,
                                                                 abs=0.0)
    assert gr.integrate(gauss3, lambda s: 0.0 * s) == 0.0


def test_integrate_composite_vs_fine_grid():
    g = gr.RadialGrid(3, 10.0, 800)
    u = gr.from_function(g, lambda r: 1.3 * np.exp(-(r**2)))
    val = gr.integrate(u, lambda s: np.abs(s) ** 3)
    fine = gr.RadialGrid(3, 10.0, 6400)
    ref = gr.integrate(gr.from_function(fine, lambda r: 1.3 * np.exp(-(r**2))),
                       lambda s: np.abs(s) ** 3)
    assert val == pytest.approx(ref, rel=1e-5, abs=0.0)


def test_quadrature_second_order_n2():
    # N=2 keeps a genuine h^2 end correction at r=0, so the Richardson
    # ratio between successive refinements sits near 4
    exact = None
    errs = []
    for n in (200, 400, 800):
        g = gr.RadialGrid(2, 8.0, n)
        u = gr.from_function(g, lambda r: np.cos(np.pi * r / (2 * g.r_max)))
        rq = np.linspace(0, 8.0, 400001)
        if exact is None:
            exact = gr.sphere_area(2) * np.trapezoid(np.cos(np.pi * rq / 16.0) ** 2 * rq, rq)
        errs.append(abs(gr.mass(u) - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2, abs=0.0)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2, abs=0.0)


def test_ball_volume_boundary_term():
    # constant-1 field misses only the half-weight boundary cell: O(h)
    g = gr.RadialGrid(3, 20.0, 2000)
    vol = 4.0 / 3.0 * math.pi * g.r_max**3
    rel = abs(gr.mass(gr.RadialField(g, np.ones(g.n))) - vol) / vol
    assert rel <= g.dim * g.h / g.r_max


def test_gn_estimate_not_violated_by_random_fields():
    est = gr.gn_constant(3, 10.0 / 3.0)
    g = gr.RadialGrid(3, 12.0, 300)
    theta = 3 * (0.5 - 0.3)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        vals = rng.normal(size=g.n) * np.exp(-g.r / rng.uniform(0.5, 4.0))
        u = gr.RadialField(g, vals)
        lp = float(np.dot(g.w, np.abs(vals) ** (10.0 / 3.0))) ** 0.3
        quot = lp / (gr.kinetic(u) ** (theta / 2) * gr.mass(u) ** ((1 - theta) / 2))
        assert quot <= est.value + 1e-10


def test_gn_gaussian_below_estimate(gn24):
    g = gr.RadialGrid(2, 12.0, 600)
    u = gr.from_function(g, lambda r: np.exp(-(r**2) / 2))
    lp = float(np.dot(g.w, np.abs(u.values) ** 4)) ** 0.25
    quot = lp / (gr.kinetic(u) ** 0.25 * gr.mass(u) ** 0.25)
    assert quot < gn24.value


def test_gn_matches_shooting_oracle(gn24, weinstein_constant):
    assert gn24.value == pytest.approx(weinstein_constant, rel=0.05, abs=0.0)


def test_gn_domain_errors():
    with pytest.raises(ValueError):
        gr.gn_constant(3, 7.0)
    with pytest.raises(ValueError):
        gr.gn_constant(2, 1.5)
    with pytest.raises(ValueError):
        gr.gn_constant(2, math.inf)


def test_csv_roundtrip_bit_exact(tmp_path):
    g = gr.RadialGrid(3, 17.5, 123)
    rng = np.random.default_rng(5)
    u = gr.RadialField(g, rng.normal(size=g.n) * np.exp(rng.normal(size=g.n) * 10))
    path = tmp_path / "field.csv"
    gr.save_field(u, path)
    back = gr.load_field(path)
    assert back.grid.dim == 3 and back.grid.n == 123
    assert back.grid.r_max == g.r_max
    assert np.array_equal(back.values, u.values)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=10, max_size=10))
def test_csv_roundtrip_hypothesis(tmp_path_factory, vals):
    g = gr.RadialGrid(2, 4.0, 10)
    u = gr.RadialField(g, np.asarray(vals))
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    gr.save_field(u, path)
    assert np.array_equal(gr.load_field(path).values, u.values)


def test_field_validation(grid3):
    with pytest.raises(ValueError):
        gr.RadialField(grid3, np.ones(3))
    bad = np.ones(grid3.n)
    bad[0] = np.inf
    with pytest.raises(ValueError):
        gr.RadialField(grid3, bad)


@pytest.mark.parametrize("dim,r_max,n", [(3, 1e300, 400), (3, 1e160, 400), (2, 1e160, 400),
                                         (3, 1e-300, 400), (20, 1e-20, 400), (2, 1e150, 3),
                                         (3, 1e-100, 3)],
                         ids=["3-1e+300", "3-1e+160", "2-1e+160", "3-1e-300", "20-1e-20",
                              "2-1e+150-3", "3-1e-100-3"])
def test_grid_refuses_what_it_cannot_represent(dim, r_max, n):
    # h^2 overflows (or a weight does) above, and underflows to 0 below,
    # where every weight would be 0 and each mass a "converged" 0; at
    # (2, 1e150, 3) h^2 and every weight are finite but the Laplacian scale
    # r^(N-1) h^2 overflows; at (3, 1e-100, 3) it underflows to 0, which
    # every Laplacian would divide by
    with pytest.raises(ValueError, match="not finite and positive"):
        gr.RadialGrid(dim, r_max, n)


@pytest.mark.parametrize("dim,r_max,n", [(2, 1e100, 3), (3, 1e-70, 3), (3, 16.0, 800)])
def test_grid_near_the_limits_still_builds(dim, r_max, n):
    g = gr.RadialGrid(dim, r_max, n)
    assert 0.0 < g.h**2 < math.inf and np.all(g.w > 0) and np.all(np.isfinite(g.w))
    assert np.all(g._lap_scale > 0) and np.all(np.isfinite(g._lap_scale))
