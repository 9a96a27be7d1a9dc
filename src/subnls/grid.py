"""Radial discretization of R^N (N >= 2).

Uniform interior nodes r_i = i*h, i = 1..n, with h = r_max/(n+1), Dirichlet
value 0 at r_max and the regularity condition u'(0) = 0 encoded as a zero
flux through r = 0.  Quadrature weights carry the surface measure
omega_{N-1} r^{N-1}.

The Laplacian is the conservative flux form

    (Lap u)_i = [a_{i+1/2}(u_{i+1}-u_i) - a_{i-1/2}(u_i-u_{i-1})] / (r_i^{N-1} h^2)

with face coefficients chosen so that two identities hold exactly (up to
rounding), not just to O(h^2):

  * summation by parts:  kinetic(u) = -<Lap u, u>_w  for every field, which
    is what makes energy-gradient consistency checks pass at machine level;
  * polynomial exactness:  Lap(r_max^2 - r^2) = -2N at every node.

Both pin the face coefficient to a_{i+1/2} = N h sum_{j<=i} r_j^{N-1} / r_{i+1/2},
a second-order perturbation of the naive r_{i+1/2}^{N-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._lapack import dstebz


def sphere_area(dim: int) -> float:
    """Surface area of the unit sphere S^{dim-1}."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


@dataclass(frozen=True)
class RadialGrid:
    dim: int
    r_max: float
    n: int
    h: float = field(init=False)
    r: np.ndarray = field(init=False, repr=False)
    w: np.ndarray = field(init=False, repr=False)
    face_coef: np.ndarray = field(init=False, repr=False)
    area: float = field(init=False, repr=False)
    _rpow: np.ndarray = field(init=False, repr=False)
    # built once for kinetic_values and laplacian_values: area / h and
    # r^(N-1) h^2
    _area_h: float = field(init=False, repr=False)
    _lap_scale: np.ndarray = field(init=False, repr=False)
    # (diagonal, off-diagonal) of the symmetric tridiagonal K with
    # kinetic(u) = u^T K u, so K u = -W Lap u with W = diag(w): the matrix
    # of the solver's preconditioner and Newton steps
    _kinetic_bands: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim < 2 or int(self.dim) != self.dim:
            raise ValueError(f"dim must be an integer >= 2, got {self.dim}")
        if not (0.0 < self.r_max < math.inf and self.n >= 3):
            raise ValueError("need a finite r_max > 0 and n >= 3")
        h = self.r_max / (self.n + 1)
        area = sphere_area(self.dim)
        with np.errstate(over="ignore"):
            r = h * np.arange(1, self.n + 1)
            rpow = r ** (self.dim - 1)
            w = area * rpow * h
            # w increases with r: its ends bound every weight
            ok = 0.0 < h * h < math.inf and 0.0 < w[0] <= w[-1] < math.inf
            if ok:
                # face j sits between node j and node j+1 (last face touches
                # the Dirichlet boundary); zero flux through r = 0 is implicit.
                face_r = h * (np.arange(1, self.n + 1) + 0.5)
                face_coef = self.dim * h * np.cumsum(rpow) / face_r
                lap_scale = rpow * h**2
                c = area / h
                diag = c * np.concatenate([face_coef[:1], face_coef[1:] + face_coef[:-1]])
                # both increase with r, and |off-diagonal| <= diagonal: the
                # ends bound every entry
                ok = (0.0 < lap_scale[0] <= lap_scale[-1] < math.inf
                      and 0.0 < diag[0] <= diag[-1] < math.inf)
        if not ok:
            raise ValueError(f"r_max = {self.r_max:g} with n = {self.n}: the spacing squared, "
                             "a quadrature weight or a Laplacian coefficient is not finite "
                             "and positive")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "face_coef", face_coef)
        object.__setattr__(self, "area", area)
        object.__setattr__(self, "_rpow", rpow)
        object.__setattr__(self, "_area_h", c)
        object.__setattr__(self, "_lap_scale", lap_scale)
        object.__setattr__(self, "_kinetic_bands", (diag, -c * face_coef[:-1]))


@dataclass
class RadialField:
    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} nodal values, got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


def zeros(grid: RadialGrid) -> RadialField:
    return RadialField(grid, np.zeros(grid.n))


def from_function(grid: RadialGrid, f) -> RadialField:
    return RadialField(grid, np.asarray(f(grid.r), dtype=float))


def mass(u: RadialField) -> float:
    """Discrete integral of |u|^2 over R^N."""
    return float(u.grid.w.dot(u.values**2))


def integrate(u: RadialField, h) -> float:
    """Discrete integral of h(u(x)) over R^N (h vectorized over nodal values)."""
    return float(np.dot(u.grid.w, np.asarray(h(u.values), dtype=float)))


def inner(u: RadialField, v: RadialField) -> float:
    return float(np.dot(u.grid.w, u.values * v.values))


def wnorm(grid: RadialGrid, values: np.ndarray) -> float:
    return math.sqrt(float(grid.w.dot(values**2)))


def kinetic(u: RadialField) -> float:
    """Discrete integral of |grad u|^2 (not halved), staggered-face quadrature.

    Equals -<Lap u, u>_w exactly by construction.
    """
    return kinetic_values(u.grid, u.values)


def face_differences(grid: RadialGrid, vals: np.ndarray) -> np.ndarray:
    """u_{i+1} - u_i across every face, the last against the Dirichlet
    ghost 0 at r_max: what kinetic and the Laplacian are built from."""
    d = np.empty(grid.n)
    np.subtract(vals[1:], vals[:-1], out=d[:-1])
    d[-1] = -vals[-1]
    return d


def kinetic_values(g: RadialGrid, vals: np.ndarray, d=None) -> float:
    """kinetic() on a bare array of nodal values; d, when the caller has it,
    is face_differences(g, vals)."""
    if d is None:
        d = face_differences(g, vals)
    return float(g._area_h * g.face_coef.dot(d**2))


def laplacian_values(grid: RadialGrid, vals: np.ndarray, d=None) -> np.ndarray:
    """The radial Laplacian of a bare array of nodal values; d, when the
    caller has it, is face_differences(grid, vals)."""
    if d is None:
        d = face_differences(grid, vals)
    flux = grid.face_coef * d
    div = np.empty(grid.n)
    div[0] = flux[0]
    np.subtract(flux[1:], flux[:-1], out=div[1:])
    return np.divide(div, grid._lap_scale, out=div)


def laplacian_radial(u: RadialField) -> RadialField:
    """Radial Laplacian u'' + (N-1)u'/r in conservative form (see module doc)."""
    return RadialField(u.grid, laplacian_values(u.grid, u.values))


def lowest_dirichlet_eigenvalue(grid: RadialGrid, k: int = 1) -> np.ndarray:
    """Smallest k eigenvalues of -Lap with Dirichlet condition at r_max.

    Similarity-transformed to a symmetric tridiagonal problem with
    D = diag(r^{N-1}), whose eigenvalues 1..k LAPACK stebz finds by
    bisection (what scipy.linalg.eigh_tridiagonal runs for select="i").
    """
    g = grid
    if not 1 <= k <= g.n:
        raise ValueError(f"need 1 <= k <= n = {g.n}, got k = {k}")
    a = g.face_coef
    diag = np.empty(g.n)
    diag[0] = a[0]
    diag[1:] = a[1:] + a[:-1]
    diag = diag / g._lap_scale
    off = -a[:-1] / (np.sqrt(g._rpow[:-1] * g._rpow[1:]) * g.h**2)
    m, w, _, _, info = dstebz(diag, off, 2, 0.0, 1.0, 1, k, 0.0, "E")
    if info != 0:
        raise np.linalg.LinAlgError(f"stebz failed (info={info})")
    return w[:m]


# gn_constant's heuristic relative band: ascent stall + O(h^2) discretization
GN_REL_UNCERTAINTY = 0.02


@dataclass
class GNEstimate:
    value: float
    iterations: int


def _gn_quotient(grid: RadialGrid, vals: np.ndarray, p: float, theta: float) -> float:
    vals = vals / np.max(np.abs(vals))  # scale-invariant; |vals|^p <= 1 cannot overflow
    lp = float(np.dot(grid.w, np.abs(vals) ** p)) ** (1.0 / p)
    kin = kinetic(RadialField(grid, vals))
    m = float(np.dot(grid.w, vals**2))
    return lp / (kin ** (theta / 2.0) * m ** ((1.0 - theta) / 2.0))


def gn_constant(dim: int, p: float) -> GNEstimate:
    """Numerical estimate of the best Gagliardo-Nirenberg constant C_{N,p} in

        |u|_p <= C |grad u|_2^theta |u|_2^(1-theta),  theta = N(1/2 - 1/p).

    Maximizes the quotient over radial fields by monotone gradient ascent on
    its logarithm, starting from a Gaussian, in at most 600 steps on a grid
    of 800 nodes over [0, 16].  The result is an estimate (a quotient of an
    actual field), never a certified constant.
    """
    if dim >= 3:
        two_star = 2.0 * dim / (dim - 2.0)
        if not (2.0 < p < two_star):
            raise ValueError(f"need 2 < p < {two_star} for dim={dim}")
    elif not 2.0 < p < math.inf:
        raise ValueError("need a finite p > 2")
    theta = dim * (0.5 - 1.0 / p)
    grid = RadialGrid(dim, 16.0, 800)
    vals = np.exp(-grid.r**2 / 2.0)
    q = _gn_quotient(grid, vals, p, theta)
    step = 0.5
    for it in range(1, 601):
        kin = kinetic(RadialField(grid, vals))
        m = float(np.dot(grid.w, vals**2))
        pp = float(np.dot(grid.w, np.abs(vals) ** p))
        if pp == 0.0:
            raise ValueError(f"int |u|^p underflows to 0 at p = {p:g}: no finite estimate")
        lap = laplacian_values(grid, vals)
        direction = (np.abs(vals) ** (p - 2) * vals / pp
                     + theta * lap / kin
                     - (1.0 - theta) * vals / m)
        cand = vals + step * direction / max(np.max(np.abs(direction)), 1e-300)
        q_cand = _gn_quotient(grid, cand, p, theta)
        if q_cand > q:
            vals = cand / np.max(np.abs(cand))
            if q_cand - q < 1e-13 * q:
                q = q_cand
                break
            q = q_cand
            step = min(step * 1.3, 2.0)
        else:
            step *= 0.5
            if step < 1e-12:
                break
    return GNEstimate(value=q, iterations=it)


CSV_FMT = ".17g"


def save_field(u: RadialField, path) -> None:
    """Two-column CSV (r, u(r)); round-trips at full double precision."""
    g = u.grid
    lines = [f"# N={g.dim} r_max={format(g.r_max, CSV_FMT)} n={g.n}", "r,u"]
    for r, v in zip(g.r, u.values):
        lines.append(f"{format(r, CSV_FMT)},{format(v, CSV_FMT)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_field(path) -> RadialField:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError("missing grid header line")
        meta = dict(tok.split("=") for tok in header[1:].split())
        fh.readline()  # column names
        vals = [float(line.split(",")[1]) for line in fh if line.strip()]
    grid = RadialGrid(int(meta["N"]), float(meta["r_max"]), int(meta["n"]))
    return RadialField(grid, np.asarray(vals))
