"""Layer table: the cost of one call to each public layer function.

    python3 perfbench/layers.py

Each entry is timed with ``timeit`` on an auto-ranged loop count (the loop
grows 1, 2, 5, 10, ... until it lasts TARGET_S, as ``Timer.autorange`` does
for 0.2 s) and reported as the minimum over REPEAT repeats, per call.  Caches
are warm, as in real runs, except where an entry says "cleared".  The last
line of standard output is one JSON object: {"metrics": {...}, "rows": [...]}.

PREDICTIONS records, before any change is measured, which end-to-end metric
each layer metric should move and on which workload.
"""

import json
import logging
import time
import timeit

from subnls import cli, diagnostics, orlicz
from subnls import grid as gr
from subnls import minimizer as mz
from subnls import nonlinearity as nl

import workloads

TARGET_S = 0.01
REPEAT = 5
SIZES = (500, 2000, 8000)
EPS = 1e-3

# (layer metric, end-to-end metric it should move, workloads, prediction)
PREDICTIONS = [
    ("minimizer.energy_eps_us", "wall_s", "gausson, nonexistence, sweep_cli",
     "down with ROADMAP item 2 (fused kernel); 88% of the reference profile"),
    ("nonlinearity.G_minus_eps_us", "wall_s", "gausson, nonexistence, sweep_cli", "item 2"),
    ("nonlinearity.G_plus_value_us", "wall_s", "gausson, nonexistence, sweep_cli", "item 2"),
    ("nonlinearity.g_eps_us", "wall_s", "gausson, nonexistence, sweep_cli", "item 2"),
    ("nonlinearity.G_value_us", "wall_s", "gausson", "the eps = 0 limit object"),
    ("minimizer.iterations, .energy_evals, .grad_evals", "wall_s",
     "nonexistence most, then gausson", "down with item 3 (preconditioned descent)"),
    ("minimizer.armijo_accept_ratio", "wall_s", "gausson",
     "moves on gausson; no change on nonexistence, which reads about 0.43 at the "
     "seed commit (not the 'near 1' first guessed)"),
    ("minimizer.iter_us", "wall_s", "gausson, nonexistence, sweep_cli", "cost per iteration"),
    ("grid.RadialField_us", "wall_s", "gausson", "one build and validation per Armijo trial"),
    ("grid.laplacian_values_us, grid.kinetic_us", "wall_s", "all three", "small share"),
    ("minimizer.initial_guess_ms", "setup_s, wall_s", "all three", "small"),
    ("diagnostics.residual_bundle_us", "none", "-", "control: called once per stage, no change"),
    ("cli.import_s, cli.load_config_us", "setup_s", "all three", "item 4 config fixes"),
    ("cli.pool_wait_s, cli.sweep_imbalance", "wall_s", "sweep_cli only",
     "the slowest point sets the sweep's wall time"),
    ("orlicz.check_delta2_nabla2_us, grid.gn_constant_ms, grid.gn_constant_steps", "none", "-",
     "control: no workload calls them, no change"),
]


def autorange(timer):
    i = 1
    while True:
        for j in (1, 2, 5):
            number = i * j
            if timer.timeit(number) >= TARGET_S:
                return number
        i *= 10


def per_call(fn, setup="pass", number=None):
    timer = timeit.Timer(fn, setup=setup)
    if number is None:
        number = autorange(timer)
    return min(timer.repeat(REPEAT, number)) / number


def case(spec, rho, r_max, n, suffix, grid_layers):
    grid = gr.RadialGrid(spec.dim, r_max, n)
    u = mz.initial_guess(spec, grid, rho, 1e-1)
    vals = u.values
    lam = mz.extract_lambda(u, spec, EPS)
    nl.G_plus_value(spec, vals)  # fill the sign-structure cache
    entries = [
        ("minimizer.energy_eps_us", 1e6, lambda: mz.energy_eps(u, spec, EPS)),
        ("nonlinearity.G_minus_eps_us", 1e6, lambda: nl.G_minus_eps(spec, vals, EPS)),
        ("nonlinearity.G_plus_value_us", 1e6, lambda: nl.G_plus_value(spec, vals)),
        ("nonlinearity.g_eps_us", 1e6, lambda: nl.g_eps(spec, vals, EPS)),
        ("nonlinearity.G_value_us", 1e6, lambda: nl.G_value(spec, vals)),
        ("minimizer.initial_guess_ms", 1e3, lambda: mz.initial_guess(spec, grid, rho, EPS)),
        ("diagnostics.residual_bundle_us", 1e6,
         lambda: diagnostics.residual_bundle(u, lam, EPS, spec)),
    ]
    if grid_layers:
        entries += [
            ("grid.RadialField_us", 1e6, lambda: gr.RadialField(grid, vals)),
            ("grid.laplacian_values_us", 1e6, lambda: gr.laplacian_values(grid, vals)),
            ("grid.kinetic_us", 1e6, lambda: gr.kinetic(u)),
        ]
    rows = []
    for name, scale, fn in entries:
        rows.append((f"{name}.{suffix}", per_call(fn) * scale, "warm"))
    return rows


def main():
    # the mu spec's seed warning would otherwise be timed as stderr writes
    logging.disable(logging.WARNING)
    log_spec = nl.log_power(1.0, 0.0, 4.0, dim=3)
    mu_spec = nl.log_power(1.0, 2.0 * nl.mu_threshold(1.0, 4.0), 4.0, dim=3)
    rows = []
    for n in SIZES:
        rows += case(log_spec, 20.0, 20.0, n, f"n{n}", grid_layers=True)
    # two sign changes of g: the other searchsorted path
    rows += case(mu_spec, 10.0, 16.0, 2000, "mu2_n2000", grid_layers=False)

    rows.append(("cli.load_config_us", 1e6 * per_call(
        lambda: cli.load_config(workloads.SWEEP_CONFIG)), "warm (file in page cache)"))
    nfun = orlicz.log_matched(1.0)
    rows.append(("orlicz.check_delta2_nabla2_us", 1e6 * per_call(
        lambda: orlicz.check_delta2_nabla2(nfun),
        setup=orlicz.check_delta2_nabla2.cache_clear, number=1), "cleared"))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        est = gr.gn_constant(3, 3.0)
        times.append(time.perf_counter() - start)
    rows.append(("grid.gn_constant_ms", 1e3 * min(times), "no cache"))
    rows.append(("grid.gn_constant_steps", float(est.iterations), "count"))
    print(json.dumps({"metrics": {name: value for name, value, _ in rows},
                      "rows": rows}))


if __name__ == "__main__":
    main()
