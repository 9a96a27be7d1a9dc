"""What the solve path imports, measured in a fresh interpreter: the solve
path loads numpy and scipy.linalg.lapack only, Newton finish included, and
the LAPACK module is bound when subnls.minimizer is imported, so a broken
LAPACK fails the import rather than a run.  A sweep runs in this process, so
even a huge --jobs starts no worker.  A Luxemburg norm loads no
scipy.optimize either."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
import subnls.minimizer as mz
lapack_at_import = "scipy.linalg.lapack" in sys.modules
from subnls import cli, nonlinearity as nl
specs = [nl.logarithmic(1.0, dim=3),                 # mu = 0
         nl.log_power(1.0, 0.7, 3.0, dim=3),         # one root of g
         nl.log_power(1.0, -0.05, 3.0, dim=3)]       # two roots of g
newton = []
for spec in specs:
    assert len(nl._positive_roots(spec)) == (1 if spec.mu >= 0 else 2)
    res = mz.continuation(mz.SolveConfig(spec, rho=20.0, r_max=14.0, n=200,
                                         eps_schedule=(1e-1, 1e-2)))
    newton.append(res.limit.newton_steps)
code = cli.main(["solve", "--config", "configs/quick.ini", "--out", sys.argv[1]])
with open(sys.argv[1] + "/result.json") as fh:
    newton.append(json.load(fh)["newton_steps"])
sweep_code = cli.main(["sweep-rho", "--config", "configs/quick.ini", "18", "36", "3",
                       "--jobs", "1000000", "--out", sys.argv[1] + "/sweep"])
import numpy as np
from subnls import grid, orlicz
g = grid.RadialGrid(3, 8.0, 120)
orlicz.luxemburg_norm(grid.from_function(g, lambda r: 1e-6 * np.exp(-r * r)),
                      orlicz.log_matched(1.0))
forbidden = ("scipy.optimize", "scipy.integrate", "scipy.sparse",
             "scipy.special", "scipy.spatial", "concurrent.futures.process",
             "multiprocessing")
print(json.dumps({"lapack_at_import": lapack_at_import, "code": code,
                  "sweep_code": sweep_code,
                  "newton_everywhere": all(k > 0 for k in newton),
                  "loaded": [m for m in forbidden if m in sys.modules]}))
"""


def test_solve_path_imports_no_scipy_optimize(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "out")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {"lapack_at_import": True, "code": 0, "sweep_code": 0,
                      "newton_everywhere": True, "loaded": []}
