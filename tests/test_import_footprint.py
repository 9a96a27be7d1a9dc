"""What the solve path imports, measured in fresh interpreters.  Importing
subnls.minimizer binds its LAPACK routines from scipy's compiled
scipy/linalg/_flapack file alone, so that extension is the only scipy module
loaded, and a LAPACK that cannot be loaded fails the import rather than a
run.  Solves with the Newton finish, a sweep (in this process, so even a
huge --jobs starts no worker), `gn`, `check` (assumption verdicts and
N-function growth), a Luxemburg norm and the Dirichlet eigenvalues load no
further part of scipy: not scipy.linalg, not scipy.optimize, and not
numpy.f2py.  Importing subnls.cli builds no argument parser: main builds
it on its first call.  When the file does not load, the same
routines come from scipy.linalg.lapack, with bit-identical answers."""

import json
import os
import subprocess
import sys
from pathlib import Path

from subnls import _lapack

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
import subnls.minimizer as mz
bound_at_import = all(callable(getattr(mz, name, None))
                      for name in ("dgtsv", "dptsv", "dpttrf", "dpttrs"))
scipy_at_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import argparse
parser_init = argparse.ArgumentParser.__init__
parsers_at_import = []
def counting(self, *args, **kwargs):
    parsers_at_import.append(kwargs.get("prog"))
    parser_init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
from subnls import cli, nonlinearity as nl
argparse.ArgumentParser.__init__ = parser_init
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
gn_code = cli.main(["gn", "3", "3.3"])
check_code = cli.main(["check", "--config", "configs/quick.ini", "--out", sys.argv[1] + "/check"])
import numpy as np
from subnls import grid, orlicz
g = grid.RadialGrid(3, 8.0, 120)
orlicz.luxemburg_norm(grid.from_function(g, lambda r: 1e-6 * np.exp(-r * r)),
                      orlicz.log_matched(1.0))
grid.lowest_dirichlet_eigenvalue(g, 3)
forbidden = ("scipy.linalg", "scipy.linalg.lapack", "scipy._lib.array_api_compat",
             "numpy.f2py", "scipy.optimize", "scipy.integrate", "scipy.sparse",
             "scipy.special", "scipy.spatial", "concurrent.futures.process",
             "multiprocessing")
loaded = [m for m in forbidden if m in sys.modules]
import scipy.linalg.lapack
print(json.dumps({"bound_at_import": bound_at_import, "scipy_at_import": scipy_at_import,
                  "parsers_at_import": parsers_at_import,
                  "code": code, "sweep_code": sweep_code, "gn_code": gn_code,
                  "check_code": check_code, "newton_everywhere": all(k > 0 for k in newton),
                  "loaded": loaded,
                  "one_binary": all(getattr(mz, name) is getattr(scipy.linalg.lapack, name)
                                    for name in ("dgtsv", "dptsv", "dpttrf", "dpttrs"))}))
"""

# argv[1] is "direct" or "fallback"; the fallback run makes the direct load
# of the extension file fail before subnls is imported
CONTINUATION = """
import hashlib, importlib.util, json, sys
if sys.argv[1] == "fallback":
    importlib.util.spec_from_file_location = lambda *args, **kwargs: None
import subnls.minimizer as mz
lapack_module = sys.modules.get("scipy.linalg.lapack")
from_lapack = lapack_module is not None and all(
    getattr(mz, name) is getattr(lapack_module, name)
    for name in ("dgtsv", "dptsv", "dpttrf", "dpttrs"))
from subnls import cli, grid
res = mz.continuation(cli.build_solve_config(cli.load_config("configs/quick.ini")))
stages = [[r.eps, r.energy.hex(), r.lam.hex(), r.iterations, r.newton_steps, r.status,
           hashlib.sha256(r.u.values.tobytes()).hexdigest()]
          for r in res.stages + [res.limit]]
eig = grid.lowest_dirichlet_eigenvalue(grid.RadialGrid(3, 16.0, 800), 3).tobytes().hex()
print(json.dumps({"from_lapack": from_lapack, "stages": stages, "eig": eig}))
"""

NO_LAPACK = """
import importlib.util, sys
importlib.util.spec_from_file_location = lambda *args, **kwargs: None
sys.modules["scipy.linalg.lapack"] = None
try:
    import subnls.minimizer
except ImportError as exc:
    print("ImportError", exc)
else:
    print("imported")
"""


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_solve_path_imports_no_scipy_optimize(tmp_path):
    report = json.loads(_run(SCRIPT, str(tmp_path / "out")))
    assert report == {"bound_at_import": True,
                      "scipy_at_import": ["scipy.linalg._flapack"],
                      "parsers_at_import": [],
                      "code": 0, "sweep_code": 0, "gn_code": 0, "check_code": 0,
                      "newton_everywhere": True, "loaded": [], "one_binary": True}


def test_lapack_fallback_gives_identical_answers():
    direct = json.loads(_run(CONTINUATION, "direct"))
    fallback = json.loads(_run(CONTINUATION, "fallback"))
    assert direct["from_lapack"] is False
    assert fallback["from_lapack"] is True
    assert len(direct["stages"]) == 4
    assert fallback["stages"] == direct["stages"]
    assert fallback["eig"] == direct["eig"]


def test_without_lapack_the_import_fails():
    out = _run(NO_LAPACK)
    assert out.startswith("ImportError") and "scipy.linalg.lapack" in out


def test_direct_and_scipy_lapack_are_one_binary():
    import scipy.linalg.lapack

    for name in ("dgtsv", "dptsv", "dpttrf", "dpttrs", "dstebz"):
        assert getattr(_lapack, name) is getattr(scipy.linalg.lapack, name)
