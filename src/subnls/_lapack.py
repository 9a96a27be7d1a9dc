"""The LAPACK routines subnls calls (dpttrf/dpttrs for the preconditioner,
dgtsv and dptsv for the sphere and interior Newton steps, dstebz for the
Dirichlet eigenvalues), bound from scipy's compiled Fortran wrapper file
scipy/linalg/_flapack*.so without importing scipy.linalg.

Importing scipy.linalg.lapack costs 0.2-0.3 s and about 19 MB, because it
pulls in all of scipy.linalg and, through scipy._lib.array_api_compat,
numpy.f2py; loading the one extension file takes 3-10 ms.  The file is
found from scipy's package directory (importlib.util.find_spec does not
import scipy) and registered as scipy.linalg._flapack, the name
scipy.linalg.lapack itself imports, so a later scipy.linalg.lapack hands out
these very functions.
When the file is missing or does not load (another scipy layout), the names
come from scipy.linalg.lapack; when neither loads, importing this module
raises ImportError.
"""

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    """The _flapack extension module loaded from its file, or None."""
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        return None
    for root in scipy_spec.submodule_search_locations or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if not os.path.isfile(path):
                continue
            spec = importlib.util.spec_from_file_location(_NAME, path)
            if spec is None:
                return None
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except (ImportError, OSError):
                return None
            sys.modules[_NAME] = module
            return module
    return None


_flapack = _load_flapack()
if _flapack is None:
    from scipy.linalg import lapack as _flapack

dgtsv = _flapack.dgtsv
dptsv = _flapack.dptsv
dpttrf = _flapack.dpttrf
dpttrs = _flapack.dpttrs
dstebz = _flapack.dstebz
