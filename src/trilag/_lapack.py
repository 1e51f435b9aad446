"""scipy's raw LAPACK and BLAS wrappers, loaded without scipy.linalg.

trilag calls f2py wrappers only (eigen, potentials, quadrature).  Reaching
them through scipy.linalg.lapack runs scipy/linalg/__init__.py, which pulls
in scipy._lib.array_api_compat and with it numpy.f2py and numpy.testing:
most of a CLI call's start-up.  This module loads the two extension modules
behind those wrappers from their files instead, under scipy's own names
scipy.linalg._flapack and scipy.linalg._fblas, and registers them in
sys.modules.  A module already there is used as it is, and a later import
of scipy.linalg reuses the ones loaded here, so each is initialised once
per process and scipy.linalg.lapack.dsterf is lapack.dsterf.

The cost of this design: it relies on scipy's private file names _flapack
and _fblas.  Where no file of either name is found, it falls back to
scipy.linalg.lapack and scipy.linalg.blas.
"""

import importlib.machinery
import importlib.util
import os
import sys

import scipy


def _load(name):
    """The extension module scipy.linalg.<name>, or None if no file holds it."""
    full = "scipy.linalg." + name
    if full in sys.modules:
        return sys.modules[full]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(os.path.dirname(scipy.__file__), "linalg", name + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(full, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(full, path, loader=loader))
            loader.exec_module(module)
            sys.modules[full] = module
            return module
    return None


lapack, blas = _load("_flapack"), _load("_fblas")
if lapack is None or blas is None:
    from scipy.linalg import blas, lapack
