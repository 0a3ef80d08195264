"""scipy's compiled LAPACK and BLAS wrappers, without ``scipy.linalg``.

The solvers call nine routines: ``dpbtrf``, ``dtbtrs``, ``dpotrf``,
``dpotrs``, ``dgttrf`` and ``dgttrs`` from LAPACK, and ``dsyrk``,
``dgemv`` and ``dnrm2`` from BLAS.  ``scipy.linalg.lapack`` and
``scipy.linalg.blas`` re-export them from two f2py extension modules,
``scipy.linalg._flapack`` and ``scipy.linalg._fblas``.  Importing
``scipy.linalg`` to reach them costs about a quarter of a second, most
of a short run: through ``scipy._lib._array_api`` it loads
``numpy.f2py``, ``numpy.testing``, ``numpy.ma`` and ``numpy.random``.
This module finds scipy's ``linalg`` directory from scipy's import spec,
so neither ``scipy/__init__.py`` (which loads ``subprocess``,
``sysconfig`` and ``scipy._lib``) nor ``scipy/linalg/__init__.py`` runs,
loads the two extension files straight from it and exposes them as
:data:`lapack` and :data:`blas`.  Their routines are the same objects
``scipy.linalg.lapack`` and ``scipy.linalg.blas`` hold, so every result
is bit for bit the same.  Modules ``scipy.linalg`` has already loaded
are reused; where an extension file is not found or does not load
(another scipy layout), both names come from ``scipy.linalg``.
"""

from __future__ import annotations

import os
import sys
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec


def _load(name: str):
    """The extension module ``scipy.linalg.<name>``, or ``None`` when scipy
    has no such file or it does not load."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    # Where scipy is installed, without running scipy/__init__.py.
    scipy = find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return None
    linalg = [os.path.join(path, "linalg") for path in scipy.submodule_search_locations]
    spec = PathFinder.find_spec(full, linalg)
    if spec is None:
        return None
    try:
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        return None
    finally:
        # CPython enters a single-phase extension module into sys.modules as
        # it loads it.  Left there, a later ``import scipy.linalg`` would take
        # it from there and never set the attribute ``scipy.linalg.<name>``.
        sys.modules.pop(full, None)
    return module


lapack, blas = _load("_flapack"), _load("_fblas")
if lapack is None or blas is None:
    from scipy.linalg import blas, lapack
