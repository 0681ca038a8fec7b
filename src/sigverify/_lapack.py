"""``dgtsv``, ``dpotrf`` and ``dpotrs`` of ``scipy.linalg.lapack``, loaded by file from
its compiled ``_flapack`` without the package init of ``scipy.linalg`` (half a cold
start).  The file layout is scipy's private detail: any failure takes the public import."""

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location

import scipy

NAME = "scipy.linalg._flapack"


def routines():
    """``(dgtsv, dpotrf, dpotrs)``: by file, or else from ``scipy.linalg.lapack``."""
    try:
        if (flapack := sys.modules.get(NAME)) is None:
            stem = os.path.join(scipy.__path__[0], "linalg", "_flapack")
            path = next(stem + s for s in EXTENSION_SUFFIXES if os.path.isfile(stem + s))
            spec = spec_from_file_location(NAME, path, loader=ExtensionFileLoader(NAME, path))
            flapack = module_from_spec(spec)
            spec.loader.exec_module(flapack)
            sys.modules.pop(NAME, None)  # a later scipy.linalg binds its own: same routines
        return flapack.dgtsv, flapack.dpotrf, flapack.dpotrs
    except (ImportError, OSError, AttributeError, StopIteration):  # no file, or it failed
        from scipy.linalg.lapack import dgtsv, dpotrf, dpotrs
        return dgtsv, dpotrf, dpotrs


dgtsv, dpotrf, dpotrs = routines()
