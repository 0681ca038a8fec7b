"""sigverify._lapack: scipy's own LAPACK routines, loaded by file or by the public import."""

import os
import subprocess
import sys
from pathlib import Path

import sigverify
from sigverify import _lapack

# the routines on a fixed input: a potrf factor, a potrs solve and gtsv
# spline slopes, printed as the hex of their bytes
BITS = """
import numpy as np
from sigverify import _lapack
rng = np.random.default_rng(29)
a = rng.standard_normal((7, 7))
factor, info = _lapack.dpotrf(a @ a.T + 0.5 * np.eye(7), lower=1, clean=0)
assert info == 0
solved, info = _lapack.dpotrs(factor, rng.standard_normal((7, 3)), lower=1)
assert info == 0
h = rng.uniform(0.5, 2.0, 8)
off = np.concatenate((h[:1], h, h[-1:]))
*_, slopes, info = _lapack.dgtsv(off[2:], 2 * np.concatenate((h[:1], h[:-1] + h[1:], h[-1:])),
                                 off[:-2], 3 * rng.standard_normal((9, 2)))
assert info == 0
print(factor.tobytes().hex(), solved.tobytes().hex(), slopes.tobytes().hex())
"""
# makes the by-file loader raise before sigverify is imported; the import
# system keeps its own reference to the loader class, and importlib.abc, which
# looks the machinery classes up by name, is imported before the swap
FAIL_BY_FILE = """
import importlib.abc
import importlib.machinery
class Refused(importlib.machinery.ExtensionFileLoader):
    def create_module(self, spec):
        raise ImportError("refused")
importlib.machinery.ExtensionFileLoader = Refused
"""


def run_fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this sigverify."""
    src = str(Path(sigverify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_the_stages_call_the_routines_the_module_holds():
    preprocess, oneclass = (sys.modules[f"sigverify.{m}"] for m in ("preprocess", "oneclass"))
    assert preprocess.dgtsv is _lapack.dgtsv
    assert oneclass.dpotrf is _lapack.dpotrf and oneclass.dpotrs is _lapack.dpotrs


def test_a_failed_load_falls_back_to_the_public_import(monkeypatch):
    import scipy.linalg.lapack as lapack
    attempts = []

    class Refused:
        def __init__(self, *args):
            attempts.append(args)
            raise ImportError("refused")

    monkeypatch.setattr(_lapack, "ExtensionFileLoader", Refused)
    monkeypatch.delitem(sys.modules, _lapack.NAME)
    assert _lapack.routines() == (lapack.dgtsv, lapack.dpotrf, lapack.dpotrs)
    assert len(attempts) == 1


def test_the_fallback_gives_the_same_bits():
    # neither the package nor its command line loads scipy.linalg
    by_file = run_fresh(BITS + "import sys, sigverify.cli\n"
                        "assert 'scipy.linalg' not in sys.modules")
    fallback = run_fresh(FAIL_BY_FILE + BITS + "import sys; assert 'scipy.linalg' in sys.modules")
    assert fallback == by_file
    assert len(by_file.split()) == 3


def test_scipy_linalg_imported_later_holds_the_same_routines():
    run_fresh("""import sigverify
import sys
import scipy.linalg
import scipy.linalg.lapack as lapack
from sigverify import _lapack
assert sys.modules[_lapack.NAME].dgtsv is _lapack.dgtsv
for name in ("dgtsv", "dpotrf", "dpotrs"):
    assert getattr(lapack, name) is getattr(_lapack, name), name
""")


def test_scipy_linalg_imported_later_has_its_own_flapack_attribute():
    run_fresh("""import sigverify, scipy.linalg
assert scipy.linalg._flapack.dpotrf is sigverify._lapack.dpotrf
""")
