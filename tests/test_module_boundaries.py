"""The package's modules call each other only by public names.

A module may import a sibling's underscored name only where it is listed
in ``ALLOWED``: ``descriptor`` trains through ``whitening._fit_centring``,
because the public ``fit_whitening`` copies the training patches.
``_lapack`` is a private module of public names, so importing from it is
fine.
"""

import ast
from pathlib import Path

import sigverify

SRC = Path(sigverify.__file__).parent
ALLOWED = {("descriptor", "whitening", "_fit_centring")}


def private_imports():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found.update((path.stem, node.module or "", alias.name)
                             for alias in node.names if alias.name.startswith("_"))
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    assert private_imports() == ALLOWED
