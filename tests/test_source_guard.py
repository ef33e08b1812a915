"""Source checks: one summation rule, and numpy as the one dependency.

Every float sum the package reports to the last digit is the exact sum of
its double terms, rounded once.  Extended-precision types and compensated
loops would bring back sums that round differently from machine to machine
or are not correctly rounded, so the package must not name them.

pyproject.toml declares numpy alone, so the package imports nothing else
outside the standard library, even a module that happens to be installed.
"""

import ast
import pathlib
import re
import sys

import primecycles

FORBIDDEN = re.compile(r"longdouble|float128|kahan", re.IGNORECASE)


def test_no_extended_precision_or_compensated_sums():
    src = pathlib.Path(primecycles.__file__).parent
    hits = [f"{path.name}:{no}: {line.strip()}"
            for path in sorted(src.glob("**/*.py"))
            for no, line in enumerate(path.read_text().splitlines(), 1)
            if FORBIDDEN.search(line)]
    assert hits == []


ALLOWED_IMPORTS = {"numpy", "primecycles"}


def test_imports_only_the_standard_library_and_numpy():
    src = pathlib.Path(primecycles.__file__).parent
    hits = []
    for path in sorted(src.glob("**/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in ALLOWED_IMPORTS | sys.stdlib_module_names:
                    hits.append(f"{path.name}:{node.lineno}: {name}")
    assert hits == []
