"""Source checks: one summation rule, numpy as the one dependency, and one
range check.

Every float sum the package reports to the last digit is the exact sum of
its double terms, rounded once.  Extended-precision types and compensated
loops would bring back sums that round differently from machine to machine
or are not correctly rounded, so the package must not name them.

pyproject.toml declares numpy alone, so the package imports nothing else
outside the standard library, even a module that happens to be installed.

Every integer argument with an upper bound is checked by errors._integer,
so no module compares a value and raises a range or cap error itself.
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


BOUND_ERRORS = {"OutOfRangeError", "ResourceLimitError"}


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", None) or getattr(exc, "attr", None)


def test_no_hand_written_bound_checks():
    src = pathlib.Path(primecycles.__file__).parent
    hits = []
    for path in sorted(src.glob("**/*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.If)
                    and any(isinstance(t, ast.Compare) for t in ast.walk(node.test))
                    and any(isinstance(s, ast.Raise) and _raised_name(s) in BOUND_ERRORS
                            for s in node.body)):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []
