"""Source checks: one summation rule in the package.

Every float sum the package reports to the last digit is the exact sum of
its double terms, rounded once.  Extended-precision types and compensated
loops would bring back sums that round differently from machine to machine
or are not correctly rounded, so the package must not name them.
"""

import pathlib
import re

import primecycles

FORBIDDEN = re.compile(r"longdouble|float128|kahan", re.IGNORECASE)


def test_no_extended_precision_or_compensated_sums():
    src = pathlib.Path(primecycles.__file__).parent
    hits = [f"{path.name}:{no}: {line.strip()}"
            for path in sorted(src.glob("**/*.py"))
            for no, line in enumerate(path.read_text().splitlines(), 1)
            if FORBIDDEN.search(line)]
    assert hits == []
