"""Each planted fault of tests/faults.py fails its check, which passes
without it."""

import pytest

from faults import FAULTS
from primecycles.cli import main

BENCH_GRIDS = ("--n-grid", "100,1000,10000,50000",
               "--t-grid", "1e-4,1e-5,1e-6,3e-7")


def _verify(capsys):
    code = main(["verify", *BENCH_GRIDS])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("fault", FAULTS, ids=[f.name for f in FAULTS])
def test_verify_fails_a_dropped_prime(capsys, fault):
    assert fault.check == "verify: phi"
    with fault.plant():
        code, out, err = _verify(capsys)
    assert code == 1
    assert "phi: FAIL (recombination off at t=" in out
    assert "failed checks:" in err and "phi" in err
    code, out, err = _verify(capsys)
    assert code == 0 and "phi: ok" in out and err == ""
