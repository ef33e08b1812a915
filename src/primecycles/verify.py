"""Convergence tables tying exact enumeration to the asymptotic models.

Each table pairs an exactly computed quantity with a closed-form model and
records the ratio plus a model-specific scaled residual.  Acceptance is
property-based: residuals stay inside fixed safety-factor bands and ratios
drift toward 1 along the default grids.  The safety factors compensate for
unspecified constants in the error terms, they are not sharp claims.
"""

import json
import math
import os
from dataclasses import dataclass, fields

from primecycles.errors import InvalidArgumentError
from primecycles.exact_enum import CountTable, partial_sums
from primecycles.analytic import (
    Constants,
    odlyzko_sum_model,
    partial_sum_log_model,
    phi_split_grid,
)
from primecycles.cycle_classes import KIND_PRIMES
from primecycles.primes import nth_primes

N_GRID_DEFAULT = (100, 1000, 10_000, 100_000)
T_GRID_DEFAULT = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)

PARTIAL_SUM_RESIDUAL_BOUND = 2.0
HLK_RATIO_BOUND = 0.1
PHI_SAFETY_FACTOR = 5.0
PHI_RECOMBINATION_RTOL = 1e-9

# the checks `primecycles verify` runs, in order
CHECK_NAMES = ("partial-sum", "hlk", "phi", "pnt", "slowvar")


@dataclass(frozen=True)
class ConvergenceRow:
    x: float
    exact: float
    model: float
    ratio: float
    scaled_residual: float


def make_row(x: float, exact: float, model: float,
             scaled_residual: float) -> ConvergenceRow:
    return ConvergenceRow(x=float(x), exact=float(exact), model=float(model),
                          ratio=float(exact) / float(model),
                          scaled_residual=float(scaled_residual))


def _checked_grid(grid) -> list:
    grid = list(grid)
    for x in grid:
        if x < 2:
            raise InvalidArgumentError(f"grid entries must be >= 2, got {x}")
    return grid


def partial_sum_table(table: CountTable, n_grid, constants: Constants):
    """Rows comparing T_n against e^c ln n over the grid.

    scaled_residual = (T_n/ln n - e^c) * ln ln n, the natural scale of the
    model's error term.
    """
    if table.spec.kind != KIND_PRIMES:
        raise InvalidArgumentError("partial-sum table is defined for the primes spec")
    n_grid = _checked_grid(n_grid)
    rows = []
    for n, total in zip(n_grid, partial_sums(table, n_grid)):
        exact = float(total)
        model = partial_sum_log_model(n, constants)
        resid = (exact / math.log(n) - constants.e_to_c) * math.log(math.log(n))
        rows.append(make_row(n, exact, model, resid))
    return rows


def hlk_comparison_table(table: CountTable, n_grid, constants: Constants):
    """Rows comparing T_n against f_A(1 - 1/n) / Gamma(rho + 1), as
    odlyzko_sum_model gives it for every spec; for the primes that is
    f_eval(1 - 1/n) itself (density 0, Gamma(1) = 1).

    scaled_residual = (ratio - 1) * ln ln n.
    """
    n_grid = _checked_grid(n_grid)
    rows = []
    for n, total in zip(n_grid, partial_sums(table, n_grid)):
        exact = float(total)
        model = odlyzko_sum_model(table.spec, n, constants)
        resid = (exact / model - 1.0) * math.log(math.log(n))
        rows.append(make_row(n, exact, model, resid))
    return rows


def slow_variation_check(u_list, t_grid) -> dict:
    """For L = ln: max over u of |ln(u t)/ln(t) - 1| at the largest grid t.

    The bound ln(10)/ln(max t) is what u in [0.1, 10] allows; u = 1 gives 0.
    """
    if not u_list:
        raise InvalidArgumentError("u_list must be nonempty")
    if any(u < 0.1 or u > 10.0 for u in u_list):
        raise InvalidArgumentError("every u must lie in [0.1, 10]")
    t_list = list(t_grid)
    if sorted(t_list) != t_list or len(t_list) < 1:
        raise InvalidArgumentError("t_grid must be increasing")
    if max(t_list) < 1e6:
        raise InvalidArgumentError("t_grid must reach at least 1e6")
    t = float(max(t_list))
    per_u = [(float(u), abs(math.log(u * t) / math.log(t) - 1.0)) for u in u_list]
    max_dev = max(d for _, d in per_u)
    bound = math.log(10.0) / math.log(t)
    return {
        "max_deviation": max_dev,
        "bound": bound,
        "ok": max_dev <= bound + 1e-15,
        "per_u": per_u,
    }


@dataclass(frozen=True)
class PhiEstimateRow:
    """One grid point of the phi(e^-t) split against its three estimates."""

    t: float
    cutoff: float
    phi1: float
    phi2: float
    phi3: float
    recombined: float
    direct: float
    phi1_scaled: float
    phi2_scaled: float
    phi3_scaled: float


def phi_estimate_table(t_grid, constants: Constants, splits=None):
    """Per t: the split, its recombination against phi_eval(e^-t), and the
    three residuals on their natural scales.

    The whole grid shares one prime stream (analytic.phi_split_grid), run to
    the largest truncation limit on the grid.  splits, if given, are the
    grid's pairs as phi_split_grid(t_grid) returns them, so a caller can
    take them off a stream it shares with other checks; splits for any
    other t's are refused.

    phi1_scaled = (phi1 - lnln(1/t) - c) * ln(1/t)/lnln(1/t)
    phi2_scaled = phi2 * lnln(1/t)
    phi3_scaled = phi3 / (e^{-yt}/(yt))   (geometric-tail envelope)
    """
    t_grid = list(t_grid)
    if splits is None:
        splits = phi_split_grid(t_grid)
    elif [split.t for split, _ in splits] != t_grid:
        raise InvalidArgumentError("splits are not those of t_grid")
    rows = []
    for split, direct in splits:
        t = split.t
        log_inv = math.log(1.0 / t)
        loglog = math.log(log_inv)
        envelope = math.exp(-split.cutoff * t) / (split.cutoff * t)
        rows.append(PhiEstimateRow(
            t=float(t),
            cutoff=split.cutoff,
            phi1=split.phi1,
            phi2=split.phi2,
            phi3=split.phi3,
            recombined=split.phi1 + split.phi2 + split.phi3,
            direct=direct,
            phi1_scaled=(split.phi1 - loglog - constants.mertens_c)
                        * log_inv / loglog,
            phi2_scaled=split.phi2 * loglog,
            phi3_scaled=split.phi3 / envelope,
        ))
    return rows


def pnt_table(k_grid, primes=None):
    """Rows of (k, p_k) against the model k ln k; scaled_residual = ratio - 1.

    The primes come from one stream (primes.nth_primes) that stops at the
    largest k on the grid.  primes, if given, are the grid's p_k as
    nth_primes(k_grid) returns them.
    """
    k_grid = _checked_grid(k_grid)
    rows = []
    if primes is None:
        primes = nth_primes(k_grid)
    for k, pk in zip(k_grid, primes, strict=True):
        model = k * math.log(k)
        ratio = pk / model
        rows.append(make_row(k, pk, model, ratio - 1.0))
    return rows


# -- verdicts: None if a table's rows pass, else the first failure's reason ----


def _not_converging(rows) -> bool:
    """Whether the last ratio lies further from 1 than the first."""
    return len(rows) > 1 and abs(rows[-1].ratio - 1.0) > abs(rows[0].ratio - 1.0)


def check_partial_sum(rows):
    bad = [r for r in rows
           if abs(r.scaled_residual) > PARTIAL_SUM_RESIDUAL_BOUND]
    if bad:
        return f"scaled residual beyond {PARTIAL_SUM_RESIDUAL_BOUND} at x={bad[0].x:g}"
    if _not_converging(rows):
        return "ratio not converging toward 1 across the grid"
    return None


def check_hlk(rows):
    off = abs(rows[-1].ratio - 1.0)
    if off > HLK_RATIO_BOUND:
        return f"|ratio-1| = {off:.3g} > {HLK_RATIO_BOUND} at the last row"
    if _not_converging(rows):
        return "ratio not converging toward 1 across the grid"
    return None


def check_phi(rows):
    for r in rows:
        if abs(r.recombined - r.direct) > PHI_RECOMBINATION_RTOL * abs(r.direct):
            return f"recombination off at t={r.t:g}"
        if abs(r.phi1_scaled) > PHI_SAFETY_FACTOR:
            return f"phi1 residual beyond safety factor at t={r.t:g}"
        if abs(r.phi2_scaled) > PHI_SAFETY_FACTOR:
            return f"phi2 beyond safety factor at t={r.t:g}"
        if not 0.0 <= r.phi3_scaled <= PHI_SAFETY_FACTOR:
            return f"phi3 beyond envelope safety factor at t={r.t:g}"
    return None


def check_pnt(rows):
    for r in rows:
        if not (math.isfinite(r.ratio) and r.ratio > 1.0):
            return f"ratio not in (1, inf) at k={r.x:g}"
    for a, b in zip(rows, rows[1:]):
        if not b.ratio < a.ratio:
            return f"ratio not strictly decreasing at k={b.x:g}"
    return None


def check_slowvar(report):
    if not report["ok"]:
        return (f"max deviation {report['max_deviation']:.3g} beyond "
                f"{report['bound']:.3g}")
    return None


# -- report emission ---------------------------------------------------------


def emit_report(rows, format: str, destination) -> None:
    """Write a table of ConvergenceRow or PhiEstimateRow as CSV or JSON.

    The columns are the row dataclass's fields, in order, each float with
    17 significant digits.  destination is a path or a writable text file
    object.  Output is deterministic and round-trips through parse_report
    to the last bit.
    """
    if not rows:
        raise InvalidArgumentError("rows must be nonempty")
    if format not in ("csv", "json"):
        raise InvalidArgumentError(f"unknown format {format!r}")
    names = [f.name for f in fields(rows[0])]
    close = isinstance(destination, (str, bytes, os.PathLike))
    if close:
        destination = open(destination, "w")
    try:
        if format == "csv":
            destination.write(",".join(names) + "\n")
            for r in rows:
                destination.write(",".join(f"{getattr(r, name):.17g}"
                                           for name in names) + "\n")
        else:
            payload = [{name: getattr(r, name) for name in names}
                       for r in rows]
            json.dump(payload, destination, indent=1)
            destination.write("\n")
    finally:
        if close:
            destination.close()


def parse_report(source, format: str, row_type=ConvergenceRow):
    """Inverse of emit_report for rows of row_type, ConvergenceRow or
    PhiEstimateRow; source is a path, file object, or text.

    A str is read as text when it holds a newline (emit_report always ends
    with one) or starts with "["; any other str is a path, commas included.
    """
    if format not in ("csv", "json"):
        raise InvalidArgumentError(f"unknown format {format!r}")
    names = [f.name for f in fields(row_type)]
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str) and ("\n" in source
                                      or source.lstrip().startswith("[")):
        text = source
    else:
        with open(source) as fh:
            text = fh.read()
    try:
        if format == "csv":
            lines = [ln for ln in text.splitlines() if ln.strip()]
            if not lines or lines[0] != ",".join(names):
                raise InvalidArgumentError("missing or wrong CSV header")
            records = [ln.split(",") for ln in lines[1:]]
        else:
            records = [[obj[k] for k in names] for obj in json.loads(text)]
        return [row_type(*map(float, rec)) for rec in records]
    except InvalidArgumentError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        # a short or non-numeric row, a missing key, JSON that is not a
        # list of objects, or no JSON at all (JSONDecodeError is a ValueError)
        raise InvalidArgumentError(f"malformed {format} report: {exc!r}") from exc
