"""Convergence tables tying exact enumeration to the asymptotic models.

Each table pairs an exactly computed quantity with a closed-form model and
records the ratio plus a model-specific scaled residual.  Acceptance is
property-based: residuals stay inside fixed safety-factor bands and ratios
drift toward 1 along the default grids.  The safety factors compensate for
unspecified constants in the error terms, they are not sharp claims.

run_verify runs the checks of `primecycles verify` and returns each one's
Verdict as data, beside the tables it emits; the command line only prints
them.
"""

import contextlib
import json
import math
import os
from dataclasses import dataclass, fields

from primecycles.errors import (
    InvalidArgumentError,
    ResourceLimitError,
    _integer,
)
from primecycles.exact_enum import (
    FLOAT_CAP_DEFAULT,
    CountTable,
    build_table,
    partial_sums,
)
from primecycles.analytic import (
    Constants,
    PhiSplitSums,
    SeriesSum,
    make_constants,
    odlyzko_sum_model,
    partial_sum_log_model,
)
from primecycles.cycle_classes import KIND_PRIMES, CycleClassSpec
from primecycles.primes import (
    NthPrimes,
    PrimesUpTo,
    feed_primes,
    iter_prime_blocks,
)

N_GRID_DEFAULT = (100, 1000, 10_000, 100_000)
T_GRID_DEFAULT = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
PNT_GRID_DEFAULT = (1000, 10_000, 100_000, 1_000_000)
SLOWVAR_U_DEFAULT = (0.1, 0.5, 1.0, 2.0, 10.0)
SLOWVAR_T_DEFAULT = (1e2, 1e4, 1e6)

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
    grid = [_integer(x, "grid entries", 2) for x in grid]
    if not grid:
        raise InvalidArgumentError("grid must be nonempty")
    return grid


def partial_sum_table(table: CountTable, n_grid, constants: Constants,
                      sums=None):
    """Rows comparing T_n against e^c ln n over the grid.

    sums, if given, are partial_sums(table, n_grid), taken once for both
    partial-sum tables; by default they are taken here.

    scaled_residual = (T_n/ln n - e^c) * ln ln n, the natural scale of the
    model's error term.
    """
    if table.spec.kind != KIND_PRIMES:
        raise InvalidArgumentError("partial-sum table is defined for the primes spec")
    n_grid = _checked_grid(n_grid)
    if sums is None:
        sums = partial_sums(table, n_grid)
    rows = []
    for n, total in zip(n_grid, sums, strict=True):
        exact = float(total)
        model = partial_sum_log_model(n, constants)
        resid = (exact / math.log(n) - constants.e_to_c) * math.log(math.log(n))
        rows.append(make_row(n, exact, model, resid))
    return rows


def hlk_comparison_table(table: CountTable, n_grid, constants: Constants,
                         sums=None, series=None):
    """Rows comparing T_n against f_A(1 - 1/n) / Gamma(rho + 1), as
    odlyzko_sum_model gives it for every spec; for the primes that is
    f_eval(1 - 1/n) itself (density 0, Gamma(1) = 1).

    sums, if given, are partial_sums(table, n_grid), and series, if given,
    the series over table.spec at each 1 - 1/n, as analytic.SeriesSum
    accumulators fed from a shared stream return them; by default both are
    taken here.

    scaled_residual = (ratio - 1) * ln ln n.
    """
    n_grid = _checked_grid(n_grid)
    if sums is None:
        sums = partial_sums(table, n_grid)
    if series is None:
        series = [None] * len(n_grid)
    rows = []
    for n, total, f_series in zip(n_grid, sums, series, strict=True):
        exact = float(total)
        model = odlyzko_sum_model(table.spec, n, constants, f_series)
        resid = (exact / model - 1.0) * math.log(math.log(n))
        rows.append(make_row(n, exact, model, resid))
    return rows


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


def phi_estimate_table(splits, constants: Constants):
    """Per t: the split, its recombination against phi_eval(e^-t), and the
    three residuals on their natural scales.

    splits are (PhiSplit, phi_eval(e^-t)) pairs as analytic.phi_split_grid
    or an analytic.PhiSplitSums fed from a shared stream returns them.

    phi1_scaled = (phi1 - lnln(1/t) - c) * ln(1/t)/lnln(1/t)
    phi2_scaled = phi2 * lnln(1/t)
    phi3_scaled = phi3 / (e^{-yt}/(yt))   (geometric-tail envelope)
    """
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


def pnt_table(k_grid, primes):
    """Rows of (k, p_k) against the model k ln k; scaled_residual = ratio - 1.

    primes are the grid's p_k, as primes.nth_primes(k_grid) or a
    primes.NthPrimes fed from a shared stream returns them.
    """
    k_grid = _checked_grid(k_grid)
    rows = []
    for k, pk in zip(k_grid, primes, strict=True):
        model = k * math.log(k)
        ratio = pk / model
        rows.append(make_row(k, pk, model, ratio - 1.0))
    return rows


# -- verdicts ------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """One check's outcome: reason is None if it passed, else why it failed.
    bound is the numeric bound the check applied and share the largest
    fraction of it that a row used; pnt's check is an ordering with no
    numeric bound, so both are None there."""

    name: str
    reason: str | None
    bound: float | None
    share: float | None


def _convergence(rows):
    """The failure reason if the last ratio lies further from 1 than the
    first, else None."""
    if len(rows) > 1 and abs(rows[-1].ratio - 1.0) > abs(rows[0].ratio - 1.0):
        return "ratio not converging toward 1 across the grid"
    return None


def partial_sum_verdict(rows) -> Verdict:
    """Every scaled residual within the bound, the ratios converging."""
    bound = PARTIAL_SUM_RESIDUAL_BOUND
    bad = [r.x for r in rows if abs(r.scaled_residual) > bound]
    reason = (f"scaled residual beyond {bound} at x={bad[0]:g}" if bad
              else _convergence(rows))
    worst = max(abs(r.scaled_residual) for r in rows)
    return Verdict("partial-sum", reason, bound, worst / bound)


def hlk_verdict(rows) -> Verdict:
    """The last ratio within the bound of 1, the ratios converging; the
    bound applies to the last row only, so share is that row's."""
    bound = HLK_RATIO_BOUND
    off = abs(rows[-1].ratio - 1.0)
    reason = (f"|ratio-1| = {off:.3g} > {bound} at the last row"
              if off > bound else _convergence(rows))
    return Verdict("hlk", reason, bound, off / bound)


def phi_verdict(rows) -> Verdict:
    """The bound is the safety factor on the three scaled residuals; the
    recombination's relative tolerance is checked too, but not in share."""
    bound = PHI_SAFETY_FACTOR
    reason = None
    for r in rows:
        if abs(r.recombined - r.direct) > PHI_RECOMBINATION_RTOL * abs(r.direct):
            reason = f"recombination off at t={r.t:g}"
        elif abs(r.phi1_scaled) > bound:
            reason = f"phi1 residual beyond safety factor at t={r.t:g}"
        elif abs(r.phi2_scaled) > bound:
            reason = f"phi2 beyond safety factor at t={r.t:g}"
        elif not 0.0 <= r.phi3_scaled <= bound:
            reason = f"phi3 beyond envelope safety factor at t={r.t:g}"
        if reason:
            break
    worst = max((max(abs(r.phi1_scaled), abs(r.phi2_scaled),
                     abs(r.phi3_scaled)) for r in rows), default=0.0)
    return Verdict("phi", reason, bound, worst / bound)


def pnt_verdict(rows) -> Verdict:
    """Every ratio in (1, inf), strictly decreasing along the grid."""
    outside = [r.x for r in rows
               if not (math.isfinite(r.ratio) and r.ratio > 1.0)]
    rising = [b.x for a, b in zip(rows, rows[1:]) if not b.ratio < a.ratio]
    reason = None
    if outside:
        reason = f"ratio not in (1, inf) at k={outside[0]:g}"
    elif rising:
        reason = f"ratio not strictly decreasing at k={rising[0]:g}"
    return Verdict("pnt", reason, None, None)


def slow_variation_check(u_list, t_grid) -> Verdict:
    """For L = ln: max over u of |ln(u t)/ln(t) - 1| at the largest grid t.

    The bound ln(10)/ln(max t), plus 1e-15 for rounding, is what u in
    [0.1, 10] allows; u = 1 gives 0.
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
    worst = max(abs(math.log(u * t) / math.log(t) - 1.0) for u in u_list)
    bound = math.log(10.0) / math.log(t) + 1e-15
    reason = (None if worst <= bound
              else f"max deviation {worst:.3g} beyond {bound:.3g}")
    return Verdict("slowvar", reason, bound, worst / bound)


_VERDICTS = {"partial-sum": partial_sum_verdict, "hlk": hlk_verdict,
             "phi": phi_verdict, "pnt": pnt_verdict}


@dataclass(frozen=True)
class VerifyRun:
    """What run_verify found: one Verdict per selected check, in CHECK_NAMES
    order, and the row tables it emits, by check name (slowvar has none)."""

    verdicts: tuple
    tables: dict


def run_verify(n_grid, t_grid, which) -> VerifyRun:
    """Run the checks named in which, a subset of CHECK_NAMES.

    Every prime the checks read comes off one stream, to the largest limit
    among its accumulators:
    - primes.PrimesUpTo(max(n_grid)) fills the float count table over the
      primes that partial-sum and hlk read; the two share one partial_sums
      call
    - one analytic.SeriesSum per n takes the hlk model's series at 1 - 1/n
    - analytic.PhiSplitSums takes the phi split over the t grid
    - primes.NthPrimes takes p_k for k on PNT_GRID_DEFAULT, for pnt
    Every grid a selected check reads is validated, and the count table's
    float cap checked, before any table is built or any prime streamed.
    """
    selected = set(which)
    if not selected <= set(CHECK_NAMES):
        raise InvalidArgumentError(
            f"unknown checks {sorted(selected - set(CHECK_NAMES))}")
    readers = {}  # name -> its accumulators on the shared stream
    if selected & {"partial-sum", "hlk"}:
        n_grid = _checked_grid(n_grid)
        n_max = _integer(max(n_grid), "float n_max",
                         maximum=FLOAT_CAP_DEFAULT, above=ResourceLimitError)
        readers["members"] = [PrimesUpTo(n_max)]
    if "hlk" in selected:
        readers["hlk"] = [SeriesSum(1.0 - 1.0 / n) for n in n_grid]
    if "phi" in selected:
        t_grid = list(t_grid)
        if not t_grid:  # a phi check over no t would judge nothing
            raise InvalidArgumentError("t grid must be nonempty")
        readers["phi"] = [PhiSplitSums(t_grid)]  # refuses a t out of domain
    if "pnt" in selected:
        readers["pnt"] = [NthPrimes(PNT_GRID_DEFAULT)]
    constants = make_constants()
    accs = [acc for group in readers.values() for acc in group]
    if accs:
        stream = iter_prime_blocks(max(acc.limit for acc in accs))
        results = iter(feed_primes(stream, *accs))
        got = {name: [next(results) for _ in group]
               for name, group in readers.items()}
    tables = {}
    if "members" in readers:
        count_table = build_table(CycleClassSpec.primes(got["members"][0]),
                                  n_max, mode="float")
        sums = partial_sums(count_table, n_grid)
    if "partial-sum" in selected:
        tables["partial-sum"] = partial_sum_table(count_table, n_grid,
                                                  constants, sums)
    if "hlk" in selected:
        tables["hlk"] = hlk_comparison_table(count_table, n_grid, constants,
                                             sums, got["hlk"])
    if "phi" in selected:
        tables["phi"] = phi_estimate_table(got["phi"][0], constants)
    if "pnt" in selected:
        tables["pnt"] = pnt_table(PNT_GRID_DEFAULT, got["pnt"][0])
    verdicts = [_VERDICTS[name](rows) for name, rows in tables.items()]
    if "slowvar" in selected:
        verdicts.append(slow_variation_check(SLOWVAR_U_DEFAULT,
                                             SLOWVAR_T_DEFAULT))
    return VerifyRun(tuple(verdicts), tables)


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
    with (open(destination, "w")
          if isinstance(destination, (str, bytes, os.PathLike))
          else contextlib.nullcontext(destination)) as out:
        if format == "csv":
            out.write(",".join(names) + "\n")
            for r in rows:
                out.write(",".join(f"{getattr(r, name):.17g}"
                                   for name in names) + "\n")
        else:
            payload = [{name: getattr(r, name) for name in names}
                       for r in rows]
            json.dump(payload, out, indent=1)
            out.write("\n")


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
