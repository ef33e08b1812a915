"""Command-line front door: counting, tables, constants, phi, verification
tables, and cycle-type sampling.

Exit codes: 0 success, 1 domain/computation error, 2 usage error.  Output on
stdout is deterministic for identical argv; errors go to stderr.
"""

import argparse
import json
import math
import sys

from primecycles.analytic import (
    PhiSplitSums,
    f_eval,
    make_constants,
    phi_deriv,
    phi_eval,
    phi_split,
)
from primecycles.cycle_classes import KIND_STEPS, CycleClassSpec
from primecycles.errors import InvalidArgumentError, PrimecyclesError
from primecycles.exact_enum import (
    EXACT_CAP_DEFAULT,
    big_str,
    build_table,
    count_exact,
    dump_table,
    partial_sum,
)
from primecycles.primes import (
    NthPrimes,
    build_sieve,
    feed_primes,
    iter_prime_blocks,
)
from primecycles.sampler import Sampler
from primecycles.verify import (
    CHECK_NAMES,
    N_GRID_DEFAULT,
    T_GRID_DEFAULT,
    check_hlk,
    check_partial_sum,
    check_phi,
    check_pnt,
    check_slowvar,
    emit_report,
    hlk_comparison_table,
    partial_sum_table,
    phi_estimate_table,
    pnt_table,
    slow_variation_check,
)

# sample draws from exact tables up to this n, from float tables above
SAMPLE_EXACT_MAX = 200

PNT_GRID_DEFAULT = (1000, 10_000, 100_000, 1_000_000)
SLOWVAR_U_DEFAULT = (0.1, 0.5, 1.0, 2.0, 10.0)
SLOWVAR_T_DEFAULT = (1e2, 1e4, 1e6)


def parse_spec(text: str, table=None) -> CycleClassSpec:
    """Spec syntax: primes | all | odd | even | mod:m:r1,r2,... | set:k1,k2,..."""
    if text == "primes":
        if table is None:
            raise InvalidArgumentError("primes spec needs a sieve table")
        return CycleClassSpec.primes(table)
    if text == "all":
        return CycleClassSpec.all_lengths()
    if text == "odd":
        return CycleClassSpec.residue_classes(2, (1,))
    if text == "even":
        return CycleClassSpec.residue_classes(2, (0,))
    if text.startswith("mod:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidArgumentError(f"bad residue spec {text!r}")
        try:
            m = int(parts[1])
            rs = tuple(int(r) for r in parts[2].split(","))
        except ValueError as exc:
            raise InvalidArgumentError(f"bad residue spec {text!r}") from exc
        return CycleClassSpec.residue_classes(m, rs)
    if text.startswith("set:"):
        try:
            ks = tuple(int(k) for k in text[4:].split(","))
        except ValueError as exc:
            raise InvalidArgumentError(f"bad explicit spec {text!r}") from exc
        return CycleClassSpec.explicit(ks)
    raise InvalidArgumentError(f"unknown spec {text!r}")


def _make_spec(text: str, needed: int) -> CycleClassSpec:
    """parse_spec, with a sieve to max(needed, 1000) for the primes."""
    table = build_sieve(max(needed, 1000)) if text == "primes" else None
    return parse_spec(text, table)


def _print_float_count(n: int, a: float) -> None:
    if a <= 0.0:
        print("0")
        return
    log10v = (math.lgamma(n + 1.0) + math.log(a)) / math.log(10.0)
    if log10v < 300.0:
        # a * n! in integers, rounded once: n! alone may exceed any double
        num, den = a.as_integer_ratio()
        print(f"{num * math.factorial(n) / den:.17g}")
    else:
        exp10 = int(math.floor(log10v))
        mant = 10.0 ** (log10v - exp10)
        print(f"{mant:.17g}e+{exp10}")


def cmd_count(args) -> int:
    spec = _make_spec(args.spec, args.n)
    if args.mode == "exact":
        print(big_str(count_exact(spec, args.n, exact_cap=args.exact_cap)))
    else:
        table = build_table(spec, args.n, mode="float")
        _print_float_count(args.n, float(table.a_float[args.n]))
    return 0


def cmd_table(args) -> int:
    spec = _make_spec(args.spec, args.n_max)
    table = build_table(spec, args.n_max, mode=args.mode,
                        exact_cap=args.exact_cap)
    dump_table(table, args.out or sys.stdout)
    return 0


def cmd_sum(args) -> int:
    spec = _make_spec(args.spec, args.n)
    table = build_table(spec, args.n, mode=args.mode, exact_cap=args.exact_cap)
    total = partial_sum(table, args.n)
    print(total if args.mode == "exact" else f"{total:.17g}")
    return 0


def cmd_constants(args) -> int:
    consts = make_constants(args.method, k_max=args.k_max, limit=args.limit)
    print("{"
          f'"euler_gamma": {consts.euler_gamma:.15g}, '
          f'"mertens_c": {consts.mertens_c:.15g}, '
          f'"e_to_c": {consts.e_to_c:.15g}, '
          f'"method": {json.dumps(consts.method)}, '
          f'"tail_bound": {consts.tail_bound:.15g}'
          "}")
    return 0


def cmd_phi(args) -> int:
    if args.split:
        s = phi_split(args.t)
        print("t,cutoff,phi1,phi2,phi3")
        print(f"{s.t:.17g},{s.cutoff:.17g},{s.phi1:.17g},"
              f"{s.phi2:.17g},{s.phi3:.17g}")
    elif args.f:
        print(f"{f_eval(args.z):.17g}")
    elif args.order:
        print(f"{phi_deriv(args.z, args.order):.17g}")
    else:
        print(f"{phi_eval(args.z):.17g}")
    return 0


def cmd_sample(args) -> int:
    spec = _make_spec(args.spec, args.n)
    # float tables of finite sets underflow early (a_400 for set:2), so
    # those take exact tables up to the exact cap
    cap = args.exact_cap
    if not (spec.kind == KIND_STEPS and spec.period is None):
        cap = min(cap, SAMPLE_EXACT_MAX)
    mode = "exact" if args.n <= cap else "float"
    sampler = Sampler(build_table(spec, args.n, mode=mode,
                                  exact_cap=args.exact_cap), args.seed)
    for _ in range(args.count):
        sample = sampler.sample(args.n)
        print(",".join(str(k) for k in sample.lengths))
    return 0


def cmd_verify(args) -> int:
    selected = CHECK_NAMES if args.which == "all" else (args.which,)
    n_grid = args.n_grid or N_GRID_DEFAULT
    t_grid = args.t_grid or T_GRID_DEFAULT
    constants = make_constants()
    failures = []
    emitted = {}

    if "partial-sum" in selected or "hlk" in selected:
        # the table reads members up to max(n_grid); the hlk model streams its own
        spec = _make_spec("primes", max(n_grid))
        count_table = build_table(spec, max(n_grid), mode="float")
    if "partial-sum" in selected:
        rows = partial_sum_table(count_table, n_grid, constants)
        emitted["partial-sum"] = rows
        _report_check("partial-sum", check_partial_sum(rows), failures)
    if "hlk" in selected:
        rows = hlk_comparison_table(count_table, n_grid, constants)
        emitted["hlk"] = rows
        _report_check("hlk", check_hlk(rows), failures)
    # the phi and pnt checks read their primes off one stream
    readers = {}
    if "phi" in selected:
        readers["phi"] = PhiSplitSums(t_grid)
    if "pnt" in selected:
        readers["pnt"] = NthPrimes(PNT_GRID_DEFAULT)
    if readers:
        stream = iter_prime_blocks(max(acc.limit for acc in readers.values()))
        streamed = dict(zip(readers, feed_primes(stream, *readers.values())))
    if "phi" in selected:
        rows = phi_estimate_table(t_grid, constants, streamed["phi"])
        emitted["phi"] = rows
        _report_check("phi", check_phi(rows), failures)
    if "pnt" in selected:
        rows = pnt_table(PNT_GRID_DEFAULT, streamed["pnt"])
        emitted["pnt"] = rows
        _report_check("pnt", check_pnt(rows), failures)
    if "slowvar" in selected:
        report = slow_variation_check(SLOWVAR_U_DEFAULT, SLOWVAR_T_DEFAULT)
        _report_check("slowvar", check_slowvar(report), failures)

    if args.out:
        for name, rows in emitted.items():
            emit_report(rows, args.format, f"{args.out}-{name}.{args.format}")
    if failures:
        print("failed checks: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


def _report_check(name, detail, failures):
    if detail is None:
        print(f"{name}: ok")
    else:
        print(f"{name}: FAIL ({detail})")
        failures.append(name)


def _csv_ints(text):
    return tuple(int(v) for v in text.split(","))


def _csv_floats(text):
    return tuple(float(v) for v in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primecycles",
        description="Exact and asymptotic enumeration of permutations "
                    "with constrained cycle lengths.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec(p, needs_n=True, n_flag="--n"):
        p.add_argument("--spec", default="primes",
                       help="primes | all | odd | even | mod:m:r1,r2,... "
                            "| set:k1,k2,...")
        if needs_n:
            p.add_argument(n_flag, type=int, required=True,
                           help="permutation size")
        p.add_argument("--exact-cap", type=int, default=EXACT_CAP_DEFAULT,
                       help="largest n allowed in exact mode")

    p = sub.add_parser("count", help="exact or estimated count of valid permutations")
    add_spec(p)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("table", help="dump the coefficient table as CSV")
    add_spec(p, n_flag="--n-max")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("sum", help="partial sum T_n of the coefficients")
    add_spec(p)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.set_defaults(handler=cmd_sum)

    p = sub.add_parser("constants", help="shared constants as JSON")
    p.add_argument("--method", choices=("zeta", "direct"), default="zeta")
    p.add_argument("--k-max", type=int, default=60)
    p.add_argument("--limit", type=int, default=10_000_000,
                   help="prime summation limit for --method direct")
    p.set_defaults(handler=cmd_constants)

    p = sub.add_parser("phi", help="evaluate phi, its derivatives, or its split")
    p.add_argument("--z", type=float, default=None)
    what = p.add_mutually_exclusive_group()
    what.add_argument("--order", type=int, choices=(1, 2, 3), default=None)
    what.add_argument("--f", action="store_true", help="exp(phi(z)) instead of phi(z)")
    what.add_argument("--split", action="store_true", help="three-way split at --t")
    p.add_argument("--t", type=float, default=None)
    p.set_defaults(handler=cmd_phi)

    p = sub.add_parser("verify", help="run convergence checks, exit 0 iff all hold")
    p.add_argument("--which",
                   choices=("all",) + CHECK_NAMES,
                   default="all")
    p.add_argument("--n-grid", type=_csv_ints, default=None,
                   help="comma-separated n grid")
    p.add_argument("--t-grid", type=_csv_floats, default=None,
                   help="comma-separated t grid")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None,
                   help="prefix for emitted per-check tables")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("sample", help="sample cycle types, one per line")
    add_spec(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(handler=cmd_sample)

    return parser


def _validate(args, parser) -> None:
    n_val = getattr(args, "n", None)
    if n_val is not None and n_val < 0:
        parser.error(f"--n must be >= 0, got {n_val}")
    n_max = getattr(args, "n_max", None)
    if n_max is not None and n_max < 0:
        parser.error(f"--n-max must be >= 0, got {n_max}")
    if getattr(args, "count", None) is not None and args.count < 1:
        parser.error(f"--count must be >= 1, got {args.count}")
    if args.command == "phi":
        if args.split:
            if args.t is None:
                parser.error("--split needs --t")
            if args.z is not None:
                parser.error("--split takes --t, not --z")
        elif args.z is None:
            parser.error("phi needs --z (or --split with --t)")
        elif args.t is not None:
            parser.error("--t is read only with --split")
    if args.command == "sample" and args.n < 1:
        parser.error(f"--n must be >= 1, got {args.n}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args, parser)
        needs_spec = args.command in ("count", "table", "sum", "sample")
        if needs_spec and args.spec != "primes":
            # spec syntax errors are usage errors, not domain errors
            try:
                parse_spec(args.spec)
            except InvalidArgumentError as exc:
                parser.error(str(exc))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except PrimecyclesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
