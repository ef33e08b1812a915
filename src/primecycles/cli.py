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
    _check_t,
    f_eval,
    make_constants,
    phi_deriv,
    phi_eval,
    phi_split,
)
from primecycles.cycle_classes import KIND_STEPS, CycleClassSpec
from primecycles.errors import (
    InvalidArgumentError,
    OutOfDomainError,
    PrimecyclesError,
    _integer,
)
from primecycles.exact_enum import (
    EXACT_CAP_DEFAULT,
    big_str,
    build_table,
    count_exact,
    dump_table,
    partial_sum,
)
from primecycles.primes import build_sieve
from primecycles.sampler import Sampler
from primecycles.verify import (
    CHECK_NAMES,
    N_GRID_DEFAULT,
    T_GRID_DEFAULT,
    emit_report,
    run_verify,
)

# sample draws from exact tables up to this n, from float tables above
SAMPLE_EXACT_MAX = 200


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


def _spec_arg(text: str):
    """An argparse type: the parsed spec, or None for the primes, whose
    sieve waits for n.  A spec that does not parse is a usage error."""
    if text == "primes":
        return None
    try:
        return parse_spec(text)
    except InvalidArgumentError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _make_spec(spec, needed: int) -> CycleClassSpec:
    """The parsed --spec, or for the primes (None) a spec over a sieve to
    max(needed, 1000)."""
    if spec is None:
        return CycleClassSpec.primes(build_sieve(max(needed, 1000)))
    return spec


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
    which = CHECK_NAMES if args.which == "all" else (args.which,)
    run = run_verify(args.n_grid or N_GRID_DEFAULT,
                     args.t_grid or T_GRID_DEFAULT, which)
    for v in run.verdicts:
        print(f"{v.name}: ok" if v.reason is None
              else f"{v.name}: FAIL ({v.reason})")
    if args.out:
        for name, rows in run.tables.items():
            emit_report(rows, args.format, f"{args.out}-{name}.{args.format}")
    failures = [v.name for v in run.verdicts if v.reason is not None]
    if failures:
        print("failed checks: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


def _integer_at_least(minimum: int, what: str = "value"):
    """An argparse type: an int of at least minimum.  Below it is a usage
    error that names the bound; text that is no int reads "invalid integer
    value"."""
    def integer(text):
        try:
            return _integer(int(text), what, minimum)
        except InvalidArgumentError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return integer


def _t_value(text):
    """An argparse type: a float t in phi_split's domain; outside it is a
    usage error that names the domain."""
    t = float(text)
    try:
        _check_t(t)
    except OutOfDomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return t


def _csv_of(item):
    """An argparse type: comma-separated entries, each parsed by the type
    item, as a tuple."""
    def grid(text):
        return tuple(item(v) for v in text.split(","))
    return grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primecycles",
        description="Exact and asymptotic enumeration of permutations "
                    "with constrained cycle lengths.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec(p, n_flag="--n", n_min=0):
        p.add_argument("--spec", type=_spec_arg, default="primes",
                       help="primes | all | odd | even | mod:m:r1,r2,... "
                            "| set:k1,k2,...")
        p.add_argument(n_flag, type=_integer_at_least(n_min), required=True,
                       help="permutation size")
        p.add_argument("--exact-cap", type=_integer_at_least(0),
                       default=EXACT_CAP_DEFAULT,
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
    p.add_argument("--k-max", type=_integer_at_least(10), default=60)
    p.add_argument("--limit", type=_integer_at_least(2), default=10_000_000,
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
    p.add_argument("--n-grid",
                   type=_csv_of(_integer_at_least(2, "grid entries")),
                   default=None, help="comma-separated n grid, each n >= 2")
    p.add_argument("--t-grid", type=_csv_of(_t_value), default=None,
                   help="comma-separated t grid, each t in "
                        "[-ln(1 - 1e-9), e^-e)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None,
                   help="prefix for emitted per-check tables")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("sample", help="sample cycle types, one per line")
    add_spec(p, n_min=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=_integer_at_least(1), default=1)
    p.set_defaults(handler=cmd_sample)

    return parser


def _validate(args, parser) -> None:
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args, parser)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except (PrimecyclesError, OSError) as exc:
        # OSError: an output file that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
