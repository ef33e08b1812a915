"""Benchmark for primecycles: three closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --seed 1            # all three, one after another
    python3 perfbench/run.py --smoke             # self-test at tiny sizes

One workload runs in one single-threaded process.  The run repeats the
workload's pass until ``--seconds`` of wall time are used up, checking each
pass's outputs outside the timed region, then times set-up (import, sieves,
constants) in fresh child processes.  ``--trace 1`` alternates untraced and
traced passes instead and reports per-layer metrics from the traced ones.

Times are process CPU time: the workloads are single-threaded and do no
I/O, so on an idle core CPU time equals wall time, and it leaves out the
time a shared host takes the CPU away.  On a shared host the CPU's speed
itself also drifts by 20% or more over tens of seconds, as neighbours load
the same cores.  So the gated times are normalized: three fixed kernels
(``Calibrator``) run right before and right after every pass, and after
every set-up, and the pass's CPU time is divided by their current
slowness relative to ``CALIB_REF_S``.  A normalized time is in seconds at
the speed the kernels had where the benchmark was tuned.  Raw CPU time and
wall time are reported too, ungated, in the traced run (``pass_cpu_s``,
``wall_s``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it repeat every
metric with its unit and sample count.  Raw per-pass samples, provenance
and, for traced runs, every span go to ``perfbench/out/``.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

# pinned before numpy is imported here or in any child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("verify", "exact", "float-sample")
SETUP_CHILDREN = 8
# CPU seconds of each Calibrator kernel on the machine the benchmark was
# tuned on, a 2-vCPU Intel Xeon VM running Python 3.11 and numpy 2.4; round
# figures between the medians of its fast and slow spells
CALIB_REF_S = (0.025, 0.028, 0.025)
CHILD_TIMEOUT_S = 170
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "primes.build_sieve_s": "s",
    "primes.build_sieve_ns_per_int": "ns/int",
    "primes.stream_s": "s",
    "primes.stream_ns_per_int": "ns/int",
    "primes.stream_ints": "count",
    "primes.stream_primes": "count",
    "primes.stream_calls": "count",
    "analytic.phi_split_self_s": "s",
    "analytic.phi_eval_self_s": "s",
    "analytic.make_constants_s": "s",
    "analytic.yakimiv_log_model_s": "s",
    "exact_enum.count_exact_upto.primes_s": "s",
    "exact_enum.count_exact_upto.residues_s": "s",
    "exact_enum.build_table.exact_s": "s",
    "exact_enum.build_table.float_s": "s",
    "exact_enum.build_table.fast_s": "s",
    "exact_enum.coeffs": "count",
    "exact_enum.partial_sum_s": "s",
    "exact_enum.dump_table_s": "s",
    "exact_enum.check_mismatches": "count",
    "sampler.sample_self_s": "s",
    "sampler.first_cycle_distribution_s": "s",
    "sampler.first_cycle_distribution_calls": "count",
    "sampler.cycles_drawn": "count",
    "sampler.cache_hit_ratio": "ratio",
    "cycle_classes.members_upto_s": "s",
    "cycle_classes.members_upto_calls": "count",
    "verify.partial_sum_table_self_s": "s",
    "verify.hlk_comparison_table_self_s": "s",
    "verify.phi_estimate_table_self_s": "s",
    "verify.pnt_table_self_s": "s",
    "cli.main_self_s": "s",
    "trace.overhead_s": "s",
    # end-to-end figures that are not steady on a shared host, that some
    # workloads cannot produce, or that read 0; measured on untraced passes
    "pass_cpu_s": "s",
    "wall_s": "s",
    "table_coeffs_per_s": "1/s",
    "failed_ratio": "ratio",
    "samples_per_s": "1/s",
    "sample_p50_us": "us",
    "sample_p99_us": "us",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload (default 35, or 1 with --smoke)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes; with --workload all, also check the result format")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Calibrator:
    """Times three fixed kernels, one per kind of work the workloads do:
    an interpreter loop, numpy memory streaming and big-integer multiplies.

    ``slowness(times())`` is the geometric mean of their CPU times, each
    relative to its figure in ``CALIB_REF_S``.  No kernel calls the
    package, so program changes cannot move it.
    """

    def __init__(self):
        import numpy

        self._mask = numpy.ones(1 << 22, dtype=bool)
        self._flatnonzero = numpy.flatnonzero
        self._big = 3 ** 20000

    def _interpreter(self):
        acc = 0
        for i in range(300_000):
            acc += i * i

    def _memory(self):
        for _ in range(3):
            self._mask[:] = True
            for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
                self._mask[p::p] = False
            self._flatnonzero(self._mask)

    def _bigint(self):
        x = 1
        for k in range(1200):
            x *= k + 12345
        y = self._big
        for _ in range(40):
            y = (y * self._big) >> 31690

    def times(self):
        out = []
        for kernel in (self._interpreter, self._memory, self._bigint):
            start = time.process_time()
            kernel()
            out.append(time.process_time() - start)
        return out

    def slowness(self, times):
        product = 1.0
        for took, ref in zip(times, CALIB_REF_S):
            product *= took / ref
        return product ** (1.0 / len(CALIB_REF_S))


def import_package():
    """Load primecycles from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "primecycles", "__init__.py")):
        raise SystemExit(f"error: no primecycles package under {SRC}")
    sys.path.insert(0, SRC)
    import primecycles

    if not os.path.abspath(primecycles.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: primecycles loaded from {primecycles.__file__}")


def timed_setup(name, smoke):
    """Import the package and build the workload's set-up; (workload, CPU s)."""
    start = time.process_time()
    import_package()
    import workloads

    workload = workloads.make(name, smoke)
    workload.setup()
    return workload, time.process_time() - start


def child_setups(name, smoke):
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", name]
    if smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def run_pass(workload, index, seed, tracer, sample_op, calibrator):
    """One pass: ops timed back to back, then checked outside the timing."""
    import workloads

    ops = workload.ops(workloads.pass_rng(seed, index))
    calib_before = calibrator.times()
    outputs, errors, op_s = {}, {}, {}
    clock = time.process_time
    with tracer.installed():
        mark = tracer.mark()
        wall_start = time.perf_counter()
        start = clock()
        for op in ops:
            t0 = clock()
            try:
                outputs[op.name] = op.run()
            except Exception:
                errors[op.name] = traceback.format_exc(limit=3)
            op_s[op.name] = clock() - t0
        cpu = clock() - start
        wall = time.perf_counter() - wall_start
    calib_after = calibrator.times()
    slowness = (calibrator.slowness(calib_before) + calibrator.slowness(calib_after)) / 2
    failed, mismatches, problems = 0, 0, {}
    for op in ops:
        if op.name in errors:
            failed += 1
            problems[op.name] = errors[op.name]
            continue
        try:
            bad = op.check(outputs[op.name], outputs)
        except Exception as exc:
            failed += 1
            problems[op.name] = f"{type(exc).__name__}: {exc}"
            continue
        if bad:
            failed += 1
            mismatches += bad
            problems[op.name] = f"{bad} wrong values"
    latencies = []
    if sample_op and sample_op in outputs:
        latencies = outputs[sample_op][1]
    return {
        "index": index, "cpu_s": cpu, "wall_s": wall, "slowness": slowness,
        "calib_s": [calib_before, calib_after],
        "op_s": op_s, "attempted": len(ops),
        "failed": failed, "mismatches": mismatches, "problems": problems,
        "sample_latencies_s": latencies, "mark": mark,
    }


def measure(workload, args):
    """Passes until the time is used up; trace runs alternate untraced and
    traced passes and end on a traced one."""
    import spans

    sample_op = getattr(workload, "sample_op", None)
    calibrator = Calibrator()
    tables = spans.Tracer(spans.TABLE_BOUNDARIES, methods=())
    full = spans.Tracer()
    setup_totals = {}
    if args.trace:
        with full.installed():
            workload.setup()
        setup_totals = full.totals()
    deadline = time.perf_counter() + args.seconds
    min_passes = 1 if args.smoke else MIN_PASSES
    if args.trace:
        min_passes *= 2
    passes = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = full if traced else tables
        began = time.perf_counter()
        record = run_pass(workload, len(passes), args.seed, tracer, sample_op, calibrator)
        record["traced"] = traced
        record["table_s"], record["coeffs"] = tracer.outermost(spans.TABLE_SPANS,
                                                               record["mark"])
        if traced:
            record["layers"] = layer_metrics(
                merge(setup_totals, full.totals(record["mark"])), record)
        passes.append(record)
        took = time.perf_counter() - began
        if len(passes) >= min_passes and time.perf_counter() + took > deadline \
                and (not args.trace or traced):
            break
    return passes, full


def merge(setup, per_pass):
    """Span totals of one traced pass plus those of the traced set-up."""
    out = {k: dict(v) for k, v in per_pass.items()}
    for name, entry in setup.items():
        into = out.setdefault(name, {})
        for key, value in entry.items():
            into[key] = into.get(key, 0) + value
    return out


def layer_metrics(t, record):
    def get(name, key="total_s"):
        return t.get(name, {}).get(key, 0)

    sieve_s, sieve_ints = get("primes.build_sieve"), get("primes.build_sieve", "ints")
    stream_s = get("primes.iter_prime_blocks")
    stream_ints = get("primes.iter_prime_blocks.call", "ints")
    fcd_calls = get("sampler.first_cycle_distribution", "calls")
    cycles = get("sampler.sample", "cycles")
    return {
        "primes.build_sieve_s": sieve_s,
        "primes.build_sieve_ns_per_int": 1e9 * sieve_s / sieve_ints if sieve_ints else 0.0,
        "primes.stream_s": stream_s,
        "primes.stream_ns_per_int": 1e9 * stream_s / stream_ints if stream_ints else 0.0,
        "primes.stream_ints": stream_ints,
        "primes.stream_primes": get("primes.iter_prime_blocks", "primes"),
        "primes.stream_calls": get("primes.iter_prime_blocks.call", "calls"),
        "analytic.phi_split_self_s": get("analytic.phi_split", "self_s"),
        "analytic.phi_eval_self_s": get("analytic.phi_eval", "self_s"),
        "analytic.make_constants_s": get("analytic.make_constants"),
        "analytic.yakimiv_log_model_s": get("analytic.yakimiv_log_model"),
        "exact_enum.count_exact_upto.primes_s": get("exact_enum.count_exact_upto.primes"),
        "exact_enum.count_exact_upto.residues_s":
            get("exact_enum.count_exact_upto.residues"),
        "exact_enum.build_table.exact_s": get("exact_enum.build_table.exact"),
        "exact_enum.build_table.float_s": get("exact_enum.build_table.float"),
        "exact_enum.build_table.fast_s": get("exact_enum.build_table.fast"),
        "exact_enum.coeffs": record["coeffs"],
        "exact_enum.partial_sum_s": get("exact_enum.partial_sum"),
        "exact_enum.dump_table_s": get("exact_enum.dump_table"),
        "exact_enum.check_mismatches": record["mismatches"],
        "sampler.sample_self_s": get("sampler.sample", "self_s"),
        "sampler.first_cycle_distribution_s": get("sampler.first_cycle_distribution"),
        "sampler.first_cycle_distribution_calls": fcd_calls,
        "sampler.cycles_drawn": cycles,
        "sampler.cache_hit_ratio": 1.0 - fcd_calls / cycles if cycles else 0.0,
        "cycle_classes.members_upto_s": get("cycle_classes.members_upto"),
        "cycle_classes.members_upto_calls": get("cycle_classes.members_upto", "calls"),
        "verify.partial_sum_table_self_s": get("verify.partial_sum_table", "self_s"),
        "verify.hlk_comparison_table_self_s": get("verify.hlk_comparison_table", "self_s"),
        "verify.phi_estimate_table_self_s": get("verify.phi_estimate_table", "self_s"),
        "verify.pnt_table_self_s": get("verify.pnt_table", "self_s"),
        "cli.main_self_s": get("cli.main", "self_s"),
    }


def sampling_figures(passes):
    """(samples/s, p50 us, p99 us, count) over the untraced passes' draws."""
    lat = [x for p in passes if not p["traced"] for x in p["sample_latencies_s"]]
    if not lat:
        return 0.0, 0.0, 0.0, 0
    p99 = statistics.quantiles(lat, n=100)[98] if len(lat) >= 100 else max(lat)
    return len(lat) / math.fsum(lat), 1e6 * statistics.median(lat), 1e6 * p99, len(lat)


def summarize(passes, setup_times, trace):
    """(metrics, extra, attempted, failed); metrics are the ones the result
    line carries, extra the rest, each {name: (value, unit, samples)}."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"]]
    cpu = [p["cpu_s"] for p in plain]
    rate, p50, p99, draws = sampling_figures(passes)
    rates = [p["coeffs"] * p["slowness"] / p["table_s"] for p in plain if p["table_s"] > 0]
    extra = {
        "pass_cpu_s": (statistics.median(cpu), "s", len(cpu)),
        "wall_s": (statistics.median(p["wall_s"] for p in plain), "s", len(plain)),
        "table_coeffs_per_s": (statistics.median(rates) if rates else 0.0, "1/s", len(rates)),
        "failed_ratio": (failed / attempted, "ratio", attempted),
        "samples_per_s": (rate, "1/s", draws),
        "sample_p50_us": (p50, "us", draws),
        "sample_p99_us": (p99, "us", draws),
    }
    if not trace:
        values = {
            "setup_s": (statistics.median(setup_times), len(setup_times)),
            "pass_s": (statistics.median(p["cpu_s"] / p["slowness"] for p in plain),
                       len(plain)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        }
        metrics = {name: (values[name][0], unit, values[name][1])
                   for name, unit in END_TO_END.items()}
        return metrics, extra, attempted, failed
    traced = [p for p in passes if p["traced"]]
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in extra:
            metrics[name] = extra[name]
        elif name == "trace.overhead_s":
            overhead = (statistics.median(p["cpu_s"] / p["slowness"] for p in traced)
                        - statistics.median(p["cpu_s"] / p["slowness"] for p in plain))
            metrics[name] = (overhead, unit, len(traced))
        else:
            metrics[name] = (statistics.median(p["layers"][name] for p in traced),
                             unit, len(traced))
    return metrics, {}, attempted, failed


def provenance():
    info = {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu": platform.processor() or None,
        "git_sha": None,
        "git_dirty": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
            dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                   cwd=ROOT, capture_output=True, text=True, timeout=30,
                                   check=True).stdout.strip()
            info["git_sha"], info["git_dirty"] = sha, bool(dirty)
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def print_metrics(label, metrics):
    for name, (value, unit, count) in metrics.items():
        print(f"{label}{name} = {value:.6g} {unit} (n={count})")


def run_one(args):
    workload, first_setup = timed_setup(args.workload, args.smoke)
    if args.setup_only:
        # after the set-up, so that numpy's import stays inside it
        calibrator = Calibrator()
        slowness = (calibrator.slowness(calibrator.times())
                    + calibrator.slowness(calibrator.times())) / 2
        print(json.dumps({"setup_s": first_setup / slowness, "setup_cpu_s": first_setup}))
        return 0
    workload.prepare_checks()
    passes, tracer = measure(workload, args)
    # after the passes, so that the children start on a busy, warm CPU
    setup_times = [] if args.trace else child_setups(args.workload, args.smoke)
    metrics, extra, attempted, failed = summarize(passes, setup_times, args.trace)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    raw = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "provenance": provenance(), "setup_s_in_process": first_setup,
        "setup_s_samples": setup_times,
        "passes": [{k: v for k, v in p.items() if k != "mark"} for p in passes],
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in {**metrics, **extra}.items()},
    }
    with open(stem + ".json", "w") as fh:
        json.dump(raw, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)

    for p in passes:
        for op, problem in p["problems"].items():
            print(f"pass {p['index']}: {op} FAILED: {problem.strip().splitlines()[-1]}")
    print_metrics(f"{args.workload}: ", {**metrics, **extra})
    print(f"{args.workload}: attempted {attempted}, failed {failed}, "
          f"raw samples in {os.path.relpath(stem, ROOT)}.json")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    problems = check_format(results, args.trace) if args.smoke else []
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 1 if problems else 0


def check_format(results, trace):
    """Each result carries exactly the metrics BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    for name, result in results.items():
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{name}: keys {sorted(result)}")
        if not result["attempted"] >= 1:
            problems.append(f"{name}: nothing attempted")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != declared:
            problems.append(f"{name}: metrics {got} != declared {declared}")
        for key, entry in result["metrics"].items():
            if not math.isfinite(entry["value"]):
                problems.append(f"{name}: {key} = {entry['value']}")
    return problems


def main(argv=None):
    args = parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 35.0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
