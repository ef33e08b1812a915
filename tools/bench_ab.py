"""A/B benchmark pairs: this checkout against another revision, written to
BENCH_<label>.json at the repository root.

    python3 tools/bench_ab.py --against HEAD~1 --workload verify \
        --pairs 5 --seconds 15 --label verify-bound

The other revision is extracted with ``git archive`` into a temporary
directory outside the repository, so nothing is fetched and the checkout is
left as it is.  Each pair runs both trees' own, unchanged
``perfbench/run.py --workload W --seed <seed> --seconds S --trace 0``, one
after the other, with pair i on seed i + 1; the base runs first in even
pairs and second in odd ones, so neither side always meets the warmer or
the busier machine.  The file holds, for each gated metric, the median and
quartiles of each side, every pair's two values and the number of pairs in
which the change reads lower, beside both git shas, the seeds, the order
and every run's result line.  It summarises the same way each run's raw
CPU time, the median ``cpu_s`` of the passes in the tree's
``perfbench/out/<workload>-seed<seed>-trace0.json``, which no calibration
scales, and gives per side the median ``pass_s`` of the runs that open a
pair and of those that close one, since a run can read differently after
a run of the same tree than after one of the other.
"""

import argparse
import io
import json
import pathlib
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "pass_s", "peak_rss_mb")
# the median raw CPU time of a run's passes, as run.py's traced runs name it
RAW_CPU = "pass_cpu_s"


def git(*args) -> str:
    return subprocess.run(("git",) + args, cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, dest: pathlib.Path) -> None:
    """The tree of rev, as git archive writes it, unpacked into dest."""
    tar = subprocess.run(("git", "archive", "--format=tar", rev), cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **({"filter": "data"}
                                    if hasattr(tarfile, "data_filter") else {}))


def run_bench(tree: pathlib.Path, workload: str, seed: int,
              seconds: float) -> dict:
    """The result line, the last line of stdout, of one benchmark run."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
        timeout=10 * seconds + 600)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark in {tree.name} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def read_pass_cpu(tree: pathlib.Path, workload: str, seed: int) -> float:
    """The median raw CPU time of the passes of the untraced run on seed
    last made in tree, from the raw samples it wrote."""
    out = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    passes = json.loads(out.read_text())["passes"]
    return statistics.median(p["cpu_s"] for p in passes)


def _spread(values) -> dict:
    """Median and quartiles (inclusive method) of values."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def _compare(unit: str, base, change) -> dict:
    """Each side's median and quartiles, each pair's (base, change) values,
    and in how many pairs the change reads lower."""
    lower = sum(c < b for b, c in zip(base, change))
    return {
        "unit": unit,
        "base": _spread(base),
        "change": _spread(change),
        "pairs": [[b, c] for b, c in zip(base, change)],
        "lower_in": f"{lower} of {len(base)}",
    }


def summarize(base_results, change_results, base_cpu=None,
              change_cpu=None) -> dict:
    """Per gated metric, and for the raw CPU times when given, the
    comparison of _compare; the failed runs of each side and whether
    every run was correct.

    base_results[i] and change_results[i] are the parsed result lines of
    pair i, and base_cpu[i] and change_cpu[i] its runs' raw CPU times.
    """
    if len(base_results) != len(change_results) or not base_results:
        raise ValueError("need the same nonzero number of runs on each side")
    summary = {}
    for name in METRICS:
        summary[name] = _compare(
            base_results[0]["metrics"][name]["unit"],
            [r["metrics"][name]["value"] for r in base_results],
            [r["metrics"][name]["value"] for r in change_results])
    if base_cpu is not None:
        summary[RAW_CPU] = _compare("s", base_cpu, change_cpu)
    summary["failed"] = {
        "base": sum(r["failed"] for r in base_results),
        "change": sum(r["failed"] for r in change_results),
    }
    summary["correct"] = all(r["correct"]
                             for r in base_results + change_results)
    return summary


def pass_s_by_position(runs) -> dict:
    """Per side, the median pass_s of its runs that open a pair and of
    those that close one, None where it has none; runs are in the order
    they ran, each with its pair, side and result line."""
    values = {side: {"opening": [], "closing": []}
              for side in ("base", "change")}
    opened = set()
    for run in runs:
        position = "closing" if run["pair"] in opened else "opening"
        opened.add(run["pair"])
        values[run["side"]][position].append(
            run["result"]["metrics"]["pass_s"]["value"])
    return {side: {position: statistics.median(v) if v else None
                   for position, v in by_position.items()}
            for side, by_position in values.items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", required=True,
                   help="the base revision, extracted with git archive")
    p.add_argument("--workload", required=True,
                   choices=("verify", "exact", "float-sample"))
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seconds", type=float, default=15.0,
                   help="measuring time of each run")
    p.add_argument("--label", required=True,
                   help="the output is BENCH_<label>.json")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    base_sha = git("rev-parse", "--verify", args.against + "^{commit}")
    change = {"sha": git("rev-parse", "HEAD"),
              "dirty": bool(git("status", "--porcelain"))}
    seeds = list(range(1, args.pairs + 1))
    runs = []
    results, cpu = {"base": [], "change": []}, {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        base_tree = pathlib.Path(tmp)
        extract(base_sha, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for pair, seed in enumerate(seeds):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                result = run_bench(trees[side], args.workload, seed,
                                   args.seconds)
                pass_cpu = read_pass_cpu(trees[side], args.workload, seed)
                results[side].append(result)
                cpu[side].append(pass_cpu)
                runs.append({"pair": pair, "side": side, "seed": seed,
                             "result": result, RAW_CPU: pass_cpu})
                print(f"pair {pair} {side}: " + ", ".join(
                    f"{m} {result['metrics'][m]['value']:.4g}"
                    for m in METRICS) + f", {RAW_CPU} {pass_cpu:.4g}",
                      flush=True)
    report = {
        "label": args.label,
        "workload": args.workload,
        "seconds": args.seconds,
        "base": {"rev": args.against, "sha": base_sha},
        "change": change,
        "seeds": seeds,
        "order": ["base first" if pair % 2 == 0 else "change first"
                  for pair in range(args.pairs)],
        "host": {"machine": platform.machine(),
                 "python": platform.python_version(),
                 "processor": platform.processor()},
        "summary": {**summarize(results["base"], results["change"],
                                cpu["base"], cpu["change"]),
                    "pass_s_by_position": pass_s_by_position(runs)},
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for name in METRICS + (RAW_CPU,):
        s = report["summary"][name]
        print(f"{name}: base {s['base']['median']:.4g} "
              f"[{s['base']['q1']:.4g}, {s['base']['q3']:.4g}] -> change "
              f"{s['change']['median']:.4g} [{s['change']['q1']:.4g}, "
              f"{s['change']['q3']:.4g}], lower in {s['lower_in']}")
    for side, medians in report["summary"]["pass_s_by_position"].items():
        print(f"pass_s of {side} runs: " + ", ".join(
            f"{position} {m:.4g}" for position, m in medians.items()
            if m is not None))
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
