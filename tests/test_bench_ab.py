"""tools/bench_ab.py's summary of A/B pairs, on canned result lines and
canned raw-sample files; no benchmark runs here."""

import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_ab", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _line(setup, pass_s, rss, failed=0):
    """A result line as perfbench/run.py prints it last."""
    return json.dumps({
        "correct": failed == 0, "attempted": 40, "failed": failed,
        "metrics": {"setup_s": {"value": setup, "unit": "s"},
                    "pass_s": {"value": pass_s, "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}}})


def test_summary_of_canned_pairs():
    tool = _tool()
    base = [json.loads(_line(0.12, p, 48.0)) for p in
            (0.33, 0.30, 0.34, 0.32, 0.31)]
    change = [json.loads(_line(0.13, p, 48.0 + i)) for i, p in
              enumerate((0.31, 0.31, 0.30, 0.29, 0.30))]
    got = tool.summarize(base, change)
    passes = got["pass_s"]
    assert passes["unit"] == "s"
    assert passes["pairs"] == [[0.33, 0.31], [0.30, 0.31], [0.34, 0.30],
                               [0.32, 0.29], [0.31, 0.30]]
    # inclusive quartiles of five values: the second and fourth
    assert passes["base"] == pytest.approx(
        {"median": 0.32, "q1": 0.31, "q3": 0.33})
    assert passes["change"] == pytest.approx(
        {"median": 0.30, "q1": 0.30, "q3": 0.31})
    assert passes["lower_in"] == "4 of 5"
    assert got["setup_s"]["lower_in"] == "0 of 5"
    # a tie is not lower
    assert got["peak_rss_mb"]["lower_in"] == "0 of 5"
    assert got["peak_rss_mb"]["change"]["median"] == 50.0
    assert got["correct"] is True
    assert got["failed"] == {"base": 0, "change": 0}


def test_summary_of_one_pair_and_a_failed_run():
    tool = _tool()
    got = tool.summarize([json.loads(_line(0.1, 0.2, 40.0))],
                         [json.loads(_line(0.1, 0.1, 40.0, failed=2))])
    assert got["pass_s"]["change"] == {"median": 0.1, "q1": 0.1, "q3": 0.1}
    assert got["pass_s"]["lower_in"] == "1 of 1"
    assert got["correct"] is False
    assert got["failed"] == {"base": 0, "change": 2}
    with pytest.raises(ValueError):
        tool.summarize([], [])


def _out_file(tree, workload, seed, cpu_times):
    """The raw samples perfbench/run.py writes for an untraced run, cut to
    the fields the tool reads and a few beside them."""
    out = tree / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    passes = [{"index": i, "cpu_s": cpu, "wall_s": cpu * 1.1, "slowness": 1.2,
               "traced": False} for i, cpu in enumerate(cpu_times)]
    (out / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "trace": 0, "passes": passes}))


def test_raw_cpu_times_from_canned_out_files(tmp_path):
    tool = _tool()
    base, change = tmp_path / "base", tmp_path / "change"
    _out_file(base, "verify", 1, [0.40, 0.36, 0.38])
    _out_file(base, "verify", 2, [0.35, 0.37, 0.39, 0.41])
    _out_file(change, "verify", 1, [0.33, 0.30, 0.31])
    _out_file(change, "verify", 2, [0.36, 0.40, 0.44])
    # another seed's and another workload's files are not read
    _out_file(change, "verify", 3, [9.0])
    _out_file(change, "exact", 1, [9.0])
    base_cpu = [tool.read_pass_cpu(base, "verify", seed) for seed in (1, 2)]
    change_cpu = [tool.read_pass_cpu(change, "verify", seed)
                  for seed in (1, 2)]
    # the median of each run's passes, an even count averaging the middle two
    assert base_cpu == pytest.approx([0.38, 0.38])
    assert change_cpu == pytest.approx([0.31, 0.40])
    lines = [json.loads(_line(0.12, 0.30, 48.0)) for _ in range(2)]
    got = tool.summarize(lines, lines, base_cpu, change_cpu)
    raw = got["pass_cpu_s"]
    assert raw["unit"] == "s"
    assert raw["pairs"] == [[b, c] for b, c in zip(base_cpu, change_cpu)]
    assert raw["base"] == pytest.approx({"median": 0.38, "q1": 0.38, "q3": 0.38})
    assert raw["change"] == pytest.approx(
        {"median": 0.355, "q1": 0.3325, "q3": 0.3775})
    assert raw["lower_in"] == "1 of 2"
    # the gated metrics still come from the result lines alone
    assert got["pass_s"]["lower_in"] == "0 of 2"
    assert "pass_cpu_s" not in tool.summarize(lines, lines)
    with pytest.raises(FileNotFoundError):
        tool.read_pass_cpu(base, "verify", 3)


def test_pass_s_by_position():
    tool = _tool()
    # runs in the order b c c b b c: the base opens pairs 0 and 2
    order = [(0, "base", 0.30), (0, "change", 0.29), (1, "change", 0.26),
             (1, "base", 0.32), (2, "base", 0.31), (2, "change", 0.28)]
    runs = [{"pair": pair, "side": side, "seed": pair + 1,
             "result": json.loads(_line(0.12, pass_s, 48.0))}
            for pair, side, pass_s in order]
    got = tool.pass_s_by_position(runs)
    assert got == {"base": pytest.approx({"opening": 0.305, "closing": 0.32}),
                   "change": pytest.approx({"opening": 0.26, "closing": 0.285})}
    # one pair: each side has one position only
    assert tool.pass_s_by_position(runs[:2]) == {
        "base": {"opening": 0.30, "closing": None},
        "change": {"opening": None, "closing": 0.29}}
