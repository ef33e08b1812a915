"""tools/bench_ab.py's summary of A/B pairs, on canned result lines; no
benchmark runs here."""

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
