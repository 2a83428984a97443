"""Summary arithmetic of ``benchmarks/pairs.py`` (no benchmark is run)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _results(name, values):
    return [{"metrics": {name: {"value": v, "unit": "ms"}}} for v in values]


def test_quartiles_are_linear_percentiles():
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == {
        "median": 2.5, "q1": 1.75, "q3": 3.25, "iqr": 1.5}
    assert pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "iqr": 0.0}


def test_pairs_count_by_the_metric_direction():
    parent, change = [1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 5.0]
    lower = pairs.summarize(_results("t", parent), _results("t", change),
                            [{"name": "t", "better": "lower", "bound": 0.25}])["t"]
    assert (lower["change_better_pairs"], lower["change_worse_pairs"]) == (1, 2)
    assert lower["change"]["median"] == 2.0 and lower["median_ratio"] == 0.8
    assert lower["bound"] == 0.25
    higher = pairs.summarize(_results("t", parent), _results("t", change),
                             [{"name": "t", "better": "higher"}])["t"]
    assert (higher["change_better_pairs"], higher["change_worse_pairs"]) == (2, 1)
    assert "bound" not in higher


def test_a_zero_parent_median_gives_no_ratio():
    got = pairs.summarize(_results("c", [0.0, 0.0]), _results("c", [0.0, 1.0]),
                          [{"name": "c", "better": "lower"}])["c"]
    assert "median_ratio" not in got
    assert got["change"] == {"median": 0.5, "q1": 0.25, "q3": 0.75, "iqr": 0.5}


def test_run_and_seed_specs():
    assert pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert pairs.parse_run("regions:1:dev:11-13") == ("regions", 1, "dev", [11, 12, 13])
    with pytest.raises(Exception):
        pairs.parse_run("regions:2:dev:1")
