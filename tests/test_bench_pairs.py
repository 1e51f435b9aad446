import importlib.util
import os

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(os.path.dirname(__file__), "..", "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def line(wall, headroom, attempted=10, failed=0):
    return {"attempted": attempted, "failed": failed, "metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "headroom_digits": {"value": headroom, "unit": "digits"}}}


def test_summarise_counts_wins_by_direction():
    pairs = [
        (line(1.0, 2.0), line(0.5, 2.0)),             # faster, tie
        (line(1.0, 2.0), line(1.0, 2.5, failed=1)),   # tie, more headroom
        (line(1.0, 2.0), line(1.5, 1.0)),             # slower, less headroom
        (line(2.0, 2.0), line(0.8, 2.1)),
    ]
    got = bench_pairs.summarise(pairs, {"wall_s": "lower", "headroom_digits": "higher"})
    wall = got["metrics"]["wall_s"]
    assert (wall["pair_wins"], wall["pairs"]) == (2, 4)
    assert wall["parent"]["runs"] == [1.0, 1.0, 1.0, 2.0]
    assert wall["change"]["median"] == pytest.approx(0.9)
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == (1.0, 1.25)
    assert got["metrics"]["headroom_digits"]["pair_wins"] == 2
    assert got["parent"] == {"attempted": 40, "failed": 0}
    assert got["change"] == {"attempted": 40, "failed": 1}


def test_spread_of_one_run():
    assert bench_pairs.spread([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}
