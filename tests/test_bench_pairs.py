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
    assert wall["median_change"] == pytest.approx(-0.1)
    assert got["metrics"]["headroom_digits"]["pair_wins"] == 2
    assert not wall["claim_met"]
    assert got["parent"] == {"attempted": 40, "failed": 0}
    assert got["change"] == {"attempted": 40, "failed": 1}


# ten parent runs with median 1.05 and q3 - q1 = 0.1
PARENT = [1.0, 1.1] * 5


@pytest.mark.parametrize("change,failed,met", [
    ([0.8] * 9 + [1.2], 0, True),                          # 9 of 10 pairs, 0.25 faster
    ([0.8] * 8 + [1.2] * 2, 0, False),                     # 8 of 10 pairs
    ([p - 0.01 for p in PARENT[:9]] + [1.2], 0, False),    # median inside the spread
    ([0.8] * 9 + [1.2], 1, False),                         # one more operation fails
], ids=["met", "too_few_wins", "inside_spread", "more_failed"])
def test_claim_rule(change, failed, met):
    pairs = [(line(p, 2.0), line(c, 2.0, failed=failed if i == 0 else 0))
             for i, (p, c) in enumerate(zip(PARENT, change))]
    got = bench_pairs.summarise(pairs, {"wall_s": "lower", "headroom_digits": "higher"})
    assert got["metrics"]["wall_s"]["claim_met"] is met
    assert got["metrics"]["headroom_digits"]["claim_met"] is False
    assert got["metrics"]["headroom_digits"]["median_change"] == 0.0
    if met:
        assert got["metrics"]["wall_s"]["median_change"] == pytest.approx(0.8 / 1.05 - 1)


def test_median_change_of_zero_median():
    got = bench_pairs.summarise([(line(0.0, 2.0), line(0.1, 2.0))], {"wall_s": "lower"})
    assert got["metrics"]["wall_s"]["median_change"] is None


def test_spread_of_one_run():
    assert bench_pairs.spread([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}


NAMES = ["dense_spectra", "sweep", "cli_gates"]


@pytest.mark.parametrize("argv,want", [
    ([], NAMES),
    (["--workload", "cli_gates"], ["cli_gates"]),
    (["--workload", "cli_gates", "--workload", "dense_spectra", "--workload", "cli_gates"],
     ["dense_spectra", "cli_gates"]),
], ids=["default", "one", "repeated"])
def test_workload_selection(argv, want):
    args = bench_pairs.parse_args(["--parent", "HEAD", "--pr", "0"] + argv, NAMES)
    assert args.workloads == want


def test_unknown_workload_exits_before_git(monkeypatch, capsys):
    def no_git(*args, **kwargs):
        raise AssertionError("git called")

    monkeypatch.setattr(bench_pairs, "git", no_git)
    monkeypatch.setattr(bench_pairs.subprocess, "run", no_git)
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", "HEAD", "--pr", "0", "--workload", "no_such"])
    assert exit_info.value.code == 2
    assert "no_such" in capsys.readouterr().err
