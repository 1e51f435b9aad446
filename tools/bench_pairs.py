"""Alternating parent/change runs of the perfbench workloads, written to BENCH_<pr>.json.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent HEAD~1 --pr 7 [--workload NAME ...]

The parent commit is exported with `git archive` into a temporary directory
(under $TMPDIR), which is removed when the script ends; the change is this
checkout's working tree.
For every seed from 1 to 10 and every workload in BENCHMARK.json (or only
those named by --workload, which may be given more than once) the script
runs `perfbench/run.py --trace 0` once on each side, at the run length
BENCHMARK.json sets, and alternates which side goes first from one pair to
the next.  The file it writes names the workloads it ran
(selected_workloads) and holds, per workload and end-to-end metric,
every run on both sides, their medians and quartiles, the number of
pairs the change won (ties count for neither), the relative change of the
median and whether a gain could be claimed, plus the attempted and failed
operation counts of each side.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# ten pairs per workload, the fewest from which a gain may be claimed
SEEDS = range(1, 11)


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def run_side(root, workload, seed, seconds):
    """The result line of one untraced perfbench run in the checkout at root."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s in %s failed:\n%s" % (" ".join(cmd), root, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """Median and quartiles of a list of run values."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs, better):
    """Per-metric summary of a workload's (parent line, change line) pairs.

    better maps each end-to-end metric to "lower" or "higher".  A gain in a
    metric may be claimed (claim_met) when the change wins at least nine
    tenths of the pairs, its median is better than the parent's by more
    than the parent's q3 - q1, and no larger share of its operations fails.
    median_change is the change's median relative to the parent's, None
    where the parent's median is 0.
    """
    out = {"metrics": {}}
    for side, i in (("parent", 0), ("change", 1)):
        out[side] = {"attempted": sum(pair[i]["attempted"] for pair in pairs),
                     "failed": sum(pair[i]["failed"] for pair in pairs)}
    more_failed = (out["change"]["failed"] * out["parent"]["attempted"]
                   > out["parent"]["failed"] * out["change"]["attempted"])
    for name, direction in better.items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        before, after = spread(parent), spread(change)
        gain = sign * (before["median"] - after["median"])
        out["metrics"][name] = {
            "unit": pairs[0][0]["metrics"][name]["unit"], "better": direction,
            "parent": dict(before, runs=parent),
            "change": dict(after, runs=change),
            "pair_wins": wins, "pairs": len(pairs),
            "median_change": (after["median"] / before["median"] - 1
                              if before["median"] else None),
            "claim_met": (10 * wins >= 9 * len(pairs)
                          and gain > before["q3"] - before["q1"] and not more_failed),
        }
    return out


def parse_args(argv, names):
    """The command line, with args.workloads the chosen names in the order of
    names (BENCHMARK.json's), every one of them when --workload is not given.
    An unknown name exits with status 2."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent commit")
    ap.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    ap.add_argument("--workload", action="append", choices=names, dest="workloads",
                    help="run only this workload (repeatable; default: every workload)")
    args = ap.parse_args(argv)
    args.workloads = [w for w in names if w in (args.workloads or names)]
    return args


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])
    workloads = args.workloads
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    parent = git("rev-parse", "--verify", args.parent + "^{commit}")
    tmp = tempfile.mkdtemp(prefix="bench_pairs_")
    tree = os.path.join(tmp, "parent")
    pairs = {w: [] for w in workloads}
    try:
        archive = subprocess.run(["git", "-C", ROOT, "archive", parent], check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        for i, seed in enumerate(SEEDS):
            for workload in workloads:
                sides = {}
                order = [("parent", tree), ("change", ROOT)]
                for side, root in order if i % 2 == 0 else order[::-1]:
                    sides[side] = run_side(root, workload, seed, seconds)
                    print("seed %d %-14s %-6s wall_s %.4f failed %d" % (
                        seed, workload, side, sides[side]["metrics"]["wall_s"]["value"],
                        sides[side]["failed"]), flush=True)
                pairs[workload].append((sides["parent"], sides["change"]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = {
        "parent": parent,
        "change": "working tree at " + git("rev-parse", "HEAD")
                  + (" with uncommitted changes" if git("status", "--porcelain") else ""),
        "command": "perfbench/run.py --trace 0",
        "seconds": seconds,
        "seeds": list(SEEDS),
        "selected_workloads": workloads,
        "first": "parent on even pair indices, change on odd",
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "workloads": {w: summarise(pairs[w], better) for w in workloads},
    }
    path = os.path.join(ROOT, "BENCH_%s.json" % args.pr)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print("wrote " + path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
