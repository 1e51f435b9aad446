"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, layer_metrics, self_times  # noqa: E402


def small_workloads(tmp_path):
    return [workloads.dense_spectra(sizes=(100,)),
            workloads.sweep(scan_size=60, conv_sizes=(40, 80)),
            workloads.cli_gates(str(tmp_path))]


def outputs_of(wl, seed, tr=None):
    """Run one pass of jobs directly; returns what each job produced."""
    jobs = wl.jobs(random.Random(seed))
    if wl.before_pass is not None:
        wl.before_pass()
    if tr is not None:
        tr.enabled = True
    try:
        outs = [job.run() for job in jobs]
    finally:
        if tr is not None:
            tr.enabled = False
    values = []
    for job, out in zip(jobs, outs):
        if hasattr(out, "energies"):
            values.append(out.energies)
        elif hasattr(out, "traces"):
            values.append(out.traces)
        elif isinstance(out, tuple):
            rc, path = out
            with open(path) as fh:
                values.append((rc, fh.read()))
        else:
            values.append(np.float64(out))
    return [job.name for job in jobs], values


def test_perturbed_reference_counts_as_failed_check():
    wl = workloads.dense_spectra(sizes=(100,))
    _, _, checks = worker.run_pass(wl, random.Random(5))
    assert checks and all(c.ok for c in checks)
    wl.references["yukawa_cosine"] = [wl.references["yukawa_cosine"][0] + 1e-6]
    _, _, checks = worker.run_pass(wl, random.Random(5))
    failed = [c.label for c in checks if not c.ok]
    assert failed == ["yukawa_cosine.N100.level0"]


def test_validate_beyond_oracle_bound_counts_as_failed_check():
    # the deviation of the cosine delta=0.5 full block at the seed commit
    text = "# validate\nmax_deviation,n,m,order,limit\n3.242e-07,199,199,450,199\n"
    checks = workloads._validate_check("cosine", workloads.cli.EXIT_VALIDATION, text)
    assert [c.label for c in checks if not c.ok] == ["validate.cosine.oracle_deviation"]
    # an exit code that disagrees with the deviation fails too
    checks = workloads._validate_check("cosine", workloads.cli.EXIT_OK, text)
    assert sum(not c.ok for c in checks) == 2


def test_raising_job_counts_as_failed_check():
    wl = workloads.dense_spectra(sizes=(100,))
    real = wl.make_jobs

    def with_bad_job(w, rng):
        jobs = real(w, rng)
        jobs[0].run = lambda: 1 / 0
        return jobs

    wl.make_jobs = with_bad_job
    _, _, checks = worker.run_pass(wl, random.Random(5))
    assert sum(not c.ok for c in checks) == 1


def test_traced_and_untraced_runs_are_bit_identical(tmp_path):
    for wl in small_workloads(tmp_path):
        names, plain = outputs_of(wl, seed=7)
        tr = Tracer().install()
        try:
            traced_names, traced = outputs_of(wl, seed=7, tr=tr)
        finally:
            tr.uninstall()
        assert traced_names == names
        assert tr.spans, wl.name
        for name, a, b in zip(names, plain, traced):
            if isinstance(a, tuple):
                assert a == b, name
            else:
                assert np.array_equal(a, b), name


def test_uninstall_restores_every_binding():
    import trilag
    before = trilag.solver.bound_states, trilag.bound_states, trilag.cli.bound_states
    tr = Tracer().install()
    assert trilag.solver.bound_states is not before[0]
    assert trilag.cli.bound_states is trilag.solver.bound_states
    tr.uninstall()
    assert (trilag.solver.bound_states, trilag.bound_states, trilag.cli.bound_states) == before


def test_span_self_times_are_nonnegative_and_bounded_by_wall(tmp_path):
    for wl in small_workloads(tmp_path):
        tr = Tracer().install()

        def switch(on):
            tr.enabled = on

        try:
            wall, _, _ = worker.run_pass(wl, random.Random(3), switch)
        finally:
            tr.uninstall()
        own = self_times(tr.spans)
        assert min(own) >= -1e-9, wl.name
        per_thread = {}
        for s, t in zip(tr.spans, own):
            per_thread[s.thread] = per_thread.get(s.thread, 0.0) + t
        assert max(per_thread.values()) <= wall + 1e-9, wl.name
        assert set(layer_metrics(tr.spans, 1, 0.0)) == set(tracer.LAYER_UNITS)


def test_self_time_subtracts_union_of_concurrent_children():
    spans = [Span("solver.lambda_scan", 0.0, 10.0, -1, 1, 2),
             Span("solver.bound_states", 1.0, 6.0, 0, 2, 100),
             Span("solver.bound_states", 2.0, 8.0, 0, 3, 100),
             Span("eigen.solve_pencil", 3.0, 5.0, 1, 2)]
    assert self_times(spans) == [3.0, 3.0, 6.0, 2.0]
    m = layer_metrics(spans, 1, 0.0)
    assert m["solver.lambda_scan.parallel_eff"] == pytest.approx(11.0 / 20.0)
    assert m["eigen.solve_pencil.busy_s"] == 2.0
    assert m["solver.bound_states.N100_s"] == 11.0


def test_headroom_caps_exact_matches_and_goes_negative_on_failure():
    ok = workloads.value_check("a", 0.0, 1e-9)
    near = workloads.value_check("b", 1e-11, 1e-9)
    assert worker.headroom([ok]) == worker.HEADROOM_CEILING
    assert worker.headroom([ok, near]) == pytest.approx(2.0)
    bad = workloads.value_check("c", 1e-7, 1e-11)
    assert not bad.ok
    assert worker.headroom([ok, near, bad]) == pytest.approx(-4.0)
    assert not workloads.value_check("d", float("nan"), 1.0).ok
    missing = workloads.value_check("e", float("inf"), 1.0)
    assert worker.headroom([ok, missing]) == -worker.HEADROOM_CEILING


def test_run_without_library_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
