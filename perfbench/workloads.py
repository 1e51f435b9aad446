"""The three benchmark workloads: the jobs of one pass, their inputs and checks.

A workload is a list of jobs.  Each job runs one call into trilag and
returns its output; the checks compare that output with a reference after
the pass has been timed.  Per pass the seed permutes the job order and
draws each basis scale within +-10% of its nominal value (cli_gates keeps
its fixed inputs), so no two passes share inputs.  The references do not
depend on the scale: across that range the checked levels stay within
7e-13 (cosine Yukawa), 2.5e-12 (classical Yukawa) and 3e-10 (Morse, from
round-off at N=400) of them, inside the tolerances.
"""

import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

import trilag
from trilag import _golden, cli, quadrature
from trilag.potentials import oracle_weight_nu, radial_function

SCALE_SPREAD = 0.10
ORACLE_TOL = 1e-11


@dataclass
class Check:
    """One compared quantity; deviation is None for a pass/fail invariant."""

    label: str
    ok: bool
    deviation: Optional[float] = None
    tol: Optional[float] = None


def value_check(label, deviation, tol):
    deviation = float(deviation)
    # a NaN deviation fails: the comparison below is False for it
    return Check(label, bool(deviation <= tol), deviation, tol)


def invariant(label, ok):
    return Check(label, bool(ok))


def level_checks(label, energies, reference, tol):
    """One check per reference level; a missing level fails."""
    checks = []
    for i, ref in enumerate(reference):
        dev = abs(float(energies[i]) - ref) if i < len(energies) else math.inf
        checks.append(value_check("%s.level%d" % (label, i), dev, tol))
    return checks


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    inputs: str = ""  # the drawn inputs, for the run record


@dataclass
class Workload:
    """A named job-list generator plus the references its checks read."""

    name: str
    make_jobs: Callable  # (workload, rng) -> list of Job, one pass
    params: dict
    references: dict = field(default_factory=dict)
    before_pass: Optional[Callable[[], None]] = None

    def jobs(self, rng):
        jobs = self.make_jobs(self, rng)
        rng.shuffle(jobs)
        return jobs


def _scale(rng):
    return 1.0 + rng.uniform(-SCALE_SPREAD, SCALE_SPREAD)


# ---------------------------------------------------------------------------
# dense_spectra: bound_states over three families and three basis sizes

COSINE = trilag.YukawaParams(strength=1.0, mu_re=0.5, mu_im=0.5, variant="cosine")
CLASSICAL = trilag.YukawaParams(strength=1.0, mu_re=0.5, mu_im=0.0, variant="classical")
MORSE = trilag.MorseParams(depth=-6.0, r_eq=4.0, width=1.5, beta=0.8)
DENSE = {  # family -> (params, ell, nominal lam, tolerance)
    "yukawa_cosine": (COSINE, 0, 2.0, 1e-9),
    "yukawa_classical": (CLASSICAL, 0, 2.0, 1e-9),
    "morse": (MORSE, 1, 12.0, 1e-8),
}
DENSE_SIZES = (100, 200, 400)
# the classical-Yukawa reference spectrum comes from the quadrature oracle
# at the nominal scale, with the basis size and order of `trilag validate`
CLASSICAL_REF_SIZE = 100
CLASSICAL_REF_ORDER = 300


def _morse_golden():
    for (ell, r0, width, depth), by_beta in _golden.TABLE3:
        if (ell, r0, width, depth) == (1, MORSE.r_eq, MORSE.width, MORSE.depth):
            return [-g for g in by_beta[MORSE.beta]]
    raise LookupError("no TABLE3 row for the benchmark's Morse well")


def oracle_bound_levels(p, basis, order):
    """Bound levels of H0 plus the quadrature-oracle potential matrix."""
    V = trilag.quad_potential_matrix(radial_function(p), basis, order=order,
                                     weight_nu=oracle_weight_nu(p, basis))
    H = trilag.h0_matrix(basis) + V
    w = trilag.solve_pencil(trilag.Pencil(H, trilag.overlap_matrix(basis)))
    return [float(e) for e in w if e < -trilag.solver.ZERO_BAND]


def dense_references():
    _, ell, lam, _ = DENSE["yukawa_classical"]
    return {
        "yukawa_cosine": [-_golden.TABLE1[0.5][0]],
        "yukawa_classical": oracle_bound_levels(
            CLASSICAL, trilag.BasisSpec(lam, ell, CLASSICAL_REF_SIZE), CLASSICAL_REF_ORDER),
        "morse": _morse_golden(),
    }


def _dense_jobs(wl, rng):
    jobs = []
    for family, (p, ell, lam, tol) in DENSE.items():
        for N in wl.params["sizes"]:
            basis = trilag.BasisSpec(lam * _scale(rng), ell, N)
            label = "%s.N%d" % (family, N)

            def run(p=p, basis=basis):
                return trilag.solver.bound_states(p, basis)

            def check(res, family=family, label=label, tol=tol):
                return level_checks(label, res.energies, wl.references[family], tol)

            jobs.append(Job(label, run, check, "lam=%.6f" % basis.lam))
    return jobs


def dense_spectra(sizes=DENSE_SIZES):
    return Workload("dense_spectra", _dense_jobs, {"sizes": tuple(sizes)},
                    dense_references())


# ---------------------------------------------------------------------------
# sweep: the solver drivers

SCAN_POTENTIAL = trilag.KratzerParams(coulomb=1.0, inverse_square=1.0)
SCAN_ELL, SCAN_N, SCAN_K, SCAN_THREADS = 1, 400, 3, 2
SCAN_GRID = np.arange(1.0, 8.5 + 0.25, 0.5)
CONV_POTENTIAL = trilag.KratzerParams(coulomb=1.0, inverse_square=5.0)
CONV_ELL, CONV_LAM, CONV_K = 2, 0.3, 5
CONV_SIZES = (100, 200, 400, 800)
CRIT_TEMPLATE = trilag.YukawaParams(strength=1.0, variant="cosine")
CRIT_LEVEL, CRIT_BRACKET, CRIT_TOL, CRIT_N = 1, (0.2, 0.5), 1e-4, 100
KRATZER_TOL = 1e-9


def _kratzer_levels(p, ell, k):
    return [trilag.kratzer_exact(p.coulomb, p.inverse_square, ell, n) for n in range(k)]


def sweep_references():
    return {
        "scan": _kratzer_levels(SCAN_POTENTIAL, SCAN_ELL, SCAN_K),
        "converge": _kratzer_levels(CONV_POTENTIAL, CONV_ELL, CONV_K),
    }


def _scan_check(wl, report):
    checks = [invariant("scan.plateau_found", report.plateau is not None)]
    if report.plateau is None:
        return checks + [value_check("scan.level%d" % j, math.inf, KRATZER_TOL)
                         for j in range(SCAN_K)]
    lo, hi = report.plateau
    inside = (report.grid >= lo) & (report.grid <= hi)
    checks.append(invariant("scan.plateau_width", inside.sum() >= 5))
    for j, exact in enumerate(wl.references["scan"]):
        dev = np.max(np.abs(report.traces[inside, j] - exact))
        checks.append(value_check("scan.level%d" % j, dev, KRATZER_TOL))
    return checks


def _converge_check(wl, table):
    return [c for N, row in zip(table.n_grid, table.traces)
            for c in level_checks("converge.N%d" % N, row, wl.references["converge"],
                                  KRATZER_TOL)]


def _critical_check(basis, delta):
    def n_bound(d):
        p = replace(CRIT_TEMPLATE, mu_re=d, mu_im=d)
        return len(trilag.bound_states(p, basis).bound)

    return [invariant("critical.bound_below", n_bound(delta - CRIT_TOL) > CRIT_LEVEL),
            invariant("critical.unbound_above", n_bound(delta + CRIT_TOL) <= CRIT_LEVEL)]


def _sweep_jobs(wl, rng):
    conv_sizes = wl.params["conv_sizes"]
    # the scan sets the scale of every solve from its grid
    scan_basis = trilag.BasisSpec(1.0, SCAN_ELL, wl.params["scan_size"])
    grid = SCAN_GRID * _scale(rng)
    conv_basis = trilag.BasisSpec(CONV_LAM * _scale(rng), CONV_ELL, conv_sizes[0])
    crit_basis = trilag.BasisSpec(_scale(rng), 0, CRIT_N)
    return [
        Job("lambda_scan",
            lambda: trilag.solver.lambda_scan(SCAN_POTENTIAL, scan_basis, grid, SCAN_K,
                                              threads=SCAN_THREADS),
            lambda rep: _scan_check(wl, rep), "grid=%.6f:%.6f" % (grid[0], grid[-1])),
        Job("converge_in_n",
            lambda: trilag.solver.converge_in_n(CONV_POTENTIAL, conv_basis, conv_sizes,
                                                CONV_K),
            lambda table: _converge_check(wl, table), "lam=%.6f" % conv_basis.lam),
        Job("critical_screening",
            lambda: trilag.solver.critical_screening(CRIT_TEMPLATE, 0, CRIT_LEVEL,
                                                     CRIT_BRACKET, tol=CRIT_TOL,
                                                     basis=crit_basis),
            lambda delta: _critical_check(crit_basis, delta), "lam=%.6f" % crit_basis.lam),
    ]


def sweep(scan_size=SCAN_N, conv_sizes=CONV_SIZES):
    return Workload("sweep", _sweep_jobs,
                    {"scan_size": scan_size, "conv_sizes": tuple(conv_sizes)},
                    sweep_references())


# ---------------------------------------------------------------------------
# cli_gates: the repository's own gate commands through trilag.cli.main

GATE_TABLES = (1, 2, 3)
VALIDATE_FLAGS = ["--limit", "199", "--order", "450"]
# the complex-screened (cosine, sine) Yukawa cases are not here: their
# full-block validate fails today (3.2e-7 for cosine delta=0.5 at (199,199),
# 5.8e-10 for delta=2; ROADMAP item 3), and every job of a benchmark
# workload must pass.  The classical Yukawa cases at the same delta and
# lambda take their place; table 1 still runs the cosine kernel.
VALIDATE_CASES = {
    "classical_d0.5": ["--potential", "yukawa", "--delta", "0.5", "--ell", "0",
                       "--lambda", "1"],
    "classical_d2": ["--potential", "yukawa", "--delta", "2", "--ell", "0",
                     "--lambda", "1"],
    "morse_l1": ["--potential", "morse", "--V0", "-6", "--r0", "4", "--width", "1.5",
                 "--beta", "0.8", "--ell", "1", "--lambda", "6"],
    "kratzer_B5_l2": ["--potential", "kratzer", "--A", "1", "--B", "5", "--ell", "2",
                      "--lambda", "1"],
}


def _table_tolerances(table_id):
    """Per-cell tolerances, in the row order the CLI writes them."""
    if table_id == 1:
        return [_golden.TABLE1_TOL[d] for d in sorted(_golden.TABLE1)
                for _ in _golden.TABLE1[d]]
    if table_id == 2:
        return [_golden.TABLE2_TOL for key in sorted(_golden.TABLE2)
                for _ in _golden.TABLE2[key]]
    return [_golden.TABLE3_TOL for _, by_beta in _golden.TABLE3
            for beta in sorted(by_beta) for _ in by_beta[beta]]


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _table_check(table_id, rc, text):
    label = "table%d" % table_id
    tols = _table_tolerances(table_id)
    rows = _csv_rows(text)
    checks = [invariant(label + ".exit_code", rc == cli.EXIT_OK),
              invariant(label + ".cells", len(rows) == len(tols))]
    for i, (row, tol) in enumerate(zip(rows, tols)):
        checks.append(value_check("%s.cell%d" % (label, i), float(row["diff"]), tol))
    return checks


def _validate_check(case, rc, text):
    label = "validate." + case
    worst = float(_csv_rows(text)[0]["max_deviation"])
    expected_rc = cli.EXIT_VALIDATION if worst > ORACLE_TOL else cli.EXIT_OK
    return [invariant(label + ".exit_code", rc == expected_rc),
            value_check(label + ".oracle_deviation", worst, ORACLE_TOL)]


def _gate_job(name, argv, out_path, check):
    def run():
        return cli.main(argv + ["--out", out_path]), out_path

    def check_output(result):
        rc, path = result
        with open(path) as fh:
            return check(rc, fh.read())

    return Job(name, run, check_output)


def _gate_jobs(wl, rng):
    jobs = []
    for t in GATE_TABLES:
        jobs.append(_gate_job("table%d" % t, ["table", str(t)],
                              os.path.join(wl.params["out_dir"], "table%d.csv" % t),
                              lambda rc, text, t=t: _table_check(t, rc, text)))
    for case, flags in VALIDATE_CASES.items():
        jobs.append(_gate_job("validate." + case, ["validate"] + flags + VALIDATE_FLAGS,
                              os.path.join(wl.params["out_dir"], "validate-%s.csv" % case),
                              lambda rc, text, case=case: _validate_check(case, rc, text)))
    return jobs


def _empty_rule_cache():
    # every gate command is its own process for a user, so a pass starts
    # without the quadrature rules an earlier pass built
    with quadrature._rule_lock:
        quadrature._rule_cache.clear()


def cli_gates(out_dir):
    return Workload("cli_gates", _gate_jobs, {"out_dir": out_dir},
                    before_pass=_empty_rule_cache)


def build(name, out_dir):
    if name == "dense_spectra":
        return dense_spectra()
    if name == "sweep":
        return sweep()
    if name == "cli_gates":
        return cli_gates(out_dir)
    raise ValueError("unknown workload %r" % name)


WORKLOADS = ("dense_spectra", "sweep", "cli_gates")
