"""Command-line surface: solve, scan, table and validate subcommands.

Output is CSV with a '#'-prefixed header comment carrying the full
parameter echo; identical configurations produce byte-identical output.
Exit codes: 0 ok, 2 configuration error, 3 numerical failure,
4 validation/regression failure, including a printed solve level that the
truncation guard flags as suspect.
"""

import argparse
import math
import sys

import numpy as np

from . import _golden
from .basis import BasisSpec
from .potentials import KratzerParams, MorseParams, YukawaParams
from .quadrature import quad_potential_matrix
from .solver import bound_states, kratzer_exact, lambda_scan, spectrum

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4

POTENTIAL_NAMES = ("yukawa", "yukawa-cos", "yukawa-sin", "kratzer", "morse")


class ConfigError(ValueError):
    pass


def _config_options(parser):
    """Long option name -> action, for every option a config file may set."""
    return {a.option_strings[0][2:]: a for a in parser._actions
            if a.option_strings and a.dest not in ("help", "config", "dump_config")}


def _read_config_file(path, options):
    """Values of a key=value file, by option dest, each converted by its option's type."""
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError("%s:%d: expected key=value, got %r" % (path, lineno, line))
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                action = options.get(key)
                if action is None:
                    raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
                try:
                    value = action.type(val) if action.type else val
                    if action.choices is not None and value not in action.choices:
                        raise ValueError
                except ValueError:
                    raise ConfigError("%s:%d: bad value for %s: %r" % (path, lineno, key, val))
                values[action.dest] = value
    except OSError as e:
        raise ConfigError("cannot read config file: %s" % e)
    return values


# the potential options by the families that read them; none has a parser default
_FAMILY_OPTIONS = {
    "yukawa": ("A", "delta", "mu-re", "mu-im"),
    "kratzer": ("A", "B"),
    "morse": ("V0", "r0", "width", "beta"),
}


def _build_potential(cfg):
    name = cfg["potential"]
    if name is None:
        raise ConfigError("--potential is required")
    family = name.split("-")[0]
    for keys in _FAMILY_OPTIONS.values():
        for key in keys:
            if key not in _FAMILY_OPTIONS[family] and cfg[key] is not None:
                raise ConfigError("--%s does not apply to --potential %s" % (key, name))
    A = cfg["A"] if cfg["A"] is not None else 1.0
    if family == "yukawa":
        variant = {"yukawa": "classical", "yukawa-cos": "cosine", "yukawa-sin": "sine"}[name]
        if cfg["delta"] is not None:
            if cfg["mu-re"] is not None or cfg["mu-im"] is not None:
                raise ConfigError("--delta sets the screening: give it or --mu-re/--mu-im, not both")
            return YukawaParams(strength=A, variant=variant).with_screening(cfg["delta"])
        mu_re = cfg["mu-re"] if cfg["mu-re"] is not None else 0.0
        mu_im = cfg["mu-im"] if cfg["mu-im"] is not None else 0.0
        return YukawaParams(strength=A, mu_re=mu_re, mu_im=mu_im, variant=variant)
    if family == "kratzer":
        if cfg["B"] is None:
            raise ConfigError("kratzer requires --B")
        return KratzerParams(coulomb=A, inverse_square=cfg["B"])
    # morse
    for key in ("V0", "r0", "width"):
        if cfg[key] is None:
            raise ConfigError("morse requires --%s" % key)
    beta = cfg["beta"] if cfg["beta"] is not None else 1.0
    return MorseParams(depth=cfg["V0"], r_eq=cfg["r0"], width=cfg["width"], beta=beta)


def _parse_grid(text):
    if text is None:
        raise ConfigError("scan requires --lambda-grid (lo:hi:step or comma list)")
    try:
        if ":" in text:
            lo, hi, step = (float(t) for t in text.split(":"))
            if step <= 0 or hi < lo:
                raise ValueError
            return np.arange(lo, hi + 0.5 * step, step)
        return np.array([float(t) for t in text.split(",")])
    except ValueError:
        raise ConfigError("bad --lambda-grid %r" % text)


def _fmt(x):
    return format(float(x), ".15g")


def _sci(x):
    return format(float(x), ".3e")


def _pairs(cfg):
    """The options that are set, as sorted key=value strings: the echo and --dump-config."""
    return ["%s=%s" % (key, cfg[key]) for key in sorted(cfg) if cfg[key] is not None]


def _emit(cfg, command, lines):
    """Write the '#' parameter echo, then the lines, to --out or stdout."""
    echo = "# " + " ".join(["command=" + command] + _pairs(cfg))
    text = "".join(line + "\n" for line in [echo] + lines)
    if cfg["out"]:
        try:
            with open(cfg["out"], "w") as fh:
                fh.write(text)
        except OSError as e:
            raise ConfigError("cannot write output file: %s" % e)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands: each takes the option values and the parsed arguments, writes
# its output and returns the exit code


def cmd_solve(cfg, args):
    if cfg["k"] is not None and cfg["k"] < 1:
        raise ConfigError("k must be >= 1")
    potential = _build_potential(cfg)
    basis = BasisSpec(lam=cfg["lambda"], ell=cfg["ell"], size=cfg["N"])
    result = bound_states(potential, basis)
    levels = result.bound[: cfg["k"]]
    lines = ["level,energy,N,lambda"]
    lines += ["%d,%s,%d,%s" % (i, _fmt(e), basis.size, _fmt(basis.lam)) for i, e in enumerate(levels)]
    for name, flagged in (("suspect", result.suspect), ("unresolved", result.unresolved)):
        if flagged:
            lines.append("# %s levels: %s" % (name, " ".join(map(str, flagged))))
    _emit(cfg, "solve", lines)
    return EXIT_VALIDATION if any(i < len(levels) for i in result.suspect) else EXIT_OK


def cmd_scan(cfg, args):
    potential = _build_potential(cfg)
    grid = _parse_grid(cfg["lambda-grid"])
    basis = BasisSpec(lam=grid[0], ell=cfg["ell"], size=cfg["N"])
    k = cfg["k"] if cfg["k"] is not None else 1
    report = lambda_scan(potential, basis, grid, k, tol_rel=cfg["tol-plateau"])
    lines = ["lambda,level,energy"]
    for lam, row in zip(report.grid, report.traces):
        lines += ["%s,%d,%s" % (_fmt(lam), lvl, _fmt(e)) for lvl, e in enumerate(row)]
    if report.plateau is None:
        lines.append("# plateau: none")
    else:
        lines.append("# plateau: [%s, %s] max_spread=%s"
                     % (_fmt(report.plateau[0]), _fmt(report.plateau[1]), _sci(np.max(report.spread))))
    _emit(cfg, "scan", lines)
    return EXIT_OK


# Each table's rows yield (cells, failed): the CSV cells of one golden level
# and whether it lies beyond its tolerance.  A golden value is a binding
# energy, -E.  The levels come from spectrum, the floats solve prints, with
# no eigenvector and no truncation guard.


def _level_cells(energy, golden):
    """Cells energy, golden and diff of one level, and the diff."""
    computed = -float(energy)
    diff = abs(computed - golden)
    return [_fmt(computed), _fmt(golden), _sci(diff)], diff


def _table1_rows():
    b = BasisSpec(lam=_golden.TABLE1_LAM, ell=0, size=_golden.TABLE1_N)
    for delta in sorted(_golden.TABLE1):
        p = YukawaParams(strength=1.0, mu_re=delta, mu_im=delta, variant="cosine")
        energies = spectrum(p, b)
        for lvl, g in enumerate(_golden.TABLE1[delta]):
            cells, diff = _level_cells(energies[lvl], g)
            yield [_fmt(delta), lvl] + cells, diff > _golden.TABLE1_TOL[delta]


def _table2_rows():
    for (B, ell) in sorted(_golden.TABLE2):
        p = KratzerParams(coulomb=1.0, inverse_square=B)
        b = BasisSpec(lam=_golden.TABLE2_LAM, ell=ell, size=_golden.TABLE2_N)
        energies = spectrum(p, b)
        for lvl, g in enumerate(_golden.TABLE2[(B, ell)]):
            cells, diff = _level_cells(energies[lvl], g)
            gap = abs(float(energies[lvl]) - kratzer_exact(1.0, B, ell, lvl))
            yield [_fmt(B), ell, lvl] + cells + [_sci(gap)], diff > _golden.TABLE2_TOL


def _table3_rows():
    for (ell, r0, width, V0), by_beta in _golden.TABLE3:
        b = BasisSpec(lam=_golden.TABLE3_LAM, ell=ell, size=_golden.TABLE3_N)
        for beta in sorted(by_beta):
            p = MorseParams(depth=V0, r_eq=r0, width=width, beta=beta)
            energies = spectrum(p, b)
            for lvl, g in enumerate(by_beta[beta]):
                cells, diff = _level_cells(energies[lvl], g)
                yield ([ell, _fmt(r0), _fmt(width), _fmt(V0), _fmt(beta), lvl] + cells,
                       diff > _golden.TABLE3_TOL)


# table id -> (CSV header, rows)
_TABLES = {
    1: ("delta,level,energy,golden,diff", _table1_rows),
    2: ("B,ell,n,energy,golden,diff,exact_gap", _table2_rows),
    3: ("ell,r0,width,V0,beta,level,energy,golden,diff", _table3_rows),
}


def cmd_table(cfg, args):
    header, rows = _TABLES[args.id]
    lines = [header]
    failures = 0
    for cells, failed in rows():
        lines.append(",".join(map(str, cells)))
        failures += failed
    if failures:
        lines.append("# REGRESSION: %d cell(s) beyond tolerance" % failures)
    _emit(cfg, "table %d" % args.id, lines)
    return EXIT_VALIDATION if failures else EXIT_OK


def cmd_validate(cfg, args):
    limit = cfg["limit"]
    if limit < 0:
        raise ConfigError("--limit must be >= 0, got %d" % limit)
    potential = _build_potential(cfg)
    # the paper's index nu = 2|ell|: there the matrix is the oracle's matrix of
    # the whole radial well, and the Kratzer 1/r^2 kernel stays under the check
    basis = BasisSpec(lam=cfg["lambda"], ell=cfg["ell"], size=limit + 1, nu=2.0 * abs(cfg["ell"]))
    weight_nu = potential.oracle_nu(basis)
    # the oracle is exact to degree 2 order - 1 - floor(weight_nu), and x p_n p_m has
    # degree up to 2 limit + 1; a negative weight_nu is rejected further on
    if weight_nu >= 0:
        least = limit + 1 + math.ceil(math.floor(weight_nu) / 2)
        if cfg["order"] < least:
            raise ConfigError("--order must be >= %d for --limit %d, got %d: a lower order does "
                              "not integrate the block's polynomial part exactly"
                              % (least, limit, cfg["order"]))
    assembled = potential.matrix(basis)
    oracle = quad_potential_matrix(potential.radial, basis, order=cfg["order"], weight_nu=weight_nu)
    # |assembled - oracle| / max(|assembled|, 1e-2), in place: relative where the element
    # is appreciable, absolute (scaled to the same 1e-11 threshold) where it is tiny
    dev = np.abs(np.subtract(assembled, oracle, out=oracle), out=oracle)
    dev /= np.maximum(np.abs(assembled, out=assembled), 1e-2, out=assembled)
    n, m = np.unravel_index(int(np.argmax(dev)), dev.shape)
    worst = float(dev[n, m])
    _emit(cfg, "validate", ["# max deviation %s at (n, m) = (%d, %d)" % (_sci(worst), n, m),
                            "max_deviation,n,m,order,limit",
                            "%s,%d,%d,%d,%d" % (_sci(worst), n, m, cfg["order"], limit)])
    return EXIT_VALIDATION if worst > 1e-11 else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    """The trilag parser: each option is declared once, on the subcommands that read it.

    Config files, the '#' echo and --dump-config use the same declarations;
    each subparser names the subcommand main runs.
    """
    parser = argparse.ArgumentParser(
        prog="trilag",
        description="Bound-state spectra in a tridiagonal Laguerre basis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # allow_abbrev=False: on scan, --lambda would otherwise be read as --lambda-grid
    p_solve = sub.add_parser("solve", allow_abbrev=False, help="bound-state energies at fixed basis")
    p_scan = sub.add_parser("scan", allow_abbrev=False, help="eigenvalue traces over a lam grid")
    p_table = sub.add_parser("table", allow_abbrev=False, help="reproduce a reference table")
    p_val = sub.add_parser("validate", allow_abbrev=False, help="assembled elements vs quadrature oracle")

    p_table.add_argument("id", type=int, choices=sorted(_TABLES))
    for p in (p_solve, p_scan, p_val):
        p.add_argument("--potential", choices=POTENTIAL_NAMES)
        p.add_argument("--A", type=float, help="Yukawa strength / Kratzer Coulomb strength (default 1)")
        p.add_argument("--delta", type=float, help="screening parameter (sets both parts for cos/sin)")
        p.add_argument("--mu-re", type=float)
        p.add_argument("--mu-im", type=float)
        p.add_argument("--B", type=float, help="Kratzer inverse-square strength")
        p.add_argument("--V0", type=float, help="Morse depth")
        p.add_argument("--r0", type=float, help="Morse equilibrium radius")
        p.add_argument("--width", type=float, help="Morse exponent")
        p.add_argument("--beta", type=float, help="Morse shape parameter (default 1)")
        p.add_argument("--ell", type=int, default=0)
    for p in (p_solve, p_scan):
        p.add_argument("--N", type=int, default=100, help="basis size")
        p.add_argument("--k", type=int, help="number of levels (solve: all bound, scan: 1)")
    for p in (p_solve, p_val):
        p.add_argument("--lambda", type=float, default=1.0, help="basis scale")
    p_scan.add_argument("--lambda-grid", help="lo:hi:step or comma-separated lam values")
    p_scan.add_argument("--tol-plateau", type=float, default=1e-9)
    p_val.add_argument("--limit", type=int, default=40, help="validate elements with n, m <= limit")
    p_val.add_argument("--order", type=int, default=300, help="quadrature order")
    for p, run in ((p_solve, cmd_solve), (p_scan, cmd_scan), (p_table, cmd_table),
                   (p_val, cmd_validate)):
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--config", help="key=value file of this subcommand's long options; flags override")
        p.add_argument("--dump-config", action="store_true")
        # main reads the file's keys against the subcommand's own options
        p.set_defaults(subparser=p, run=run)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    options = _config_options(args.subparser)
    try:
        if args.config:
            # file values become the subcommand's defaults; flags parsed again override them
            args.subparser.set_defaults(**_read_config_file(args.config, options))
            args = parser.parse_args(argv)
        cfg = {key: getattr(args, action.dest) for key, action in options.items()}
        if args.dump_config:
            sys.stdout.write("\n".join(_pairs(dict(cfg, out=None))) + "\n")
            return EXIT_OK
        return args.run(cfg, args)
    except np.linalg.LinAlgError as e:
        # NotPositiveDefiniteError among them
        print("numerical failure: %s" % e, file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as e:
        # ConfigError and the parameter checks of the library
        print("error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
