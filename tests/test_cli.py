import numpy as np
import pytest

from trilag import _golden, eigen, solver
from trilag.cli import EXIT_CONFIG, EXIT_OK, EXIT_VALIDATION, main
from trilag.solver import kratzer_exact


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# each subcommand registers only the options it reads; any other is a usage error
@pytest.mark.parametrize("argv", [
    ["scan", "--threads", "2"],
    ["solve", "--tol-plateau", "1e-9"],
    ["scan", "--lambda", "2"],
    ["table", "1", "--potential", "morse"],
    ["table", "1", "--N", "5"],
    ["validate", "--N", "50"],
    ["validate", "--k", "1"],
    ["solve", "--format", "csv"],
    ["scan", "--tol-conv", "1e-12"],
], ids=lambda argv: argv[0] + argv[-2])
def test_option_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert argv[-2] in capsys.readouterr().err


class TestSolve:
    def test_reference_row(self, capsys):
        code, out, _ = run(capsys, "solve", "--potential", "yukawa-cos", "--A", "1",
                           "--delta", "0.5", "--ell", "0", "--N", "100", "--lambda", "2")
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "level,energy,N,lambda"
        level, energy, N, lam = lines[1].split(",")
        assert (level, N, lam) == ("0", "100", "2")
        assert float(energy) == pytest.approx(-1.5123062833952, abs=1e-11)

    def test_kratzer_column(self, capsys):
        code, out, _ = run(capsys, "solve", "--potential", "kratzer", "--A", "1",
                           "--B", "50", "--ell", "1", "--N", "100", "--lambda", "0.6",
                           "--k", "5")
        assert code == EXIT_OK
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
        want = [0.008562900642375, 0.006695745370544, 0.005378822847548,
                0.004415400957402, 0.003689414577626]
        got = [-float(r[1]) for r in rows]
        np.testing.assert_allclose(got, want, atol=1e-10)

    # the truncation guard's pinned Morse cases (tests/test_solver.py)
    @pytest.mark.parametrize("lam,size,extra,flagged,code", [
        ("0.2", "20", [], "0", EXIT_VALIDATION),
        # level 1 is suspect but not printed
        ("0.05", "100", ["--k", "1"], "1", EXIT_OK),
    ])
    def test_suspect_levels_reported(self, capsys, lam, size, extra, flagged, code):
        got, out, _ = run(capsys, "solve", "--potential", "morse", "--V0", "-6", "--r0", "4",
                          "--width", "1.5", "--beta", "0.8", "--ell", "1",
                          "--lambda", lam, "--N", size, *extra)
        assert got == code
        assert out.endswith("# suspect levels: %s\n" % flagged)

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_config_error(self, capsys, k):
        # scan rejects it through lambda_scan; solve checks before solving
        code, out, err = run(capsys, "solve", "--potential", "kratzer", "--B", "1",
                             "--ell", "1", "--N", "60", "--k", k)
        assert code == EXIT_CONFIG
        assert out == ""
        assert "k must be >= 1" in err

    def test_kratzer_ell_zero_solves(self, capsys):
        # at its natural basis index nu = 2 sqrt(B) the well needs no 1/r^2
        # kernel; the four lowest levels are exact at N = 100, lam = 1 (the
        # fifth is 1.6e-11 off, and the higher ones are truncated)
        code, out, _ = run(capsys, "solve", "--potential", "kratzer", "--B", "50", "--ell", "0")
        assert code == EXIT_OK
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
        got = [float(row[1]) for row in rows[:4]]
        want = [kratzer_exact(1.0, 50.0, 0, n) for n in range(4)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_missing_potential(self, capsys):
        code, _, err = run(capsys, "solve", "--delta", "0.5")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv, named", [
        (["--potential", "morse", "--V0", "-6", "--r0", "4", "--width", "1.5",
          "--delta", "0.5", "--B", "3", "--mu-re", "9", "--N", "40", "--k", "1"], "--delta"),
        (["--potential", "morse", "--V0", "-6", "--r0", "4", "--width", "1.5",
          "--B", "3"], "--B"),
        (["--potential", "kratzer", "--B", "5", "--ell", "1", "--mu-im", "1"], "--mu-im"),
        (["--potential", "kratzer", "--B", "5", "--ell", "1", "--r0", "4"], "--r0"),
        (["--potential", "yukawa", "--delta", "0.5", "--B", "3"], "--B"),
        (["--potential", "yukawa-sin", "--mu-re", "1", "--width", "1"], "--width"),
        (["--potential", "kratzer", "--B", "5", "--ell", "1", "--beta", "3", "--N", "40",
          "--k", "1"], "--beta"),
        (["--potential", "yukawa", "--delta", "0.5", "--beta", "1"], "--beta"),
        (["--potential", "morse", "--V0", "-6", "--r0", "4", "--width", "1.5",
          "--A", "2"], "--A"),
    ], ids=["found", "morse-B", "kratzer-mu-im", "kratzer-r0", "yukawa-B", "sine-width",
            "kratzer-beta", "yukawa-beta", "morse-A"])
    def test_option_of_another_family_is_config_error(self, capsys, argv, named):
        code, out, err = run(capsys, "solve", *argv)
        assert code == EXIT_CONFIG
        assert out == ""
        assert named in err

    @pytest.mark.parametrize("argv, unset", [
        (["--potential", "kratzer", "--B", "5", "--ell", "1"], ["--A", "1"]),
        (["--potential", "morse", "--V0", "-6", "--r0", "4", "--width", "1.5"], ["--beta", "1"]),
    ], ids=["kratzer-A", "morse-beta"])
    def test_unset_option_reads_one_and_is_not_echoed(self, capsys, argv, unset):
        _, implicit, _ = run(capsys, "solve", "--N", "40", *argv)
        _, explicit, _ = run(capsys, "solve", "--N", "40", *argv, *unset)
        echo, body = implicit.split("\n", 1)
        assert body == explicit.split("\n", 1)[1]
        assert " %s=" % unset[0][2:] not in echo

    @pytest.mark.parametrize("mu", ["--mu-re", "--mu-im"])
    def test_delta_with_mu_is_config_error(self, capsys, mu):
        code, _, err = run(capsys, "solve", "--potential", "yukawa-cos", "--delta", "0.5",
                           mu, "9")
        assert code == EXIT_CONFIG
        assert "--delta" in err and mu in err

    @pytest.mark.parametrize("N", ["400", "350"])
    def test_cosine_ground_level_at_large_basis(self, capsys, N):
        # the ground level and nothing below it or beside it: an assembly
        # that cancels at large N adds levels far below the Coulomb bound
        code, out, _ = run(capsys, "solve", "--potential", "yukawa-cos", "--delta", "0.5",
                           "--lambda", "1", "--N", N, "--k", "2")
        assert code == EXIT_OK
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == 1
        assert float(rows[0][1]) == pytest.approx(-_golden.TABLE1[0.5][0], abs=1e-9)

    def test_mu_im_above_mu_re_is_config_error(self, capsys):
        code, out, err = run(capsys, "solve", "--potential", "yukawa-cos", "--mu-re", "0",
                             "--mu-im", "1", "--N", "50")
        assert code == EXIT_CONFIG
        assert out == ""
        assert "mu_im <= mu_re" in err

    def test_non_finite_lambda_is_config_error(self, capsys):
        code, _, err = run(capsys, "solve", "--potential", "yukawa-cos", "--delta", "0.5",
                           "--lambda", "nan")
        assert code == EXIT_CONFIG
        assert "lam" in err

    def test_deterministic_output(self, capsys):
        argv = ("solve", "--potential", "yukawa-cos", "--delta", "1", "--N", "60",
                "--lambda", "2")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "result.csv"
        code, out, _ = run(capsys, "solve", "--potential", "yukawa-cos", "--delta", "1",
                           "--N", "60", "--lambda", "2", "--out", str(path))
        assert code == EXIT_OK
        assert out == ""
        assert path.read_text().startswith("#")


class TestScan:
    def test_plateau_summary(self, capsys):
        code, out, _ = run(capsys, "scan", "--potential", "yukawa-cos", "--A", "1",
                           "--delta", "0.5", "--ell", "0", "--N", "100",
                           "--lambda-grid", "1:5:0.5", "--k", "1")
        assert code == EXIT_OK
        assert "# plateau: [1, 5]" in out

    def test_k_above_basis_size_is_config_error(self, capsys):
        code, _, err = run(capsys, "scan", "--potential", "yukawa-cos", "--delta", "0.5",
                           "--N", "3", "--k", "5", "--lambda-grid", "1:3:0.5")
        assert code == EXIT_CONFIG
        assert "k = 5 levels exceed the basis size N = 3" in err

    def test_small_grid_rejected(self, capsys):
        code, _, err = run(capsys, "scan", "--potential", "yukawa-cos", "--delta", "0.5",
                           "--lambda-grid", "1,2")
        assert code == EXIT_CONFIG
        assert "grid" in err


def _golden_cells(table_id):
    """The dicts that hold a table's golden levels."""
    if table_id == "3":
        return [by_beta for _, by_beta in _golden.TABLE3]
    return [_golden.TABLE1 if table_id == "1" else _golden.TABLE2]


class TestTable:
    # the CSV header and the one row per golden level that perfbench's table check reads
    HEADERS = {
        "1": "delta,level,energy,golden,diff",
        "2": "B,ell,n,energy,golden,diff,exact_gap",
        "3": "ell,r0,width,V0,beta,level,energy,golden,diff",
    }

    @pytest.mark.parametrize("table_id", ["1", "2", "3"])
    def test_reproduction(self, capsys, table_id):
        header = self.HEADERS[table_id]
        code, out, _ = run(capsys, "table", table_id)
        assert code == EXIT_OK
        assert "REGRESSION" not in out
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == header
        golden = sum(len(levels) for cells in _golden_cells(table_id) for levels in cells.values())
        assert len(lines) - 1 == golden
        assert all(len(l.split(",")) == len(header.split(",")) for l in lines[1:])

    @pytest.mark.parametrize("table_id", ["1", "2", "3"])
    def test_levels_need_no_eigenvectors(self, capsys, monkeypatch, table_id):
        # the tables print levels only: neither MRRR eigenvectors, the
        # reflectors applied to them nor the truncation guard may run
        def fail(*args, **kwargs):
            raise AssertionError("eigenvectors or the truncation guard were computed")

        for module, name in ((eigen, "_mrrr"), (eigen, "_apply_q"), (solver, "_tail_fractions")):
            monkeypatch.setattr(module, name, fail)
        code, out, _ = run(capsys, "table", table_id)
        assert code == EXIT_OK
        assert "REGRESSION" not in out

    def test_out_path_not_writable_is_config_error(self, capsys):
        code, out, err = run(capsys, "table", "2", "--out", "/nonexistent/x.csv")
        assert code == EXIT_CONFIG
        assert out == ""
        assert "cannot write output file" in err and "/nonexistent/x.csv" in err

    @pytest.mark.parametrize("table_id", ["1", "2", "3"])
    def test_regression_is_counted(self, capsys, monkeypatch, table_id):
        # one golden level moved far beyond any tolerance
        cells = _golden_cells(table_id)[0]
        key = min(cells)
        moved = list(cells[key])
        moved[0] += 1.0
        monkeypatch.setitem(cells, key, moved)
        code, out, _ = run(capsys, "table", table_id)
        assert code == EXIT_VALIDATION
        assert out.endswith("# REGRESSION: 1 cell(s) beyond tolerance\n")


class TestValidate:
    def test_yukawa_within_tolerance(self, capsys):
        code, out, _ = run(capsys, "validate", "--potential", "yukawa-cos", "--A", "1",
                           "--delta", "0.5", "--ell", "0", "--lambda", "2",
                           "--limit", "40", "--order", "300")
        assert code == EXIT_OK

    @pytest.mark.parametrize("delta", ["0.01", "0.5", "2", "9"])
    @pytest.mark.parametrize("N", [200, 300])
    @pytest.mark.parametrize("potential", ["yukawa-cos", "yukawa-sin"])
    def test_screened_full_block(self, capsys, potential, N, delta):
        # every element the solver uses at this N, not only a leading block
        code, out, _ = run(capsys, "validate", "--potential", potential, "--delta", delta,
                           "--lambda", "1", "--limit", str(N - 1), "--order", str(2 * N + 250))
        assert code == EXIT_OK, out

    @pytest.mark.parametrize("args,bound", [
        (("yukawa", "--delta", "0.5", "--ell", "0", "--lambda", "1"), 1e-13),
        (("yukawa-cos", "--delta", "0.5", "--ell", "0", "--lambda", "1"), 1e-13),
        (("morse", "--V0", "-6", "--r0", "4", "--width", "1.5", "--beta", "0.8",
          "--ell", "1", "--lambda", "6"), 1e-12),
        (("kratzer", "--A", "1", "--B", "5", "--ell", "2", "--lambda", "1"), 1e-14),
    ], ids=["yukawa", "yukawa-cos", "morse", "kratzer"])
    def test_full_block_at_rule_accuracy(self, capsys, args, bound):
        # the oracle's rule sets the deviation of the whole 200 x 200 block:
        # 5e-15 from its weights at nu = 0 (1.3e-12 from those of
        # L_{order+1}); Morse reads 3.0e-13 and Kratzer 3.5e-15 on the
        # longdouble nodes, 3.7e-12 and 4.5e-14 on a float64 copy of them
        code, out, _ = run(capsys, "validate", "--potential", *args,
                           "--limit", "199", "--order", "450")
        assert code == EXIT_OK
        row = [l for l in out.splitlines() if l and not l.startswith("#")][1]
        assert float(row.split(",")[0]) <= bound

    def test_zero_potential_zero_deviation(self, capsys):
        code, out, _ = run(capsys, "validate", "--potential", "morse", "--V0", "0",
                           "--r0", "1", "--width", "1", "--beta", "1",
                           "--lambda", "2", "--limit", "10", "--order", "50")
        assert code == EXIT_OK
        row = [l for l in out.splitlines() if l and not l.startswith("#")][1]
        assert float(row.split(",")[0]) == 0.0

    def test_negative_limit_is_config_error(self, capsys):
        # named as the option the user gave, not as the basis size limit + 1
        code, _, err = run(capsys, "validate", "--potential", "yukawa", "--delta", "0.5",
                           "--limit", "-1")
        assert code == EXIT_CONFIG
        assert "--limit must be >= 0, got -1" in err
        assert "basis size" not in err

    def test_morse_within_tolerance(self, capsys):
        code, _, _ = run(capsys, "validate", "--potential", "morse", "--V0", "-6",
                         "--r0", "4", "--width", "1.5", "--beta", "0.8", "--ell", "1",
                         "--lambda", "6", "--limit", "40", "--order", "300")
        assert code == EXIT_OK


class TestConfigFile:
    @pytest.mark.parametrize("argv", [
        ("solve", "--potential", "yukawa-cos", "--delta", "0.5", "--N", "80",
         "--lambda", "2"),
        ("scan", "--potential", "yukawa-cos", "--delta", "0.5", "--N", "60",
         "--lambda-grid", "1:3:0.5", "--k", "2", "--tol-plateau", "1e-8"),
        ("validate", "--potential", "morse", "--V0", "-6", "--r0", "4", "--width", "1.5",
         "--beta", "0.8", "--ell", "1", "--lambda", "6", "--limit", "20", "--order", "100"),
        ("table", "1"),
    ], ids=lambda argv: argv[0])
    def test_round_trip(self, capsys, tmp_path, argv):
        code, dump, _ = run(capsys, *argv, "--dump-config")
        assert code == EXIT_OK
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(dump)
        _, direct, _ = run(capsys, *argv)
        command = argv[:2] if argv[0] == "table" else argv[:1]
        _, via_config, _ = run(capsys, *command, "--config", str(cfgfile))
        assert direct == via_config

    def test_flags_override_file(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("potential=yukawa-cos\ndelta=0.5\nN=60\nlambda=2\n")
        _, out, _ = run(capsys, "solve", "--config", str(cfgfile), "--delta", "1.0")
        row = [l for l in out.splitlines() if l and not l.startswith("#")][1]
        assert float(row.split(",")[1]) == pytest.approx(-1.08022847887960, abs=1e-10)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("potential=yukawa-cos\nbogus=1\n")
        code, _, err = run(capsys, "solve", "--config", str(cfgfile))
        assert code == EXIT_CONFIG
        assert "bogus" in err

    def test_key_of_another_subcommand_rejected(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("potential=yukawa-cos\ndelta=0.5\ntol-plateau=1e-8\n")
        code, _, err = run(capsys, "solve", "--config", str(cfgfile))
        assert code == EXIT_CONFIG
        assert "%s:3" % cfgfile in err
        assert "tol-plateau" in err
        code, out, _ = run(capsys, "scan", "--config", str(cfgfile), "--N", "60",
                           "--lambda-grid", "1:3:0.5")
        assert code == EXIT_OK
        assert "tol-plateau=1e-08" in out.splitlines()[0]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "--config", "/nonexistent/run.cfg")
        assert code == EXIT_CONFIG
