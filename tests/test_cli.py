import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cavity_sr import NumericalParams, __version__, individual_params, scaling_sweep
from cavity_sr.cli import cli_dispatch
from cavity_sr.fileio import read_report, write_timeseries
from cavity_sr.series import ObservableSeries

# a report whose points are bare numbers instead of {"n", "intensity"} objects
BAD_POINTS = '{"points": [1, 2], "zeta": 1, "intercept": 0, "r_squared": 1}'
POINTS = ('"points": [{"n": 10, "intensity": 100}, {"n": 20, "intensity": 400}, '
          '{"n": 40, "intensity": 1600}], "intercept": 0, "r_squared": 1')
NO_CONFIG = '{%s, "zeta": 2}' % POINTS
CONFIG = '"config": {"dt": [0.01, 0.01, 0.01], "n_traj": %s, "t_max": null, "seed": 0}'
ZERO_TRAJECTORIES = '{%s, "zeta": 2, %s}' % (POINTS, CONFIG % 0)
STRING_ZETA = '{%s, "zeta": "2", %s}' % (POINTS, CONFIG % 300)
BOOL_TRAJECTORIES = '{%s, "zeta": 2, %s}' % (POINTS, CONFIG % "true")
STRING_ATOM_NUMBER = NO_CONFIG.replace('"n": 10', '"n": "abc"')
BOOL_INTENSITY = NO_CONFIG.replace('"intensity": 400', '"intensity": true')


def run_cli(*argv):
    return cli_dispatch(list(argv))


def count_solves(monkeypatch):
    """Replace the solver behind simulate and sweep by one that records its
    calls and fails, so a run that gets past validation ends at once."""
    from cavity_sr import analysis, cli
    calls = []

    def solve(*args):
        calls.append(args)
        raise RuntimeError("solver reached")
    monkeypatch.setattr(analysis, "simulate_timeseries", solve)
    monkeypatch.setattr(cli, "simulate_timeseries", solve)
    return calls


def read_columns(path):
    """The timeseries.csv columns t, sz_mean, sz_sem, sz_norm, photon_mean,
    photon_sem as float arrays."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T


def small_series():
    t = np.array([0.0, 0.1, 0.2])
    return ObservableSeries(times=t, sz_mean=np.array([5.0, 2.0, -4.9]),
                            sz_sem=np.array([0.0, 0.1, 0.2]),
                            photon_mean=np.array([0.0, 1.5, 0.2]),
                            photon_sem=np.zeros(3), n_atoms=10)


class TestTimeseriesFile:
    def test_three_point_series_gives_four_lines(self, tmp_path):
        path = write_timeseries(small_series(), tmp_path / "ts.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0] == "t,sz_mean,sz_sem,sz_norm,photon_mean,photon_sem"

    def test_round_trip_is_exact(self, tmp_path):
        series = small_series()
        path = write_timeseries(series, tmp_path / "ts.csv")
        columns = (series.times, series.sz_mean, series.sz_sem, series.sz_norm,
                   series.photon_mean, series.photon_sem)
        for back, column in zip(read_columns(path), columns, strict=True):
            np.testing.assert_array_equal(back, column)

    def test_norm_column_is_normalized(self, tmp_path):
        path = write_timeseries(small_series(), tmp_path / "ts.csv")
        first = path.read_text().splitlines()[1].split(",")
        assert float(first[3]) == pytest.approx(1.0)   # 2*5/10


class TestSimulate:
    def test_meanfield_run_writes_files_and_manifest(self, tmp_path):
        out = tmp_path / "run1"
        code = run_cli("simulate", "--scheme", "collective", "--solver",
                       "meanfield", "--n-atoms", "40", "--g", "10", "--kappa",
                       "1", "--t-max", "0.5", "--seed", "7", "--out", str(out))
        assert code == 0
        csv = out / "timeseries.csv"
        manifest = json.loads((out / "manifest.json").read_text())
        digest = hashlib.sha256(csv.read_bytes()).hexdigest()
        assert manifest["outputs"]["timeseries.csv"] == digest
        assert manifest["config"]["n_atoms"] == 40
        assert manifest["config"]["dt"] is not None
        assert set(manifest["config"]) == {
            "scheme", "solver", "n_atoms", "g", "kappa", "gamma", "detuning",
            "dt", "t_max", "n_traj", "seed"}
        sz_norm = read_columns(csv)[3]
        assert sz_norm[0] == pytest.approx(1.0)

    def test_same_seed_reproduces_bytes(self, tmp_path):
        args = ["simulate", "--scheme", "individual", "--solver", "dtwa",
                "--n-atoms", "10", "--g", "2", "--kappa", "20",
                "--trajectories", "300", "--t-max", "0.2", "--seed", "3"]
        assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
        assert (tmp_path / "a/timeseries.csv").read_bytes() == \
            (tmp_path / "b/timeseries.csv").read_bytes()

    # SHA-256 of the seed-0 timeseries.csv (numpy 2.4.6 at X86_V3 or X86_V4
    # dispatch; under baseline dispatch numpy's complex product rounds
    # differently, and these five pins and the sweep report's fail). The seed
    # fixes the bits of the stochastic output, so a new digest means the
    # sampling, the noise stream or the integrator arithmetic changed. twa-blocks
    # spans 24 chunks: two state blocks, the last chunk partial; its digest predates
    # the block layout, which must not change the bits.  dtwa-lattice puts a
    # full and a partial chunk in one block, and its N = 20 atom sums add the
    # spin columns in numpy's pairwise grouping, eight accumulators and four
    # columns left over (below 8 terms, as at N = 6, they add in order); its
    # digest predates the column-major DTWA block and the column-wise sums.
    # twa-g10 couples at g = 10, not a power of two, so a reassociated
    # coupling product (g * beta * eta against beta * eta * g) changes
    # its bits.
    @pytest.mark.parametrize("scheme, solver, n_atoms, g, kappa, m, digest", [
        ("collective", "twa", "20", "4", "10", "300",
         "41d8cf3d73685b9e36bfa3d0f3c9089f05547d0af32d6ff5715e153ea8c309eb"),
        ("individual", "dtwa", "6", "2", "20", "300",
         "bddfc4c75b6bd51dfed9d9087102ed2b54a3ade4d1ba4072bd7a6b8d32f00db7"),
        ("collective", "twa", "20", "4", "10", "6000",
         "e6b7f22e930bbea7c03a7045a467d51144f5e87b7f4d26966f638ce4b47917e0"),
        ("individual", "dtwa", "20", "2", "20", "300",
         "2d7186229d64a6e2f3fa7e7c7efe9d3f49f5b25021157ac3a95b08e1ff5789d3"),
        ("collective", "twa", "20", "10", "100", "300",
         "8744f7790462c287fe3dad9b59f13f47d74def27f6eaa138e48c1be7bec99200"),
    ], ids=["twa", "dtwa", "twa-blocks", "dtwa-lattice", "twa-g10"])
    def test_seed_zero_output_bits_are_pinned(self, tmp_path, scheme, solver,
                                              n_atoms, g, kappa, m, digest):
        assert run_cli("simulate", "--scheme", scheme, "--solver", solver,
                       "--n-atoms", n_atoms, "--g", g, "--kappa", kappa,
                       "--trajectories", m, "--t-max", "0.3", "--seed", "0",
                       "--out", str(tmp_path)) == 0
        csv = (tmp_path / "timeseries.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == digest

    def test_oracle_solver_runs(self, tmp_path):
        code = run_cli("simulate", "--scheme", "collective", "--solver",
                       "oracle", "--n-atoms", "2", "--t-max", "1.0",
                       "--dt", "0.01", "--out", str(tmp_path / "o"))
        assert code == 0
        t, sz_mean = read_columns(tmp_path / "o/timeseries.csv")[:2]
        exact = 2 * np.exp(-4 * t) + 4 * t * np.exp(-4 * t) - 1
        np.testing.assert_allclose(sz_mean, exact, atol=1e-6)

    def test_collective_default_step_resolves_a_fast_cavity(self, tmp_path):
        # dt = 1e-3 diverges every trajectory at kappa = 3000; the default
        # step is capped at 0.5 / kappa
        code = run_cli("simulate", "--scheme", "collective", "--solver", "twa",
                       "--n-atoms", "10", "--g", "1", "--kappa", "3000",
                       "--trajectories", "256", "--out", str(tmp_path))
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["n_divergent"] == 0
        assert manifest["config"]["dt"] == pytest.approx(0.5 / 3000)


class TestValidationAndExitCodes:
    def test_invalid_scheme_solver_combination(self, tmp_path, capsys):
        code = run_cli("simulate", "--scheme", "individual", "--solver", "twa",
                       "--n-atoms", "5", "--out", str(tmp_path))
        assert code == 1
        assert "collective" in capsys.readouterr().err

    def test_unknown_flag_fails(self, tmp_path):
        code = run_cli("simulate", "--scheme", "collective", "--solver",
                       "meanfield", "--n-atoms", "5", "--frobnicate", "1",
                       "--out", str(tmp_path))
        assert code == 1

    def test_smoothing_window_is_not_an_option(self, tmp_path):
        # the emission estimator's window is fixed (analysis.EMISSION_WINDOW)
        out = tmp_path / "out"
        code = run_cli("simulate", "--scheme", "collective", "--solver",
                       "meanfield", "--n-atoms", "5", "--smoothing-window", "5",
                       "--out", str(out))
        assert code == 1
        assert not out.exists()

    def test_bad_parameters_fail_validation(self, tmp_path, capsys):
        code = run_cli("simulate", "--scheme", "collective", "--solver",
                       "meanfield", "--n-atoms", "0", "--out", str(tmp_path))
        assert code == 1
        assert "zero atoms" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--solver", "meanfield", "--n-atoms", "10", "--detuning", "nan"],
         "detuning = nan"),
        (["simulate", "--solver", "meanfield", "--n-atoms", "10", "--t-max", "inf"],
         "t_max = inf"),
        (["simulate", "--solver", "meanfield", "--n-atoms", "10", "--dt", "nan"],
         "dt = nan"),
        (["simulate", "--solver", "meanfield", "--n-atoms", "10", "--gamma", "nan"],
         "gamma = nan"),
        (["simulate", "--solver", "twa", "--n-atoms", "10", "--kappa", "nan"],
         "kappa = nan"),
        (["simulate", "--solver", "twa", "--n-atoms", "10", "--g", "inf"],
         "g = inf"),
        (["simulate", "--solver", "twa", "--n-atoms", "10", "--seed", "-1"],
         "seed must be a non-negative integer, got -1"),
        (["simulate", "--solver", "oracle", "--n-atoms", "61"],
         "collective oracle limited to N <= 60"),
        (["simulate", "--solver", "twa", "--n-atoms", "3", "--dt", "1e-300",
          "--t-max", "1"], "dt = 1e-300 and t_max = 1.0 give t_max/dt = 1e+300 steps"),
        # the default dt, 0.5/kappa, is subnormal, so t_max/dt overflows
        (["simulate", "--solver", "oracle", "--n-atoms", "3", "--kappa", "1e308",
          "--g", "1"], "t_max/dt = inf steps"),
    ], ids=["nan-detuning", "inf-t-max", "nan-dt", "nan-gamma", "nan-kappa",
            "inf-g", "negative-seed", "oracle-n-61", "twa-step-count-overflow",
            "oracle-step-count-overflow"])
    def test_bad_number_fails_before_any_solve(self, tmp_path, monkeypatch,
                                               capsys, argv, message):
        calls = count_solves(monkeypatch)
        out = tmp_path / "out"
        code = run_cli(*argv, "--scheme", "collective", "--out", str(out))
        assert code == 1
        assert calls == []
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--solver", "twa", "--n-atoms", "10"],
        ["simulate", "--solver", "meanfield", "--n-atoms", "10"],
        ["simulate", "--solver", "oracle", "--n-atoms", "4"],
        ["sweep", "--n-list", "5,10,20"],
    ], ids=["twa", "meanfield", "oracle", "sweep"])
    def test_bad_worker_cap_fails_before_any_solve(self, tmp_path, monkeypatch,
                                                   capsys, argv):
        monkeypatch.setenv("CAVITY_SR_MAX_WORKERS", "x")
        calls = count_solves(monkeypatch)
        out = tmp_path / "out"
        code = run_cli(*argv, "--scheme", "collective", "--out", str(out))
        assert code == 1
        assert calls == []
        assert not out.exists()
        assert "CAVITY_SR_MAX_WORKERS must be an integer >= 1, got 'x'" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--solver", "meanfield", "--n-atoms", "10"],
        ["sweep", "--solver", "meanfield", "--n-list", "10,20,40"],
    ], ids=["simulate", "sweep"])
    def test_unusable_out_fails_before_any_solve(self, tmp_path, monkeypatch,
                                                 capsys, argv):
        calls = count_solves(monkeypatch)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = run_cli(*argv, "--scheme", "collective", "--out", str(blocker / "out"))
        assert code == 2
        assert calls == []
        assert "runtime failure" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-m", "cavity_sr", "--version"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert __version__ in done.stdout


class TestFit:
    def test_trivial_quadratic_csv(self, tmp_path, capsys):
        points = tmp_path / "points.csv"
        points.write_text("n,intensity\n10,100\n100,10000\n1000,1000000\n")
        assert run_cli("fit", "--input", str(points)) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["zeta"] == pytest.approx(2.0)

    def test_fit_round_trips_report_json(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--scheme", "collective", "--solver",
                       "meanfield", "--n-list", "20,40,80", "--trajectories",
                       "1", "--out", str(out))
        assert code == 0
        report = read_report(out / "report.json")
        capsys.readouterr()
        assert run_cli("fit", "--input", str(out / "report.json")) == 0
        refit = json.loads(capsys.readouterr().out)
        assert refit["zeta"] == pytest.approx(report.zeta, abs=1e-12)

    @pytest.mark.parametrize("rows, n", [
        ("10,nan\n20,400\n40,1600", "10"),
        ("10,100\n20,400\n40,inf", "40"),
    ], ids=["nan", "inf"])
    def test_non_finite_csv_point_fails_naming_the_atom_number(self, tmp_path,
                                                               capsys, rows, n):
        points = tmp_path / "points.csv"
        points.write_text(f"n,intensity\n{rows}\n")
        assert run_cli("fit", "--input", str(points)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"non-finite emission strength at N = {n}" in captured.err

    def test_fit_reads_a_report_without_config(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text(NO_CONFIG + "\n")
        assert run_cli("fit", "--input", str(report)) == 0
        assert json.loads(capsys.readouterr().out)["zeta"] == pytest.approx(2.0)

    @pytest.mark.parametrize("command,text,fragment", [
        pytest.param("fit", '{"points": []}', "'zeta'", id="fit"),
        pytest.param("check", '{"points": []}', "'zeta'", id="check"),
        pytest.param("check", "[]", "not a JSON object", id="check-list"),
        pytest.param("check", BAD_POINTS, "points must be objects", id="check-bad-points"),
        pytest.param("fit", BAD_POINTS, "points must be objects", id="fit-bad-points"),
        pytest.param("fit", "n,intensity\n10,5\n20\n", "line 3", id="fit-short-csv-row"),
        pytest.param("fit", "", "must be a report JSON or CSV", id="fit-empty-file"),
        pytest.param("check", '{"zeta": ', "not valid JSON", id="check-truncated"),
        pytest.param("fit", '{"zeta": ', "not valid JSON", id="fit-truncated"),
        pytest.param("check", NO_CONFIG, "config key 'dt'", id="check-no-config"),
        pytest.param("check", ZERO_TRAJECTORIES, "config n_traj must hold numbers in (0, inf)",
                     id="check-zero-trajectories"),
        pytest.param("check", STRING_ZETA, "zeta must hold numbers", id="check-string-zeta"),
        pytest.param("check", BOOL_TRAJECTORIES, "config n_traj must hold numbers in (0, inf)",
                     id="check-bool-trajectories"),
        pytest.param("fit", STRING_ATOM_NUMBER, "point 0 must hold numbers",
                     id="fit-string-atom-number"),
        pytest.param("check", STRING_ATOM_NUMBER, "point 0 must hold numbers",
                     id="check-string-atom-number"),
        pytest.param("fit", BOOL_INTENSITY, "point 1 must hold numbers",
                     id="fit-bool-intensity"),
    ])
    def test_report_without_required_key_names_file_and_key(self, tmp_path, capsys,
                                                            command, text, fragment):
        bad = tmp_path / "bad.json"
        bad.write_text(text + "\n")
        argv = ["fit", "--input", str(bad)] if command == "fit" \
            else ["check", str(bad), str(bad)]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and fragment in err


class TestSweepAndCheck:
    def test_meanfield_sweep_reports_quadratic_scaling(self, tmp_path, capsys):
        out = tmp_path / "s"
        code = run_cli("sweep", "--scheme", "collective", "--solver",
                       "meanfield", "--n-list", "25,50,100", "--out", str(out))
        assert code == 0
        report = read_report(out / "report.json")
        # mean-field cascade gives I = Gamma (N+1)^2 / 2 exactly
        from cavity_sr import power_law_fit
        exact = power_law_fit([(n, (n + 1) ** 2 / 2) for n in (25, 50, 100)])
        assert report.zeta == pytest.approx(exact.zeta, abs=0.01)
        manifest = json.loads((out / "manifest.json").read_text())
        assert "report.json" in manifest["outputs"]

    def test_oracle_sweep_matches_the_python_sweep(self, tmp_path, capsys):
        out = tmp_path / "s"
        code = run_cli("sweep", "--scheme", "individual", "--solver", "oracle",
                       "--n-list", "2,3,4", "--g", "3", "--kappa", "3", "--out", str(out))
        assert code == 0
        expected = scaling_sweep("oracle", [2, 3, 4], individual_params(2, g=3.0, kappa=3.0),
                                 NumericalParams())
        assert read_report(out / "report.json").zeta == expected.zeta

    # float.hex of the seed-0 report (numpy 2.4.6): the timeseries digests
    # above pin the series, these pin what the estimator and the fit read
    # off them, so a change to the emission estimate moves them
    def test_seed_zero_sweep_report_is_pinned(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert run_cli("sweep", "--scheme", "collective", "--solver", "twa",
                       "--n-list", "10,20,40", "--g", "10", "--kappa", "100",
                       "--trajectories", "300", "--seed", "0", "--out", str(out)) == 0
        report = read_report(out / "report.json")
        assert [(n, i.hex(), sem.hex()) for n, i, sem in report.points] == [
            (10, "0x1.6e3b2f3533358p+6", "0x1.5ebbc4cfec8f2p+5"),
            (20, "0x1.392a9bbe1b7bdp+8", "0x1.9423ae4d891f7p+6"),
            (40, "0x1.12f1b5f28c34bp+10", "0x1.917c372176615p+7"),
        ]
        assert report.zeta.hex() == "0x1.cb0ea25e2ae2ap+0"

    def test_report_embeds_the_run_record_without_outputs(self, tmp_path, capsys):
        # the run record is embedded before report.json exists; only
        # manifest.json lists the digests of the files the run wrote
        out = tmp_path / "s"
        assert run_cli("sweep", "--scheme", "collective", "--solver",
                       "meanfield", "--n-list", "25,50,100", "--out", str(out)) == 0
        embedded = json.loads((out / "report.json").read_text())["manifest"]
        assert "outputs" not in embedded
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["outputs"]) == ["report.json"]
        assert {k: v for k, v in manifest.items() if k != "outputs"} == embedded

    def test_manifest_lists_only_files_the_run_wrote(self, tmp_path, capsys):
        out = tmp_path / "s"
        out.mkdir()
        (out / "stale.csv").write_text("n,intensity\n1,1\n")
        assert run_cli("sweep", "--scheme", "collective", "--solver",
                       "meanfield", "--n-list", "25,50,100", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["outputs"]) == ["report.json"]
        assert run_cli("simulate", "--scheme", "collective", "--solver",
                       "meanfield", "--n-atoms", "10", "--t-max", "0.5",
                       "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["outputs"]) == ["timeseries.csv"]

    @pytest.mark.parametrize("extra, message", [
        (["--n-list", "50,50,100"], "distinct"),
        (["--n-list", "50,100,0"], ">= 1"),
        (["--n-list", "50,100,200", "--trajectories", "0"], "n_traj"),
        (["--n-list", "50,abc,200"], "--n-list entry 'abc'"),
        (["--n-list", "50,,200"], "--n-list entry ''"),
        (["--n-list", "50,100,200", "--detuning", "inf"], "detuning = inf"),
        (["--solver", "oracle", "--scheme", "individual", "--n-list", "2,5,7"],
         "individual oracle limited to N <= 6"),
        (["--n-list", "5,10,20", "--dt", "0.0001", "--t-max", "0.0001"],
         "N = 5: dt = 0.0001 and t_max = 0.0001 give fewer than the 3 grid points"),
    ], ids=["duplicate-n", "zero-n", "zero-trajectories", "non-integer-n",
            "empty-n", "inf-detuning", "oracle-n-7", "two-point-grid"])
    def test_bad_sweep_input_fails_before_any_solve(self, tmp_path, monkeypatch,
                                                    capsys, extra, message):
        calls = count_solves(monkeypatch)
        out = tmp_path / "out"
        code = run_cli("sweep", "--scheme", "collective", "--solver",
                       "meanfield", *extra, "--out", str(out))
        assert code == 1
        assert calls == []
        assert not out.exists()
        assert message in capsys.readouterr().err

    def test_check_passes_for_equivalent_reports(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        base = ["sweep", "--scheme", "collective", "--solver", "meanfield",
                "--n-list", "25,50,100"]
        assert run_cli(*base, "--out", str(a)) == 0
        assert run_cli(*base, "--trajectories", "4000", "--out", str(b)) == 0
        capsys.readouterr()
        code = run_cli("check", str(a / "report.json"), str(b / "report.json"))
        verdict = json.loads(capsys.readouterr().out)
        assert code == 0
        assert verdict["passed"] is True
        assert verdict["variation"] == "trajectories-doubled"

    def test_check_rejects_incomparable_reports(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("sweep", "--scheme", "collective", "--solver", "meanfield",
                       "--n-list", "25,50,100", "--out", str(a)) == 0
        assert run_cli("sweep", "--scheme", "collective", "--solver", "meanfield",
                       "--n-list", "25,50,100", "--g", "5", "--out", str(b)) == 0
        code = run_cli("check", str(a / "report.json"), str(b / "report.json"))
        assert code == 1
