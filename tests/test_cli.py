import hashlib
import json

import numpy as np
import pytest

from cavity_sr.cli import cli_dispatch
from cavity_sr.fileio import (read_report, read_timeseries, write_timeseries)
from cavity_sr.series import ObservableSeries

# a report whose points are bare numbers instead of {"n", "intensity"} objects
BAD_POINTS = '{"points": [1, 2], "zeta": 1, "intercept": 0, "r_squared": 1}'


def run_cli(*argv):
    return cli_dispatch(list(argv))


def count_solves(monkeypatch):
    """Replace the solver behind simulate and sweep by one that records its
    calls and fails, so a run that gets past validation ends at once."""
    from cavity_sr import cli, runners
    calls = []

    def solve(*args):
        calls.append(args)
        raise RuntimeError("solver reached")
    monkeypatch.setattr(runners, "simulate_timeseries", solve)
    monkeypatch.setattr(cli, "simulate_timeseries", solve)
    return calls


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
        back = read_timeseries(path, n_atoms=10)
        np.testing.assert_array_equal(back.times, series.times)
        np.testing.assert_array_equal(back.sz_mean, series.sz_mean)
        np.testing.assert_array_equal(back.photon_mean, series.photon_mean)

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
        series = read_timeseries(csv, 40)
        assert series.sz_norm[0] == pytest.approx(1.0)

    def test_same_seed_reproduces_bytes(self, tmp_path):
        args = ["simulate", "--scheme", "individual", "--solver", "dtwa",
                "--n-atoms", "10", "--g", "2", "--kappa", "20",
                "--trajectories", "300", "--t-max", "0.2", "--seed", "3"]
        assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
        assert (tmp_path / "a/timeseries.csv").read_bytes() == \
            (tmp_path / "b/timeseries.csv").read_bytes()

    # SHA-256 of the seed-0 timeseries.csv (numpy 2.4.6). The seed fixes the
    # bits of the stochastic output, so a new digest means the sampling, the
    # noise stream or the integrator arithmetic changed. twa-blocks spans 24
    # chunks: two state blocks, the last chunk partial; its digest predates
    # the block layout, which must not change the bits.
    @pytest.mark.parametrize("scheme, solver, n_atoms, g, kappa, m, digest", [
        ("collective", "twa", "20", "4", "10", "300",
         "41d8cf3d73685b9e36bfa3d0f3c9089f05547d0af32d6ff5715e153ea8c309eb"),
        ("individual", "dtwa", "6", "2", "20", "300",
         "bddfc4c75b6bd51dfed9d9087102ed2b54a3ade4d1ba4072bd7a6b8d32f00db7"),
        ("collective", "twa", "20", "4", "10", "6000",
         "e6b7f22e930bbea7c03a7045a467d51144f5e87b7f4d26966f638ce4b47917e0"),
    ], ids=["twa", "dtwa", "twa-blocks"])
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
        series = read_timeseries(tmp_path / "o/timeseries.csv", 2)
        exact = 2 * np.exp(-4 * series.times) + 4 * series.times * np.exp(-4 * series.times) - 1
        np.testing.assert_allclose(series.sz_mean, exact, atol=1e-6)


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
         "gamma_col = nan"),
        (["simulate", "--solver", "twa", "--n-atoms", "10", "--kappa", "nan"],
         "kappa = nan"),
        (["simulate", "--solver", "twa", "--n-atoms", "10", "--g", "inf"],
         "g = inf"),
        (["simulate", "--solver", "twa", "--n-atoms", "10", "--seed", "-1"],
         "seed must be a non-negative integer, got -1"),
    ], ids=["nan-detuning", "inf-t-max", "nan-dt", "nan-gamma", "nan-kappa",
            "inf-g", "negative-seed"])
    def test_bad_number_fails_before_any_solve(self, tmp_path, monkeypatch,
                                               capsys, argv, message):
        calls = count_solves(monkeypatch)
        code = run_cli(*argv, "--scheme", "collective", "--out", str(tmp_path))
        assert code == 1
        assert calls == []
        assert message in capsys.readouterr().err


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
    ], ids=["duplicate-n", "zero-n", "zero-trajectories", "non-integer-n",
            "empty-n", "inf-detuning"])
    def test_bad_sweep_input_fails_before_any_solve(self, tmp_path, monkeypatch,
                                                    capsys, extra, message):
        calls = count_solves(monkeypatch)
        code = run_cli("sweep", "--scheme", "collective", "--solver",
                       "meanfield", *extra, "--out", str(tmp_path))
        assert code == 1
        assert calls == []
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
