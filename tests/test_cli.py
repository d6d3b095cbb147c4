import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdiscord as qd
from qdiscord.cli import main
from qdiscord.tables import format_number

from helpers import bell_state


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def value_after(text, prefix):
    for line in text.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):].split()[0])
    raise AssertionError(f"no line starting with {prefix!r} in:\n{text}")


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    qd.save_density(bell_state(), path)
    return str(path)


class TestDiscordCommand:
    def test_qubit_side_closed_form(self, capsys):
        code, out, err = invoke(capsys, "discord", "--noon", "N=2", "t2=0.5")
        assert code == 0 and err == ""
        assert "dimA = 2  dimB = 3" in out
        lqu = value_after(out, "LQU = ")
        gqd = value_after(out, "GQD = ")
        assert abs(gqd - 0.5 * lqu) < 1e-12

    def test_bell_file(self, capsys, bell_file):
        code, out, _ = invoke(capsys, "discord", "--file", bell_file)
        assert code == 0
        assert value_after(out, "LQU = ") == pytest.approx(1.0, abs=1e-10)
        assert value_after(out, "GQD = ") == pytest.approx(0.5, abs=1e-10)

    def test_larger_side_uses_sampled_scan(self, capsys, tmp_path):
        state = qd.PureBipartiteState.from_probabilities([0.5, 0.3, 0.2])
        path = tmp_path / "qutrit.json"
        qd.save_density(qd.DensityMatrix.from_pure(state), path)
        code, out, _ = invoke(
            capsys, "discord", "--file", str(path), "--samples", "40", "--seed", "2"
        )
        assert code == 0
        assert "Q min = " in out and "basis seed" in out
        assert "samples = 40  master seed = 2" in out
        minimum = value_after(out, "Q min = ")
        assert minimum >= qd.geometric_discord_pure([0.5, 0.3, 0.2]) - 1e-9

    def test_spectrum_switches_to_observable_scan(self, capsys, tmp_path):
        state = qd.PureBipartiteState.from_probabilities([0.5, 0.3, 0.2])
        path = tmp_path / "qutrit.json"
        qd.save_density(qd.DensityMatrix.from_pure(state), path)
        code, out, _ = invoke(
            capsys, "discord", "--file", str(path),
            "--samples", "25", "--spectrum", "4,3,2",
        )
        assert code == 0
        assert "U min = " in out and "U max = " in out

    def test_invalid_state_reports_error(self, capsys):
        code, _, err = invoke(capsys, "discord", "--noon", "N=0", "t2=0.5")
        assert code == 2
        assert err.startswith("error:")

    def test_negative_seed_is_invalid_input(self, capsys, tmp_path):
        state = qd.PureBipartiteState.from_probabilities([0.5, 0.3, 0.2])
        path = tmp_path / "qutrit.json"
        qd.save_density(qd.DensityMatrix.from_pure(state), path)
        code, _, err = invoke(capsys, "discord", "--file", str(path), "--seed", "-1")
        assert code == 2
        assert err == "error: master_seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("command", ["discord", "qfi"])
    def test_large_photon_number_is_invalid_input(self, capsys, command):
        code, out, err = invoke(capsys, command, "--noon", "N=1100", "t2=0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: photon number 1100 is too large")

    @pytest.mark.parametrize("text", ["2.0", "2.5"])
    def test_photon_number_must_be_an_integer_literal(self, capsys, text):
        code, out, err = invoke(capsys, "discord", "--noon", f"N={text}", "t2=0.5")
        assert code == 2
        assert out == ""
        assert err == f"error: N must be an integer, got '{text}'\n"

    def test_sources_are_mutually_exclusive(self, bell_file):
        with pytest.raises(SystemExit):
            main(["discord", "--noon", "N=2", "t2=0.5", "--file", bell_file])


class TestQfiCommand:
    def test_single_point_routes_agree(self, capsys):
        code, out, _ = invoke(capsys, "qfi", "--noon", "N=2", "t2=1")
        assert code == 0
        assert value_after(out, "F_closed = ") == pytest.approx(4.0, abs=1e-12)
        assert value_after(out, "F_spectral = ") == pytest.approx(4.0, abs=1e-10)
        assert value_after(out, "F_oracle = ") == pytest.approx(4.0, rel=1e-3)
        assert value_after(out, "|closed - spectral| = ") < 1e-10

    def test_grid_writes_csv(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = invoke(
            capsys, "qfi", "--noon", "N=3", "t2=0", "--grid", "5", "--out", str(path)
        )
        assert code == 0
        assert f"wrote 5 rows to {path}" in out
        lines = path.read_text().splitlines()
        assert lines[0] == "t2,F_closed,F_oracle,DG,residual"
        assert len(lines) == 6

    def test_grid_requires_out(self, capsys):
        code, _, err = invoke(capsys, "qfi", "--noon", "N=3", "t2=0", "--grid", "5")
        assert code == 2
        assert "--out" in err

    def test_single_photon_grid_misses_tolerance(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = invoke(
            capsys, "qfi", "--noon", "N=1", "t2=0", "--grid", "7", "--out", str(path)
        )
        assert code == 3
        assert value_after(out, "max |F - DG*n^2| = ") > 0.2

    def test_empty_grid_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, err = invoke(
            capsys, "qfi", "--noon", "N=3", "t2=0", "--grid", "0", "--out", str(path)
        )
        assert code == 2
        assert err == "error: the t2 grid is empty\n"

    def test_negative_grid_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, err = invoke(
            capsys, "qfi", "--noon", "N=2", "t2=0.5", "--grid", "-1", "--out", str(path)
        )
        assert code == 2
        assert err == "error: grid must be >= 0, got -1\n"
        assert not path.exists()

    @pytest.mark.parametrize("grid", [[], ["--grid", "3"]])
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tolerance_is_invalid_input(self, capsys, tmp_path, grid, tol):
        path = tmp_path / "sweep.csv"
        code, out, err = invoke(
            capsys, "qfi", "--noon", "N=2", "t2=0.5", "--tol", tol, *grid, "--out", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance must be finite and >= 0")
        assert not path.exists()

    def test_grid_agrees_with_fig4_and_identity_check(self, capsys, tmp_path):
        n, points = 3, 11
        grid = np.linspace(0.0, 1.0, points)
        path = tmp_path / "sweep.csv"
        code, _, _ = invoke(
            capsys, "qfi", "--noon", f"N={n}", "t2=0", "--grid", str(points),
            "--out", str(path),
        )
        assert code == 0
        with open(path, newline="") as fh:
            cells = [(r["t2"], r["F_closed"], r["DG"], r["residual"]) for r in csv.DictReader(fh)]
        fig4 = qd.run_fig4(n, grid)
        report = qd.qfi_discord_identity_check([n], grid)
        assert [row[:3] for row in fig4.rows] == [
            (row.t2, row.qfi, row.discord) for row in report.rows
        ]
        assert fig4.max_residual == report.max_residual
        assert cells == [
            tuple(format_number(x) for x in (row.t2, row.qfi, row.discord, row.residual))
            for row in report.rows
        ]

    def test_missing_required_key(self, capsys):
        code, _, err = invoke(capsys, "qfi", "--noon", "N=2")
        assert code == 2
        assert "t2" in err


class TestNegativityCommand:
    def test_lossless_state(self, capsys):
        code, out, _ = invoke(capsys, "negativity", "--noon", "N=4", "t2=1")
        assert code == 0
        assert value_after(out, "negativity = ") == pytest.approx(0.5, abs=1e-12)

    def test_bell_file(self, capsys, bell_file):
        code, out, _ = invoke(capsys, "negativity", "--file", bell_file)
        assert code == 0
        assert value_after(out, "negativity = ") == pytest.approx(0.5, abs=1e-12)


class TestFigureCommands:
    def test_fig1(self, capsys, tmp_path):
        path = tmp_path / "fig1.csv"
        code, out, _ = invoke(
            capsys, "fig1", "--dimA", "2", "--s1", "0.3,0.7",
            "--samples", "4", "--out", str(path),
        )
        assert code == 0
        assert f"wrote 8 rows to {path}" in out
        assert path.read_text().splitlines()[0] == "s1,seed,Q,U"

    def test_fig1_three_level(self, capsys, tmp_path):
        path = tmp_path / "fig1.csv"
        code, out, _ = invoke(
            capsys, "fig1", "--dimA", "3", "--s1", "0.5", "--s2", "0.3",
            "--samples", "3", "--out", str(path),
        )
        assert code == 0
        assert "wrote 3 rows" in out

    def test_fig1_negative_seed_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "fig1.csv"
        code, _, err = invoke(
            capsys, "fig1", "--dimA", "2", "--s1", "0.5", "--seed", "-1", "--out", str(path),
        )
        assert code == 2
        assert err == "error: seed must be >= 0, got -1\n"
        assert not path.exists()

    def test_fig2(self, capsys, tmp_path):
        path = tmp_path / "fig2.csv"
        code, out, _ = invoke(
            capsys, "fig2", "--spectrum", "2,4,1",
            "--resolution", "11", "--out", str(path),
        )
        assert code == 0
        labels = out.split("assignments: ", 1)[1].split()
        assert "021" in labels
        assert all(sorted(label) == ["0", "1", "2"] for label in labels)

    def test_fig4_recovers_slope(self, capsys, tmp_path):
        path = tmp_path / "fig4.csv"
        code, out, _ = invoke(
            capsys, "fig4", "--N", "3", "--grid", "5", "--out", str(path)
        )
        assert code == 0
        assert value_after(out, "slope F vs DG = ") == pytest.approx(9.0, abs=1e-6)

    def test_fig4_negative_grid_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "fig4.csv"
        code, _, err = invoke(capsys, "fig4", "--N", "2", "--grid", "-3", "--out", str(path))
        assert code == 2
        assert err == "error: grid must be >= 0, got -3\n"
        assert not path.exists()

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_fig4_bad_tolerance_is_invalid_input(self, capsys, tmp_path, tol):
        path = tmp_path / "fig4.csv"
        code, out, err = invoke(
            capsys, "fig4", "--N", "2", "--grid", "5", "--tol", tol, "--out", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance must be finite and >= 0")
        assert not path.exists()

    def test_fig4_single_photon_flags_failure(self, capsys, tmp_path):
        path = tmp_path / "fig4.csv"
        code, _, _ = invoke(
            capsys, "fig4", "--N", "1", "--grid", "5", "--out", str(path)
        )
        assert code == 3


class TestValidateCommand:
    def test_valid_file(self, capsys, bell_file):
        code, out, err = invoke(capsys, "validate", "--file", bell_file)
        assert code == 0 and err == ""
        assert "dimA = 2  dimB = 2" in out
        assert out.rstrip().endswith("ok")

    def test_invalid_file_reports_each_violation(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"dimA": 2, "dimB": 2,'
            ' "re": [[0.6,0,0,0],[0,0.6,0,0],[0,0,-0.2,0],[0,0,0,0]],'
            ' "im": [[0,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]]}'
        )
        code, out, err = invoke(capsys, "validate", "--file", str(path))
        assert code == 2
        assert "min eigenvalue = -0.2" in out
        assert err.splitlines() == ["error: PSD violated: min eigenvalue -0.2"]

    def test_unparseable_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = invoke(capsys, "validate", "--file", str(path))
        assert code == 2
        assert "cannot parse" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "validate", "--file", str(tmp_path / "nope.json"))
        assert code == 2
        assert err.startswith("error:")


class TestEntryPoint:
    def test_version_flag(self):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0

    @pytest.mark.skipif(
        shutil.which("qdiscord") is None,
        reason="no qdiscord console script on PATH (package not pip-installed)",
    )
    def test_installed_script(self):
        result = subprocess.run(
            ["qdiscord", "--version"], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert result.stdout.strip() == qd.__version__

    def test_module_entry_point(self):
        src = Path(qd.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-m", "qdiscord.cli", "--version"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == qd.__version__

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
