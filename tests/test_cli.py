import json
import math
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import cxho
from cxho.cli import main, parse_complex


@pytest.fixture
def runner():
    return CliRunner()


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(cxho.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import cxho.cli; import sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


class TestParseComplex:
    def test_full_literals(self):
        assert parse_complex("1+0i") == 1 + 0j
        assert parse_complex("0.866-0.5i") == 0.866 - 0.5j
        assert parse_complex("-1.2-0.5i") == -1.2 - 0.5j
        assert parse_complex("1e-3+2.5i") == 1e-3 + 2.5j
        assert parse_complex("2.5e2-1e-1i") == 250 - 0.1j

    def test_bare_real(self):
        assert parse_complex("2") == 2 + 0j
        assert parse_complex("-3.5e1") == -35 + 0j

    def test_rejects_malformed(self):
        for bad in ("", "abc", "i", "1+i", "1?2i"):
            with pytest.raises(ValueError):
                parse_complex(bad)


class TestPhaseDiagram:
    def test_grid_two_csv(self, runner):
        result = runner.invoke(main, ["phase-diagram", "--grid", "2"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == ("theta_m,theta_omega,theory,region,potential,"
                            "normalizable,excluded_corner")
        assert len(lines) == 5
        assert sum("true" == line.split(",")[-1] for line in lines[1:]) == 2

    def test_json_record_count(self, runner):
        result = runner.invoke(main, ["phase-diagram", "--grid", "11",
                                      "--format", "json"])
        assert result.exit_code == 0
        records = json.loads(result.output)
        assert len(records) == 121
        assert records[0]["theory"] == "UTT"

    def test_invalid_grid(self, runner):
        result = runner.invoke(main, ["phase-diagram", "--grid", "1"])
        assert result.exit_code == 2
        assert "resolution" in result.output

    def test_byte_identical_reruns(self, runner):
        args = ["phase-diagram", "--grid", "7", "--format", "json"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_file_output(self, runner, tmp_path):
        target = tmp_path / "grid.csv"
        result = runner.invoke(main, ["phase-diagram", "--grid", "3",
                                      "--output", str(target)])
        assert result.exit_code == 0
        assert target.read_text().count("\n") == 10

    def test_io_error(self, runner, tmp_path):
        target = tmp_path / "missing" / "grid.csv"
        result = runner.invoke(main, ["phase-diagram", "--grid", "2",
                                      "--output", str(target)])
        assert result.exit_code == 1


class TestVerify:
    def test_all_pass(self, runner):
        result = runner.invoke(main, ["verify", "--m", "1+0i", "--omega",
                                      "0.866-0.5i", "--nmax", "10"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["all_passed"] is True
        assert all(c["passed"] for c in report["checks"])
        assert {"name", "defect", "tolerance", "passed"} <= set(
            report["checks"][0])

    def test_corner_rejected(self, runner):
        result = runner.invoke(main, ["verify", "--omega", "0-1i"])
        assert result.exit_code == 2

    def test_unreachable_tolerance(self, runner, tmp_path):
        target = tmp_path / "report.json"
        result = runner.invoke(main, [
            "verify", "--m", "1+0i", "--omega", "0.866-0.5i", "--nmax", "10",
            "--tol", "1e-30", "--output", str(target)])
        assert result.exit_code == 3
        report = json.loads(target.read_text())
        assert report["all_passed"] is False


class TestMaximize:
    def test_damped_run(self, runner):
        result = runner.invoke(main, ["maximize", "--omega", "1-0.2i",
                                      "--T", "10", "--nmax", "8"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["amplitude_abs"] == pytest.approx(math.exp(-1), abs=1e-9)
        assert payload["ground_overlap"] > 1 - 1e-6
        assert payload["converged"] is True
        assert len(payload["a"]) == 8 and len(payload["b"]) == 8

    def test_reruns_identical(self, runner):
        args = ["maximize", "--omega", "1-0.2i", "--T", "10", "--nmax", "8",
                "--seed", "4"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output


class TestEvolve:
    def test_amplitude_column_constant(self, runner):
        result = runner.invoke(main, [
            "evolve", "--lambda-a", "1+0i", "--lambda-b", "1+0i",
            "--omega", "1+0i", "--m", "1+0i", "--steps", "100"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert len(lines) == 102
        header = lines[0].split(",")
        i_re, i_im = header.index("amplitude_re"), header.index("amplitude_im")
        first = complex(float(lines[1].split(",")[i_re]),
                        float(lines[1].split(",")[i_im]))
        for line in lines[2:]:
            cells = line.split(",")
            amp = complex(float(cells[i_re]), float(cells[i_im]))
            assert abs(amp - first) <= 1e-12
            assert cells[-1] == "ok"

    def test_config_error(self, runner):
        result = runner.invoke(main, ["evolve", "--steps", "0"])
        assert result.exit_code == 2


class TestWavefunction:
    def test_ground_peak(self, runner):
        result = runner.invoke(main, [
            "wavefunction", "--n", "0", "--m", "1+0i", "--omega", "1+0i",
            "--points", "3", "--half-width", "2"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        mid = lines[2].split(",")
        assert float(mid[0]) == 0.0
        assert float(mid[2]) == pytest.approx(math.pi ** -0.25, rel=1e-12)

    def test_validity_error(self, runner):
        result = runner.invoke(main, [
            "wavefunction", "--n", "40", "--eps", "0.1"])
        assert result.exit_code == 2


class TestConfigFile:
    def test_config_supplies_defaults(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 2, "format": "csv"}))
        result = runner.invoke(main, ["phase-diagram", "--config", str(cfg)])
        assert result.exit_code == 0
        assert len(result.output.strip().split("\n")) == 5

    def test_flags_override_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 2}))
        result = runner.invoke(main, ["phase-diagram", "--grid", "3",
                                      "--config", str(cfg)])
        assert len(result.output.strip().split("\n")) == 10

    def test_unknown_field_rejected(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 2, "bogus": 1}))
        result = runner.invoke(main, ["phase-diagram", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "bogus" in result.output

    def test_complex_values_in_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": "1-0.2i", "T": 10.0, "nmax": 8}))
        result = runner.invoke(main, ["maximize", "--config", str(cfg)])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["amplitude_abs"] == pytest.approx(math.exp(-1), abs=1e-9)
