"""CLI surface: simulate / optimize / compare, file outputs, error handling."""

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from mppabsorber import AbsorptionSpectrum, FrequencyGrid, absorption_spectrum, load_config
from mppabsorber.annealing import TraceRow
from mppabsorber.cli import main, spectrum_csv, trace_csv

BASELINE = "three_chamber_baseline.json"
OPTIMIZED = "three_chamber_optimized.json"
SINGLE = "single_chamber.json"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_value(report: str, key: str) -> float:
    match = re.search(rf"^\s*{re.escape(key)}\s+(-?[\d.]+)", report, re.MULTILINE)
    assert match, f"{key!r} not found in report:\n{report}"
    return float(match.group(1))


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "frequency_hz,alpha"
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


def per_row_spectrum_csv(spectrum):
    """The CSV as one f-string per row: the reference the chunked formatter
    must reproduce byte for byte."""
    lines = ["frequency_hz,alpha"]
    lines += [f"{f:.6g},{a:.6g}" for f, a in zip(spectrum.frequencies, spectrum.alphas)]
    return "\n".join(lines) + "\n"


def per_row_trace_csv(result):
    lines = ["temperature,iteration,current,best"]
    lines += [
        f"{row.temperature:.6g},{row.iteration},{row.current:.6g},{row.best:.6g}"
        for row in result.objective_trace
    ]
    return "\n".join(lines) + "\n"


@pytest.fixture
def small_optimize_config(tmp_path, config_dir):
    config = json.loads((config_dir / BASELINE).read_text())
    config["schedule"] = {
        "initial_temperature": 100.0,
        "iterations_per_temperature": 5,
        "cooling_rate": 0.2,
        "termination_temperature": 50.0,
        "step_fraction": 0.1,
        "seed": 7,
        "cooling_reading": "decrement",
    }
    path = tmp_path / "optimize_small.json"
    path.write_text(json.dumps(config, indent=2))
    return path


class TestSimulate:
    def test_baseline_report_and_csv(self, capsys, tmp_path, config_dir):
        out = tmp_path / "spec.csv"
        code, stdout, _ = run_cli(
            capsys, "simulate", "--config", config_dir / BASELINE, "--out", out
        )
        assert code == 0
        rows = read_csv_rows(out)
        assert len(rows) == 2000
        assert rows[0][0] == 1.0 and rows[-1][0] == 2000.0
        width = report_value(stdout, "width")
        assert width == pytest.approx(1324.0, rel=0.10)
        assert report_value(stdout, "f_low") <= 35.0
        assert abs(report_value(stdout, "f_high") - 1344.0) <= 135.0

    def test_optimized_report(self, capsys, tmp_path, config_dir):
        code, stdout, _ = run_cli(
            capsys,
            "simulate",
            "--config",
            config_dir / OPTIMIZED,
            "--out",
            tmp_path / "spec.csv",
        )
        assert code == 0
        assert report_value(stdout, "width") == pytest.approx(1591.0, rel=0.10)
        assert report_value(stdout, "f_low") <= 10.0
        assert abs(report_value(stdout, "octaves") - 8.6) <= 0.5

    def test_single_chamber_has_low_band(self, capsys, tmp_path, config_dir):
        out = tmp_path / "spec.csv"
        code, stdout, _ = run_cli(
            capsys, "simulate", "--config", config_dir / SINGLE, "--out", out
        )
        assert code == 0
        rows = read_csv_rows(out)
        # contiguous alpha >= 0.8 runs from the CSV
        runs, current = [], None
        for f, a in rows:
            if a >= 0.8:
                current = (current[0], f) if current else (f, f)
            elif current:
                runs.append(current)
                current = None
        if current:
            runs.append(current)
        # one run matches the reference low-frequency band within 15% cutoffs
        assert any(
            abs(lo - 97.0) / 97.0 <= 0.15 and abs(hi - 477.0) / 477.0 <= 0.15
            for lo, hi in runs
        ), f"no run near (97, 477) in {runs}"
        # the report lists more than one band for this structure
        assert "other bands:" in stdout

    def test_csv_six_significant_digits(self, tmp_path, capsys, config_dir):
        out = tmp_path / "spec.csv"
        run_cli(capsys, "simulate", "--config", config_dir / BASELINE, "--out", out)
        for line in out.read_text().splitlines()[1:]:
            _, a_str = line.split(",")
            assert float(a_str) == float(f"{float(a_str):.6g}")
            mantissa = re.sub(r"e[+-]?\d+$", "", a_str)
            digits = mantissa.replace(".", "").replace("-", "").lstrip("0")
            assert len(digits) <= 6, a_str

    def test_csv_stable_across_reruns(self, tmp_path, capsys, config_dir):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "simulate", "--config", config_dir / BASELINE, "--out", out_a)
        run_cli(capsys, "simulate", "--config", config_dir / BASELINE, "--out", out_b)
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("name", [BASELINE, OPTIMIZED, SINGLE])
    def test_csv_equals_per_row_formatting_on_the_fine_grid(self, config_dir, name):
        config = load_config(config_dir / name)
        grid = FrequencyGrid(config.grid.f_min, config.grid.f_max, 0.01)
        spectrum = absorption_spectrum(config.structure.chain(), grid, config.medium)
        assert spectrum_csv(spectrum) == per_row_spectrum_csv(spectrum)

    @pytest.mark.parametrize(
        "frequencies, alphas",
        [
            # rounding ties, subnormals, exponent switches and float noise
            (
                [5e-324, 1e-300, 9.9999995e-5, 0.1 + 0.2, 1.0, 99999.95, 1e5,
                 999999.5, 1e6, 123456789.0, 1.5e17],
                [0.0, 1.0, 5e-324, 1e-300, 0.1 + 0.2, 9.9999995e-5, 0.9999995,
                 0.5, 1 / 3, 0.8, 0.99999949999],
            ),
            ([1000.0], [0.5]),  # one point
        ],
        ids=["edge-values", "one-point"],
    )
    def test_csv_equals_per_row_formatting_on_edge_values(self, frequencies, alphas):
        spectrum = AbsorptionSpectrum(np.array(frequencies), np.array(alphas))
        assert spectrum_csv(spectrum) == per_row_spectrum_csv(spectrum)

    def test_csv_spans_several_chunks(self):
        # 10,001 rows: two full 4096-row chunks and a partial one
        frequencies = 1.0 + 0.37 * np.arange(10_001)
        spectrum = AbsorptionSpectrum(frequencies, np.sin(frequencies) ** 2)
        assert spectrum_csv(spectrum) == per_row_spectrum_csv(spectrum)

    def test_grid_override_flags(self, tmp_path, capsys, config_dir):
        out = tmp_path / "spec.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate", "--config", config_dir / BASELINE, "--out", out,
            "--fmin", 100, "--fmax", 200, "--step", 10,
        )
        assert code == 0
        rows = read_csv_rows(out)
        assert [f for f, _ in rows] == [100.0 + 10.0 * i for i in range(11)]


class TestPlaneWaveLimit:
    """simulate and optimize warn once on stderr when f_max passes the first
    cross-mode cut-on, 1.8412*c0/(pi*D_max), and still succeed."""

    def test_simulate_warns_above_cut_on(self, capsys, tmp_path, config_dir):
        code, stdout, stderr = run_cli(
            capsys, "simulate", "--config", config_dir / OPTIMIZED,
            "--out", tmp_path / "spec.csv", "--fmax", 8000,
        )
        assert code == 0
        # the widest duct of the optimized design is its 97.8 mm chamber
        assert stderr.count("\n") == 1
        assert "cut-on" in stderr and "2055 Hz" in stderr
        assert "warning" not in stdout
        assert len(read_csv_rows(tmp_path / "spec.csv")) == 8000

    def test_optimize_warns_for_the_widest_reachable_duct(
        self, capsys, tmp_path, small_optimize_config
    ):
        # the baseline's ducts are at most 60 mm, but the search may widen d_6 to 100 mm
        code, _, stderr = run_cli(
            capsys, "optimize", "--config", small_optimize_config,
            "--out", tmp_path / "run", "--fmax", 8000,
        )
        assert code == 0
        assert stderr.count("\n") == 1
        assert "cut-on" in stderr and "2010 Hz" in stderr

    @pytest.mark.parametrize("name", [BASELINE, OPTIMIZED, SINGLE])
    def test_bundled_configs_stay_silent(self, capsys, tmp_path, config_dir, name):
        code, _, stderr = run_cli(
            capsys, "simulate", "--config", config_dir / name, "--out", tmp_path / "spec.csv"
        )
        assert code == 0
        assert stderr == ""

    def test_optimize_at_the_default_grid_stays_silent(
        self, capsys, tmp_path, small_optimize_config
    ):
        code, _, stderr = run_cli(
            capsys, "optimize", "--config", small_optimize_config, "--out", tmp_path / "run"
        )
        assert code == 0
        assert stderr == ""


class TestCompare:
    def test_baseline_vs_optimized_ratio(self, capsys, config_dir):
        code, stdout, _ = run_cli(
            capsys, "compare", config_dir / BASELINE, config_dir / OPTIMIZED
        )
        assert code == 0
        match = re.search(r"octave ratio \(B/A\): ([\d.]+)", stdout)
        assert match
        assert abs(float(match.group(1)) - 1.41) <= 0.10
        assert stdout.count("effective band") == 2

    def test_identical_configs_give_unit_ratio(self, capsys, config_dir):
        _, stdout, _ = run_cli(
            capsys, "compare", config_dir / BASELINE, config_dir / BASELINE
        )
        assert "octave ratio (B/A): 1.000" in stdout

    def test_infeasible_config_reports_undefined(self, capsys, tmp_path, config_dir):
        # over-damped panel: resistance far above matching, never reaches 0.8
        config = {
            "structure": {
                "type": "single_chamber",
                "d_m": 10.0, "l_m": 100.0, "d_e": 60.0, "t_e": 10.0,
                "mpp": {"thickness": 0.6, "aperture": 0.2, "porosity": 0.003},
            }
        }
        path = tmp_path / "deaf.json"
        path.write_text(json.dumps(config))
        code, stdout, _ = run_cli(capsys, "compare", config_dir / BASELINE, path)
        assert code == 0
        assert "none" in stdout
        assert "octave ratio (B/A): undefined" in stdout


class TestOptimize:
    def test_outputs_and_round_trip(self, capsys, tmp_path, small_optimize_config):
        out_dir = tmp_path / "run"
        code, stdout, _ = run_cli(
            capsys, "optimize", "--config", small_optimize_config, "--out", out_dir
        )
        assert code == 0
        assert (out_dir / "best_design.json").exists()
        assert (out_dir / "trace.csv").exists()
        assert (out_dir / "report.txt").exists()

        # best of the run can never fall below the initial design's own width
        best = float(re.search(r"best objective ([\d.]+) Hz", stdout).group(1))
        assert best >= 1317.8

        trace_lines = (out_dir / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == "temperature,iteration,current,best"
        assert len(trace_lines) == 1 + 4 * 5  # 4 cooling levels x 5 iterations

        # simulating the emitted design reproduces the optimize band report
        code2, stdout2, _ = run_cli(
            capsys,
            "simulate",
            "--config", out_dir / "best_design.json",
            "--out", tmp_path / "best.csv",
        )
        assert code2 == 0
        optimize_band_lines = (out_dir / "report.txt").read_text().splitlines()[1:]
        assert stdout2.splitlines() == optimize_band_lines

    def test_identical_seeds_give_byte_identical_outputs(
        self, capsys, tmp_path, small_optimize_config
    ):
        dirs = (tmp_path / "r1", tmp_path / "r2")
        for out_dir in dirs:
            code, _, _ = run_cli(
                capsys, "optimize", "--config", small_optimize_config, "--out", out_dir
            )
            assert code == 0
        for name in ("best_design.json", "trace.csv", "report.txt"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    @pytest.mark.parametrize("rows", [0, 1, 9000])
    def test_trace_csv_equals_per_row_formatting(self, rows):
        rng = np.random.default_rng(rows)
        trace = [
            TraceRow(float(t), i + 1, float(c), float(b))
            for i, (t, c, b) in enumerate(rng.lognormal(0.0, 8.0, (rows, 3)))
        ]
        result = SimpleNamespace(objective_trace=trace)
        assert trace_csv(result) == per_row_trace_csv(result)

    def test_seed_flag_overrides_config(self, capsys, tmp_path, small_optimize_config):
        out_dir = tmp_path / "seeded"
        code, stdout, _ = run_cli(
            capsys,
            "optimize", "--config", small_optimize_config, "--out", out_dir,
            "--seed", 3,
        )
        assert code == 0
        assert stdout.startswith("seed 3:")
        emitted = json.loads((out_dir / "best_design.json").read_text())
        assert emitted["schedule"]["seed"] == 3

    def test_cooling_reading_flag(self, capsys, tmp_path, small_optimize_config):
        out_dir = tmp_path / "mult"
        code, _, _ = run_cli(
            capsys,
            "optimize", "--config", small_optimize_config, "--out", out_dir,
            "--cooling-reading", "multiplier",
        )
        assert code == 0
        # multiplier reading cools 100 -> 20 in one level: single level of 5 moves
        trace_lines = (out_dir / "trace.csv").read_text().splitlines()
        assert len(trace_lines) == 1 + 5

    def test_rejects_single_chamber_structure(self, capsys, tmp_path, config_dir):
        code, _, stderr = run_cli(
            capsys,
            "optimize", "--config", config_dir / SINGLE, "--out", tmp_path / "x",
        )
        assert code == 1
        assert "three_chamber" in stderr

    def test_requires_schedule_or_seed(self, capsys, tmp_path, config_dir):
        # the optimized bundle carries no schedule section
        code, _, stderr = run_cli(
            capsys,
            "optimize", "--config", config_dir / OPTIMIZED, "--out", tmp_path / "x",
        )
        assert code == 1
        assert "schedule" in stderr


class TestErrors:
    def test_missing_design_field_names_it(self, capsys, tmp_path, config_dir):
        config = json.loads((config_dir / BASELINE).read_text())
        del config["structure"]["design"]["l_6"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(config))
        code, _, stderr = run_cli(
            capsys, "simulate", "--config", path, "--out", tmp_path / "s.csv"
        )
        assert code == 1
        assert "l_6" in stderr

    def test_invalid_json_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"structure": \n  nope}')
        code, _, stderr = run_cli(
            capsys, "simulate", "--config", path, "--out", tmp_path / "s.csv"
        )
        assert code == 1
        assert "line 2" in stderr

    def test_unknown_design_field_rejected(self, capsys, tmp_path, config_dir):
        config = json.loads((config_dir / BASELINE).read_text())
        config["structure"]["design"]["l_9"] = 10.0
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(config))
        code, _, stderr = run_cli(
            capsys, "simulate", "--config", path, "--out", tmp_path / "s.csv"
        )
        assert code == 1
        assert "l_9" in stderr

    def test_nan_dimension_rejected(self, capsys, tmp_path, config_dir):
        config = json.loads((config_dir / BASELINE).read_text())
        config["structure"]["design"]["d_m"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(config))
        code, _, stderr = run_cli(
            capsys, "simulate", "--config", path, "--out", tmp_path / "s.csv"
        )
        assert code == 1
        assert "d_m" in stderr

    def test_nonpositive_dimension_rejected(self, capsys, tmp_path, config_dir):
        config = json.loads((config_dir / BASELINE).read_text())
        config["structure"]["design"]["l_2"] = -5.0
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(config))
        code, _, stderr = run_cli(
            capsys, "simulate", "--config", path, "--out", tmp_path / "s.csv"
        )
        assert code == 1
        assert "l_2" in stderr
