"""CLI surface: simulate / optimize / compare, file outputs, error handling."""

import io
import json
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mppabsorber import (
    BASELINE_DESIGN,
    DEFAULT_MPPS,
    AnnealingSchedule,
    FrequencyGrid,
    absorption_spectrum,
    anneal,
    load_config,
)
from mppabsorber.annealing import TraceRow
from mppabsorber.cli import _CSV_CHUNK_ROWS, _csv, main, spectrum_csv, trace_csv

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


def written(write, value):
    """The text that `write(value, out)` writes into a text file `out`."""
    out = io.StringIO()
    write(value, out)
    return out.getvalue()


def table_spectrum(frequencies, alphas):
    """A spectrum whose grid spells any frequencies, however uneven:
    `grid.frequency(i)` indexes them, as spectrum_csv calls it."""
    frequencies = np.asarray(frequencies, dtype=float)
    return SimpleNamespace(
        grid=SimpleNamespace(frequency=frequencies.__getitem__),
        frequencies=frequencies,
        alphas=np.asarray(alphas, dtype=float),
    )


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


def with_ulp_neighbours(values):
    """Each value with the doubles just below and just above it."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(values, 0.0), values, np.nextafter(values, np.inf)])


# Ties at the sixth digit: binary-exact ones (123456.5) and decimal ones that
# no double spells exactly, on either side of the rounding.
TIES = [0.0001234565, 0.1234565, 1.000005, 1234.565, 99999.95, 123456.5, 123457.5, 999999.5]
POWERS_OF_TEN = 10.0 ** np.arange(-5, 8)
EDGE_FREQUENCIES = np.unique(np.concatenate([
    [5e-324, 1e-300, 9.9999995e-5, 0.1 + 0.2, 123456789.0, 1.5e17],
    with_ulp_neighbours(TIES),
    with_ulp_neighbours(POWERS_OF_TEN),
]))
EDGE_ALPHAS = np.concatenate([
    [0.0, -0.0, 5e-324, 1e-300, 0.1 + 0.2, 9.9999995e-5, 0.9999995, 0.5, 1 / 3, 0.8,
     0.99999949999],
    with_ulp_neighbours(TIES[:2]),
    with_ulp_neighbours(POWERS_OF_TEN[:5]),
    [1.0, np.nextafter(1.0, 0.0)],
])


def tie(mantissa, exponent, side):
    """A value on or next to the tie mantissa + 0.5 at the sixth digit."""
    value = (mantissa + 0.5) * 10.0**exponent
    return float(np.nextafter(value, side * np.inf)) if side else value


non_negative_floats = st.one_of(
    st.floats(min_value=0.0),  # subnormals, huge values and inf included
    st.builds(tie, st.integers(100_000, 999_999), st.integers(-10, 1), st.sampled_from([-1, 0, 1])),
    st.sampled_from(EDGE_FREQUENCIES.tolist()),
)


any_floats = st.one_of(
    st.floats(),  # negatives, infinities, NaN, subnormals and values near 1e308
    non_negative_floats,
    non_negative_floats.map(lambda value: -value),
)
# the row formats of the two CSVs, with a value strategy per field
ROW_FORMATS = {
    "spectrum": ("%.6g,%.6g", (any_floats, any_floats)),
    "trace": ("%.6g,%d,%.6g,%.6g", (any_floats, st.integers(-(10**14 - 1), 10**14 - 1),
                                    any_floats, any_floats)),
}
# the longest text of each field: 13 characters for "%.6g", 15 for "%d"
LONGEST = {"%.6g": -1.23457e-308, "%d": -(10**14 - 1)}


def csv_text(row_format, columns):
    """`_csv`'s text of `columns`, one array per field, and the text of
    one `%` per row: the reference it must equal byte for byte."""
    header = ",".join(f"c{j}" for j in range(len(columns)))
    out = io.StringIO()
    _csv(out, header, row_format, len(columns[0]),
         lambda first, stop: tuple(values[first:stop] for values in columns))
    rows = zip(*(values.tolist() for values in columns))
    return out.getvalue(), header + "".join("\n" + row_format % row for row in rows) + "\n"


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
        assert written(spectrum_csv, spectrum) == per_row_spectrum_csv(spectrum)

    @pytest.mark.parametrize(
        "frequencies, alphas",
        [
            # rounding ties and their neighbours, powers of ten and their
            # neighbours, -0.0, subnormals, exponent switches and float noise
            (EDGE_FREQUENCIES, np.resize(EDGE_ALPHAS, EDGE_FREQUENCIES.size)),
            ([1000.0], [0.5]),  # one point
        ],
        ids=["edge-values", "one-point"],
    )
    def test_csv_equals_per_row_formatting_on_edge_values(self, frequencies, alphas):
        spectrum = table_spectrum(frequencies, alphas)
        assert written(spectrum_csv, spectrum) == per_row_spectrum_csv(spectrum)

    @settings(max_examples=300)
    @given(st.lists(st.tuples(non_negative_floats, non_negative_floats), max_size=40))
    def test_csv_equals_per_row_formatting_on_any_non_negative_values(self, rows):
        spectrum = table_spectrum([f for f, _ in rows], [a for _, a in rows])
        assert written(spectrum_csv, spectrum) == per_row_spectrum_csv(spectrum)

    def test_csv_spans_several_chunks(self):
        # two full chunks and a partial one
        frequencies = 1.0 + 0.37 * np.arange(2 * _CSV_CHUNK_ROWS + 1817)
        spectrum = table_spectrum(frequencies, np.sin(frequencies) ** 2)
        assert written(spectrum_csv, spectrum) == per_row_spectrum_csv(spectrum)

    def test_csv_spells_percent_rows_in_their_slots_anywhere_in_a_chunk(self):
        # Rows in exponent notation are spelled by Python's % operator into
        # their own row of the chunk's slots: at a chunk's first and last row,
        # in runs of consecutive rows, over a whole chunk, and last in the file.
        chunk = _CSV_CHUNK_ROWS
        frequencies = 1.0 + 0.37 * np.arange(3 * chunk + 7)
        alphas = np.full(frequencies.size, 0.5)
        back = [0, 1, 2, 500, 501, 502, 503, chunk - 1, 2 * chunk, 3 * chunk - 1, 3 * chunk + 6]
        alphas[back] = 1e-7 * (1.0 + np.arange(len(back)))
        alphas[chunk:2 * chunk] = 3e-9
        frequencies[[1000, 1001]] = [2e7, 3e7]  # either column sends its row back
        spectrum = table_spectrum(frequencies, alphas)
        text = written(spectrum_csv, spectrum)
        assert text == per_row_spectrum_csv(spectrum)
        assert text.count("e-") == len(back) + chunk

    def test_csv_writer_never_holds_the_whole_text(self, tmp_path, config_dir):
        # 199,901 rows, about 3.1 MiB of text: the writer holds one chunk's
        # text and temporaries, never the whole file's text or frequencies
        config = load_config(config_dir / BASELINE)
        grid = FrequencyGrid(config.grid.f_min, config.grid.f_max, 0.01)
        spectrum = absorption_spectrum(config.structure.chain(), grid, config.medium)
        out = tmp_path / "fine.csv"
        tracemalloc.start()
        try:
            with open(out, "w", encoding="utf-8") as file:
                spectrum_csv(spectrum, file)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.read_text(encoding="utf-8") == per_row_spectrum_csv(spectrum)
        assert peak < out.stat().st_size

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


class TestCsvWriter:
    """`_csv` against one `%` per row, for both row formats, over every
    float64 and over the longest text a field can take."""

    @pytest.mark.parametrize("name", ROW_FORMATS)
    @settings(max_examples=200)
    @given(data=st.data())
    def test_equals_per_row_formatting_on_any_float64(self, name, data):
        row_format, fields = ROW_FORMATS[name]
        rows = data.draw(st.lists(st.tuples(*fields), max_size=40))
        columns = [
            np.array([row[j] for row in rows], dtype=np.int64 if field == "%d" else float)
            for j, field in enumerate(row_format.split(","))
        ]
        text, expected = csv_text(row_format, columns)
        assert text == expected

    @pytest.mark.parametrize("name", ROW_FORMATS)
    def test_longest_text_fills_every_slot(self, name):
        # each field's longest text with its separator fills its 16-byte
        # slot: at a chunk's first and last row, over a whole chunk, and
        # last in the file
        chunk = _CSV_CHUNK_ROWS
        row_format = ROW_FORMATS[name][0]
        rows = 3 * chunk + 5
        longest = [0, chunk - 1, *range(chunk, 2 * chunk), 3 * chunk - 1, rows - 1]
        columns = []
        for field in row_format.split(","):
            values = np.arange(rows) if field == "%d" else 1.0 + 0.37 * np.arange(rows)
            values[longest] = LONGEST[field]
            columns.append(values)
        text, expected = csv_text(row_format, columns)
        assert text == expected
        assert text.count("-1.23457e-308") == len(longest) * row_format.count("g")
        widest = max(len(field % LONGEST[field]) for field in row_format.split(","))
        assert max(len(field) for field in text.replace("\n", ",").split(",")) == widest


class TestPlaneWaveLimit:
    """simulate, compare and optimize warn once on stderr per structure whose
    first cross-mode cut-on, 1.8412*c0/(pi*D_max), lies below f_max, and
    still succeed."""

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

    @pytest.mark.parametrize(
        "fmax, cut_ons", [(8000, ["3350", "2055"]), (3000, ["2055"]), (2000, [])]
    )
    def test_compare_warns_once_per_config_below_f_max(
        self, capsys, config_dir, fmax, cut_ons
    ):
        code, stdout, stderr = run_cli(
            capsys, "compare", config_dir / BASELINE, config_dir / OPTIMIZED, "--fmax", fmax
        )
        assert code == 0
        # the baseline's widest duct is a 60 mm chamber, the optimized one's 97.8 mm
        lines = stderr.splitlines()
        assert [line.split(", ")[-1].split(" Hz;")[0] for line in lines] == cut_ons
        assert all(line.startswith("warning: f_max") for line in lines)
        assert "octave ratio" in stdout and "warning" not in stdout

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

    def test_zero_octave_band_reports_undefined(self, capsys, config_dir):
        # a one-point grid: both bands are that point, 0 octaves wide; used to
        # raise ZeroDivisionError after printing both reports
        code, stdout, _ = run_cli(
            capsys, "compare", config_dir / BASELINE, config_dir / OPTIMIZED,
            "--fmin", 500, "--fmax", 501, "--step", 5,
        )
        assert code == 0
        assert stdout.count("effective band") == 2
        assert stdout.endswith("octave ratio (B/A): undefined (zero-octave band)\n")


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
        assert written(trace_csv, result) == per_row_trace_csv(result)

    def test_trace_csv_iterations_past_six_digits(self):
        iterations = [0, 9, 10, 99_999, 100_000, 999_999, 1_000_000, 12_345_678]
        trace = [TraceRow(0.5 / (i + 1), i, 1e3 + i, 1e3 + i) for i in iterations]
        result = SimpleNamespace(objective_trace=trace)
        assert written(trace_csv, result) == per_row_trace_csv(result)

    def test_trace_csv_of_a_zero_level_run_is_the_header(self):
        schedule = AnnealingSchedule(initial_temperature=1.0, termination_temperature=1.0)
        result = anneal(BASELINE_DESIGN, DEFAULT_MPPS, schedule=schedule)
        assert result.objective_trace == []
        assert written(trace_csv, result) == "temperature,iteration,current,best\n"

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

    def test_cooling_reading_from_config(self, capsys, tmp_path, small_optimize_config):
        config = json.loads(small_optimize_config.read_text())
        config["schedule"]["cooling_reading"] = "multiplier"
        small_optimize_config.write_text(json.dumps(config))
        out_dir = tmp_path / "mult"
        code, _, _ = run_cli(
            capsys, "optimize", "--config", small_optimize_config, "--out", out_dir
        )
        assert code == 0
        # multiplier reading cools 100 -> 20 in one level: single level of 5 moves
        trace_lines = (out_dir / "trace.csv").read_text().splitlines()
        assert len(trace_lines) == 1 + 5
        emitted = json.loads((out_dir / "best_design.json").read_text())
        assert emitted["schedule"]["cooling_reading"] == "multiplier"
        # the config's schedule is the one way to set it
        with pytest.raises(SystemExit):
            run_cli(
                capsys, "optimize", "--config", small_optimize_config, "--out", out_dir,
                "--cooling-reading", "multiplier",
            )

    def test_rejects_single_chamber_structure(self, capsys, tmp_path, config_dir):
        code, _, stderr = run_cli(
            capsys,
            "optimize", "--config", config_dir / SINGLE, "--out", tmp_path / "x",
        )
        assert code == 1
        assert "three_chamber" in stderr

    def test_seed_flag_supplies_a_missing_schedule(self, capsys, tmp_path, config_dir):
        # the optimized bundle carries no schedule section: --seed runs the
        # default schedule with that seed, here on a 100-point grid
        out_dir = tmp_path / "seeded"
        code, stdout, stderr = run_cli(
            capsys,
            "optimize", "--config", config_dir / OPTIMIZED, "--out", out_dir,
            "--seed", 5, "--step", 20,
        )
        assert code == 0
        assert stderr == ""
        assert stdout.startswith("seed 5: best objective ")
        assert load_config(out_dir / "best_design.json").schedule == AnnealingSchedule(seed=5)

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

    def test_missing_config_names_the_path(self, capsys, tmp_path):
        path = tmp_path / "absent.json"
        code, stdout, stderr = run_cli(
            capsys, "simulate", "--config", path, "--out", tmp_path / "s.csv"
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith(f"error: {path}: ") and stderr.count("\n") == 1

    def test_config_that_is_not_an_object_names_the_path(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, stdout, stderr = run_cli(
            capsys, "simulate", "--config", path, "--out", tmp_path / "s.csv"
        )
        assert code == 1
        assert stdout == ""
        assert stderr == f"error: {path}: top level must be an object\n"

    def test_config_that_is_not_utf8_names_the_path(self, capsys, tmp_path):
        # the decode error used to reach main without the file's name
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        code, stdout, stderr = run_cli(
            capsys, "simulate", "--config", path, "--out", tmp_path / "s.csv"
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith(f"error: {path}: 'utf-8' codec can't decode")
        assert stderr.count("\n") == 1

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

    @pytest.mark.parametrize("threshold", ["1.5", "nan"])
    def test_bad_threshold_writes_no_csv(self, capsys, tmp_path, config_dir, threshold):
        out = tmp_path / "t.csv"
        code, stdout, stderr = run_cli(
            capsys, "simulate", "--config", config_dir / SINGLE, "--out", out,
            "--threshold", threshold,
        )
        assert code == 1
        assert stderr.startswith("error: threshold")
        assert stdout == ""
        assert not out.exists()

    def test_unwritable_out_is_an_io_error(self, capsys, tmp_path, config_dir):
        out = tmp_path / "missing" / "spec.csv"
        code, stdout, stderr = run_cli(
            capsys, "simulate", "--config", config_dir / SINGLE, "--out", out
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("i/o error: ") and stderr.count("\n") == 1
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "field, value",
        # each used to end in a traceback: a hole or duct area of 0.0 divided
        # by (ZeroDivisionError), or a duct area past the double range
        # (OverflowError in circle_area)
        [("aperture", 1e-300), ("d_m", 1e-300), ("d_e", 1e300)],
    )
    def test_dimension_out_of_range_is_refused_by_name(
        self, capsys, tmp_path, config_dir, field, value
    ):
        config = json.loads((config_dir / SINGLE).read_text())
        structure = config["structure"]
        (structure["mpp"] if field == "aperture" else structure)[field] = value
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "s.csv"
        code, stdout, stderr = run_cli(capsys, "simulate", "--config", path, "--out", out)
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert f".{field} must lie in (0.001, 1e+06), got {value}" in stderr
        assert not out.exists()

    def test_hole_wider_than_its_duct_is_refused(self, capsys, tmp_path, config_dir):
        # a hole of about 1 km in the 10 mm duct: each length lies in its
        # range, and simulate used to answer with a 1,248.3 Hz band. The
        # refusal names the config's fields, in its millimetres
        config = json.loads((config_dir / BASELINE).read_text())
        config["structure"]["mpps"][2].update(aperture=9.99e5, thickness=1.0001e-3)
        path = tmp_path / "wide_hole.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "s.csv"
        code, stdout, stderr = run_cli(capsys, "simulate", "--config", path, "--out", out)
        assert code == 1
        assert stdout == ""
        assert stderr == (
            "error: structure: ThreeChamberStructure.mpps[2].aperture must lie in"
            " (0.001, 10), got 999000.0\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, panel, message",
        [
            (BASELINE, lambda s: s["mpps"][2], "ThreeChamberStructure.mpps[2].aperture"),
            (SINGLE, lambda s: s["mpp"], "SingleChamberStructure.mpp.aperture"),
        ],
        ids=["three_chamber", "single_chamber"],
    )
    def test_compare_names_the_config_with_a_hole_wider_than_its_duct(
        self, capsys, tmp_path, config_dir, name, panel, message
    ):
        # a 12 mm hole in the 10 mm duct used to be refused in SI metres,
        # naming neither the field nor which of the two configs holds it
        config = json.loads((config_dir / name).read_text())
        panel(config["structure"])["aperture"] = 12.0
        path = tmp_path / "wide_hole.json"
        path.write_text(json.dumps(config))
        code, stdout, stderr = run_cli(capsys, "compare", config_dir / name, path)
        assert code == 1
        assert stdout == ""
        assert stderr == f"error: B: structure: {message} must lie in (0.001, 10), got 12.0\n"

    def test_hole_wider_than_the_narrowest_reachable_duct_is_refused(
        self, capsys, tmp_path, config_dir
    ):
        # an 8 mm hole fits the config's 10 mm duct, so simulate answers; the
        # search may narrow d_m to 5 mm, and seeds 2 and 5 used to fail there
        # partway through the run while seed 1 wrote its outputs
        config = json.loads((config_dir / BASELINE).read_text())
        config["structure"]["mpps"][0]["aperture"] = 8.0
        config["schedule"]["iterations_per_temperature"] = 2
        path = tmp_path / "narrow_reach.json"
        path.write_text(json.dumps(config))
        code, _, _ = run_cli(capsys, "simulate", "--config", path, "--out", tmp_path / "s.csv")
        assert code == 0
        out_dir = tmp_path / "run"
        code, stdout, stderr = run_cli(
            capsys, "optimize", "--config", path, "--out", out_dir, "--seed", "1"
        )
        assert code == 1
        assert stdout == ""
        assert stderr == (
            "error: structure: the search reaches d_m = 5 mm:"
            " ThreeChamberStructure.mpps[0].aperture must lie in (0.001, 5), got 8.0\n"
        )
        assert not out_dir.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "field, value",
        # viscosity 1e300 used to overflow in the walk, a RuntimeWarning; a
        # viscosity of 1e-300 or a density of 1e300 gave a meaningless answer
        [("dynamic_viscosity", 1e300), ("dynamic_viscosity", 1e-300), ("density", 1e300)],
    )
    def test_medium_out_of_range_is_refused_by_name(
        self, capsys, tmp_path, config_dir, field, value
    ):
        config = json.loads((config_dir / SINGLE).read_text())
        config["medium"][field] = value
        path = tmp_path / "medium.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "s.csv"
        code, stdout, stderr = run_cli(capsys, "simulate", "--config", path, "--out", out)
        assert code == 1
        assert stdout == ""
        assert stderr.startswith(f"error: medium: Medium.{field} must lie in (")
        assert stderr.endswith(f"got {value}\n") and stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "fmin, fmax, step, message",
        # the first was answered; the second overflowed to NaN alphas, a
        # RuntimeWarning, then an error that named no field
        [
            (1.0, 1e50, 1e47, "FrequencyGrid.f_max must lie in [1, 1e+11), got 1e+50"),
            (1e306, 1e307, 1e305, "FrequencyGrid.f_min must lie in (0, 1e+11), got 1e+306"),
        ],
    )
    def test_grid_past_every_plane_wave_limit_is_refused_by_name(
        self, capsys, tmp_path, config_dir, fmin, fmax, step, message
    ):
        for name in (BASELINE, OPTIMIZED, SINGLE):
            out = tmp_path / "s.csv"
            code, stdout, stderr = run_cli(
                capsys, "simulate", "--config", config_dir / name, "--out", out,
                "--fmin", fmin, "--fmax", fmax, "--step", step,
            )
            assert code == 1
            assert stdout == ""
            assert stderr == f"error: {message}\n"
            assert not out.exists()

    def test_negative_seed_is_refused_by_name(self, capsys, tmp_path, config_dir):
        # used to fail in numpy's default_rng ("expected non-negative
        # integer"), after the cut-on check, and a config seed of -1 loaded
        config = json.loads((config_dir / BASELINE).read_text())
        config["schedule"]["seed"] = -1
        path = tmp_path / "negative_seed.json"
        path.write_text(json.dumps(config))
        out_dir = tmp_path / "run"
        for argv, message in (
            (
                ("--config", config_dir / BASELINE, "--seed", "-1"),
                "error: AnnealingSchedule.seed must lie in [0, inf), got -1",
            ),
            (
                ("--config", path),
                "error: schedule: AnnealingSchedule.seed must lie in [0, inf), got -1",
            ),
        ):
            code, stdout, stderr = run_cli(capsys, "optimize", *argv, "--out", out_dir)
            assert code == 1
            assert stdout == ""
            assert stderr.startswith(message) and stderr.count("\n") == 1
            assert not out_dir.exists()

    def test_schedule_that_never_cools_is_refused(self, capsys, tmp_path, config_dir):
        # 1 - 1e-17 == 1.0: optimize used to run until it was killed
        config = json.loads((config_dir / BASELINE).read_text())
        config["schedule"]["cooling_rate"] = 1e-17
        path = tmp_path / "never_cools.json"
        path.write_text(json.dumps(config))
        out_dir = tmp_path / "run"
        code, stdout, stderr = run_cli(capsys, "optimize", "--config", path, "--out", out_dir)
        assert code == 1
        assert stdout == ""
        assert stderr == (
            "error: schedule: AnnealingSchedule.cooling_rate must lie in"
            " [1.842051108424947e-05, 1), got 1e-17\n"
        )
        assert not out_dir.exists()
