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

from cli_cases import BASELINE, CASES, OPTIMIZED, SINGLE, bundled
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
def small_optimize_config(tmp_path):
    schedule = dict(iterations_per_temperature=5, termination_temperature=50.0, seed=7)
    path = tmp_path / "optimize_small.json"
    bundled(BASELINE, {("schedule",): schedule}, path)
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

    @pytest.mark.parametrize(
        "config, flags, frequencies",
        [
            (BASELINE, ("--fmin", 100, "--fmax", 200, "--step", 10), [*range(100, 201, 10)]),
            (SINGLE, ("--fmin", 500, "--fmax", 500), [500]),  # the one-point grid
        ],
        ids=["step", "one_point"],
    )
    def test_grid_override_flags(self, tmp_path, capsys, config_dir, config, flags, frequencies):
        # the header, then one row per grid point, each frequency as printed
        out = tmp_path / "spec.csv"
        code, _, _ = run_cli(capsys, "simulate", "--config", config_dir / config, "--out", out,
                             *flags)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "frequency_hz,alpha"
        assert [line.split(",")[0] for line in lines[1:]] == [str(f) for f in frequencies]


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
        path = tmp_path / "deaf.json"
        bundled(SINGLE, {("structure", "mpp"): {"porosity": 0.003}}, path)
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

    def test_cooling_reading_from_config(self, capsys, tmp_path):
        # "decrement" is the one reading; "multiplier", T <- rate * T, is
        # refused by name before any output is written
        path, out_dir = CASES["multiplier"].write(tmp_path), tmp_path / "mult"
        code, _, stderr = run_cli(capsys, "optimize", "--config", path, "--out", out_dir)
        assert code == 1
        assert stderr == (
            "error: schedule: AnnealingSchedule.cooling_reading must be 'decrement',"
            " got 'multiplier'\n"
        )
        assert not out_dir.exists()
        # the config's schedule is the one way to name it
        with pytest.raises(SystemExit):
            run_cli(capsys, "optimize", "--config", path, "--out", out_dir,
                    "--cooling-reading", "multiplier")

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


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
def test_each_case_shows_what_it_must(capsys, tmp_path, case):
    # the table CI runs through the console script, run in process
    path, out, argv = case.argv(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert case.shows(path, out, code, captured.out, captured.err), (code, captured)


class TestErrors:
    # what a Case cannot spell: bytes that are no UTF-8, an i/o error's
    # prefix, and compare's two configs
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
        "case, message",
        [
            (CASES["wide_hole_12mm"], "ThreeChamberStructure.mpps[2].aperture"),
            (CASES["wide_single_hole_12mm"], "SingleChamberStructure.mpp.aperture"),
        ],
        ids=["three_chamber", "single_chamber"],
    )
    def test_compare_names_the_config_with_a_hole_wider_than_its_duct(
        self, capsys, tmp_path, config_dir, case, message
    ):
        path = case.write(tmp_path)
        code, stdout, stderr = run_cli(capsys, "compare", config_dir / case.base, path)
        assert code == 1
        assert stdout == ""
        assert stderr == f"error: B: structure: {message} must lie in (0.001, 10), got 12.0\n"
