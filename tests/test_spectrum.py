"""Band extraction, octave measure and grid behaviour."""

import math
import re
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mppabsorber import (
    AbsorptionSpectrum,
    AnnealingSchedule,
    AreaChange,
    BASELINE_DESIGN,
    DEFAULT_GRID,
    DesignVector,
    EffectiveBand,
    ElementChain,
    FrequencyGrid,
    Medium,
    MppPanel,
    MppSpec,
    StraightPipe,
    absorption_spectrum,
    cut_on_frequency,
    effective_band,
    effective_bands,
)
from mppabsorber.spectrum import MAX_GRID_POINTS, check_fields, ranged


def spectrum_of(f_min, step, alphas):
    """`alphas` on the grid f_min, f_min + step, ..., one point each."""
    grid = FrequencyGrid(f_min, f_min + step * (len(alphas) - 0.5), step)
    return AbsorptionSpectrum(grid, np.asarray(alphas, float))


class TestFrequencyGrid:
    def test_default_grid(self):
        freqs = DEFAULT_GRID.frequencies()
        assert freqs[0] == 1.0
        assert freqs[-1] == 2000.0
        assert len(freqs) == 2000
        assert np.all(np.diff(freqs) == 1.0)

    def test_endpoint_included_when_on_step(self):
        assert FrequencyGrid(10.0, 20.0, 2.5).frequencies().tolist() == [
            10.0, 12.5, 15.0, 17.5, 20.0,
        ]

    def test_endpoint_excluded_when_off_step(self):
        assert FrequencyGrid(10.0, 11.2, 0.5).frequencies().tolist() == [10.0, 10.5, 11.0]

    @pytest.mark.parametrize(
        "args",
        [
            (0.0, 100.0, 1.0), (50.0, math.nextafter(50.0, 0.0), 1.0), (10.0, 5.0, 1.0),
            (1.0, 10.0, 0.0),
            (1.0, math.inf, 1.0), (math.nan, 10.0, 1.0), (1.0, math.nan, 1.0),
            (1.0, 10.0, math.nan), (1.0, 2000.0, 5e-324), (1.0, 10.0, -1.0),
        ],
    )
    def test_invalid_grids_rejected(self, args):
        with pytest.raises(ValueError):
            FrequencyGrid(*args)

    @pytest.mark.parametrize("field", ["f_min", "f_max", "step"])
    @pytest.mark.parametrize("value", [np.array([5.0]), np.array([5.0, 6.0]), [5.0]])
    def test_array_field_is_refused_by_name(self, field, value):
        # one comparison passes a one-element array, whose grid then had no size
        args = {"f_min": 5.0, "f_max": 5.0, "step": 1.0, field: value}
        with pytest.raises(ValueError) as excinfo:
            FrequencyGrid(**args)
        interval = "[5, 1e+11)" if field == "f_max" else "(0, 1e+11)"
        refusal = f"FrequencyGrid.{field} must lie in {interval}, got {value}"
        assert str(excinfo.value) == refusal

    def test_fields_are_refused_in_declaration_order(self):
        # f_max's rule is broken before step's array is reached
        with pytest.raises(ValueError) as excinfo:
            FrequencyGrid(5.0, 4.0, np.array([6.0]))
        assert str(excinfo.value) == "FrequencyGrid.f_max must lie in [5, 1e+11), got 4.0"

    @pytest.mark.parametrize("f_min", [np.array(1.0), 1])
    def test_zero_dimensional_array_or_int_field_is_taken(self, f_min):
        assert FrequencyGrid(f_min, 10.0, 1.0).size == 10

    @pytest.mark.parametrize("step", [1.0, 50.0, 5e-324])
    def test_equal_ends_are_a_one_point_grid(self, step):
        # f_min == f_max is the grid absorption_at solves; its step is unused
        grid = FrequencyGrid(50.0, 50.0, step)
        assert grid.size == 1
        assert grid.frequencies().tolist() == [50.0]

    @pytest.mark.parametrize(
        "grid", [DEFAULT_GRID, FrequencyGrid(3.0, 1999.5, 0.7), FrequencyGrid(1.0, 2000.0, 0.0137)]
    )
    def test_frequency_of_an_index_or_indices_is_the_grid_point(self, grid):
        frequencies = grid.frequencies()
        assert frequencies.size == grid.size
        indices = np.arange(grid.size)
        assert np.array_equal(grid.frequency(indices), frequencies)
        assert np.array_equal(grid.frequency(indices[::-7]), frequencies[::-7])
        assert [grid.frequency(i) for i in (0, 1, grid.size - 1)] == [
            frequencies[0], frequencies[1], frequencies[-1]
        ]

    def test_frequencies_lie_below_1e11(self):
        # the smallest duct a config can describe, 1 um, in the fastest
        # medium cuts on below the edge, so no grid past it is plane-wave
        fastest = Medium(sound_speed=math.nextafter(1e5, 0.0))
        chain = ElementChain((StraightPipe(1e-6, 1e-6),), 1e-6)
        assert cut_on_frequency(chain, fastest) < 1e11
        below = math.nextafter(1e11, 0.0)
        grids = [
            ("f_min", "(0", lambda v: FrequencyGrid(v, 2.0 * v, 1.0)),
            ("f_max", "[1", lambda v: FrequencyGrid(1.0, v, 1e9)),
            ("step", "(0", lambda v: FrequencyGrid(1.0, 2.0, v)),
        ]
        for field, low, build in grids:
            for value in (1e11, 1e300):
                with pytest.raises(ValueError) as excinfo:
                    build(value)
                assert str(excinfo.value) == (
                    f"FrequencyGrid.{field} must lie in {low}, 1e+11), got {value}"
                )
        FrequencyGrid(math.nextafter(below, 0.0), below, below)
        FrequencyGrid(1.0, below, 1e9)

    def test_point_count_capped(self):
        # construction alone checks the count; no array is built here
        # a step is refused at (f_max - f_min) / MAX_GRID_POINTS or below, so
        # a grid takes fewer than MAX_GRID_POINTS steps: at most one more point
        FrequencyGrid(1.0, float(MAX_GRID_POINTS), 1.0)  # exactly at the cap
        widest = FrequencyGrid(1.0, 1.0 + MAX_GRID_POINTS, math.nextafter(1.0, 2.0))
        assert widest.size == MAX_GRID_POINTS + 1
        for args, refusal in [
            ((1.0, 1.0 + MAX_GRID_POINTS, 1.0), "(1, 1e+11), got 1.0"),
            ((1.0, 2000.0, 1e-5), "(0.0001999, 1e+11), got 1e-05"),
        ]:
            with pytest.raises(ValueError) as excinfo:
                FrequencyGrid(*args)
            assert str(excinfo.value) == f"FrequencyGrid.step must lie in {refusal}"


@dataclass(frozen=True)
class Ranged:
    """One field of each kind of rule, each valid at its default."""

    positive: float = ranged(0.0, default=1.0)
    inner: float = ranged(1.0, 10.0, default=5.0)
    edge: float = ranged(0.5, 1.0, closed=True, default=0.5)
    count: int = ranged(0, closed=True, default=0)

    __post_init__ = check_fields


def refusal(**kwargs) -> str:
    with pytest.raises(ValueError) as excinfo:
        Ranged(**kwargs)
    return str(excinfo.value)


class TestRequirePositive:
    """The rule of a field in an open interval from 0, as check_fields
    applies it."""

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_refuses_non_positive_and_non_finite(self, value):
        assert refusal(positive=value) == f"Ranged.positive must lie in (0, inf), got {value}"

    def test_accepts_finite_positive(self):
        for value in (5e-324, 1.7e308):
            assert Ranged(positive=value).positive == value

    @pytest.mark.parametrize(
        "build, rule",
        [
            (lambda v: Medium(density=v), "Medium.density must lie in (0.001, 100000)"),
            (
                lambda v: MppPanel(0.6e-3, 0.2e-3, 0.025, v),
                "MppPanel.duct_diameter must lie in (0.0002, 1000]",
            ),
            (lambda v: StraightPipe(v, 0.01), "StraightPipe.length must lie in (0, 1000]"),
            (
                lambda v: ElementChain((AreaChange(),), v),
                "ElementChain.main_duct_diameter must lie in (0, 1000]",
            ),
            (
                lambda v: DesignVector(**{**BASELINE_DESIGN.as_dict(), "l_4": v}),
                "DesignVector.l_4 must lie in (0.001, 1e+06)",
            ),
            (lambda v: MppSpec(0.6, v, 0.025), "MppSpec.aperture must lie in (0.001, 1e+06)"),
            (lambda v: FrequencyGrid(1.0, 2000.0, v), "FrequencyGrid.step must lie in (0, 1e+11)"),
            (
                lambda v: AnnealingSchedule(termination_temperature=v),
                "AnnealingSchedule.termination_temperature must lie in (0, 100]",
            ),
        ],
        ids=["medium", "panel", "pipe", "chain", "design", "mpp", "grid", "schedule"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_every_validated_dataclass_refuses_non_finite(self, build, rule, value):
        # the one wording of every field: its interval, then the value
        with pytest.raises(ValueError) as excinfo:
            build(value)
        assert str(excinfo.value) == f"{rule}, got {value}"


class TestCheckFields:
    """The rules of the other kinds of field."""

    @pytest.mark.parametrize("value", [0.5, 1.0, 10.0, 20.0])
    def test_interval_not_from_zero_refuses_a_value_outside_it(self, value):
        assert refusal(inner=value) == f"Ranged.inner must lie in (1, 10), got {value}"

    def test_closed_low_edge_accepts_the_edge_and_refuses_one_ulp_below(self):
        assert Ranged(edge=0.5).edge == 0.5
        below = math.nextafter(0.5, 0.0)
        assert refusal(edge=below) == f"Ranged.edge must lie in [0.5, 1), got {below}"
        assert refusal(edge=1.0) == "Ranged.edge must lie in [0.5, 1), got 1.0"

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_int_field_refuses_what_is_not_an_integer(self, value):
        # checked before the interval: "3" or None never reaches a comparison
        assert refusal(count=value) == f"Ranged.count must be an integer, got {value!r}"

    def test_int_field_accepts_numpy_integers_inside_its_interval(self):
        assert Ranged(count=np.int64(3)).count == 3
        assert Ranged(count=np.uint8(7)).count == 7
        assert refusal(count=-1) == "Ranged.count must lie in [0, inf), got -1"


# A field's value for the relations' property test: NaN, an infinity, an
# int past the largest double, or log-uniform over 1e-13 to 1e13.
VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400]),
    st.floats(-13.0, 13.0).map(lambda exponent: 10.0**exponent),
)
WORDING = re.compile(r"^\w+\.\w+ must lie in [\[(].+, .+[\])], got .+$")


@st.composite
def pairs(draw):
    """Two fields' values that a relation compares: the second equal to the
    first or one ulp either side of it, or drawn on its own."""
    first = draw(VALUES)
    if isinstance(first, float) and draw(st.booleans()):
        below, above = math.nextafter(first, -math.inf), math.nextafter(first, math.inf)
        return first, draw(st.sampled_from([first, below, above]))
    return first, draw(VALUES)


def refused(cls, *args, **kwargs) -> bool:
    """Whether cls(*args, **kwargs) raises ValueError, which must then read
    in the one wording."""
    try:
        cls(*args, **kwargs)
    except ValueError as exc:
        assert WORDING.match(str(exc)), str(exc)
        return True
    return False


def floats(*values) -> bool:
    """Whether float() takes each of these positive values without overflow."""
    return all(value <= sys.float_info.max for value in values)


@settings(max_examples=300)
@given(ends=pairs(), step=VALUES, temperatures=pairs(), hole=pairs())
def test_relations_refuse_as_the_hand_written_checks_did(ends, step, temperatures, hole):
    # each predicate is the one the dataclass checked by hand before its
    # relation was declared: the fields' own intervals, then the relation;
    # a field now also refuses an int past the largest double
    f_min, f_max = ends
    kept = all(0 < v < 1e11 for v in (f_min, f_max, step)) and f_min <= f_max
    kept = kept and (f_max - f_min) / step < MAX_GRID_POINTS
    assert refused(FrequencyGrid, f_min, f_max, step) is not kept
    # the default cooling takes at most about 4,300 levels between these
    # temperatures, far inside both of the schedule's caps
    initial, termination = temperatures
    kept = 0 < initial < math.inf and 0 < termination < math.inf and termination <= initial
    kept = kept and floats(initial, termination)
    assert refused(
        AnnealingSchedule, initial_temperature=initial, termination_temperature=termination
    ) is not kept
    aperture, duct = hole
    kept = 0 < aperture < math.inf and 0 < duct <= 1e3 and aperture < duct
    kept = kept and floats(aperture, duct)
    assert refused(MppPanel, 6e-4, aperture, 0.025, duct) is not kept


class TestSpectrumInvariants:
    def test_frequencies_and_length_come_from_the_grid(self):
        grid = FrequencyGrid(3.0, 1999.5, 0.7)
        spectrum = AbsorptionSpectrum(grid, np.full(grid.size, 0.5))
        assert np.array_equal(spectrum.frequencies, grid.frequencies())
        assert spectrum.grid.size == spectrum.alphas.size == grid.size

    def test_rejects_a_frequency_array_as_the_grid(self):
        # an ndarray has a .size too
        with pytest.raises(ValueError, match="grid must be a FrequencyGrid, got ndarray"):
            AbsorptionSpectrum(np.array([1.0, 2.0, 3.0]), np.full(3, 0.5))

    def test_rejects_alpha_outside_unit_interval(self):
        with pytest.raises(ValueError):
            spectrum_of(1, 1, [0.5, 1.5])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match=r"alphas must have shape \(3,\), one per grid point"):
            AbsorptionSpectrum(FrequencyGrid(1.0, 3.0, 1.0), [0.5, 0.5])

    @pytest.mark.parametrize(
        "alphas", [[0.5] * 4, [[0.5, 0.5, 0.5]], 0.5], ids=["too-many", "2-d", "scalar"]
    )
    def test_rejects_alphas_not_one_per_grid_point(self, alphas):
        with pytest.raises(ValueError, match=r"alphas must have shape \(3,\)"):
            AbsorptionSpectrum(FrequencyGrid(1.0, 3.0, 1.0), alphas)

    @pytest.mark.parametrize("alpha", [math.nan, -math.inf, math.inf, -0.1])
    def test_rejects_nan_and_out_of_range_alphas(self, alpha):
        # a NaN alpha used to pass and make band_report print "f_high nan Hz"
        with pytest.raises(ValueError, match=r"alpha values must lie in \[0, 1\]"):
            spectrum_of(1, 1, [0.9, alpha, 0.9])


class TestEffectiveBand:
    def test_threshold_crossing_with_interpolated_edges(self):
        spectrum = spectrum_of(100, 100, [0.5, 0.85, 0.9, 0.82, 0.7])
        band = effective_band(spectrum)
        # linear crossings: 100 + 0.3/0.35*100 and 400 + 0.02/0.12*100
        assert band.f_low == pytest.approx(100 + 0.3 / 0.35 * 100, rel=1e-12)
        assert band.f_high == pytest.approx(400 + 0.02 / 0.12 * 100, rel=1e-12)
        assert 100 < band.f_low < 200
        assert 400 < band.f_high < 500
        assert band.width == pytest.approx(band.f_high - band.f_low)
        assert band.mean_alpha == pytest.approx((0.85 + 0.9 + 0.82) / 3)

    def test_no_qualifying_point_returns_none(self):
        assert effective_band(spectrum_of(1, 1, [0.0, 0.0, 0.0])) is None

    def test_entire_spectrum_above_threshold(self):
        spectrum = spectrum_of(10, 10, [0.9, 0.95, 0.85])
        band = effective_band(spectrum)
        assert (band.f_low, band.f_high) == (10.0, 30.0)
        assert band.octaves == pytest.approx(math.log2(3.0))

    def test_tie_broken_toward_lower_frequency(self):
        spectrum = spectrum_of(10, 10, [0.9, 0.9, 0.1, 0.1, 0.9, 0.9, 0.1])
        band = effective_band(spectrum)
        assert band.f_low == 10.0
        assert band.f_high < 30.0

    def test_longer_run_wins(self):
        spectrum = spectrum_of(10, 10, [0.9, 0.1, 0.85, 0.9, 0.95, 0.1, 0.9])
        band = effective_band(spectrum)
        assert 20 < band.f_low < 30
        assert 50 < band.f_high < 60

    def test_custom_threshold(self):
        spectrum = spectrum_of(10, 10, [0.5, 0.96, 0.5])
        assert effective_band(spectrum, threshold=0.95) is not None
        assert effective_band(spectrum, threshold=0.97) is None

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 2.0])
    def test_invalid_threshold_rejected(self, threshold):
        spectrum = spectrum_of(10, 10, [0.9, 0.9])
        with pytest.raises(ValueError):
            effective_band(spectrum, threshold)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, math.nan])
    def test_invalid_threshold_is_refused_in_the_one_wording(self, threshold):
        # it read "threshold must be in (0, 1)", beside every other refusal's
        # "must lie in"
        spectrum = spectrum_of(10, 10, [0.9, 0.9])
        for extract in (effective_band, effective_bands):
            with pytest.raises(ValueError) as excinfo:
                extract(spectrum, threshold)
            assert str(excinfo.value) == f"threshold must lie in (0, 1), got {threshold}"

    def test_band_mean_at_least_threshold(self, baseline_spectrum):
        assert effective_band(baseline_spectrum).mean_alpha >= 0.8

    def test_all_bands_listed_ascending(self, single_spectrum):
        bands = effective_bands(single_spectrum)
        assert len(bands) == 2
        assert bands[0].f_high < bands[1].f_low

    def test_grid_refinement_moves_edges_less_than_coarse_step(self, baseline_chain):
        coarse_grid = FrequencyGrid(1.0, 2000.0, 2.0)
        coarse = effective_band(absorption_spectrum(baseline_chain, coarse_grid))
        fine_grid = FrequencyGrid(1.0, 2000.0, 1.0)
        fine = effective_band(absorption_spectrum(baseline_chain, fine_grid))
        assert abs(coarse.f_low - fine.f_low) < coarse_grid.step
        assert abs(coarse.f_high - fine.f_high) < coarse_grid.step


def runs_by_scan(alphas, threshold):
    """(start, end) of each maximal run with alpha >= threshold, found one
    point at a time."""
    runs, start = [], None
    for i, alpha in enumerate(alphas):
        if alpha >= threshold and start is None:
            start = i
        elif alpha < threshold and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(alphas) - 1))
    return runs


@st.composite
def small_spectra(draw):
    """Up to 12 points on a random grid. Alphas come mostly from a few values
    at and around the thresholds, so ties, runs at either grid edge and
    spectra without a run are all common."""
    alphas = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, 0.5, 0.8, 0.9, 1.0]), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=12,
        )
    )
    return spectrum_of(draw(st.floats(1.0, 1000.0)), draw(st.floats(0.01, 100.0)), alphas)


@settings(max_examples=300)
@given(spectrum=small_spectra(), threshold=st.sampled_from([0.8, 0.5, 0.95]))
@example(spectrum=spectrum_of(10, 10, [0.9, 0.1, 0.9]), threshold=0.8)  # a tie, at both edges
@example(spectrum=spectrum_of(10, 10, [0.1, 0.9, 0.9, 0.1]), threshold=0.8)
@example(spectrum=spectrum_of(10, 10, [0.1, 0.5, 0.1]), threshold=0.8)  # no run
def test_longest_band_is_the_first_longest_run_of_a_scan(spectrum, threshold):
    alphas, frequencies = spectrum.alphas, spectrum.frequencies
    runs = runs_by_scan(alphas, threshold)
    bands = effective_bands(spectrum, threshold)
    assert len(bands) == len(runs)
    slack = 1e-12 * frequencies[-1]  # the interpolation rounds
    for band, (start, end) in zip(bands, runs):
        if start == 0:
            assert band.f_low == frequencies[0]
        else:
            assert frequencies[start - 1] - slack <= band.f_low <= frequencies[start] + slack
            assert np.interp(band.f_low, frequencies, alphas) == pytest.approx(threshold, abs=1e-9)
        if end == len(alphas) - 1:
            assert band.f_high == frequencies[-1]
        else:
            assert frequencies[end] - slack <= band.f_high <= frequencies[end + 1] + slack
            assert np.interp(band.f_high, frequencies, alphas) == pytest.approx(threshold, abs=1e-9)
        assert band.mean_alpha == pytest.approx(np.mean(alphas[start : end + 1]), rel=1e-12)
    longest = None
    for run in runs:
        if longest is None or run[1] - run[0] > longest[1] - longest[0]:
            longest = run
    band = effective_band(spectrum, threshold)
    if longest is None:
        assert band is None
    else:
        assert band == bands[runs.index(longest)]


def octaves(f_low, f_high):
    return EffectiveBand(f_low, f_high, 0.9).octaves


class TestOctaveBands:
    def test_reference_band_values(self):
        # exact: log2(1304/27) and log2(1595/4); the published figures round
        # to 5.6 and 8.6 octaves
        assert octaves(27.0, 1304.0) == pytest.approx(5.594, abs=1e-3)
        assert octaves(4.0, 1595.0) == pytest.approx(8.639, abs=1e-3)
        assert octaves(27.0, 1304.0) == pytest.approx(5.6, abs=0.05)
        assert octaves(4.0, 1595.0) == pytest.approx(8.6, abs=0.05)

    def test_doubling_is_one_octave(self):
        for f in (5.0, 123.0, 997.0):
            assert octaves(f, 2 * f) == pytest.approx(1.0, rel=1e-12)

    def test_additive_over_adjacent_intervals(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a, b, c = np.sort(rng.uniform(1.0, 4000.0, 3))
            if a == b or b == c:
                continue
            assert octaves(a, b) + octaves(b, c) == pytest.approx(octaves(a, c), abs=1e-12)

    @pytest.mark.parametrize("edges", [(10.0, 10.0), (20.5, 10.0)], ids=str)
    def test_band_without_width_has_zero_octaves(self, edges):
        band = EffectiveBand(*edges, 0.9)
        assert band.octaves == 0.0
        assert band.width == edges[1] - edges[0]

    @pytest.mark.parametrize(
        "args",
        [
            (0.0, 10.0), (-1.0, 10.0), (10.0, 0.0), (10.0, -1.0),
            (math.nan, 10.0), (1.0, math.inf),
        ],
    )
    def test_invalid_inputs_rejected(self, args):
        with pytest.raises(ValueError):
            EffectiveBand(*args, 0.9)

    @pytest.mark.parametrize(
        "args, refusal",
        [
            ((0.0, 10.0), "f_low must lie in (0, inf), got 0.0"),
            ((math.inf, 10.0), "f_low must lie in (0, inf), got inf"),
            ((math.nan, 10.0), "f_low must lie in (0, inf), got nan"),
            ((-1.0, 10.0), "f_low must lie in (0, inf), got -1.0"),
            ((10.0, 0.0), "f_high must lie in (0, inf), got 0.0"),
            ((10.0, -1.0), "f_high must lie in (0, inf), got -1.0"),
            ((10.0, math.nan), "f_high must lie in (0, inf), got nan"),
            ((1.0, math.inf), "f_high must lie in (0, inf), got inf"),
            ((10**400, 5.0), f"f_low must lie in (0, inf), got {10**400}"),
            ((1.0, 10**400), f"f_high must lie in (0, inf), got {10**400}"),
        ],
        ids=lambda item: str(item)[:20],
    )
    def test_each_argument_is_refused_in_the_one_wording(self, args, refusal):
        # a band is refused when it is built, naming its field; an int past
        # the largest double once raised OverflowError as an f_high
        with pytest.raises(ValueError) as excinfo:
            EffectiveBand(*args, 0.9)
        assert str(excinfo.value) == f"EffectiveBand.{refusal}"

    @pytest.mark.parametrize("mean_alpha", [math.nan, -3.0])
    def test_mean_alpha_outside_the_unit_interval_is_refused(self, mean_alpha):
        # a band's alphas lie in [threshold, 1], so its mean does; NaN and
        # -3.0 were taken
        with pytest.raises(ValueError) as excinfo:
            EffectiveBand(27.0, 1304.0, mean_alpha)
        assert str(excinfo.value) == (
            f"EffectiveBand.mean_alpha must lie in (0, 1], got {mean_alpha}"
        )
