"""Band extraction, octave measure and grid behaviour."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from mppabsorber import (
    AbsorptionSpectrum,
    AnnealingSchedule,
    AreaChange,
    BASELINE_DESIGN,
    DEFAULT_GRID,
    DesignVector,
    ElementChain,
    FrequencyGrid,
    Medium,
    MppPanel,
    MppSpec,
    StraightPipe,
    absorption_spectrum,
    effective_band,
    effective_bands,
    octave_bands,
)
from mppabsorber.spectrum import MAX_GRID_POINTS, require_positive


def spectrum_of(freqs, alphas):
    return AbsorptionSpectrum(np.asarray(freqs, float), np.asarray(alphas, float))


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
            (0.0, 100.0, 1.0), (50.0, 50.0, 1.0), (10.0, 5.0, 1.0), (1.0, 10.0, 0.0),
            (1.0, math.inf, 1.0), (math.nan, 10.0, 1.0), (1.0, math.nan, 1.0),
            (1.0, 10.0, math.nan), (1.0, 2000.0, 5e-324),
        ],
    )
    def test_invalid_grids_rejected(self, args):
        with pytest.raises(ValueError):
            FrequencyGrid(*args)

    def test_point_count_capped(self):
        # construction alone checks the count; no array is built here
        FrequencyGrid(1.0, float(MAX_GRID_POINTS), 1.0)  # exactly at the cap
        with pytest.raises(ValueError, match="points"):
            FrequencyGrid(1.0, 1.0 + MAX_GRID_POINTS, 1.0)
        with pytest.raises(ValueError, match="points"):
            FrequencyGrid(1.0, 2000.0, 1e-5)


class TestRequirePositive:
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_refuses_non_positive_and_non_finite(self, value):
        owner = SimpleNamespace(a=1.0, b=value)
        with pytest.raises(ValueError, match="b must be finite and positive"):
            require_positive(owner, "a", "b")

    def test_accepts_finite_positive(self):
        require_positive(SimpleNamespace(a=5e-324, b=1.7e308, c=3), "a", "b", "c")

    @pytest.mark.parametrize(
        "build",
        [
            lambda v: Medium(density=v),
            lambda v: MppPanel(0.6e-3, 0.2e-3, 0.025, v),
            lambda v: StraightPipe(v, 0.01),
            lambda v: ElementChain((AreaChange(),), v),
            lambda v: DesignVector(**{**BASELINE_DESIGN.as_dict(), "l_4": v}),
            lambda v: MppSpec(0.6, v, 0.025),
            lambda v: FrequencyGrid(1.0, 2000.0, v),
            lambda v: AnnealingSchedule(termination_temperature=v),
        ],
        ids=["medium", "panel", "pipe", "chain", "design", "mpp", "grid", "schedule"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_every_validated_dataclass_refuses_non_finite(self, build, value):
        with pytest.raises(ValueError, match="finite and positive"):
            build(value)


class TestSpectrumInvariants:
    def test_rejects_unsorted_frequencies(self):
        with pytest.raises(ValueError):
            spectrum_of([100, 50], [0.5, 0.5])

    def test_rejects_alpha_outside_unit_interval(self):
        with pytest.raises(ValueError):
            spectrum_of([1, 2], [0.5, 1.5])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            spectrum_of([1, 2, 3], [0.5, 0.5])


class TestEffectiveBand:
    def test_threshold_crossing_with_interpolated_edges(self):
        spectrum = spectrum_of(
            [100, 200, 300, 400, 500], [0.5, 0.85, 0.9, 0.82, 0.7]
        )
        band = effective_band(spectrum)
        # linear crossings: 100 + 0.3/0.35*100 and 400 + 0.02/0.12*100
        assert band.f_low == pytest.approx(100 + 0.3 / 0.35 * 100, rel=1e-12)
        assert band.f_high == pytest.approx(400 + 0.02 / 0.12 * 100, rel=1e-12)
        assert 100 < band.f_low < 200
        assert 400 < band.f_high < 500
        assert band.width == pytest.approx(band.f_high - band.f_low)
        assert band.mean_alpha == pytest.approx((0.85 + 0.9 + 0.82) / 3)

    def test_no_qualifying_point_returns_none(self):
        assert effective_band(spectrum_of([1, 2, 3], [0.0, 0.0, 0.0])) is None

    def test_entire_spectrum_above_threshold(self):
        spectrum = spectrum_of([10, 20, 30], [0.9, 0.95, 0.85])
        band = effective_band(spectrum)
        assert (band.f_low, band.f_high) == (10.0, 30.0)
        assert band.octaves == pytest.approx(math.log2(3.0))

    def test_tie_broken_toward_lower_frequency(self):
        spectrum = spectrum_of(
            [10, 20, 30, 40, 50, 60, 70],
            [0.9, 0.9, 0.1, 0.1, 0.9, 0.9, 0.1],
        )
        band = effective_band(spectrum)
        assert band.f_low == 10.0
        assert band.f_high < 30.0

    def test_longer_run_wins(self):
        spectrum = spectrum_of(
            [10, 20, 30, 40, 50, 60, 70],
            [0.9, 0.1, 0.85, 0.9, 0.95, 0.1, 0.9],
        )
        band = effective_band(spectrum)
        assert 20 < band.f_low < 30
        assert 50 < band.f_high < 60

    def test_custom_threshold(self):
        spectrum = spectrum_of([10, 20, 30], [0.5, 0.96, 0.5])
        assert effective_band(spectrum, threshold=0.95) is not None
        assert effective_band(spectrum, threshold=0.97) is None

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 2.0])
    def test_invalid_threshold_rejected(self, threshold):
        spectrum = spectrum_of([10, 20], [0.9, 0.9])
        with pytest.raises(ValueError):
            effective_band(spectrum, threshold)

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


class TestOctaveBands:
    def test_reference_band_values(self):
        # exact: log2(1304/27) and log2(1595/4); the published figures round
        # to 5.6 and 8.6 octaves
        assert octave_bands(27.0, 1304.0) == pytest.approx(5.594, abs=1e-3)
        assert octave_bands(4.0, 1595.0) == pytest.approx(8.639, abs=1e-3)
        assert octave_bands(27.0, 1304.0) == pytest.approx(5.6, abs=0.05)
        assert octave_bands(4.0, 1595.0) == pytest.approx(8.6, abs=0.05)

    def test_doubling_is_one_octave(self):
        for f in (5.0, 123.0, 997.0):
            assert octave_bands(f, 2 * f) == pytest.approx(1.0, rel=1e-12)

    def test_additive_over_adjacent_intervals(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a, b, c = np.sort(rng.uniform(1.0, 4000.0, 3))
            if a == b or b == c:
                continue
            assert octave_bands(a, b) + octave_bands(b, c) == pytest.approx(
                octave_bands(a, c), abs=1e-12
            )

    @pytest.mark.parametrize(
        "args",
        [
            (0.0, 10.0), (-1.0, 10.0), (10.0, 10.0), (20.0, 10.0),
            (math.nan, 10.0), (1.0, math.inf),
        ],
    )
    def test_invalid_inputs_rejected(self, args):
        with pytest.raises(ValueError):
            octave_bands(*args)
