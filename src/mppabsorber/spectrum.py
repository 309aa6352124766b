"""Absorption spectra and effective-band extraction.

The effective absorption band is the longest contiguous frequency interval
with alpha >= threshold (0.8 by default). Band edges are refined by linear
interpolation between the boundary grid point and its sub-threshold
neighbour, so reported cutoffs are finer than the grid step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_GRID",
    "MAX_GRID_POINTS",
    "AbsorptionSpectrum",
    "EffectiveBand",
    "FrequencyGrid",
    "check_positive",
    "effective_band",
    "effective_bands",
    "longest_band",
    "octave_bands",
    "require_positive",
]

# Largest grid accepted: far above any plane-wave spectrum worth computing
# (0.01 Hz over 2 kHz is ~2e5 points), well below what exhausts memory.
MAX_GRID_POINTS = 10**7


def check_positive(value, *label: str) -> None:
    """Raise ValueError unless 0 < value < inf, naming the value by the
    parts of `label` joined with dots; NaN and infinities fail."""
    if not 0 < value < math.inf:
        raise ValueError(f"{'.'.join(label)} must be finite and positive, got {value}")


def require_positive(owner, *names: str) -> None:
    """check_positive on each named attribute of `owner`, labelled
    Owner.name."""
    for name in names:
        value = getattr(owner, name)
        # tested inline first: this runs for every field of every design and
        # chain element the annealer builds
        if not 0 < value < math.inf:
            check_positive(value, type(owner).__name__, name)


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency grid: f_min, f_min + step, ... up to f_max (Hz)."""

    f_min: float
    f_max: float
    step: float

    def __post_init__(self):
        require_positive(self, "f_min", "f_max", "step")
        if not self.f_min < self.f_max:
            raise ValueError(
                f"require f_min < f_max, got ({self.f_min}, {self.f_max})"
            )
        # compared as floats: the step count is inf when step << f_max - f_min
        if (self.f_max - self.f_min) / self.step >= MAX_GRID_POINTS:
            raise ValueError(f"grid has more than {MAX_GRID_POINTS} points")

    def frequencies(self) -> np.ndarray:
        # round-tolerant count so f_max is included when it lands on a step
        n = int(math.floor((self.f_max - self.f_min) / self.step + 1e-9)) + 1
        return self.f_min + self.step * np.arange(n)


# 1 Hz resolution resolves the sub-10 Hz cutoffs of wideband designs; 2 kHz
# stays below the first cross-mode cut-on of the widest chamber considered,
# keeping the plane-wave model valid.
DEFAULT_GRID = FrequencyGrid(1.0, 2000.0, 1.0)


@dataclass(frozen=True, eq=False)
class AbsorptionSpectrum:
    """Parallel arrays of frequency (Hz, strictly increasing) and alpha."""

    frequencies: np.ndarray
    alphas: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        alphas = np.asarray(self.alphas, dtype=float)
        if freqs.shape != alphas.shape or freqs.ndim != 1 or freqs.size == 0:
            raise ValueError("frequencies and alphas must be equal-length 1-D arrays")
        if not np.all(np.diff(freqs) > 0):
            raise ValueError("frequencies must be strictly increasing")
        if np.any(alphas < 0.0) or np.any(alphas > 1.0):
            raise ValueError("alpha values must lie in [0, 1]")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "alphas", alphas)

    def __len__(self) -> int:
        return self.frequencies.size


@dataclass(frozen=True)
class EffectiveBand:
    """A contiguous alpha >= threshold interval with its summary measures."""

    f_low: float
    f_high: float
    width: float
    octaves: float
    mean_alpha: float


def octave_bands(f_low: float, f_high: float) -> float:
    """Number of octaves spanned: log2(f_high / f_low)."""
    if not 0 < f_low < f_high < math.inf:
        raise ValueError(f"require 0 < f_low < f_high < inf, got ({f_low}, {f_high})")
    return math.log2(f_high / f_low)


def _runs_at_or_above(alphas: np.ndarray, threshold: float) -> list[tuple[int, int]]:
    """Inclusive (start, end) index pairs of maximal runs with alpha >= threshold."""
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    qualifying = alphas >= threshold
    padded = np.concatenate(([False], qualifying, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return [(int(s), int(e) - 1) for s, e in zip(edges[::2], edges[1::2])]


def _interpolated_band(
    freqs: np.ndarray, alphas: np.ndarray, start: int, end: int, threshold: float
) -> EffectiveBand:
    if start > 0:
        # crossing point where the linear segment reaches the threshold
        f_low = freqs[start - 1] + (threshold - alphas[start - 1]) / (
            alphas[start] - alphas[start - 1]
        ) * (freqs[start] - freqs[start - 1])
    else:
        f_low = freqs[0]
    if end < len(freqs) - 1:
        f_high = freqs[end] + (alphas[end] - threshold) / (
            alphas[end] - alphas[end + 1]
        ) * (freqs[end + 1] - freqs[end])
    else:
        f_high = freqs[-1]
    f_low = float(f_low)
    f_high = float(f_high)
    octaves = math.log2(f_high / f_low) if f_high > f_low else 0.0
    return EffectiveBand(
        f_low=f_low,
        f_high=f_high,
        width=f_high - f_low,
        octaves=octaves,
        mean_alpha=float(np.mean(alphas[start : end + 1])),
    )


def effective_bands(
    spectrum: AbsorptionSpectrum, threshold: float = 0.8
) -> list[EffectiveBand]:
    """All alpha >= threshold bands in ascending frequency order."""
    freqs, alphas = spectrum.frequencies, spectrum.alphas
    return [
        _interpolated_band(freqs, alphas, start, end, threshold)
        for start, end in _runs_at_or_above(alphas, threshold)
    ]


def longest_band(
    frequencies: np.ndarray, alphas: np.ndarray, threshold: float = 0.8
) -> EffectiveBand | None:
    """The longest effective band of the parallel arrays of a spectrum, or
    None if no point qualifies: effective_band without the AbsorptionSpectrum
    wrapper, for callers whose arrays are valid by construction.

    Band length is counted in grid points; ties go to the lower-frequency
    run. Edges are interpolated to alpha == threshold exactly (except at the
    grid boundary, where the grid edge is used).
    """
    runs = _runs_at_or_above(alphas, threshold)
    if not runs:
        return None
    start, end = max(runs, key=lambda run: (run[1] - run[0], -run[0]))
    return _interpolated_band(frequencies, alphas, start, end, threshold)


def effective_band(
    spectrum: AbsorptionSpectrum, threshold: float = 0.8
) -> EffectiveBand | None:
    """The longest effective band, or None if no grid point qualifies (see
    longest_band)."""
    return longest_band(spectrum.frequencies, spectrum.alphas, threshold)
