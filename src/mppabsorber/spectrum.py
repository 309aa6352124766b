"""Absorption spectra on uniform frequency grids, and their effective bands.

The effective absorption band is the longest contiguous run of grid points
with alpha >= threshold (0.8 by default); ties go to the lower-frequency
run. Its edges are interpolated linearly to alpha == threshold between the
run's end point and its sub-threshold neighbour, or are the grid's own
edges where the run touches them.
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
    "octave_bands",
    "require_positive",
]

# Largest grid accepted: far above any plane-wave spectrum worth computing
# (0.01 Hz over 2 kHz is ~2e5 points), well below what exhausts memory.
MAX_GRID_POINTS = 10**7


def check_positive(value, *label: str) -> None:
    """Raise ValueError unless 0 < value < inf, for a number or for every
    element of an array, naming the value by the parts of `label` joined
    with dots; NaN and infinities fail."""
    if np.ndim(value) == 0:
        ok = 0 < value < math.inf
    else:
        values = np.asarray(value, dtype=float)
        ok = np.all((values > 0) & (values < math.inf))
    if not ok:
        raise ValueError(f"{'.'.join(label)} must be finite and positive, got {value}")


def require_positive(owner, *names: str, within=(0.0, math.inf)) -> None:
    """check_positive on each named attribute of `owner`, labelled
    Owner.name, and then the open interval `within`."""
    low, high = within
    for name in names:
        value = getattr(owner, name)
        # tested inline first: this runs for every field of every design and
        # chain element the annealer builds
        if not low < value < high:
            check_positive(value, type(owner).__name__, name)
            raise ValueError(
                f"{type(owner).__name__}.{name} must lie in ({low:g}, {high:g}), got {value}"
            )


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

    @property
    def size(self) -> int:
        # round-tolerant count so f_max is included when it lands on a step
        return int(math.floor((self.f_max - self.f_min) / self.step + 1e-9)) + 1

    def frequency(self, i):
        """Point i of the grid, for an int or an array of indices: the one
        spelling of the progression, so every caller gets the same bits."""
        return self.f_min + self.step * i

    def frequencies(self) -> np.ndarray:
        return self.frequency(np.arange(self.size))


# 1 Hz resolution resolves the sub-10 Hz cutoffs of wideband designs; 2 kHz
# stays below the first cross-mode cut-on of the widest chamber considered,
# keeping the plane-wave model valid.
DEFAULT_GRID = FrequencyGrid(1.0, 2000.0, 1.0)


@dataclass(frozen=True, eq=False)
class AbsorptionSpectrum:
    """Alpha in [0, 1] at each point of a frequency grid."""

    grid: FrequencyGrid
    alphas: np.ndarray

    def __post_init__(self):
        if not isinstance(self.grid, FrequencyGrid):
            raise ValueError(f"grid must be a FrequencyGrid, got {type(self.grid).__name__}")
        alphas = np.asarray(self.alphas, dtype=float)
        if alphas.shape != (self.grid.size,):
            raise ValueError(
                f"alphas must have shape ({self.grid.size},), one per grid point,"
                f" got {alphas.shape}"
            )
        if not (alphas.min() >= 0.0 and alphas.max() <= 1.0):  # NaN fails too
            raise ValueError("alpha values must lie in [0, 1]")
        object.__setattr__(self, "alphas", alphas)

    @property
    def frequencies(self) -> np.ndarray:
        return self.grid.frequencies()

    def __len__(self) -> int:
        return self.grid.size


@dataclass(frozen=True)
class EffectiveBand:
    """A contiguous alpha >= threshold interval with its summary measures."""

    f_low: float
    f_high: float
    mean_alpha: float

    @property
    def width(self) -> float:
        return self.f_high - self.f_low

    @property
    def octaves(self) -> float:
        """log2(f_high / f_low); 0.0 for a zero-width band."""
        return octave_bands(self.f_low, self.f_high) if self.f_high > self.f_low else 0.0


def octave_bands(f_low: float, f_high: float) -> float:
    """Number of octaves spanned: log2(f_high / f_low)."""
    if not 0 < f_low < f_high < math.inf:
        raise ValueError(f"require 0 < f_low < f_high < inf, got ({f_low}, {f_high})")
    return math.log2(f_high / f_low)


# the False on either side of a run mask, so every run has two edges
_EDGE = np.zeros(1, bool)


def _runs(alphas: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Start and inclusive end indices of the maximal runs with alpha >=
    threshold, in ascending order."""
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    padded = np.concatenate((_EDGE, alphas >= threshold, _EDGE))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[::2], edges[1::2] - 1


def _interpolated_band(
    grid: FrequencyGrid, alphas: np.ndarray, start: int, end: int, threshold: float
) -> EffectiveBand:
    frequency, last = grid.frequency, grid.size - 1

    def crossing(i: int, j: int):
        """Where the line from point i to point j reaches the threshold."""
        f_i = frequency(i)
        return f_i + (threshold - alphas[i]) / (alphas[j] - alphas[i]) * (frequency(j) - f_i)

    f_low = crossing(start - 1, start) if start > 0 else frequency(0)
    f_high = crossing(end, end + 1) if end < last else frequency(last)
    return EffectiveBand(
        f_low=float(f_low),
        f_high=float(f_high),
        mean_alpha=float(np.mean(alphas[start : end + 1])),
    )


def effective_bands(
    spectrum: AbsorptionSpectrum, threshold: float = 0.8
) -> list[EffectiveBand]:
    """All alpha >= threshold bands in ascending frequency order."""
    starts, ends = _runs(spectrum.alphas, threshold)
    return [
        _interpolated_band(spectrum.grid, spectrum.alphas, int(start), int(end), threshold)
        for start, end in zip(starts, ends)
    ]


def effective_band(
    spectrum: AbsorptionSpectrum, threshold: float = 0.8
) -> EffectiveBand | None:
    """The longest alpha >= threshold band, or None if no grid point
    qualifies. Length counts grid points; ties go to the lower frequency."""
    starts, ends = _runs(spectrum.alphas, threshold)
    if starts.size == 0:
        return None
    longest = np.argmax(ends - starts)  # the first of equals
    return _interpolated_band(
        spectrum.grid, spectrum.alphas, int(starts[longest]), int(ends[longest]), threshold
    )
