"""Absorption spectra on uniform frequency grids, and their effective bands.

The effective absorption band is the longest contiguous run of grid points
with alpha >= threshold (0.8 by default); ties go to the lower-frequency
run. Its edges are interpolated linearly to alpha == threshold between the
run's end point and its sub-threshold neighbour, or are the grid's own
edges where the run touches them.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

__all__ = [
    "DEFAULT_GRID",
    "MAX_GRID_POINTS",
    "AbsorptionSpectrum",
    "EffectiveBand",
    "FrequencyGrid",
    "check_fields",
    "effective_band",
    "effective_bands",
    "octave_bands",
    "ranged",
]

# Largest grid accepted: far above any plane-wave spectrum worth computing
# (0.01 Hz over 2 kHz is ~2e5 points), well below what exhausts memory.
MAX_GRID_POINTS = 10**7

# The frequencies (Hz) the model answers, an open range. 1e11 Hz is past the
# cut-on of a 1 um duct in a 1e5 m/s medium (5.9e10 Hz), the smallest and
# fastest a config can describe.
FREQUENCY_RANGE = (0.0, 1e11)


def refuse(label: str, low: float, high: float, closed: bool, value):
    """Raise the one refusal wording: `label` must lie in (low, high), or
    in [low, high) when `closed`, got `value`; a value holding an int
    too long for Python to spell in decimal is named by its type."""
    edge = "[" if closed else "("
    try:
        shown = str(value)
    except ValueError:  # past the digits Python spells for an int
        shown = f"{type(value).__name__} of more than {sys.get_int_max_str_digits()} digits"
    raise ValueError(f"{label} must lie in {edge}{low:g}, {high:g}), got {shown}")


def check_frequency(frequency) -> None:
    """Raise ValueError unless the frequency, a number or every element of
    an array, lies in FREQUENCY_RANGE, the range of a FrequencyGrid's
    fields; NaN fails, and so does what is no float, such as an int past
    the largest double."""
    low, high = FREQUENCY_RANGE
    try:
        values = np.asarray(frequency, dtype=float)
    except (OverflowError, TypeError, ValueError):
        values = np.nan
    if not np.all((values > low) & (values < high)):
        refuse("frequency", low, high, False, frequency)


def ranged(low: float, high: float = math.inf, *, closed=False, default=MISSING, **metadata):
    """A dataclass field whose value must lie in the open interval (low,
    high), or in [low, high) when `closed`; a field annotated int must
    also be an integer. check_fields enforces the rule. Other keywords join
    the field's metadata."""
    return field(default=default, metadata={"range": (low, high, closed), **metadata})


@functools.cache
def _rules(cls) -> tuple:
    """(name, floor, high, integer) for each ranged field of `cls`,
    gathered once per class. Every allowed value exceeds floor: low, or at
    a closed edge the double just below low, so that one open comparison
    tests both kinds of edge, for an integral low and an int value too."""
    rules = []
    for item in fields(cls):
        if "range" in item.metadata:
            low, high, closed = item.metadata["range"]
            floor = math.nextafter(low, -math.inf) if closed else low
            rules.append((item.name, floor, high, item.type in (int, "int")))
    return tuple(rules)


def check_fields(owner) -> None:
    """Raise ValueError unless every ranged field of the dataclass `owner`
    keeps its rule, naming the first that does not as Owner.field."""
    for name, floor, high, integer in _rules(type(owner)):
        value = getattr(owner, name)
        if integer and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ValueError(f"{type(owner).__name__}.{name} must be an integer, got {value!r}")
        # one chained comparison: this runs for every field of every design
        # and chain element the annealer builds
        if not floor < value < high:
            rule = owner.__dataclass_fields__[name].metadata["range"]
            refuse(f"{type(owner).__name__}.{name}", *rule, value)


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency grid: f_min, f_min + step, ... up to f_max (Hz);
    f_min == f_max is the one-point grid."""

    f_min: float = ranged(*FREQUENCY_RANGE)
    f_max: float = ranged(*FREQUENCY_RANGE)
    step: float = ranged(*FREQUENCY_RANGE)

    def __post_init__(self):
        # an array passes check_fields' comparison when it has one element
        for name, value in vars(self).items():
            if np.ndim(value):
                refuse(f"FrequencyGrid.{name}", *FREQUENCY_RANGE, False, value)
        check_fields(self)
        if not self.f_min <= self.f_max:
            raise ValueError(f"require f_min <= f_max, got ({self.f_min}, {self.f_max})")
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
    """Number of octaves spanned: log2(f_high / f_low). Each edge must be a
    float: an int past the largest double is refused as infinity is."""
    if not 0 < f_low <= sys.float_info.max:
        refuse("f_low", 0, math.inf, False, f_low)
    if not f_low < f_high <= sys.float_info.max:
        refuse("f_high", f_low, math.inf, False, f_high)
    return math.log2(f_high / f_low)


# the False on either side of a run mask, so every run has two edges
_EDGE = np.zeros(1, bool)


def _runs(alphas: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Start and inclusive end indices of the maximal runs with alpha >=
    threshold, in ascending order."""
    if not 0 < threshold < 1:
        refuse("threshold", 0, 1, False, threshold)
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
