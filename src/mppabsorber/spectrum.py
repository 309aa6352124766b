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


def spelled(value, spec: str = "") -> str:
    """`value` formatted by `spec`. An int that "g" cannot take, past the
    largest double, is spelled in full, and one too long for Python to
    spell in decimal is named by its type."""
    try:
        return format(value, spec)
    except (OverflowError, ValueError):
        digits = sys.get_int_max_str_digits()
        return spelled(value) if spec else f"{type(value).__name__} of more than {digits} digits"


def refuse(label: str, low, high, closed, value):
    """Raise the one refusal wording: `label` must lie in (low, high), got
    `value`, with `[` at the low edge when `closed` is True and `]` at the
    high edge when it is "high"; each number as `spelled` gives it."""
    interval = f"{spelled(low, 'g')}, {spelled(high, 'g')}"
    opening, closing = "[" if closed is True else "(", "]" if closed == "high" else ")"
    raise ValueError(f"{label} must lie in {opening}{interval}{closing}, got {spelled(value)}")


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


def ranged(low, high=math.inf, *, closed=False, default=MISSING, **metadata):
    """A dataclass field whose value must lie in the open interval (low,
    high); `closed=True` takes the low edge in, [low, high), and
    `closed="high"` the high one, (low, high]. An edge may instead name an
    earlier field of the same dataclass, whose value check_fields reads as
    it checks this one. A field annotated int must also be an integer.
    Other keywords join the field's metadata."""
    return field(default=default, metadata={"range": (low, high, closed), **metadata})


@functools.cache
def _rules(cls) -> tuple:
    """(name, low, high, integer) for each ranged field of `cls`, gathered
    once per class, with NaN for a named edge."""
    rules = []
    for item in fields(cls):
        if "range" in item.metadata:
            low, high, _ = item.metadata["range"]
            low, high = (math.nan if isinstance(edge, str) else edge for edge in (low, high))
            rules.append((item.name, low, high, item.type in (int, "int")))
    return tuple(rules)


def _rule(owner, name) -> tuple:
    """(low, high, closed) of field `name`, a named edge read from `owner`:
    the owner's fields are keyed by name, so a number is no key."""
    low, high, closed = owner.__dataclass_fields__[name].metadata["range"]
    values = vars(owner)
    return values.get(low, low), values.get(high, high), closed


def _kept(value, low, high, closed) -> bool:
    """Whether `value` lies in the interval as written: `<=` at a closed
    edge, `<` at an open one."""
    above = low <= value if closed is True else low < value
    return above and (value <= high if closed == "high" else value < high)


def check_fields(owner) -> None:
    """Raise ValueError unless every ranged field of the dataclass `owner`
    keeps its rule, checked in field order, naming the first that does not
    as Owner.field. A named edge is the owner's value of that field."""
    for name, low, high, integer in _rules(type(owner)):
        value = getattr(owner, name)
        if integer and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ValueError(f"{type(owner).__name__}.{name} must be an integer, got {value!r}")
        # one chained comparison: this runs for every field of every design
        # and chain element the annealer builds. What it does not keep, a
        # value at a closed edge or any against a named edge (NaN), is
        # compared again as the rule is written.
        if not low < value < high and not _kept(value, *_rule(owner, name)):
            refuse(f"{type(owner).__name__}.{name}", *_rule(owner, name), value)


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency grid: f_min, f_min + step, ... up to f_max (Hz);
    f_min == f_max is the one-point grid."""

    f_min: float = ranged(*FREQUENCY_RANGE)
    f_max: float = ranged("f_min", FREQUENCY_RANGE[1], closed=True)
    step: float = ranged(*FREQUENCY_RANGE)

    def __post_init__(self):
        # an array passes check_fields' comparison when it has one element
        for name, value in vars(self).items():
            if np.ndim(value):
                refuse(f"FrequencyGrid.{name}", *FREQUENCY_RANGE, False, value)
        check_fields(self)
        # compared as floats: the step count is inf when step << f_max - f_min
        span, high = self.f_max - self.f_min, FREQUENCY_RANGE[1]
        if span / self.step >= MAX_GRID_POINTS:
            refuse("FrequencyGrid.step", span / MAX_GRID_POINTS, high, False, self.step)

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
