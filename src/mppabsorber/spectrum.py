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
    "AbsorptionSpectrum",
    "EffectiveBand",
    "FrequencyGrid",
    "effective_band",
    "effective_bands",
]

# A grid takes fewer than this many steps, so at most 10**7 + 1 points: far
# above any plane-wave spectrum worth computing (0.01 Hz over 2 kHz is ~2e5
# points), well below what exhausts memory.
MAX_GRID_POINTS = 10**7

# The frequencies (Hz) the model answers, an open range. 1e11 Hz is past the
# cut-on of a 1 um duct in a 1e5 m/s medium (5.9e10 Hz), the smallest and
# fastest a config can describe.
FREQUENCY_RANGE = (0.0, 1e11)


def spelled(value) -> str:
    """`value` as a refusal shows it, a string quoted. An int too long for
    Python to spell in decimal, alone or in a list, is named by its type."""
    try:
        return repr(value) if isinstance(value, str) else str(value)
    except ValueError:
        return f"{type(value).__name__} of more than {sys.get_int_max_str_digits()} digits"


def refuse(label: str, low, high, closed, value):
    """Raise the one refusal wording: `label` must lie in (low, high), got
    `value`, with `[` at the low edge when `closed` is True and `]` at the
    high edge when it is "high"; the value as `spelled` gives it, and each
    edge, a number a rule has taken, formatted by "g" where that reads back
    as the edge, else in full, so no refused value reads as inside. It
    judges nothing: require, check_frequency and the hole rule decide."""
    low, high = (f"{edge:g}" if float(f"{edge:g}") == edge else str(edge) for edge in (low, high))
    opening, closing = "[" if closed is True else "(", "]" if closed == "high" else ")"
    raise ValueError(f"{label} must lie in {opening}{low}, {high}{closing}, got {spelled(value)}")


def require(label: str, value, low, high, closed=False, integer=False) -> None:
    """Raise ValueError unless the number `value` lies in the interval (low,
    high), with `closed` as `ranged` reads it: the package's one check of a
    scalar. A bool is no number. When `integer`, the value must be a
    numbers.Integral, compared exactly, or it is refused as `must be an
    integer`. Otherwise it must be a numbers.Real, or a 0-d array of one,
    that float() takes, so an int past the largest double is refused as
    infinity is, and so are a string, None, a complex and any other array.
    """
    number = value
    if integer and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{label} must be an integer, got {value!r}")
    if not integer and type(value) is not float:
        scalar = value[()] if isinstance(value, np.ndarray) and value.ndim == 0 else value
        real = isinstance(scalar, numbers.Real) and not isinstance(scalar, bool)
        try:
            number = float(scalar) if real else math.nan
        except OverflowError:  # an int past the largest double
            number = math.nan
    above = low <= number if closed is True else low < number
    if not (above and (number <= high if closed == "high" else number < high)):
        refuse(label, low, high, closed, value)


def check_frequency(frequency) -> None:
    """Raise ValueError unless the frequency, a number or every element of
    an array, lies in FREQUENCY_RANGE, the range of a FrequencyGrid's
    fields. The array must hold ints or floats: a bool, a string, a complex
    or an int past the largest double (an object array) fails, and so do
    NaN and a ragged nested list. A list is read as its array, a bool in it
    too, where numpy would cast one among numbers."""
    low, high = FREQUENCY_RANGE
    try:
        values = np.asarray(frequency)
    except ValueError:  # a ragged nested list: no array, so no number
        values = np.asarray(None)
    if values.ndim and not isinstance(frequency, np.ndarray):  # a list: scanned for a bool
        if any(isinstance(v, bool) for v in np.asarray(frequency, dtype=object).flat):
            values = np.asarray(None)
    if values.dtype.kind not in "iuf" or not np.all((values > low) & (values < high)):
        refuse("frequency", low, high, False, frequency)


def ranged(low, high=math.inf, *, closed=False, default=MISSING, **metadata):
    """A dataclass field whose value must lie in the open interval (low,
    high); `closed=True` takes the low edge in, [low, high), and
    `closed="high"` the high one, (low, high]. An edge may instead name an
    earlier field of the same dataclass, whose value check_fields reads as
    it checks this one. A field annotated int must be an integer, and any
    other a float-able number (require). Other keywords join the field's
    metadata."""
    return field(default=default, metadata={"range": (low, high, closed), **metadata})


@functools.cache
def _rules(cls) -> tuple:
    """The rule of each ranged field of `cls`, gathered once per class."""
    return tuple(_rule(item) for item in fields(cls) if "range" in item.metadata)


def _rule(item) -> tuple:
    """The field's name, the plain edges of check_fields' one comparison
    (NaN, which no value passes, for a named edge and for an int field), and
    its rule as require takes it, (low, high, closed, integer)."""
    low, high, closed = item.metadata["range"]
    integer = item.type in (int, "int")
    plain = (math.nan if integer or isinstance(edge, str) else edge for edge in (low, high))
    return (item.name, *plain, (low, high, closed, integer))


def check_fields(owner) -> None:
    """Raise ValueError unless every ranged field of the dataclass `owner`
    keeps its rule, checked in field order, naming the first that does not
    as Owner.field. A float strictly inside plain edges is kept by one
    comparison; every other value goes to require, with a named edge read
    as the owner's value of that field."""
    for name, low, high, rule in _rules(type(owner)):
        value = getattr(owner, name)
        # one type test and one chained comparison: this runs for every
        # field of every design and chain element build_chain builds, as
        # the design_sweep benchmark does for each structure it draws
        if type(value) is not float or not low < value < high:
            low, high, closed, integer = rule
            low, high = (vars(owner).get(edge, edge) for edge in (low, high))
            require(f"{type(owner).__name__}.{name}", value, low, high, closed, integer)


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency grid: f_min, f_min + step, ... up to f_max (Hz);
    f_min == f_max is the one-point grid."""

    f_min: float = ranged(*FREQUENCY_RANGE)
    f_max: float = ranged("f_min", FREQUENCY_RANGE[1], closed=True)
    step: float = ranged(*FREQUENCY_RANGE)

    def __post_init__(self):
        check_fields(self)
        span = self.f_max - self.f_min
        require("FrequencyGrid.step", self.step, span / MAX_GRID_POINTS, FREQUENCY_RANGE[1])

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

    f_low: float = ranged(0.0)
    f_high: float = ranged(0.0)
    mean_alpha: float = ranged(0.0, 1.0, closed="high")

    __post_init__ = check_fields

    @property
    def width(self) -> float:
        return self.f_high - self.f_low

    @property
    def octaves(self) -> float:
        """Number of octaves spanned, log2(f_high / f_low); 0.0 for a band
        that does not widen."""
        return math.log2(self.f_high / self.f_low) if self.f_high > self.f_low else 0.0


# the False on either side of a run mask, so every run has two edges
_EDGE = np.zeros(1, bool)


def _runs(alphas: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Start and inclusive end indices of the maximal runs with alpha >=
    threshold, in ascending order."""
    require("threshold", threshold, 0, 1)
    padded = np.concatenate((_EDGE, alphas >= threshold, _EDGE))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[::2], edges[1::2] - 1


def band_edges(grid: FrequencyGrid, alphas: np.ndarray, start: int, end: int, threshold: float):
    """The edges (Hz), f_low and f_high, of the band of the run of alpha >=
    threshold from `start` to `end`."""
    frequency, last = grid.frequency, grid.size - 1

    def crossing(i: int, j: int):
        """Where the line from point i to point j reaches the threshold."""
        f_i = frequency(i)
        return f_i + (threshold - alphas[i]) / (alphas[j] - alphas[i]) * (frequency(j) - f_i)

    f_low = crossing(start - 1, start) if start > 0 else frequency(0)
    f_high = crossing(end, end + 1) if end < last else frequency(last)
    return float(f_low), float(f_high)


def _interpolated_band(
    grid: FrequencyGrid, alphas: np.ndarray, start: int, end: int, threshold: float
) -> EffectiveBand:
    f_low, f_high = band_edges(grid, alphas, start, end, threshold)
    return EffectiveBand(f_low, f_high, float(np.mean(alphas[start : end + 1])))


def effective_bands(
    spectrum: AbsorptionSpectrum, threshold: float = 0.8
) -> list[EffectiveBand]:
    """All alpha >= threshold bands in ascending frequency order."""
    starts, ends = _runs(spectrum.alphas, threshold)
    return [
        _interpolated_band(spectrum.grid, spectrum.alphas, int(start), int(end), threshold)
        for start, end in zip(starts, ends)
    ]


def longest_run(alphas: np.ndarray, threshold: float) -> tuple[int, int] | None:
    """Start and inclusive end index of the longest run with alpha >=
    threshold, the first of equals; None if no point qualifies."""
    starts, ends = _runs(alphas, threshold)
    if starts.size == 0:
        return None
    longest = np.argmax(ends - starts)  # the first of equals
    return int(starts[longest]), int(ends[longest])


def effective_band(
    spectrum: AbsorptionSpectrum, threshold: float = 0.8
) -> EffectiveBand | None:
    """The longest alpha >= threshold band, or None if no grid point
    qualifies. Length counts grid points; ties go to the lower frequency."""
    run = longest_run(spectrum.alphas, threshold)
    return run and _interpolated_band(spectrum.grid, spectrum.alphas, *run, threshold)
