"""The library's fuzz contract: every entry point that takes a number
answers it, or refuses it with a ValueError in the one wording, naming the
value's label. Any other exception, or a warning, fails."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mppabsorber import (
    BASELINE_DESIGN,
    AbsorptionSpectrum,
    AnnealingSchedule,
    AreaChange,
    DesignVector,
    ElementChain,
    FrequencyGrid,
    Medium,
    MppPanel,
    MppSpec,
    SingleChamberStructure,
    StraightPipe,
    absorption_at,
    accept,
    chain_matrix,
    effective_band,
    effective_bands,
    octave_bands,
    perforate_constant,
)

MPP = MppSpec(0.6, 0.2, 0.025)
CHAIN = SingleChamberStructure(10.0, 100.0, 60.0, 10.0, MPP).chain()
SPECTRUM = AbsorptionSpectrum(FrequencyGrid(1.0, 5.0, 1.0), np.array([0.1, 0.9, 0.95, 0.5, 0.85]))
FREQUENCY = (0.0, 1e11)

# Valid arguments of each dataclass with ranged fields, beside its defaults.
BASES = {
    Medium: {},
    MppPanel: {"thickness": 6e-4, "aperture": 2e-4, "porosity": 0.025, "duct_diameter": 0.01},
    StraightPipe: {"length": 0.1, "diameter": 0.01},
    ElementChain: {"elements": (AreaChange(),), "main_duct_diameter": 0.01},
    FrequencyGrid: {"f_min": 1.0, "f_max": 2000.0, "step": 1.0},
    DesignVector: BASELINE_DESIGN.as_dict(),
    MppSpec: {"thickness": 0.6, "aperture": 0.2, "porosity": 0.025},
    SingleChamberStructure: {"d_m": 10.0, "l_m": 100.0, "d_e": 60.0, "t_e": 10.0, "mpp": MPP},
    AnnealingSchedule: {},
}
# Refusals of rules that judge more than one value: the schedule's two caps
# and a single chamber's hole, which a changed field may break.
OTHER_RULES = {
    AnnealingSchedule: r"|cooling_rate .+ levels from .+|iterations_per_temperature .+ evaluations",
    SingleChamberStructure: r"|mpp\.aperture must be less than d_m, got .+ mm",
}


@dataclasses.dataclass(frozen=True)
class Target:
    """One number of one entry point: `call` passes it a value, `valid` is
    one it takes, `low` and `high` are its declared edges, and a refusal
    fully matches `refusal`."""

    name: str
    call: object
    valid: object
    low: float
    high: float
    refusal: str


def wording(labels: str, other: str = "") -> str:
    interval = r"lie in [\[(].+, .+[\])]|be an integer"
    return rf"(?:{labels}) must (?:{interval}), got .+{other}"


def field_targets():
    """One target per ranged field, the rest of the owner from BASES; an
    edge that names a field is that field's base value."""
    for cls, base in BASES.items():
        values = {item.name: base.get(item.name, item.default) for item in dataclasses.fields(cls)}
        refusal = wording(rf"{cls.__name__}\.\w+", OTHER_RULES.get(cls, ""))
        for item in dataclasses.fields(cls):
            if "range" in item.metadata:
                low, high, _ = item.metadata["range"]
                low, high = values.get(low, low), values.get(high, high)

                def call(value, cls=cls, base=base, name=item.name):
                    return cls(**{**base, name: value})

                name = f"{cls.__name__}.{item.name}"
                yield Target(name, call, values[item.name], low, high, refusal)


TARGETS = [
    *field_targets(),
    Target("effective_band", lambda v: effective_band(SPECTRUM, v), 0.8, 0, 1,
           wording("threshold")),
    Target("effective_bands", lambda v: effective_bands(SPECTRUM, v), 0.8, 0, 1,
           wording("threshold")),
    Target("accept", lambda v: accept(-1.0, v, np.random.default_rng(0)), 37.0, 0, math.inf,
           wording("temperature")),
    Target("octave_bands.f_low", lambda v: octave_bands(v, 2000.0), 1.0, 0, math.inf,
           wording("f_low|f_high")),
    Target("octave_bands.f_high", lambda v: octave_bands(1.0, v), 2000.0, 1.0, math.inf,
           wording("f_high")),
    Target("perforate_constant.frequency", lambda v: perforate_constant(v, 2e-4), 500.0,
           *FREQUENCY, wording("frequency")),
    Target("perforate_constant.aperture", lambda v: perforate_constant(500.0, v), 2e-4, 0,
           math.inf, wording("aperture")),
    # an array of more than zero dimensions passes the frequency check and
    # is refused by the one-point grid
    Target("absorption_at", lambda v: absorption_at(CHAIN, v), 500.0, *FREQUENCY,
           wording(r"frequency|FrequencyGrid\.f_min")),
    Target("chain_matrix", lambda v: chain_matrix(CHAIN, v), 500.0, *FREQUENCY,
           wording("frequency")),
]

# Numbers no entry point takes, and values that are no number at all.
SPECIALS = [math.nan, math.inf, -math.inf, 10**400, 10**5000, True, "1", None, 1 + 0j]


def listed(target: Target) -> list:
    """The target's declared edges and one ulp inside each, the specials,
    and its valid value as a 0-d, a one- and a two-element array."""
    low, high, valid = target.low, target.high, target.valid
    edges = [low, high, math.nextafter(low, high), math.nextafter(high, low)]
    return edges + SPECIALS + [np.array(valid), np.array([valid]), np.array([valid, valid])]


def answered_or_refused(target: Target, value) -> None:
    try:
        target.call(value)
    except ValueError as exc:
        assert re.fullmatch(target.refusal, str(exc), re.S), str(exc)


@pytest.mark.parametrize("target", TARGETS, ids=lambda target: target.name)
def test_every_listed_value_is_answered_or_refused_by_name(target):
    for value in listed(target):
        answered_or_refused(target, value)


@settings(max_examples=500)
@given(
    target=st.sampled_from(TARGETS),
    sign=st.sampled_from([1.0, -1.0]),
    exponent=st.floats(-300.0, 300.0),
)
def test_every_log_uniform_number_is_answered_or_refused_by_name(target, sign, exponent):
    answered_or_refused(target, sign * 10.0**exponent)


@pytest.mark.parametrize(
    "call, refusal",
    [
        (lambda: MppPanel(10**400, 2e-4, 0.025, 0.01), "MppPanel.thickness must lie in (0, inf)"),
        (lambda: StraightPipe(10**400, 0.01), "StraightPipe.length must lie in (0, inf)"),
        (
            lambda: ElementChain((AreaChange(),), 10**400),
            "ElementChain.main_duct_diameter must lie in (0, inf)",
        ),
        (
            lambda: AnnealingSchedule(initial_temperature=10**400),
            "AnnealingSchedule.initial_temperature must lie in (0, inf)",
        ),
        (lambda: accept(-1.0, 10**400, np.random.default_rng(0)), "temperature must lie in (0, inf)"),
    ],
    ids=["panel", "pipe", "chain", "schedule", "accept"],
)
def test_int_past_the_largest_double_is_refused(call, refusal):
    # each was answered, or accept raised OverflowError, and every solve or
    # run of the answer raised OverflowError
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == f"{refusal}, got {10**400}"


@pytest.mark.parametrize(
    "call, refusal",
    [
        (lambda v: MppPanel(v, 2e-4, 0.025, 0.01), "MppPanel.thickness must lie in (0, inf)"),
        (lambda v: Medium(density=v), "Medium.density must lie in (0.001, 100000)"),
        (
            lambda v: DesignVector(**{**BASELINE_DESIGN.as_dict(), "d_m": v}),
            "DesignVector.d_m must lie in (0.001, 1e+06)",
        ),
        (lambda v: effective_band(SPECTRUM, v), "threshold must lie in (0, 1)"),
    ],
    ids=["panel", "medium", "design", "threshold"],
)
@pytest.mark.parametrize(
    "value, shown",
    [
        ("0.8", "'0.8'"), (None, "None"), (1 + 0j, "(1+0j)"), (True, "True"),
        (np.array([0.8]), "[0.8]"), (np.array([0.8, 0.9]), "[0.8 0.9]"),
    ],
    ids=["str", "None", "complex", "bool", "one", "two"],
)
def test_what_is_no_number_is_refused_by_name(call, refusal, value, shown):
    # a str, None or complex raised TypeError, a one-element array was
    # answered and a two-element one raised numpy's "truth value of an
    # array is ambiguous"; a bool was taken as 1
    with pytest.raises(ValueError) as excinfo:
        call(value)
    assert str(excinfo.value) == f"{refusal}, got {shown}"


@pytest.mark.parametrize("value, shown", [("500", "'500'"), (True, "True")])
def test_chain_matrix_refuses_a_frequency_that_is_no_number(value, shown):
    # a string ended in numpy's UFuncTypeError, and a bool was taken as 1 Hz
    with pytest.raises(ValueError) as excinfo:
        chain_matrix(CHAIN, value)
    assert str(excinfo.value) == f"frequency must lie in (0, 1e+11), got {shown}"
