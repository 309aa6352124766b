"""The fuzz contract. Every library entry point that takes a number answers
it, or refuses it with a ValueError in the one wording, naming the value's
label. Every CLI command answers a config file, or exits 1 with one error:
line that reads in the same wording, that refuses a cooling reading other
than "decrement" by name, or that names the file or the key at fault. Any
other exception, or a warning, fails."""

import contextlib
import dataclasses
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cli_cases import CASES, CONFIGS, SINGLE
from mppabsorber import (
    BASELINE_DESIGN,
    BOUNDS_MM,
    AbsorptionSpectrum,
    AnnealingSchedule,
    AreaChange,
    DesignVector,
    EffectiveBand,
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
    perforate_constant,
)
from mppabsorber.cli import main

MPP = MppSpec(0.6, 0.2, 0.025)
CHAIN = SingleChamberStructure(10.0, 100.0, 60.0, 10.0, MPP).chain()
SPECTRUM = AbsorptionSpectrum(FrequencyGrid(1.0, 5.0, 1.0), np.array([0.1, 0.9, 0.95, 0.5, 0.85]))
FREQUENCY = (0.0, 1e11)
# The label of a field of the dataclass named {}: the field, or a path into
# one of its parts.
OWNER = r"{}\.[\w.\[\]]+"

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
    EffectiveBand: {"f_low": 27.0, "f_high": 1304.0, "mean_alpha": 0.9},
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


def wording(labels: str) -> str:
    interval = r"lie in [\[(].+, .+[\])]|be an integer"
    return rf"(?:{labels}) must (?:{interval}), got .+"


def reads_outside(refusal: str) -> bool:
    """Whether the number after `got`, read back from the text, lies outside
    the interval printed before it, as read back too. A refusal of no
    number, or of no interval, reads outside."""
    match = re.search(r"must lie in ([\[(])(\S+), (\S+)([\])]), got (.+)", refusal)
    if match is None:
        return True
    opening, low, high, closing, value = match.groups()
    try:
        low, high, value = float(low), float(high), float(value)
    except ValueError:  # a string, None, a complex, an array
        return True
    above = low <= value if opening == "[" else low < value
    return not (above and (value <= high if closing == "]" else value < high))


def field_targets():
    """One target per ranged field, the rest of the owner from BASES; an
    edge that names a field is that field's base value. A refusal may name
    any field of the owner, or a field of one of its parts, such as
    `SingleChamberStructure.mpp.aperture`: a changed field may break a rule
    that judges more than one value."""
    for cls, base in BASES.items():
        values = {item.name: base.get(item.name, item.default) for item in dataclasses.fields(cls)}
        refusal = wording(OWNER.format(cls.__name__))
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

# Numbers no entry point takes, and values that are no number at all, a
# ragged nested list among them.
SPECIALS = [
    math.nan, math.inf, -math.inf, 10**400, 10**5000, True, "1", None, 1 + 0j,
    [500.0, [600.0, 700.0]],
]


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
        assert reads_outside(str(exc)), str(exc)


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
        (lambda: MppPanel(10**400, 2e-4, 0.025, 0.01), "MppPanel.thickness must lie in (0, 1000]"),
        (lambda: StraightPipe(10**400, 0.01), "StraightPipe.length must lie in (0, 1000]"),
        (
            lambda: ElementChain((AreaChange(),), 10**400),
            "ElementChain.main_duct_diameter must lie in (0, 1000]",
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
        (lambda v: MppPanel(v, 2e-4, 0.025, 0.01), "MppPanel.thickness must lie in (0, 1000]"),
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


# The CLI half: a config file, drawn whole, through simulate, compare and
# optimize.

# A number for a field whose value changes the physics but not the work:
# an interval's usual edges, or log-uniform over 1e-6 to 1e9, either sign.
ANY_NUMBER = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-3, 1e6, 1e11, 2.5]),
    st.builds(lambda sign, exponent: sign * 10.0**exponent,
              st.sampled_from([1.0, -1.0]), st.floats(-6.0, 9.0)),
)
# A value for such a field that is no finite number; null, which a config
# reads as absent, is left out.
NO_NUMBER = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, True, "1", [1.0], {}])


@st.composite
def config_files(draw):
    """The JSON data of a run configuration: a three- or single-chamber
    structure, its medium, a grid of fewer than 20,000 points and a schedule
    of at most 20 levels of at most 5 iterations, one on a grid of more than
    5,000 points, every field inside its rule; then, in half the draws, one
    field replaced by a value that may break a rule, a length or a medium
    field by one that may be no number. A replacement in the grid or the
    schedule is refused, or leaves the work as small."""
    def uniform(low, high):
        return draw(st.floats(low, high))

    panels = [
        {"thickness": uniform(0.2, 2.0), "aperture": uniform(0.05, 1.0),
         "porosity": uniform(0.005, 0.5)}
        for _ in range(3)
    ]
    if draw(st.booleans()):
        design = {name: uniform(low / 2, high * 1.5) for name, (low, high) in BOUNDS_MM.items()}
        structure = {"type": "three_chamber", "design": design, "mpps": panels}
        lengths = [(design, name) for name in design]
    else:
        structure = {"type": "single_chamber", "d_m": uniform(5.0, 15.0),
                     "l_m": uniform(10.0, 200.0), "d_e": uniform(30.0, 100.0),
                     "t_e": uniform(5.0, 50.0), "mpp": panels[0]}
        panels = panels[:1]
        lengths = [(structure, name) for name in ("d_m", "l_m", "d_e", "t_e")]
    lengths += [(panel, name) for panel in panels for name in ("thickness", "aperture")]
    medium = {"sound_speed": uniform(300.0, 400.0), "density": uniform(1.0, 1.5),
              "dynamic_viscosity": uniform(1e-5, 2e-5)}
    points = int(10.0 ** uniform(0.0, math.log10(20_000)))
    f_min, step = 10.0 ** uniform(-3.0, 4.0), 10.0 ** uniform(-2.0, 3.0)
    grid = {"f_min": f_min, "f_max": f_min + (points - 1) * step, "step": step}
    initial = 10.0 ** uniform(-300.0, 300.0)
    # at most 20 levels: a factor of at most 1/2 over a span of at most 10**6
    termination = draw(st.sampled_from([initial, initial * 10.0 ** uniform(-6.0, 0.0)]))
    schedule = {
        "initial_temperature": initial,
        "termination_temperature": termination,
        "cooling_rate": uniform(0.5, 0.99),
        "iterations_per_temperature": draw(st.integers(1, max(1, min(5, 5_000 // points)))),
        "step_fraction": uniform(0.0, 0.99),
        "seed": draw(st.integers(0, 2**32)),
    }
    values = st.one_of(ANY_NUMBER, NO_NUMBER)
    replacements = [(owner, name, values) for owner, name in lengths]
    porosities = st.sampled_from([0.0, 1.0, -0.1, 1.5])
    replacements += [(panel, "porosity", porosities) for panel in panels]
    replacements += [(medium, name, values) for name in medium]
    replacements += [
        (grid, "f_min", st.sampled_from([0.0, -1.0, 1e11, 1e300, 2.0 * grid["f_max"] + 1.0])),
        (grid, "f_max", st.sampled_from([0.0, -1.0, 1e11, 1e300, f_min / 2.0])),
        (grid, "step", st.sampled_from([0.0, -1.0, 1e11, 1e-12, (grid["f_max"] - f_min) / 1e8])),
        (schedule, "initial_temperature", st.sampled_from([0.0, -5.0])),
        (schedule, "termination_temperature", st.sampled_from([0.0, -1.0, 2.0 * initial])),
        (schedule, "cooling_rate", st.sampled_from([0.0, 1.0, -0.5, 1.5, 1e-17])),
        (schedule, "iterations_per_temperature", st.sampled_from([0, -1, 2.5, 10**12])),
        (schedule, "step_fraction", st.sampled_from([1.0, -0.1, 1e308])),
        (schedule, "seed", st.sampled_from([-1, 2.5])),
    ]
    if draw(st.booleans()):
        owner, name, values = draw(st.sampled_from(replacements))
        owner[name] = draw(values)
    return {"structure": structure, "medium": medium, "grid": grid, "schedule": schedule}


# A refusal the CLI prints: `A: ` or `B: ` in compare, then the config
# section at fault, and for optimize the narrowest duct its search reaches,
# before the one wording, naming a field of that section's dataclass.
SECTIONS = {
    r"structure: (?:the search reaches d_m = \S+ mm: )?": "(?:Three|Single)ChamberStructure",
    r"structure\.design: ": "DesignVector",
    r"structure\.(?:mpps\[[0-2]\]|mpp): ": "MppSpec",
    "medium: ": "Medium",
    "grid: ": "FrequencyGrid",
    "schedule: ": "AnnealingSchedule",
}
# The one refusal of no number: a cooling reading other than "decrement".
READING = r"schedule: AnnealingSchedule\.cooling_reading must be 'decrement', got .+"
# A file the JSON parser refuses, or whose top level is no object, named;
# and a key missing or unknown, by its path in the config.
UNREADABLE = r"\S+\.json: (?:invalid JSON(?: at line \d+)?: .+|top level must be an object)"
KEYS = r"[\w.\[\]]+: (?:missing required field|unknown field)"
CLI_REFUSAL = "error: (?:[AB]: )?(?:{})".format("|".join(
    [*(section + wording(OWNER.format(owner)) for section, owner in SECTIONS.items()), READING,
     UNREADABLE, KEYS]
))
# compare's notice on the first config, which a refusal of the second follows
CUT_ON = (
    r"warning: f_max \S+ Hz is above the first cross-mode cut-on of the widest duct,"
    r" \d+ Hz; the plane-wave model does not hold there"
)


def answered_or_refused_by_the_cli(*argv) -> bool:
    """Run the CLI in process: True when it answers, with no error: line;
    otherwise it must exit 1 with one error: line, last, in the one wording."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([str(arg) for arg in argv])
    lines = stderr.getvalue().splitlines()
    errors = [line for line in lines if not re.fullmatch(CUT_ON, line)]
    if code == 0:
        assert errors == []
        return True
    assert code == 1 and errors == lines[-1:], lines
    assert re.fullmatch(CLI_REFUSAL, errors[0]), errors[0]
    assert reads_outside(errors[0]), errors[0]
    return False


def case_examples(test):
    """`test` with an example of each distinct config in cli_cases.CASES, the
    config first in compare in every other one."""
    configs = {json.dumps(config): config for case in CASES.values()
               if (config := case.config()) is not None}
    for index, config in enumerate(configs.values()):
        test = example(config=config, first=index % 2 == 0)(test)
    return test


@settings(max_examples=60)
@given(config=config_files(), first=st.booleans())
@case_examples
def test_every_drawn_config_is_answered_or_refused_by_name(config, first):
    # the one wording reaches the console: a numeric refusal reads the same
    # after its `A: `/`B: `, section and search-reach prefixes; a config
    # given as text is written as it is
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        path = folder / "drawn.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
        out = folder / "spectrum.csv"
        if answered_or_refused_by_the_cli("simulate", "--config", path, "--out", out):
            alphas = np.loadtxt(out, delimiter=",", skiprows=1, usecols=1, ndmin=1)
            assert np.all((alphas >= 0.0) & (alphas <= 1.0)), alphas
        single = CONFIGS / SINGLE
        answered_or_refused_by_the_cli("compare", *((path, single) if first else (single, path)))
        if isinstance(config, str) or config["structure"]["type"] == "three_chamber":
            answered_or_refused_by_the_cli("optimize", "--config", path, "--out", folder / "run")


def test_a_hole_refusal_reads_outside_its_interval():
    # a hole a few ulps narrower than its duct can round onto it in metres,
    # and its refusal printed the duct as the edge; each must print an edge
    # at or below the aperture. Ducts uniform over 0.01-20 mm, seeded.
    ducts = [7.984536172925714, *np.random.default_rng(1).uniform(0.01, 20.0, 2000).tolist()]
    for duct in ducts:
        aperture = duct
        for _ in range(4):
            try:
                SingleChamberStructure(duct, 100.0, 60.0, 10.0, MppSpec(0.6, aperture, 0.025))
            except ValueError as exc:
                assert reads_outside(str(exc)), str(exc)
            aperture = math.nextafter(aperture, 0.0)
