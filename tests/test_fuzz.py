"""The fuzz contract, both ways, for every library entry point that takes
a number. A value outside the interval its rule declares, or one that is no
number, is refused with a ValueError that reads exactly `{label} must lie
in {interval}, got {value}`, or, for an int field, `{label} must be an
integer, got {value!r}`; absorption_at refuses a list or an array of valid
frequencies as FrequencyGrid.f_min. A number inside is answered, and a
field holds it. Eight rules judge a number with the owner's other values,
and only they may refuse one inside, naming their own label in the one
wording with a value outside the interval they print: a panel's hole
narrower than its duct (MppPanel.aperture); f_min <= f_max (f_min) and at
most 10**7 steps (f_max, step) of a FrequencyGrid; a single chamber's hole
narrower than d_m; and a schedule's termination at most its initial
temperature, and its caps on evaluations and on levels
(AnnealingSchedule's initial_temperature, iterations_per_temperature and
cooling_rate). Every CLI command answers a config file, or exits 1 with one
error: line that reads in the same wording, that refuses a cooling reading
other than "decrement" by name, or that names the file or the key at fault.
Any other exception, or a warning, fails."""

import contextlib
import dataclasses
import io
import json
import math
import numbers
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
    mpp_normalized_impedance,
    perforate_constant,
)
from mppabsorber.cli import main

MPP = MppSpec(0.6, 0.2, 0.025)
CHAIN = SingleChamberStructure(10.0, 100.0, 60.0, 10.0, MPP).chain()
# no panel: the entry point's own check is the only one a frequency meets
PIPE = ElementChain((StraightPipe(0.1, 0.05),), 0.05)
PANEL = MppPanel(6e-4, 2e-4, 0.025, 0.01)
SPECTRUM = AbsorptionSpectrum(FrequencyGrid(1.0, 5.0, 1.0), np.array([0.1, 0.9, 0.95, 0.5, 0.85]))
FREQUENCY = (0.0, 1e11)
# The label of a field of the dataclass named {}: the field, or a path into
# one of its parts.
OWNER = r"{}\.[\w.\[\]]+"

# Valid arguments of each dataclass with ranged fields, beside its defaults;
# a second base of a class names its values in its targets.
BASES = [
    (Medium, {}),
    (MppPanel, {"thickness": 6e-4, "aperture": 2e-4, "porosity": 0.025, "duct_diameter": 0.01}),
    (StraightPipe, {"length": 0.1, "diameter": 0.01}),
    (ElementChain, {"elements": (AreaChange(),), "main_duct_diameter": 0.01}),
    (FrequencyGrid, {"f_min": 1.0, "f_max": 2000.0, "step": 1.0}),
    (FrequencyGrid, {"f_min": 5.0, "f_max": 5.0, "step": 1.0}),  # f_max's edge is f_min
    (DesignVector, BASELINE_DESIGN.as_dict()),
    (MppSpec, {"thickness": 0.6, "aperture": 0.2, "porosity": 0.025}),
    (SingleChamberStructure, {"d_m": 10.0, "l_m": 100.0, "d_e": 60.0, "t_e": 10.0, "mpp": MPP}),
    (AnnealingSchedule, {}),
    (EffectiveBand, {"f_low": 27.0, "f_high": 1304.0, "mean_alpha": 0.9}),
]
# The label of the rule of the owner's other values that may refuse a
# number inside the interval of each field it judges.
DEPENDENT = {
    "MppPanel.aperture": "MppPanel.duct_diameter",
    "FrequencyGrid.f_min": "FrequencyGrid.f_max",
    "FrequencyGrid.f_max": "FrequencyGrid.step",
    "FrequencyGrid.step": "FrequencyGrid.step",
    "SingleChamberStructure.d_m": "SingleChamberStructure.mpp.aperture",
    "AnnealingSchedule.initial_temperature": "AnnealingSchedule.termination_temperature",
    "AnnealingSchedule.iterations_per_temperature": "AnnealingSchedule.iterations_per_temperature",
    "AnnealingSchedule.cooling_rate": "AnnealingSchedule.cooling_rate",
}


@dataclasses.dataclass(frozen=True)
class Target:
    """One number of one entry point: `call` passes it a value, and `valid`
    is one it takes. It answers a number from `low` to `high`, with
    `closed` as `ranged` reads it, an integer for an int field, and refuses
    as `label`. An answer holds the value as its `field`; `arrays` is True
    where a list or an array of numbers is taken as each of them, or the
    label that refuses one."""

    name: str
    call: object
    valid: object
    label: str
    low: float
    high: float
    closed: object = False
    integer: bool = False
    field: str | None = None
    arrays: object = False


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
    """One target per ranged field of each base, the rest of the owner from
    the base; an edge that names a field is that field's base value."""
    seen = set()
    for cls, base in BASES:
        values = {item.name: base.get(item.name, item.default) for item in dataclasses.fields(cls)}
        owner = f"{cls.__name__}{tuple(base.values())}" if cls in seen else cls.__name__
        seen.add(cls)
        for item in dataclasses.fields(cls):
            if "range" in item.metadata:
                low, high, closed = item.metadata["range"]
                low, high = values.get(low, low), values.get(high, high)

                def call(value, cls=cls, base=base, name=item.name):
                    return cls(**{**base, name: value})

                yield Target(f"{owner}.{item.name}", call, values[item.name],
                             f"{cls.__name__}.{item.name}", low, high, closed,
                             item.type in (int, "int"), item.name)


TARGETS = [
    *field_targets(),
    Target("effective_band", lambda v: effective_band(SPECTRUM, v), 0.8, "threshold", 0, 1),
    Target("effective_bands", lambda v: effective_bands(SPECTRUM, v), 0.8, "threshold", 0, 1),
    Target("accept", lambda v: accept(-1.0, v, np.random.default_rng(0)), 37.0, "temperature",
           0, math.inf),
    Target("perforate_constant.aperture", lambda v: perforate_constant(500.0, v), 2e-4,
           "aperture", 0, math.inf, closed=True),
    *(Target(name, call, 500.0, "frequency", *FREQUENCY, arrays=True) for name, call in [
        ("perforate_constant.frequency", lambda v: perforate_constant(v, 2e-4)),
        ("mpp_normalized_impedance", lambda v: mpp_normalized_impedance(PANEL, v)),
        ("chain_matrix", lambda v: chain_matrix(CHAIN, v)),
        ("chain_matrix.without_mpp", lambda v: chain_matrix(PIPE, v)),
    ]),
    # the one-point grid takes only a number
    *(Target(name, lambda v, chain=chain: absorption_at(chain, v), 500.0, "frequency", *FREQUENCY,
             arrays="FrequencyGrid.f_min")
      for name, chain in [("absorption_at", CHAIN), ("absorption_at.without_mpp", PIPE)]),
]

# Numbers no entry point takes or few do, values that are no number at all,
# a ragged nested list among them, and arrays and a list of numbers: with
# every value a hand-written refusal test once held.
SPECIALS = [
    math.nan, math.inf, -math.inf, 0.0, 1.0, -1.0, -0.1, -0.5, -2e-4, -3.0, -5.0, -10.0, 1.5, 2.0,
    2.5, 3.0, 200.0, 6e10, 1e-300, 1e160, 1e300, 1e308, 10**400, 10**5000, -(10**5000), True,
    None, 1 + 0j, "1", "0.8", "3", "500", "2e-4", [500.0, [600.0, 700.0]], [5.0],
    *map(np.array, ([0.8], [0.8, 0.9], [5.0], [5.0, 6.0], [500.0, 600.0])),
]


def shown(value) -> str:
    """`value` as a refusal spells it: a string quoted, and an int of more
    than 4300 digits, alone or in a list, named by its type."""
    try:
        return repr(value) if isinstance(value, str) else str(value)
    except ValueError:
        return f"{type(value).__name__} of more than 4300 digits"


def taken(target: Target, value) -> bool:
    """Whether `value` is a number inside the target's interval: an int
    field's an integer, compared exactly; any other's a real number, or a
    0-d array of one, that float() reads without overflow. A bool is no
    number."""
    kind = numbers.Integral if target.integer else numbers.Real
    if isinstance(value, np.ndarray) and value.ndim == 0 and not target.integer:
        value = value[()]
    if isinstance(value, bool) or not isinstance(value, kind):
        return False
    try:
        number = value if target.integer else float(value)
    except OverflowError:
        return False
    above = target.low <= number if target.closed is True else target.low < number
    return above and (number <= target.high if target.closed == "high" else number < target.high)


def refusal(target: Target, value) -> str | None:
    """The exact refusal of `value`, or None for a number the target must
    answer: one inside its interval, or, where it takes arrays, a list or
    an array of such numbers."""
    label = target.label
    sequence = isinstance(value, list) or isinstance(value, np.ndarray) and value.ndim > 0
    if target.arrays and sequence and all(
        taken(target, entry) for entry in np.array(value, dtype=object).flat
    ):
        if target.arrays is True:
            return None
        label = target.arrays
    elif taken(target, value):
        return None
    elif target.integer and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        return f"{label} must be an integer, got {value!r}"
    opening, closing = "[" if target.closed is True else "(", "]" if target.closed == "high" else ")"
    interval = f"{opening}{target.low:g}, {target.high:g}{closing}"
    return f"{label} must lie in {interval}, got {shown(value)}"


def listed(target: Target) -> list:
    """The target's declared edges, the value next to each on either side
    (the next integer for an int field), the specials, its valid value as
    a 0-d, a one- and a two-element array and a one-element list; for a
    target that takes arrays, each of these it refuses amid valid ones."""
    low, high, valid = target.low, target.high, target.valid

    def beside(edge, toward):
        if target.integer and math.isfinite(edge):
            return edge + (1 if toward > edge else -1)
        return math.nextafter(edge, toward)

    edges = [low, high, *(beside(edge, toward) for edge in (low, high)
                          for toward in (-math.inf, math.inf))]
    values = edges + SPECIALS + [np.array(valid), np.array([valid]), np.array([valid, valid]),
                                 [valid]]
    if target.arrays:
        refused = [value for value in edges + SPECIALS if refusal(target, value)]
        values += [[valid, value, valid] for value in refused]
        values += [np.array([valid, value, valid]) for value in refused if isinstance(value, float)]
    return values


def judged(target: Target, value) -> None:
    """Refused in exactly the text `refusal` gives, or answered, a field
    holding the value; a target with a rule in DEPENDENT may refuse a
    number inside as that rule, reading outside the interval it prints."""
    expected = refusal(target, value)
    try:
        answer = target.call(value)
    except ValueError as exc:
        if expected is None and target.label in DEPENDENT:
            assert re.fullmatch(wording(re.escape(DEPENDENT[target.label])), str(exc), re.S), exc
            assert reads_outside(str(exc)), exc
        else:
            assert str(exc) == expected, (shown(value), str(exc))
        return
    assert expected is None, f"answered {shown(value)}, which must be refused: {expected}"
    if target.field:
        assert getattr(answer, target.field) is value


@pytest.mark.parametrize("target", TARGETS, ids=lambda target: target.name)
def test_every_listed_value_is_answered_or_refused_by_name(target):
    for value in listed(target):
        judged(target, value)


@settings(max_examples=500)
@given(
    target=st.sampled_from(TARGETS),
    sign=st.sampled_from([1.0, -1.0]),
    exponent=st.floats(-300.0, 300.0),
)
def test_every_log_uniform_number_is_answered_or_refused_by_name(target, sign, exponent):
    judged(target, sign * 10.0**exponent)


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
