"""Config serialization: mm-unit JSON files that round-trip bit-exactly."""

import dataclasses
import json
import math
import re
import typing

import pytest

from mppabsorber import (
    AIR,
    AnnealingSchedule,
    BASELINE_DESIGN,
    DEFAULT_GRID,
    DEFAULT_MPPS,
    OPTIMIZED_DESIGN,
    ConfigError,
    DesignVector,
    MppSpec,
    RunConfig,
    SingleChamberStructure,
    ThreeChamberStructure,
    dump_config,
    load_config,
)


def test_three_chamber_round_trip_is_bit_exact(tmp_path):
    # awkward decimals exercise repr round-tripping through JSON
    design = DesignVector(
        d_m=5.6, d_2=41.0, d_4=57.0, d_6=97.8,
        l_1=69.6, l_1p=10.4, l_2=8.9, l_3=4.0, l_3p=9.3,
        l_4=18.0, l_5=21.2, l_6=36.9,
    )
    config = RunConfig(
        structure=ThreeChamberStructure(design=design, mpps=DEFAULT_MPPS),
        schedule=AnnealingSchedule(seed=9, step_fraction=0.07),
    )
    path = tmp_path / "round.json"
    dump_config(config, path)
    loaded = load_config(path)
    assert loaded.structure.design == design
    assert loaded.structure.mpps == DEFAULT_MPPS
    assert loaded.schedule == config.schedule
    assert loaded.medium == config.medium
    assert loaded.grid == config.grid


def test_dump_is_stable(tmp_path):
    config = RunConfig(
        structure=ThreeChamberStructure(design=BASELINE_DESIGN, mpps=DEFAULT_MPPS)
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump_config(config, a)
    dump_config(config, b)
    assert a.read_bytes() == b.read_bytes()


def test_single_chamber_round_trip(tmp_path):
    config = RunConfig(
        structure=SingleChamberStructure(
            d_m=10.0, l_m=100.0, d_e=60.0, t_e=10.0,
            mpp=MppSpec(thickness=0.6, aperture=0.2, porosity=0.025),
        )
    )
    path = tmp_path / "single.json"
    dump_config(config, path)
    assert load_config(path).structure == config.structure


def test_units_stay_in_millimetres_on_disk(tmp_path):
    config = RunConfig(
        structure=ThreeChamberStructure(design=BASELINE_DESIGN, mpps=DEFAULT_MPPS)
    )
    path = tmp_path / "units.json"
    dump_config(config, path)
    raw = json.loads(path.read_text())
    assert raw["structure"]["design"]["l_1"] == 98.0
    assert raw["structure"]["mpps"][0]["thickness"] == 0.6


def test_partial_medium_override(tmp_path):
    path = tmp_path / "medium.json"
    path.write_text(
        json.dumps(
            {
                "structure": {
                    "type": "single_chamber",
                    "d_m": 10.0, "l_m": 100.0, "d_e": 60.0, "t_e": 10.0,
                    "mpp": {"thickness": 0.6, "aperture": 0.2, "porosity": 0.025},
                },
                "medium": {"density": 1.3},
            }
        )
    )
    config = load_config(path)
    assert config.medium.density == 1.3
    assert config.medium.sound_speed == 343.0  # default preserved


# One field of each section with its rule, and values that are not finite
# floats, as a refusal shows them.
SECTION_FIELDS = {
    "structure.design": (
        "d_m", lambda c: c["structure"]["design"], "DesignVector.d_m must lie in (0.001, 1e+06)",
    ),
    "structure.mpps[1]": (
        "aperture", lambda c: c["structure"]["mpps"][1],
        "MppSpec.aperture must lie in (0.001, 1e+06)",
    ),
    "medium": (
        "density", lambda c: c.setdefault("medium", {}),
        "Medium.density must lie in (0.001, 100000)",
    ),
    "grid": ("step", lambda c: c["grid"], "FrequencyGrid.step must lie in (0, 1e+11)"),
    "schedule": (
        "initial_temperature", lambda c: c["schedule"],
        "AnnealingSchedule.initial_temperature must lie in (0, inf)",
    ),
}
NOT_FINITE_NUMBERS = {
    "nan": (math.nan, "nan"), "inf": (math.inf, "inf"), "huge": (10**400, str(10**400)),
    "true": (True, "True"), "string": ("x", "'x'"),
}


def _setting(section, value):
    field, locate, _ = SECTION_FIELDS[section]
    return lambda config: locate(config).__setitem__(field, value)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda c: c["structure"].pop("design"), "design"),
        (lambda c: c["structure"]["design"].pop("d_m"), "d_m"),
        (lambda c: c["structure"]["design"].__setitem__("d_m", "ten"), "d_m"),
        (lambda c: c["structure"]["mpps"].pop(), "mpps"),
        (lambda c: c["structure"].__setitem__("type", "maze"), "type"),
        (lambda c: c["schedule"].__setitem__("cooling_reading", "warmup"), "cooling_reading"),
        (lambda c: c["grid"].__setitem__("step", -1.0), "grid"),
        (lambda c: c.__setitem__("extras", {}), "extras"),
        # the medium takes no temperature: it entered no formula, and a
        # config that set one was answered for air at 343 m/s
        pytest.param(
            lambda c: c.setdefault("medium", {}).__setitem__("temperature", 40.0),
            re.escape("medium.temperature: unknown field"),
            id="medium-temperature",
        ),
        # panel dimensions are reported in the file's millimetres, not in SI
        pytest.param(
            lambda c: c["structure"]["mpps"][0].__setitem__("thickness", -0.6),
            re.escape("structure.mpps[0]: MppSpec.thickness must lie in (0.001, 1e+06), got -0.6"),
            id="negative-thickness-mm",
        ),
        pytest.param(
            lambda c: c["structure"]["mpps"][2].__setitem__("aperture", 0),
            re.escape("structure.mpps[2]: MppSpec.aperture must lie in (0.001, 1e+06), got 0.0"),
            id="zero-aperture-mm",
        ),
        pytest.param(
            lambda c: c["structure"]["mpps"][1].__setitem__("porosity", 1.5),
            re.escape("structure.mpps[1]: MppSpec.porosity must lie in (0, 1), got 1.5"),
            id="porosity-above-one",
        ),
        pytest.param(
            lambda c: c.__setitem__("grid", [1, 2000, 1]),
            re.escape("grid: expected an object"),
            id="section-not-an-object",
        ),
        # an int field's kind is checked by its dataclass, as its range is
        *(
            pytest.param(
                lambda c, value=value: c["schedule"].__setitem__("seed", value),
                re.escape(f"schedule: AnnealingSchedule.seed must be an integer, got {value!r}"),
                id=f"{label}-seed",
            )
            for label, value in (("float", 2.5), ("string", "3"))
        ),
        # decoding judges no number: the field's own rule refuses it, in
        # the library's one wording
        *(
            pytest.param(
                _setting(section, value),
                f"^{re.escape(f'{section}: {SECTION_FIELDS[section][2]}, got {shown}')}$",
                id=f"{label}-{section}",
            )
            for section in SECTION_FIELDS
            for label, (value, shown) in NOT_FINITE_NUMBERS.items()
        ),
    ],
)
def test_malformed_configs_name_the_field(tmp_path, mutate, fragment):
    config = {
        "structure": {
            "type": "three_chamber",
            "design": BASELINE_DESIGN.as_dict(),
            "mpps": [
                {"thickness": 0.6, "aperture": 0.2, "porosity": 0.025},
                {"thickness": 0.6, "aperture": 0.2, "porosity": 0.025},
                {"thickness": 0.8, "aperture": 0.4, "porosity": 0.025},
            ],
        },
        "grid": {"f_min": 1.0, "f_max": 2000.0, "step": 1.0},
        "schedule": {"seed": 1},
    }
    mutate(config)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ConfigError, match=fragment):
        load_config(path)


def test_every_number_of_a_config_is_judged_by_its_declared_rule():
    # decoding judges no number, so each float and int field of the
    # dataclasses a config is made of declares its rule. No float rule takes
    # an infinity, and NaN fails every comparison; an edge that names a field
    # names an earlier one, itself judged so.
    classes, parts = set(), [RunConfig]
    while parts:
        cls = parts.pop()
        classes.add(cls)
        for hint in typing.get_type_hints(cls).values():
            parts += [
                part for part in typing.get_args(hint) or (hint,)
                if dataclasses.is_dataclass(part) and part not in classes
            ]
    counts = {float: 0, int: 0}
    for cls in classes:
        hints, items = typing.get_type_hints(cls), dataclasses.fields(cls)
        for index, item in enumerate(items):
            kind = hints[item.name]
            if kind not in counts:
                continue
            counts[kind] += 1
            assert "range" in item.metadata, f"{cls.__name__}.{item.name}"
            low, high, closed = item.metadata["range"]
            for edge, taken in ((low, closed is True), (high, closed == "high")):
                if isinstance(edge, str):
                    assert edge in [earlier.name for earlier in items[:index]]
                else:
                    assert not math.isnan(edge), f"{cls.__name__}.{item.name}"
                    assert math.isfinite(edge) or not taken, f"{cls.__name__}.{item.name}"
    assert counts == {float: 29, int: 2}


@pytest.mark.parametrize(
    "name", ["single_chamber", "three_chamber_baseline", "three_chamber_optimized"]
)
def test_dump_of_load_is_a_fixed_point(tmp_path, config_dir, name):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    dump_config(load_config(config_dir / f"{name}.json"), first)
    dump_config(load_config(first), second)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize(
    "name, structure",
    [
        ("three_chamber_baseline", ThreeChamberStructure(BASELINE_DESIGN, DEFAULT_MPPS)),
        ("three_chamber_optimized", ThreeChamberStructure(OPTIMIZED_DESIGN, DEFAULT_MPPS)),
        ("single_chamber", SingleChamberStructure(10.0, 100.0, 60.0, 10.0, MppSpec(0.6, 0.2, 0.025))),
    ],
)
def test_bundled_configs_are_the_reference_structures(config_dir, name, structure):
    # the files the CLI and the benchmark read hold the acceptance gate's
    # structures, in air on the default grid
    config = load_config(config_dir / f"{name}.json")
    assert config.structure == structure
    assert config.medium == AIR
    assert config.grid == DEFAULT_GRID
