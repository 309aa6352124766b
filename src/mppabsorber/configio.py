"""JSON run configuration: the decoding and encoding of a RunConfig.

Each section is the JSON object of a dataclass, keyed by its fields in
field order: `structure` is a ThreeChamberStructure (`design` a
DesignVector, `mpps` a list of exactly three MppSpec panels) or, with
`"type": "single_chamber"`, a SingleChamberStructure, both from
`structure`; `medium` is a Medium, `grid` a FrequencyGrid and `schedule` an
AnnealingSchedule. A field with no default is required, a missing or null
optional field takes its default, and an unknown key is an error. Decoding
judges no number: a JSON integer within the double range becomes a float
in a float field, and every other value reaches its dataclass as parsed.
The dataclass is the one judge, refusing in the library's one wording: the
interval each field declares (`spectrum.ranged`), which takes no NaN,
infinity, boolean, string or list, for an int field that it is an
integer, and for a structure that each hole is narrower than its duct.

Files carry lengths in millimetres (matching the engineering tables);
conversion to SI happens when chains are built. Emitted files re-parse to
identical values, so an optimization result can be fed straight back into
the simulate command.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from .acoustics import AIR, Medium
from .annealing import AnnealingSchedule
from .spectrum import DEFAULT_GRID, FrequencyGrid
from .structure import MppSet, MppSpec, SingleChamberStructure, ThreeChamberStructure

__all__ = [
    "ConfigError",
    "RunConfig",
    "dump_config",
    "load_config",
]


class ConfigError(ValueError):
    """Malformed run configuration; the message names the offending field."""


@dataclass(frozen=True)
class RunConfig:
    structure: ThreeChamberStructure | SingleChamberStructure
    medium: Medium = AIR
    grid: FrequencyGrid = DEFAULT_GRID
    schedule: AnnealingSchedule | None = None


# The "type" tag of a structure section and the dataclass it selects.
_STRUCTURE_TYPES = {
    "three_chamber": ThreeChamberStructure,
    "single_chamber": SingleChamberStructure,
}


def _decode(cls, data, context: str):
    """`data`, parsed from JSON, as a value of type `cls`: a config dataclass,
    `X | None`, the structure union, float, int or str. `context` is the
    dotted path of `data`, used in error messages."""
    options = [arg for arg in typing.get_args(cls) if arg is not type(None)]
    if len(options) == 1:  # X | None; a null is taken as absent before here
        cls = options[0]
    if cls in (float, int, str):  # the owning dataclass judges these
        in_range = cls is float and type(data) is int and abs(data) <= sys.float_info.max
        return float(data) if in_range else data
    if cls is MppSet:
        if not isinstance(data, list) or len(data) != 3:
            raise ConfigError(f"{context}: expected a list of exactly 3 panels")
        return MppSet(
            *(_decode(MppSpec, item, f"{context}[{i}]") for i, item in enumerate(data))
        )
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected an object")
    if len(options) > 1:  # the structure union
        data = dict(data)
        kind = data.pop("type", "three_chamber")
        cls = _STRUCTURE_TYPES.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ConfigError(f"{context}.type: unknown structure type {kind!r}")
    prefix = f"{context}." if context else ""
    fields = dataclasses.fields(cls)
    unknown = sorted(set(data) - {field.name for field in fields})
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}: unknown field")
    hints = typing.get_type_hints(cls)
    values = {}
    for field in fields:
        if data.get(field.name) is not None:
            values[field.name] = _decode(
                hints[field.name], data[field.name], prefix + field.name
            )
        elif field.default is dataclasses.MISSING:
            raise ConfigError(f"{prefix}{field.name}: missing required field")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _encode(value):
    """JSON form of a config value: the inverse of _decode, None fields
    left out."""
    if isinstance(value, MppSet):
        return [_encode(panel) for panel in value]
    if not dataclasses.is_dataclass(value):
        return value
    # a structure's "type" tag comes first
    data = {"type": tag for tag, cls in _STRUCTURE_TYPES.items() if type(value) is cls}
    for field in dataclasses.fields(value):
        item = getattr(value, field.name)
        if item is not None:
            data[field.name] = _encode(item)
    return data


def load_config(path: str | Path) -> RunConfig:
    """Parse a run configuration file, raising ConfigError on bad content."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # an int past the digit limit; deep nesting
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return _decode(RunConfig, raw, "")


def dump_config(config: RunConfig, path: str | Path) -> None:
    """Write a configuration that load_config parses back identically."""
    text = json.dumps(_encode(config), indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")
