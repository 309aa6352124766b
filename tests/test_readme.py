"""The README's examples run and print what their comments say."""

import contextlib
import dataclasses
import io
import re
import typing
from pathlib import Path

import pytest

from mppabsorber import RunConfig, load_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
NUMBER = r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def test_every_block_kind_is_found():
    assert len(blocks("python")) == 2
    assert len(blocks("json")) == 1


@pytest.mark.parametrize(
    "code", blocks("python"), ids=lambda code: code.splitlines()[-1].split("#")[0].strip()
)
def test_python_block_prints_its_commented_values(code):
    # each `# ~x` comment gives a printed number to the digits x shows
    shown = [c for line in code.splitlines() for c in re.findall(rf"~({NUMBER})", line)]
    assert shown
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(code, "README.md", "exec"), {})
    printed = [float(word) for word in stdout.getvalue().split()]
    assert len(printed) == len(shown)
    for value, text in zip(printed, shown):
        decimals = len(text.partition(".")[2])
        assert abs(value - float(text)) <= 0.5 * 10.0**-decimals, (value, text)


def test_json_block_is_the_bundled_baseline(tmp_path, config_dir):
    (block,) = blocks("json")
    path = tmp_path / "readme.json"
    path.write_text(block, encoding="utf-8")
    assert load_config(path) == load_config(config_dir / "three_chamber_baseline.json")


def config_classes(cls=RunConfig) -> set:
    """Every dataclass a run configuration is made of."""
    found = {cls}
    for hint in typing.get_type_hints(cls).values():
        for part in typing.get_args(hint) or (hint,):
            if dataclasses.is_dataclass(part) and part not in found:
                found |= config_classes(part)
    return found


def declared(cls) -> dict:
    """The fields of `cls` that declare a range."""
    return {item.name: item for item in dataclasses.fields(cls) if "range" in item.metadata}


def table_rows():
    """(owner, field, interval, unit) for each field the configuration
    table names: `Owner.field`, `.field` of the row's owner, or `Owner.*`."""
    (table,) = re.findall(r"^\| field \| interval \| unit \|\n\|.*\n((?:\|.*\n)+)", README, re.M)
    for line in table.splitlines():
        names, interval, unit = (cell.strip() for cell in line.strip("|").split("|"))
        owner = None
        for name in re.findall(r"`([\w.*]+)`", names):
            head, _, field = name.rpartition(".")
            owner = head or owner
            yield owner, field, interval, unit


def test_config_table_states_every_declared_rule():
    classes = {cls.__name__: cls for cls in config_classes()}
    documented = []
    for owner, field, interval, unit in table_rows():
        rules = declared(classes[owner])
        for name, item in (rules.items() if field == "*" else [(field, rules[field])]):
            # an edge that names a field reads as its name
            low, high, closed = item.metadata["range"]
            edges = ", ".join(e if isinstance(e, str) else f"{e:g}" for e in (low, high))
            opening, closing = "[" if closed is True else "(", "]" if closed == "high" else ")"
            assert interval == f"`{opening}{edges}{closing}`", (owner, name)
            assert (unit == "integer") == (item.type in (int, "int")), (owner, name)
            documented.append((owner, name))
    assert sorted(documented) == sorted(
        (cls.__name__, name) for cls in classes.values() for name in declared(cls)
    )
