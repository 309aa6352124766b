"""The README's examples run and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from mppabsorber import load_config

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
