"""Golden outputs: the SHA-256 digest of every file and stdout the command
line writes for the bundled configs, recorded in golden_digests.json.

A change that moves any byte of these outputs fails here. One that moves
them on purpose records the new digests, which the failure prints, and
gives the reason. The digests hold under OpenBLAS kernels with and without
FMA, although single alphas may differ between them in the last ulp.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mppabsorber.cli import main

DIGESTS = json.loads(Path(__file__).with_name("golden_digests.json").read_text())
CONFIGS = ("three_chamber_baseline.json", "three_chamber_optimized.json", "single_chamber.json")


def simulate(config, step):
    def run(out):
        return ["simulate", "--config", config, "--out", out / "spectrum.csv", "--step", step]

    return run, ("spectrum.csv",)


def optimize(out):
    config = json.loads(Path("three_chamber_baseline.json").read_text())
    config["schedule"]["iterations_per_temperature"] = 10
    path = out / "config.json"
    path.write_text(json.dumps(config))
    return ["optimize", "--config", path, "--out", out, "--seed", "3"]


def compare(out):
    return ["compare", "three_chamber_baseline.json", "three_chamber_optimized.json"]


CASES = {
    f"simulate {config} --step {step}": simulate(config, step)
    for config in CONFIGS
    for step in ("1", "0.01", "0.0137")
}
CASES["optimize three_chamber_baseline.json --seed 3, 10 iterations per level"] = (
    optimize,
    ("best_design.json", "trace.csv", "report.txt"),
)
CASES["compare three_chamber_baseline.json three_chamber_optimized.json"] = (compare, ())


def test_every_recorded_case_runs():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_recorded_digests(case, capsys, tmp_path, monkeypatch, config_dir):
    # bundled configs by bare name: compare prints the paths it is given
    monkeypatch.chdir(config_dir)
    argv, files = CASES[case]
    assert main([str(arg) for arg in argv(tmp_path)]) == 0
    outputs = {name: (tmp_path / name).read_bytes() for name in files}
    outputs["stdout"] = capsys.readouterr().out.encode("utf-8")
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    recorded = DIGESTS[case]
    changed = [
        f"{name}: digest {digest}, recorded {recorded.get(name)}"
        for name, digest in digests.items()
        if recorded.get(name) != digest
    ]
    assert not changed, f"{case}:\n" + "\n".join(changed)
    assert sorted(recorded) == sorted(digests)
