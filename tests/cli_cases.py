"""The configs the CLI must answer or refuse, in one table, `CASES`, which
CI, `test_fuzz.py`'s examples and `test_cli.py` read. A case is a config
file, the command that sees it and what that run shows: a refusal (`code`
1) exits 1 with one stderr line, which starts with `error: `, and writes no
output; an answer exits 0; and the refusal's stderr or the answer's stdout
matches `reads`, in which `{path}` stands for the config's path. Run as a
script, this writes each config into a folder, runs it through the
installed `mppabsorber` console script, any warning an error and 60 s at
most, prints the output and exits 1 if any case shows something else:

    python tests/cli_cases.py <folder>
"""

import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BASELINE, SINGLE = "three_chamber_baseline.json", "single_chamber.json"


def bundled(base: str, patch: dict | None = None, out: Path | None = None) -> dict:
    """The JSON data of the bundled config `base`, with the keys of each
    dict in `patch` set in the object at its path, a key or index per level;
    written to `out` as well, when given."""
    data = json.loads((CONFIGS / base).read_text(encoding="utf-8"))
    for path, values in (patch or {}).items():
        owner = data
        for key in path:
            owner = owner[key]
        owner.update(values)
    if out is not None:
        out.write_text(json.dumps(data), encoding="utf-8")
    return data


@dataclass(frozen=True)
class Case:
    """A config file `name`.json: the bundled `base` with `patch` set, or
    `text` as it is, or neither, when no file is written; the `command` that
    sees it, with its `args`; and the exit `code` and the line it `reads`."""

    name: str
    base: str | None = None
    patch: dict = field(default_factory=dict)
    text: str | None = None
    command: str = "simulate"
    args: tuple = ()
    code: int = 1
    reads: str = ""

    def config(self):
        """The config's JSON data, or its text; None when there is no file."""
        return self.text if self.base is None else bundled(self.base, self.patch)

    def write(self, folder: Path) -> Path:
        """The config's path in `folder`, written there if there is a file."""
        path, config = folder / f"{self.name}.json", self.config()
        if config is not None:
            path.write_text(config if self.base is None else json.dumps(config), encoding="utf-8")
        return path

    def passes(self, folder: Path) -> bool:
        """Whether the console script, run on the config written in `folder`,
        shows what the case must; prints the run's output."""
        path, out = self.write(folder), folder / self.name  # a CSV or a folder
        argv = ("mppabsorber", self.command, "--config", path, "--out", out, *self.args)
        run = subprocess.run([str(arg) for arg in argv], capture_output=True, text=True,
                             timeout=60, env={**os.environ, "PYTHONWARNINGS": "error"})
        print(f"{self.name}: exit {run.returncode}\n{run.stdout}{run.stderr}", end="")
        lines = run.stderr.splitlines()
        refused = len(lines) == 1 and lines[0].startswith("error: ") and not out.exists()
        reads = re.search(self.reads.format(path=re.escape(str(path))),
                          run.stderr if self.code else run.stdout, re.M)
        return run.returncode == self.code and (refused or self.code == 0) and bool(reads)


# Lengths are in mm, as in a config. Each case broke the contract once:
# answered, ended in a traceback or a warning, ran until killed, or named
# no field or the wrong one.
CASES = {case.name: case for case in [
    Case("viscous", SINGLE, {("medium",): dict(dynamic_viscosity=1e300)}),  # overflowed the walk
    # a hole of about 1 km, each length in its range, and 12 mm holes, all in
    # the 10 mm duct; a hole one ulp narrower than its duct, onto which it
    # rounds in metres; and an 8 mm hole that simulate answers, but that the
    # 5 mm duct the search reaches cannot hold: optimize writes no output
    Case("wide_hole", BASELINE,
         {("structure", "mpps", 2): dict(aperture=9.99e5, thickness=1.0001e-3)}),
    Case("wide_hole_12mm", BASELINE, {("structure", "mpps", 2): dict(aperture=12.0)}),
    Case("wide_single_hole_12mm", SINGLE, {("structure", "mpp"): dict(aperture=12.0)}),
    Case("one_ulp_hole", SINGLE, {("structure",): dict(d_m=7.984536172925714),
                                  ("structure", "mpp"): dict(aperture=7.984536172925713)}),
    Case("narrow_reach", BASELINE, {("structure", "mpps", 0): dict(aperture=8.0),
                                    ("schedule",): dict(iterations_per_temperature=2)},
         command="optimize", args=("--seed", "1")),
    # a length that is no number, refused by its field's rule in the one wording
    Case("not_a_number", BASELINE, {("structure", "design"): dict(d_m="ten")},
         reads="must lie in"),
    # grids starting at 1e11 Hz, ending below their start, or of 10**7 steps
    Case("past_limit", SINGLE, {("grid",): dict(f_min=1e11)}),
    Case("reversed_grid", SINGLE, {("grid",): dict(f_min=10.0, f_max=5.0)}),
    Case("dense_grid", SINGLE, {("grid",): dict(step=1e-5)}),
    # schedules: a step wider than the box, an end above the start, the
    # retired reading, more than 10**6 levels (1 - 1e-17 == 1.0, and the
    # factor whose count reads 10**6 + 1), more than 10**8 evaluations, and
    # six levels of 16,666,680, which read inside the edge printed as 1.66667e+07
    Case("fast_step", BASELINE, {("schedule",): dict(step_fraction=1e308)}),
    Case("late_termination", BASELINE, {("schedule",): dict(termination_temperature=200.0)}),
    Case("multiplier", BASELINE, {("schedule",): dict(cooling_reading="multiplier")}),
    Case("slow_cooling", BASELINE, {("schedule",): dict(cooling_rate=1e-17)}),
    Case("edge_levels", BASELINE, {("schedule",): dict(cooling_rate=1.842051108424947e-05,
                                                       iterations_per_temperature=1)}),
    Case("endless", BASELINE, {("schedule",): dict(iterations_per_temperature=10**12)}),
    Case("six_levels", BASELINE, {("schedule",): dict(termination_temperature=100 * 0.8**5.5,
                                                      iterations_per_temperature=16_666_680)}),
    # answered: the temperature sticks at 2.5e-323, above this subnormal
    # termination, and the run takes the 510 levels its caps count
    Case("subnormal", BASELINE, {("schedule",): dict(
        initial_temperature=1e-300, termination_temperature=5e-324, cooling_rate=0.1,
        iterations_per_temperature=1)}, command="optimize", code=0, reads="after 511 evaluations"),
    # files the JSON parser refuses, named: an integer of 5,001 digits, past
    # Python's limit for converting one, and a structure nested 100,000 deep
    Case("huge_int", text=(CONFIGS / BASELINE).read_text(encoding="utf-8").replace(
        '"d_m": 10.0', '"d_m": 1' + "0" * 5000), reads=r"^error: {path}: invalid JSON: "),
    Case("deep", text='{"structure": ' + "[" * 100_000 + "]" * 100_000 + "}",
         reads=r"^error: {path}: invalid JSON: "),
    Case("missing"),
]}


if __name__ == "__main__":
    failed = [name for name, case in CASES.items() if not case.passes(Path(sys.argv[1]))]
    print(f"{len(CASES) - len(failed)} of {len(CASES)} cases pass; failed: {failed}")
    sys.exit(1 if failed else 0)
