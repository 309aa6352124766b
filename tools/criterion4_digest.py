"""Criterion 4's annealing decisions, printed at six digits and checked
against their recorded digest.

    python tools/criterion4_digest.py            # print the text, check it
    python tools/criterion4_digest.py --record   # record this host's text

Runs anneal_multi from the bundled baseline design over seeds 1-5 with the
default schedule, as criterion 4 of tests/test_acceptance.py does, and
prints one line per seed: its best width, its evaluation count and its best
design, each number to six significant digits. tests/criterion4_digest.json
records that text and its SHA-256. Raw bits depend on numpy's SIMD target
and on the OpenBLAS kernel; the decisions, printed so, must not. Exits 1
when the text differs from the recorded one. About 15-20 s.
"""

import hashlib
import json
import sys
from pathlib import Path

from mppabsorber import BASELINE_DESIGN, DEFAULT_MPPS, AnnealingSchedule, anneal_multi

RECORD = Path(__file__).resolve().parents[1] / "tests" / "criterion4_digest.json"
SEEDS = [1, 2, 3, 4, 5]


def decisions() -> list[str]:
    """One line per seed of criterion 4's run, every number at six digits."""
    results = anneal_multi(BASELINE_DESIGN, DEFAULT_MPPS, seeds=SEEDS, schedule=AnnealingSchedule())
    return [
        f"seed {r.seed}: best {r.best_objective:.6g} Hz after {r.evaluations} evaluations; "
        + " ".join(f"{name}={value:.6g}" for name, value in r.best_design.as_dict().items())
        for r in results
    ]


def main(argv: list[str]) -> int:
    lines = decisions()
    print("\n".join(lines))
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    if argv[1:] == ["--record"]:
        RECORD.write_text(json.dumps({"lines": lines, "sha256": digest}, indent=2) + "\n")
        return 0
    recorded = json.loads(RECORD.read_text())
    if digest != recorded["sha256"]:
        print(f"digest {digest}, recorded {recorded['sha256']}; recorded text:", file=sys.stderr)
        print("\n".join(recorded["lines"]), file=sys.stderr)
        return 1
    print(f"digest {digest} as recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
