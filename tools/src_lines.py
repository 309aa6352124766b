"""Tally the package's source lines as code, docstring, comment and blank.

    python tools/src_lines.py [root]

Prints one row per module of `root` (default: src/mppabsorber next to this
script's directory), then the total. A line is blank when it holds only
whitespace; docstring when it lies inside a statement that is a bare string
(a module, class or function docstring); comment when it starts with `#`;
and code otherwise, a line ending in a comment included.
"""

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def tally(text: str) -> dict[str, int]:
    """The number of lines of each kind in the Python source `text`."""
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            if isinstance(node.value.value, str):
                docstring.update(range(node.lineno, node.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            counts["blank"] += 1
        elif number in docstring:
            counts["docstring"] += 1
        elif line.lstrip().startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def row(name: str, counts: dict[str, int]) -> str:
    parts = ", ".join(f"{counts[kind]:,}" for kind in KINDS)
    return f"{name:<16} {sum(counts.values()):>6,} ({parts})"


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "mppabsorber"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16} {'lines':>6} ({', '.join(KINDS)})")
    for path in sorted(root.glob("*.py")):
        counts = tally(path.read_text(encoding="utf-8"))
        print(row(path.name, counts))
        for kind in KINDS:
            total[kind] += counts[kind]
    print(row("total", total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
