"""Command-line interface: simulate, optimize and compare absorber configs.

simulate   evaluate a structure's absorption spectrum, write it as CSV and
           print the effective-band report
optimize   run simulated annealing from the configured design and write the
           best design (re-simulatable config), convergence trace and report
compare    print the bands of two structures side by side with the octave
           ratio

All outputs are plain UTF-8 text; repeated runs with identical inputs and
seed produce byte-identical files. Each command writes one warning to
stderr per structure whose widest duct (for optimize, the widest the
bounds allow) has its first cross-mode cut-on below the grid's f_max,
where the plane-wave model stops holding.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .annealing import AnnealingSchedule, OptimizationResult, anneal
from .configio import ConfigError, ThreeChamberStructure, dump_config, load_config
from .acoustics import ElementChain, Medium, absorption_spectrum, cut_on_frequency
from .spectrum import (
    AbsorptionSpectrum,
    FrequencyGrid,
    effective_band,
    effective_bands,
)
from .structure import BOUNDS_MM, DesignVector, build_chain


def _apply_grid_overrides(grid: FrequencyGrid, args) -> FrequencyGrid:
    overrides = {"f_min": args.fmin, "f_max": args.fmax, "step": args.step}
    return dataclasses.replace(
        grid, **{name: value for name, value in overrides.items() if value is not None}
    )


def _warn_above_cut_on(chain: ElementChain, grid: FrequencyGrid, medium: Medium) -> None:
    """One stderr line when the grid reaches past the plane-wave limit."""
    cut_on = cut_on_frequency(chain, medium)
    if grid.f_max > cut_on:
        print(
            f"warning: f_max {grid.f_max:g} Hz is above the first cross-mode cut-on"
            f" of the widest duct, {cut_on:.0f} Hz; the plane-wave model does not"
            " hold there",
            file=sys.stderr,
        )


def _solve(path, args) -> AbsorptionSpectrum:
    """The spectrum of the config at `path` on its grid with the command's
    overrides, after the cut-on warning."""
    config = load_config(path)
    grid = _apply_grid_overrides(config.grid, args)
    chain = config.structure.chain()
    _warn_above_cut_on(chain, grid, config.medium)
    return absorption_spectrum(chain, grid, config.medium)


def band_report(spectrum: AbsorptionSpectrum, threshold: float) -> str:
    """Effective-band report: principal band measures plus any other bands."""
    principal = effective_band(spectrum, threshold)
    lines = [f"effective band (alpha >= {threshold:g})"]
    if principal is None:
        lines.append("  none")
        return "\n".join(lines) + "\n"
    lines += [
        f"  f_low      {principal.f_low:10.3f} Hz",
        f"  f_high     {principal.f_high:10.3f} Hz",
        f"  width      {principal.width:10.3f} Hz",
        f"  octaves    {principal.octaves:10.3f}",
        f"  mean alpha {principal.mean_alpha:10.3f}",
    ]
    others = [b for b in effective_bands(spectrum, threshold) if b != principal]
    if others:
        listed = ", ".join(f"{b.f_low:.1f}-{b.f_high:.1f} Hz" for b in others)
        lines.append(f"  other bands: {listed}")
    return "\n".join(lines) + "\n"


# Rows per chunk of _csv: a chunk's slots and temporaries stay near 1 MiB.
_CSV_CHUNK_ROWS = 8192
_POW10 = 10.0 ** np.arange(10)  # each one a double exactly


def _words(texts) -> np.ndarray:
    """One uint64 per 8-character text: its characters as little-endian bytes."""
    return np.frombuffer("".join(texts).encode("ascii"), "<u8")


# A value's text is picked from a 16-byte slot of two words:
#   S 0 . 0 0 0 d0 . | d1 . d2 . d3 . d4 d5
# S is the separator before the value (the row's leading newline or a comma),
# "0.000" the lead of exponents -4 to -1, d0-d5 the six-digit mantissa, and
# each other "." the point after d0-d3 for exponents 0 to 3.
_LEAD = _words(f"\0" f"0.000{i}." for i in range(10))
_MIDDLE = _words(f"{i // 10}.{i % 10}.\0\0\0\0" for i in range(100))  # d1 d2
_LOW = _words(f"\0\0\0\0{i // 100}.{i // 10 % 10}{i % 10}" for i in range(1000))  # d3-d5
# index of the last nonzero mantissa digit in d1 d2 or in d3-d5; -1 if none
_MIDDLE_LAST = np.select([np.arange(100) % d > 0 for d in (10, 100)], [2, 1], -1)
_LOW_LAST = np.select([np.arange(1000) % d > 0 for d in (10, 100, 1000)], [5, 4, 3], -1)


def _keep_words():
    """The bytes of a slot that a value's text keeps, as two words indexed by
    (exponent + 4) * 6 + the index of the last digit shown."""
    e, last = np.meshgrid(np.arange(-4, 6), np.arange(6), indexing="ij")
    keep = [last >= 0, e < 0, e < 0, e <= -4, e <= -3, e <= -2]  # S, "0.000"
    for j in range(6):
        keep.append(last >= j)
        if j < 4:
            keep.append((e == j) & (last > j))
    words = np.stack(keep, axis=-1).reshape(-1, 16).view("<u8")
    return words[:, 0].copy(), words[:, 1].copy()


_KEEP_FIRST, _KEEP_SECOND = _keep_words()


def _mantissa(x: np.ndarray):
    """(m, e, fallback): each value rounded to m * 10**(e - 5), m an integer
    in [1e5, 1e6) as a float (0 for zero), and where the slot cannot spell
    it (see _csv). m and e are 0 on fallback rows."""
    with np.errstate(divide="ignore", invalid="ignore"):  # 0, negatives, NaN
        e = np.floor(np.log10(x))
    fixed = (e >= -4) & (e <= 5)
    fallback = ~fixed & ((x != 0) | np.signbit(x))
    e[~fixed] = 0
    y = np.where(fixed, x, 0.0) * _POW10[(5 - e).astype(np.intp)]
    m = np.rint(y)
    fallback |= y - np.floor(y) == 0.5
    fallback |= fixed & ((y < 1e5) | (y >= 1e6))  # log10 off by one
    carry = m == 1e6
    m[carry] = 1e5
    e += carry
    fallback |= (e == 4) | (e > 5)
    e[fallback] = 0
    m[fallback] = 0
    return m, e.astype(np.intp), fallback


def _slots(m: np.ndarray, e: np.ndarray):
    """The slot's two text words, without S, and its two keep words."""
    lead = np.floor(m / 1e5)
    rest = m - lead * 1e5
    middle = np.floor(rest / 1e3)
    low = (rest - middle * 1e3).astype(np.intp)
    lead, middle = lead.astype(np.intp), middle.astype(np.intp)
    last = np.maximum(np.maximum(_MIDDLE_LAST[middle], _LOW_LAST[low]), np.maximum(e, 0))
    code = (e + 4) * 6 + last
    return _LEAD[lead], _MIDDLE[middle] | _LOW[low], _KEEP_FIRST[code], _KEEP_SECOND[code]


def _csv(out, header: str, row_format: str, rows: int, columns) -> None:
    """CSV text into the open text file `out`: the header line, then one
    `row_format` line per row for `rows` rows. `columns(first, stop)`
    returns the values of rows first:stop, one equal-length array per
    field. Each chunk's text is written as soon as it is formatted, so only
    one chunk is held. Each field of `row_format` is "%.6g", or "%d" for a
    column of integers, which below 1e6 spell the same under both. The text
    is what a per-row f-string gives, byte for byte.

    Chunks of rows are formatted by numpy: each value is rounded to a
    six-digit integer mantissa m = rint(x * 10**(5 - e)), with e from
    log10, and its text is picked from a fixed 16-byte slot. 10**k is exact
    for k <= 9, so x * 10**k is rounded once, and n + 0.5 is a double: the
    rounding can land a value on a tie but never carry it across one. So m
    is the correctly rounded mantissa unless the product is exactly n + 0.5.
    These rows go to Python's % operator instead and are written in place:
    - a product that is exactly n + 0.5, a true tie or not;
    - a product below 1e5 or from 1e6 up, where log10 was off by one;
    - exponents outside -4 to 5 after rounding (exponent notation, or an
      integer of 1e6 or more), and exponent 4, whose point the slot lacks;
    - negative values, -0.0, NaN and infinities.
    """
    line = "\n" + row_format
    out.write(header)
    for first in range(0, rows, _CSV_CHUNK_ROWS):
        chunk = columns(first, min(first + _CSV_CHUNK_ROWS, rows))
        text = np.empty((len(chunk[0]), 2 * len(chunk)), np.uint64)
        keep = np.empty_like(text)
        fallback = np.zeros(len(chunk[0]), bool)
        for j, values in enumerate(chunk):
            m, e, fallback_j = _mantissa(values.astype(np.float64))
            fallback |= fallback_j
            head, tail, keep[:, 2 * j], keep[:, 2 * j + 1] = _slots(m, e)
            text[:, 2 * j] = head | ord("\n" if j == 0 else ",")
            text[:, 2 * j + 1] = tail
        fallback_rows = np.flatnonzero(fallback)
        keep[fallback_rows] = 0
        kept = np.compress(keep.view(bool).ravel(), text.view(np.uint8).ravel())
        kept = kept.tobytes().decode("ascii")
        start = 0
        if fallback_rows.size:
            ends = np.cumsum(keep.view(np.uint8).reshape(len(keep), -1).sum(axis=1))
            for row in fallback_rows.tolist():
                end = int(ends[row])
                out.write(kept[start:end])
                out.write(line % tuple(values[row] for values in chunk))
                start = end
        out.write(kept[start:])
    out.write("\n")


def spectrum_csv(spectrum: AbsorptionSpectrum, out) -> None:
    """The spectrum's CSV into the text file `out`. Each chunk's frequencies
    come from the grid, so the whole column is never built."""
    alphas, frequency = spectrum.alphas, spectrum.grid.frequency
    _csv(out, "frequency_hz,alpha", "%.6g,%.6g", len(alphas),
         lambda first, stop: (frequency(np.arange(first, stop)), alphas[first:stop]))


def trace_csv(result: OptimizationResult, out) -> None:
    table = np.array(result.objective_trace, dtype=float).reshape(-1, 4)
    _csv(out, "temperature,iteration,current,best", "%.6g,%d,%.6g,%.6g", len(table),
         lambda first, stop: table[first:stop].T)


def cmd_simulate(args) -> int:
    spectrum = _solve(args.config, args)
    report = band_report(spectrum, args.threshold)  # checks the threshold before any write
    with open(args.out, "w", encoding="utf-8") as out:
        spectrum_csv(spectrum, out)
    sys.stdout.write(report)
    return 0


def cmd_optimize(args) -> int:
    config = load_config(args.config)
    if not isinstance(config.structure, ThreeChamberStructure):
        raise ConfigError("structure.type: optimize requires a three_chamber structure")
    grid = _apply_grid_overrides(config.grid, args)
    schedule = config.schedule
    if schedule is None:
        if args.seed is None:
            raise ConfigError(
                "schedule: optimize requires a schedule with a seed"
                " (add a schedule section or pass --seed)"
            )
        schedule = AnnealingSchedule()
    if args.seed is not None:
        schedule = dataclasses.replace(schedule, seed=args.seed)
    # the search can widen every duct up to its upper bound
    design = config.structure.design
    widest = DesignVector(
        **{name: max(value, BOUNDS_MM[name][1]) for name, value in design.as_dict().items()}
    )
    _warn_above_cut_on(build_chain(widest, config.structure.mpps), grid, config.medium)

    result = anneal(
        design,
        config.structure.mpps,
        config.medium,
        grid,
        schedule,
        args.threshold,
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    best_config = dataclasses.replace(
        config,
        structure=dataclasses.replace(config.structure, design=result.best_design),
        grid=grid,
        schedule=schedule,
    )
    dump_config(best_config, out_dir / "best_design.json")
    with open(out_dir / "trace.csv", "w", encoding="utf-8") as out:
        trace_csv(result, out)

    report = (
        f"seed {schedule.seed}: best objective {result.best_objective:.3f} Hz"
        f" after {result.evaluations} evaluations\n"
        + band_report(result.best_spectrum, args.threshold)
    )
    (out_dir / "report.txt").write_text(report, encoding="utf-8")
    sys.stdout.write(report)
    return 0


def cmd_compare(args) -> int:
    reports = []
    bands = []
    for label, path in (("A", args.config_a), ("B", args.config_b)):
        spectrum = _solve(path, args)
        reports.append(f"{label}: {path}\n" + band_report(spectrum, args.threshold))
        bands.append(effective_band(spectrum, args.threshold))
    sys.stdout.write("".join(reports))
    band_a, band_b = bands
    if band_a is None or band_b is None:
        sys.stdout.write("octave ratio (B/A): undefined (no effective band)\n")
    elif band_a.octaves == 0:
        sys.stdout.write("octave ratio (B/A): undefined (zero-octave band)\n")
    else:
        sys.stdout.write(f"octave ratio (B/A): {band_b.octaves / band_a.octaves:.3f}\n")
    return 0


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fmin", type=float, default=None, help="grid start (Hz)")
    parser.add_argument("--fmax", type=float, default=None, help="grid end (Hz)")
    parser.add_argument("--step", type=float, default=None, help="grid step (Hz)")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.8,
        help="effective-band alpha threshold (default 0.8)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mppabsorber",
        description="Simulate and optimize multi-chamber MPP sound absorbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write the absorption spectrum as CSV")
    p_sim.add_argument("--config", required=True, help="run configuration (JSON)")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    _add_grid_arguments(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_opt = sub.add_parser("optimize", help="maximize effective bandwidth")
    p_opt.add_argument("--config", required=True, help="run configuration (JSON)")
    p_opt.add_argument(
        "--out", required=True, help="output directory (best_design.json, trace.csv, report.txt)"
    )
    p_opt.add_argument("--seed", type=int, default=None, help="override schedule seed")
    _add_grid_arguments(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_cmp = sub.add_parser("compare", help="side-by-side band report of two configs")
    p_cmp.add_argument("config_a", help="first run configuration (JSON)")
    p_cmp.add_argument("config_b", help="second run configuration (JSON)")
    _add_grid_arguments(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
