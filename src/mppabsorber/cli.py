"""Command-line interface: simulate, optimize and compare absorber configs.

simulate   evaluate a structure's absorption spectrum, write it as CSV and
           print the effective-band report
optimize   run simulated annealing from the configured design and write the
           best design (re-simulatable config), convergence trace and report
compare    print the bands of two structures side by side with the octave
           ratio

All outputs are plain UTF-8 text; repeated runs with identical inputs and
seed produce byte-identical files. simulate and optimize write one warning
to stderr when the grid's f_max lies above the first cross-mode cut-on of
the widest duct (for optimize, the widest the bounds allow), where the
plane-wave model stops holding.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .annealing import AnnealingSchedule, OptimizationResult, anneal
from .configio import (
    ConfigError,
    RunConfig,
    ThreeChamberStructure,
    dump_config,
    load_config,
)
from .acoustics import ElementChain, Medium, absorption_spectrum, cut_on_frequency
from .spectrum import (
    AbsorptionSpectrum,
    FrequencyGrid,
    effective_band,
    effective_bands,
)
from .structure import BOUNDS_MM, DesignVector, build_chain


def _apply_grid_overrides(grid: FrequencyGrid, args) -> FrequencyGrid:
    f_min = args.fmin if args.fmin is not None else grid.f_min
    f_max = args.fmax if args.fmax is not None else grid.f_max
    step = args.step if args.step is not None else grid.step
    return FrequencyGrid(f_min=f_min, f_max=f_max, step=step)


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


# Rows per %-operation of _csv: a chunk's values and text stay near 100 KiB.
_CSV_CHUNK_ROWS = 4096


def _csv(header: str, row_format: str, columns) -> str:
    """CSV text: the header line, then one `row_format` line per row of the
    equal-length `columns` (lists of Python numbers). Each chunk of rows
    goes through one %-format of the repeated row format; %-formatting
    spells a value as format() with the same spec does, so the text is what
    a per-row f-string gives, at a fraction of the cost."""
    width = len(columns)
    values = [None] * (width * len(columns[0]))
    for j, column in enumerate(columns):
        values[j::width] = column
    line = row_format + "\n"
    step = width * _CSV_CHUNK_ROWS
    parts = [header + "\n"]
    for first in range(0, len(values), step):
        chunk = values[first:first + step]
        parts.append(line * (len(chunk) // width) % tuple(chunk))
    return "".join(parts)


def spectrum_csv(spectrum: AbsorptionSpectrum) -> str:
    return _csv(
        "frequency_hz,alpha",
        "%.6g,%.6g",
        (spectrum.frequencies.tolist(), spectrum.alphas.tolist()),
    )


def trace_csv(result: OptimizationResult) -> str:
    trace = result.objective_trace
    return _csv(
        "temperature,iteration,current,best",
        "%.6g,%d,%.6g,%.6g",
        (
            [row.temperature for row in trace],
            [row.iteration for row in trace],
            [row.current for row in trace],
            [row.best for row in trace],
        ),
    )


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    grid = _apply_grid_overrides(config.grid, args)
    chain = config.structure.chain()
    _warn_above_cut_on(chain, grid, config.medium)
    spectrum = absorption_spectrum(chain, grid, config.medium)
    Path(args.out).write_text(spectrum_csv(spectrum), encoding="utf-8")
    sys.stdout.write(band_report(spectrum, args.threshold))
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
    if args.cooling_reading is not None:
        schedule = dataclasses.replace(schedule, cooling_reading=args.cooling_reading)
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
    best_config = RunConfig(
        structure=ThreeChamberStructure(
            design=result.best_design, mpps=config.structure.mpps
        ),
        medium=config.medium,
        grid=grid,
        schedule=schedule,
    )
    dump_config(best_config, out_dir / "best_design.json")
    (out_dir / "trace.csv").write_text(trace_csv(result), encoding="utf-8")

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
        config = load_config(path)
        grid = _apply_grid_overrides(config.grid, args)
        spectrum = absorption_spectrum(config.structure.chain(), grid, config.medium)
        reports.append(f"{label}: {path}\n" + band_report(spectrum, args.threshold))
        bands.append(effective_band(spectrum, args.threshold))
    sys.stdout.write("".join(reports))
    band_a, band_b = bands
    if band_a is None or band_b is None:
        sys.stdout.write("octave ratio (B/A): undefined (no effective band)\n")
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
    p_opt.add_argument(
        "--cooling-reading",
        choices=("decrement", "multiplier"),
        default=None,
        help="how the cooling rate is applied per level",
    )
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
