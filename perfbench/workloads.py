"""The benchmark's three workloads.

Each is closed-loop with one caller: an operation starts when the previous
one returns. Inputs come from the benchmark seed alone, and the amount of
work is fixed by the seed and --seconds (sized so a run lasts about that
long on a 2-core x86 host), never by the clock, so every count and output
repeats exactly for a given seed. Output checks run outside the timed
operations, are counted and never abort the run.
"""

import contextlib
import dataclasses
import importlib
import io
import json
import math
import re
from time import perf_counter

import numpy as np

import oracle

DET_TOL = 1e-9
FINE_STEP_HZ = 0.01
# Principal band widths (Hz) of the bundled configs; identical at 0.1 and 0.01 Hz steps.
REFERENCE_WIDTH_HZ = {
    "three_chamber_baseline": 1317.86,
    "three_chamber_optimized": 1602.33,
    "single_chamber": 468.59,
}
WIDTH_TOL_HZ = 0.01
CSV_RTOL = 5.01e-6  # %.6g keeps six significant digits
MPP_RANGES = {"thickness": (0.2, 1.0), "aperture": (0.1, 0.8), "porosity": (0.005, 0.05)}
SINGLE_RANGES = {"d_m": (5.0, 11.0), "l_m": (60.0, 120.0), "d_e": (40.0, 100.0), "t_e": (4.0, 40.0)}


@dataclasses.dataclass
class Outcome:
    op_s: list  # wall time of each timed operation, or per seed of the one anneal5 call
    wall_s: float  # total timed wall time
    work: float  # work units done by all operations
    attempted: int
    failed: int
    band_width_hz: float
    lines: list = dataclasses.field(default_factory=list)
    counts: dict = dataclasses.field(default_factory=dict)


def _timed(tracer, fn, *args):
    span = tracer.root() if tracer is not None else contextlib.nullcontext()
    start = perf_counter()
    with span:
        result = fn(*args)
    return result, perf_counter() - start


def _alpha_range_ok(alphas):
    alphas = np.asarray(alphas)
    return bool(np.all((alphas >= 0.0) & (alphas <= 1.0)))


def _oracle_chain(raw):
    """Oracle chain of a bundled config, parsed from the JSON itself."""
    s = raw["structure"]
    if s["type"] == "single_chamber":
        p = s["mpp"]
        return oracle.single_chamber(s["d_m"], s["l_m"], s["d_e"], s["t_e"],
                                     (p["thickness"], p["aperture"], p["porosity"]))
    panels = [(p["thickness"], p["aperture"], p["porosity"]) for p in s["mpps"]]
    return oracle.three_chamber(s["design"], panels)


def _medium_matches_oracle(medium):
    return (medium.sound_speed, medium.density, medium.dynamic_viscosity) == (
        oracle.SOUND_SPEED, oracle.DENSITY, oracle.VISCOSITY)


class Anneal5:
    """anneal_multi over 5 seeds from the bundled baseline design."""

    name = "anneal5"
    op_unit = "seed"
    aliases = {"op_s": "anneal.seed_s", "work_per_s": "anneal.evals_per_s",
               "band_width_hz": "anneal.best_width_hz"}
    expected = {"annealing.multi", "annealing.loop", "annealing.objective", "annealing.move",
                "annealing.accept", "structure.build_chain", "acoustics.reflection",
                "acoustics.pipe_matrix", "acoustics.mpp_impedance", "acoustics.compose",
                "spectrum.validate", "spectrum.band"}
    n_seeds = 5
    n_oracle = 64

    def __init__(self, pkg, root, seed, seconds):
        self.pkg = pkg
        config = pkg.load_config(root / "configs" / "three_chamber_baseline.json")
        self.config = config
        self.oracle_medium_ok = _medium_matches_oracle(config.medium)
        # One iteration per level is 83 evaluations, about 0.18 s a seed here,
        # so --seconds iterations make the 5 seeds last about --seconds.
        self.schedule = dataclasses.replace(config.schedule, iterations_per_temperature=seconds)
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=self.n_seeds)]
        self.frequencies = config.grid.frequencies()
        self.sample = np.unique(np.concatenate(
            ([0, self.frequencies.size - 1], rng.integers(0, self.frequencies.size, self.n_oracle))))
        s = config.structure
        self.initial_objective = pkg.objective(s.design, s.mpps, config.medium, config.grid)
        levels, temperature = 0, self.schedule.initial_temperature
        while temperature > self.schedule.termination_temperature:
            levels += 1
            temperature = self.schedule.next_temperature(temperature)
        self.evaluations = 1 + levels * self.schedule.iterations_per_temperature
        self.sizes = {"seeds": self.n_seeds, "grid_points": int(self.frequencies.size),
                      "temperature_levels": levels,
                      "iterations_per_temperature": self.schedule.iterations_per_temperature,
                      "evaluations_per_seed": self.evaluations}

    def run(self, tracer=None):
        pkg, config = self.pkg, self.config
        s = config.structure
        try:
            results, seconds = _timed(tracer, pkg.anneal_multi, s.design, s.mpps, self.seeds,
                                      config.medium, config.grid, self.schedule)
        except Exception as exc:  # counted as failed operations; the run goes on
            print(f"check failed: {self.name}: {type(exc).__name__}: {exc}")
            results, seconds = [], float("nan")
        failed, widths, proposed, improved = 0, [], 0, 0
        for seed, result in zip(self.seeds, results):
            problems = self._check(seed, result)
            failed += bool(problems)
            widths.append(result.best_objective)
            best = self.initial_objective
            for row in result.objective_trace:
                proposed += 1
                improved += row.best > best
                best = row.best
            for problem in problems:
                print(f"check failed: {self.name} seed {seed}: {problem}")
        failed += self.n_seeds - len(results)
        return Outcome(
            op_s=[seconds / self.n_seeds],
            wall_s=seconds,
            work=sum(r.evaluations for r in results),
            attempted=self.n_seeds,
            failed=failed,
            band_width_hz=float(np.mean(widths)) if widths else float("nan"),
            lines=["per-seed best widths (Hz): "
                   + ", ".join(f"{seed}: {w:.6f}" for seed, w in zip(self.seeds, widths))],
            counts={"proposed": proposed, "improved": improved},
        )

    def _check(self, seed, result):
        pkg, config = self.pkg, self.config
        s = config.structure
        problems = []
        if result.seed != seed:
            problems.append(f"result seed {result.seed}")
        if result.evaluations != self.evaluations:
            problems.append(f"{result.evaluations} evaluations, expected {self.evaluations}")
        design = result.best_design.as_dict()
        outside = [k for k, (lo, hi) in pkg.BOUNDS_MM.items() if not lo <= design[k] <= hi]
        if outside:
            problems.append(f"best design outside bounds in {outside}")
        recomputed = pkg.objective(result.best_design, s.mpps, config.medium, config.grid)
        if recomputed != result.best_objective:
            problems.append(f"best_objective {result.best_objective} != objective(best) {recomputed}")
        if result.best_objective < self.initial_objective:
            problems.append(f"best {result.best_objective} below the baseline {self.initial_objective}")
        spectrum = pkg.absorption_spectrum(pkg.build_chain(result.best_design, s.mpps),
                                           config.grid, config.medium)
        if not _alpha_range_ok(spectrum.alphas):
            problems.append("alpha outside [0, 1]")
        panels = [(p.thickness, p.aperture, p.porosity) for p in s.mpps]
        bad = oracle.mismatches(oracle.three_chamber(design, panels),
                                spectrum.frequencies[self.sample], spectrum.alphas[self.sample])
        if bad or not self.oracle_medium_ok:
            problems.append(f"alpha differs from the oracle at {bad[:3]}")
        return problems


class SimulateFine:
    """In-process `mppabsorber simulate --step 0.01` on the three bundled configs."""

    name = "simulate_fine"
    op_unit = "call"
    aliases = {"op_s": "simulate.call_s", "work_per_s": "simulate.points_per_s",
               "band_width_hz": "simulate.mean_width_hz"}
    expected = {"cli.main", "cli.simulate", "cli.csv", "cli.report", "configio.load",
                "structure.build_chain", "acoustics.reflection", "acoustics.pipe_matrix",
                "acoustics.mpp_impedance", "acoustics.compose", "spectrum.validate",
                "spectrum.band"}
    n_oracle = 64

    def __init__(self, pkg, root, seed, seconds):
        self.pkg = pkg
        self.cli = importlib.import_module(f"{pkg.__name__}.cli")
        self.out_dir = root / "perfbench" / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        self.cases = []
        self.run_problems = []
        for label in REFERENCE_WIDTH_HZ:
            path = root / "configs" / f"{label}.json"
            config = pkg.load_config(path)
            grid = pkg.FrequencyGrid(config.grid.f_min, config.grid.f_max, FINE_STEP_HZ)
            reference = pkg.absorption_spectrum(config.structure.chain(), grid, config.medium)
            sample = rng.integers(0, len(reference.frequencies), self.n_oracle)
            chain = _oracle_chain(json.loads(path.read_text(encoding="utf-8")))
            bad = oracle.mismatches(chain, reference.frequencies[sample], reference.alphas[sample])
            if bad or not _medium_matches_oracle(config.medium):
                self.run_problems.append(f"{label}: alpha differs from the oracle at {bad[:3]}")
            self.cases.append((label, path, self.out_dir / f"simulate_{label}.csv", reference))
        # About 0.7 s per call here: three calls every 2 s of --seconds.
        self.calls = len(self.cases) * max(1, math.ceil(seconds / 2))
        self.sizes = {"configs": len(self.cases), "calls": self.calls,
                      "grid_points": int(len(self.cases[0][3].frequencies)),
                      "step_hz": FINE_STEP_HZ}

    def run(self, tracer=None):
        op_s, failed, points, widths = [], len(self.run_problems), 0, {}
        for problem in self.run_problems:
            print(f"check failed: {self.name}: {problem}")
        for i in range(self.calls):
            label, path, out, reference = self.cases[i % len(self.cases)]
            argv = ["simulate", "--config", str(path), "--out", str(out), "--step", str(FINE_STEP_HZ)]
            stdout = io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout):
                    code, seconds = _timed(tracer, self.cli.main, argv)
                problems = self._check(label, code, stdout.getvalue(), out, reference, widths)
            except Exception as exc:  # counted as a failed operation; the run goes on
                problems, seconds = [f"{type(exc).__name__}: {exc}"], None
            if seconds is not None:
                op_s.append(seconds)
            points += len(reference.frequencies)
            failed += bool(problems)
            for problem in problems:
                print(f"check failed: {self.name} call {i} ({label}): {problem}")
        return Outcome(
            op_s=op_s,
            wall_s=sum(op_s),
            work=points,
            attempted=self.calls,
            failed=failed,
            band_width_hz=float(np.mean(list(widths.values()))) if widths else float("nan"),
            lines=["principal widths (Hz): "
                   + ", ".join(f"{label}: {w:.3f}" for label, w in widths.items())],
        )

    def _check(self, label, code, report, out, reference, widths):
        if code != 0:
            return [f"exit code {code}"]
        problems = []
        match = re.search(r"width\s+([0-9.]+) Hz", report)
        width = float(match.group(1)) if match else float("nan")
        widths.setdefault(label, width)
        if not abs(width - REFERENCE_WIDTH_HZ[label]) <= WIDTH_TOL_HZ:
            problems.append(f"width {width} Hz, reference {REFERENCE_WIDTH_HZ[label]} Hz")
        table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (len(reference.frequencies), 2):
            return problems + [f"CSV shape {table.shape}"]
        if not _alpha_range_ok(table[:, 1]):
            problems.append("alpha outside [0, 1] in the CSV")
        if not np.allclose(table[:, 0], reference.frequencies, rtol=CSV_RTOL, atol=0.0):
            problems.append("CSV frequencies differ from the grid")
        if not np.allclose(table[:, 1], reference.alphas, rtol=CSV_RTOL, atol=1e-300):
            problems.append("CSV alphas differ from the spectrum")
        return problems


class DesignSweep:
    """Random three- and single-chamber structures: spectrum, bands and the
    extended-precision chain matrix with its unit-determinant gate."""

    name = "design_sweep"
    op_unit = "design"
    aliases = {"op_s": "sweep.design_s", "work_per_s": "sweep.designs_per_s",
               "band_width_hz": "sweep.mean_width_hz"}
    expected = {"structure.build_chain", "acoustics.reflection", "acoustics.pipe_matrix",
                "acoustics.mpp_impedance", "acoustics.compose", "acoustics.chain_matrix",
                "spectrum.validate", "spectrum.band"}

    def __init__(self, pkg, root, seed, seconds):
        self.pkg = pkg
        self.grid = pkg.DEFAULT_GRID
        self.frequencies = self.grid.frequencies()
        n_grid = self.frequencies.size
        rng = np.random.default_rng(seed)

        def latin(n, ranges):
            """n points stratified in every coordinate (a Latin hypercube), so
            sweep means vary little from seed to seed."""
            columns = [lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n
                       for lo, hi in ranges]
            return np.column_stack(columns).tolist()

        # About 8 ms per design here, checks included: 125 designs per second
        # of --seconds. Every fourth design is single-chamber.
        n = 125 * seconds
        n_single = n // 4
        mpp = list(MPP_RANGES.values())
        singles = latin(n_single, list(SINGLE_RANGES.values()) + mpp)
        triples = latin(n - n_single, list(pkg.BOUNDS_MM.values()) + 3 * mpp)
        self.designs = []
        for i in range(n):
            if i % 4 == 3:
                x = singles.pop()
                geometry, panels = dict(zip(SINGLE_RANGES, x[:4])), (tuple(x[4:]),)
            else:
                x = triples.pop()
                geometry = dict(zip(pkg.BOUNDS_MM, x[:12]))
                panels = (tuple(x[12:15]), tuple(x[15:18]), tuple(x[18:]))
            sample = np.array([0, 199, 999, n_grid - 1, int(rng.integers(0, n_grid))])
            self.designs.append((geometry, panels, sample))
        self.sizes = {"designs": n, "single_chamber": n_single, "grid_points": int(n_grid)}

    def _evaluate(self, geometry, panels):
        pkg = self.pkg
        specs = [pkg.MppSpec(*p) for p in panels]
        if len(specs) == 1:
            chain = pkg.single_chamber_chain(specs[0], geometry["d_m"], geometry["l_m"],
                                             geometry["d_e"], geometry["t_e"])
        else:
            chain = pkg.build_chain(pkg.DesignVector(**geometry), pkg.MppSet(*specs))
        spectrum = pkg.absorption_spectrum(chain, self.grid)
        bands = pkg.effective_bands(spectrum)
        matrix = pkg.chain_matrix(chain, spectrum.frequencies)
        return spectrum, bands, matrix

    def run(self, tracer=None):
        op_s, failed, widths, misses, worst = [], 0, [], 0, 0.0
        for i, (geometry, panels, sample) in enumerate(self.designs):
            try:
                (spectrum, bands, matrix), seconds = _timed(tracer, self._evaluate, geometry, panels)
                op_s.append(seconds)
                problems = self._check(geometry, panels, sample, spectrum, bands)
                widths.append(max((b.width for b in bands), default=0.0))
                det = np.asarray(matrix.a11 * matrix.a22 - matrix.a12 * matrix.a21)
                error = float(np.max(np.abs(det - 1)))
                worst = max(worst, error)
                misses += not error <= DET_TOL
            except Exception as exc:  # counted as a failed operation; the run goes on
                problems = [f"{type(exc).__name__}: {exc}"]
            failed += bool(problems)
            for problem in problems:
                print(f"check failed: {self.name} design {i}: {problem}")
        return Outcome(
            op_s=op_s,
            wall_s=sum(op_s),
            work=len(op_s),
            attempted=len(self.designs),
            failed=failed,
            band_width_hz=float(np.mean(widths)) if widths else float("nan"),
            lines=[f"|det - 1| > {DET_TOL:g} (known extended-precision defect, not counted as a"
                   f" failure): {misses} of {len(self.designs)} designs, max {worst:.3g}"],
            counts={"det_misses": misses, "det_max_err": worst},
        )

    def _check(self, geometry, panels, sample, spectrum, bands):
        problems = []
        if not np.array_equal(spectrum.frequencies, self.frequencies):
            problems.append("spectrum frequencies differ from the grid")
        if not _alpha_range_ok(spectrum.alphas):
            problems.append("alpha outside [0, 1]")
        if len(panels) == 1:
            g = geometry
            chain = oracle.single_chamber(g["d_m"], g["l_m"], g["d_e"], g["t_e"], panels[0])
        else:
            chain = oracle.three_chamber(geometry, panels)
        bad = oracle.mismatches(chain, spectrum.frequencies[sample], spectrum.alphas[sample])
        if bad:
            problems.append(f"alpha differs from the oracle at {bad[:3]}")
        f_min, f_max = self.frequencies[0], self.frequencies[-1]
        edges = [x for b in bands for x in (b.f_low, b.f_high)]
        if edges != sorted(edges) or any(not f_min <= x <= f_max for x in edges):
            problems.append("bands overlap or leave the grid")
        return problems


WORKLOADS = {w.name: w for w in (Anneal5, SimulateFine, DesignSweep)}
