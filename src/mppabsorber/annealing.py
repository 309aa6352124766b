"""Simulated annealing over the bounded 12-D geometry space.

The objective is the width (Hz) of the longest effective absorption band,
zero when no band reaches the threshold, so the alpha >= 0.8 constraint is
satisfied by construction inside any returned band. Moves perturb every
coordinate uniformly within a fixed fraction of its bound range and clamp
back into the box; acceptance follows the Metropolis criterion. Runs are
fully deterministic for a given seed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .acoustics import AIR, Medium, PointSolver, template_spectrum
from .spectrum import (
    DEFAULT_GRID,
    AbsorptionSpectrum,
    FrequencyGrid,
    band_edges,
    check_fields,
    longest_run,
    ranged,
    require,
)
from .structure import BOUNDS_MM, DesignVector, MppSet, ThreeChamberStructure, build_chain
from .structure import design_template

__all__ = [
    "AnnealingSchedule",
    "OptimizationResult",
    "accept",
    "anneal",
    "anneal_multi",
    "objective",
]

_LOWER, _UPPER = np.array(list(BOUNDS_MM.values())).T
_RANGE = _UPPER - _LOWER
# Most temperature levels a schedule may take, the default takes 83; and
# most evaluations, the level cap at the default 100 per level.
_MAX_LEVELS = 10**6
_MAX_EVALUATIONS = 10**8


@dataclass(frozen=True)
class AnnealingSchedule:
    """Cooling schedule and move-kernel parameters.

    Temperature is a bare number compared against objective deltas in Hz.
    cooling_rate is a per-level decrement, T <- (1 - rate) * T; the
    cooling_reading key names it and takes no other value. `levels` is the
    number of temperature levels anneal runs, ceil(ln(termination /
    initial) / ln(1 - rate)), 0 when termination equals initial. A rate
    that would take more than 10**6 levels is refused, and so are more than
    10**8 evaluations in all (levels * iterations_per_temperature).
    """

    initial_temperature: float = ranged(0.0, default=100.0)
    iterations_per_temperature: int = ranged(1, closed=True, default=100)
    cooling_rate: float = ranged(0.0, 1.0, default=0.2)
    termination_temperature: float = ranged(0.0, "initial_temperature", closed="high", default=1e-6)
    step_fraction: float = ranged(0.0, 1.0, closed=True, default=0.1)
    seed: int = ranged(0, closed=True, default=0)
    cooling_reading: str = "decrement"

    def __post_init__(self):
        check_fields(self)
        if self.cooling_reading != "decrement":
            raise ValueError(f"AnnealingSchedule.cooling_reading must be 'decrement',"
                             f" got {self.cooling_reading!r}")
        # the largest per-level factor that cools from initial to termination
        # in _MAX_LEVELS levels as `levels` counts them; never 1, a factor at
        # which nothing cools
        span = math.log(self.termination_temperature) - math.log(self.initial_temperature)
        bound = min(math.exp(span / _MAX_LEVELS), math.nextafter(1.0, 0.0))
        while math.ceil(span / math.log(bound)) > _MAX_LEVELS:  # where exp rounded up
            bound = math.nextafter(bound, 0.0)
        require("AnnealingSchedule.cooling_rate", self.cooling_rate, 1.0 - bound, 1.0, True)
        # derived, not a field: the level count the caps judge and anneal runs
        object.__setattr__(self, "levels", math.ceil(span / math.log(self.next_temperature(1.0))))
        if self.levels:  # none when termination equals initial
            require("AnnealingSchedule.iterations_per_temperature", self.iterations_per_temperature,
                    1, _MAX_EVALUATIONS // self.levels + 1, closed=True, integer=True)

    def next_temperature(self, temperature: float) -> float:
        return temperature * (1.0 - self.cooling_rate)


class TraceRow(NamedTuple):
    """One proposal step of the annealing chain."""

    temperature: float
    iteration: int
    current: float
    best: float


@dataclass
class OptimizationResult:
    """Best-ever design of a run with its spectrum and convergence trace."""

    best_design: DesignVector
    best_objective: float
    best_spectrum: AbsorptionSpectrum = field(repr=False, compare=False)
    objective_trace: list[TraceRow] = field(repr=False)
    evaluations: int = 0
    seed: int = 0


def objective(
    design: DesignVector,
    mpps: MppSet,
    medium: Medium = AIR,
    grid: FrequencyGrid = DEFAULT_GRID,
    threshold: float = 0.8,
) -> float:
    """Width of the longest effective band (Hz) of the design's spectrum on
    `grid`; 0.0 when no grid point qualifies."""
    return _evaluate(build_chain(design, mpps).template(medium), medium, grid, threshold)[0]


def _evaluate(template, medium, grid, threshold) -> tuple[float, AbsorptionSpectrum]:
    """The objective of the chain whose template this is, with the spectrum
    it is read from: the one full evaluation, of objective and of every
    anneal step that needs it. The width is effective_band's, with no band
    built."""
    spectrum = template_spectrum(template, grid, medium)
    run = longest_run(spectrum.alphas, threshold)
    f_low, f_high = band_edges(grid, spectrum.alphas, *run, threshold) if run else (0.0, 0.0)
    return f_high - f_low, spectrum


# Grid offsets inward from each edge of the current band at which a probe
# looks, where a proposal's band most often ends short of the current one.
_EDGE_OFFSETS = np.array([0, 1, 2, 3, 4, 6, 8, 16])
# The size of a batch of probed proposals; and the share of probed
# proposals rejected unsolved below which a probe costs more than it saves,
# about its cost against a full evaluation's.
_BATCH = 8
_PAYS = 0.25
# Levels without probes after one whose probes did not pay
_REST = 2


class _Probe:
    """The weak points of the principal band [lo, hi] of an accepted
    design's spectrum, whose template (design_template) is `template`: its
    8 lowest interior local minima of alpha, lo + d and hi - d for d in
    _EDGE_OFFSETS, and lo - 1 and hi + 1, each on the grid. `bound` solves
    proposals there alone (PointSolver)."""

    def __init__(self, template, spectrum, threshold, medium):
        grid, alphas = spectrum.grid, spectrum.alphas
        lo, hi = longest_run(alphas, threshold) or (0, 0)  # no band: width 0, probed till it rests
        inner = alphas[lo : hi + 1]
        minima = lo + 1 + np.flatnonzero((inner[1:-1] < inner[:-2]) & (inner[1:-1] <= inner[2:]))
        weakest = minima[np.argsort(alphas[minima], kind="stable")[:8]]
        points = np.concatenate((weakest, lo + _EDGE_OFFSETS, hi - _EDGE_OFFSETS, [lo - 1, hi + 1]))
        indices = np.unique(np.clip(points, 0, grid.size - 1))
        # the points, between the grid's two ends, which count as below the threshold
        self.edges = grid.frequency(np.concatenate(([0], indices, [grid.size - 1])))
        self.below, self.slack = threshold - 1e-9, 1e-9 * grid.f_max
        self.solver = PointSolver(template, self.edges[1:-1], medium)
        self.template, self.medium = template, medium

    def bound(self, designs: np.ndarray) -> list[float]:
        """Per row of `designs` (mm, field order), in one walk, a width (Hz)
        that its objective cannot exceed: the widest gap between consecutive
        points whose probed alpha is below the threshold by more than 1e-9,
        the grid's two ends counted as such points, plus a slack of 1e-9 *
        f_max. A probed alpha agrees with the grid's within about 1e-13, so
        each such point is below the threshold on the grid too, no band
        crosses it, and an interpolated band edge lies between its two grid
        neighbours. Each point is solved as alone, so a row's bound is the
        same in any batch."""
        alphas = self.solver.alphas(design_template(self.template, designs, self.medium))
        below = np.ones((len(alphas), self.edges.size), bool)
        below[:, 1:-1] = alphas < self.below
        # at each point below, the gap back to the last point below before it
        last = np.maximum.accumulate(np.where(below, self.edges, -np.inf), axis=1)
        gaps = np.where(below[:, 1:], self.edges[1:] - last[:, :-1], 0.0)
        return (gaps.max(axis=1) + self.slack).tolist()


def _move(x: np.ndarray, steps: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """x moved by steps * scale and clamped into the box, for each row of
    steps: anneal's move."""
    return np.clip(x + steps * scale, _LOWER, _UPPER)


def accept(delta_objective: float, temperature: float, rng: np.random.Generator) -> bool:
    """Metropolis rule: improvements always, others with exp(delta/T)."""
    require("temperature", temperature, 0, math.inf)
    if delta_objective >= 0:
        return True
    return rng.random() < math.exp(delta_objective / temperature)


def anneal(
    initial: DesignVector,
    mpps: MppSet,
    medium: Medium = AIR,
    grid: FrequencyGrid = DEFAULT_GRID,
    schedule: AnnealingSchedule = AnnealingSchedule(),
    threshold: float = 0.8,
) -> OptimizationResult:
    """Run one annealing chain and return the best design ever visited.

    At each of schedule.levels temperature levels, iterations_per_temperature
    proposal/accept steps run, then the temperature cools. So a run makes
    1 + levels * iterations_per_temperature evaluations, the count the
    schedule's caps judged, however the temperatures round. The initial
    design is evaluated as given (it may sit outside the bounds; every
    proposal afterwards is clamped inside). A panel whose hole the
    narrowest main duct of the search's reach cannot hold is refused before
    any evaluation (ThreeChamberStructure.reach).

    The search steps on designs as arrays in field order: a proposal is
    clamped into the box and solved through build_chain's template
    (design_template), and a DesignVector is built for the initial design
    and the best one alone.

    A proposal is rejected without its full spectrum where that cannot
    change the decision. Its chain is first solved at the weak points of
    the band of the design last taken, about 21 grid points (_Probe). Their
    gaps bound its objective: where u >= exp((bound - current) / T) for the
    uniform u that accept would draw, it is rejected as accept would reject
    it, since exp(delta / T) is no larger. Otherwise its full spectrum
    decides, on the same u. So the decisions, the trace and the result are
    those of a run that evaluates every proposal in full.

    Such rejections come in streaks, as a rejection leaves the current
    design as it was. So every step draws the next proposals of the level
    as the loop would if each were rejected so, 13 uniforms each (its
    move's 12 and its u): _BATCH of them bounded in one walk, or one with
    no bound where the probe rests. At the first proposal that is not
    rejected so, the generator is set back to where it stood after that
    proposal's move, and its full spectrum decides as above. Where fewer
    than _PAYS of the proposals probed lately were rejected so, the probe
    costs more than it saves, and no probe is aimed or solved for the rest
    of the level and the _REST levels after it: at threshold 0.5, whose
    bands span nearly the whole grid, and at 0.95, whose band is narrower
    than the gaps from it to the grid's ends, so that no bound falls below
    it. None of this changes a decision.
    """
    ThreeChamberStructure(initial, mpps).reach()
    rng = np.random.default_rng(schedule.seed)
    layout = build_chain(initial, mpps).template(medium)  # for every proposal's template
    current_objective, spectrum = _evaluate(layout, medium, grid, threshold)
    current = best = initial.as_array()
    best_objective, best_spectrum = current_objective, spectrum
    aim, probe = (layout, spectrum), None
    scale, probed, certified, rest = schedule.step_fraction * _RANGE, 0.0, 0.0, 0
    trace: list[TraceRow] = []

    temperature = schedule.initial_temperature
    for _ in range(schedule.levels):
        # a level probes unless it rests; what was probed before counts half
        left, paying, rest = schedule.iterations_per_temperature, rest == 0, max(rest - 1, 0)
        probed, certified = probed / 2, certified / 2
        while left:
            if paying:
                probe = probe or _Probe(*aim, threshold, medium)
            saved = rng.bit_generator.state
            draws = rng.random((min(_BATCH, left) if paying else 1, 13))  # a move's 12, its u
            candidates = _move(current, -1.0 + 2.0 * draws[:, :12], scale)  # uniform(-1, 1)
            bounds = probe.bound(candidates) if paying else [math.inf]
            u = SimpleNamespace(random=iter(draws[:, 12].tolist()).__next__)
            # the proposals rejected on their bounds, up to the first that is not
            taken = next((i for i, b in enumerate(bounds)
                          if accept(b - current_objective, temperature, u)), len(bounds))
            trace += [TraceRow(temperature, n, current_objective, best_objective)
                      for n in range(len(trace) + 1, len(trace) + 1 + taken)]
            left -= taken
            if paying:
                certified += taken
                probed += min(taken + 1, len(bounds))  # the miss's bound was read too
                paying = certified >= _PAYS * probed
                rest = 0 if paying else _REST
            if taken == len(bounds):
                continue
            # as it stood after the miss's move, so accept draws the miss's u
            rng.bit_generator.state = saved
            rng.bit_generator.advance(13 * taken + 12)
            left -= 1
            template = design_template(layout, candidates[taken], medium)
            candidate_objective, spectrum = _evaluate(template, medium, grid, threshold)
            if accept(candidate_objective - current_objective, temperature, rng):
                current, current_objective = candidates[taken], candidate_objective
                aim, probe = (template, spectrum), None
                if current_objective > best_objective:
                    best, best_objective, best_spectrum = current, current_objective, spectrum
            trace.append(TraceRow(temperature, len(trace) + 1, current_objective, best_objective))
        temperature = schedule.next_temperature(temperature)

    return OptimizationResult(
        best_design=DesignVector(*best.tolist()),
        best_objective=best_objective,
        best_spectrum=best_spectrum,
        objective_trace=trace,
        evaluations=len(trace) + 1,
        seed=schedule.seed,
    )


def anneal_multi(
    initial: DesignVector,
    mpps: MppSet,
    seeds,
    medium: Medium = AIR,
    grid: FrequencyGrid = DEFAULT_GRID,
    schedule: AnnealingSchedule = AnnealingSchedule(),
    threshold: float = 0.8,
) -> list[OptimizationResult]:
    """Independent restarts, one per seed, in seed order."""
    return [
        anneal(initial, mpps, medium, grid, dataclasses.replace(schedule, seed=seed), threshold)
        for seed in seeds
    ]
