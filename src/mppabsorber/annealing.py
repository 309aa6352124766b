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
from typing import NamedTuple

import numpy as np

from .acoustics import AIR, Medium, absorption_spectrum
from .spectrum import (
    DEFAULT_GRID,
    AbsorptionSpectrum,
    FrequencyGrid,
    check_fields,
    effective_band,
    ranged,
    require,
)
from .structure import BOUNDS_MM, DesignVector, MppSet, ThreeChamberStructure, build_chain

__all__ = [
    "AnnealingSchedule",
    "OptimizationResult",
    "TraceRow",
    "accept",
    "anneal",
    "anneal_multi",
    "neighbor",
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
    cooling_rate is read as a per-level decrement by default
    (T <- (1 - rate) * T); set cooling_reading="multiplier" for the
    alternative T <- rate * T. A rate that would take more than 10**6
    levels to cool from initial_temperature to termination_temperature is
    refused, and so are more than 10**8 evaluations in all.
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
        if self.cooling_reading not in ("decrement", "multiplier"):
            raise ValueError(
                f"AnnealingSchedule.cooling_reading must be 'decrement' or 'multiplier',"
                f" got {self.cooling_reading!r}"
            )
        # the per-level factor that cools from initial to termination in
        # _MAX_LEVELS levels; never 1, a factor at which nothing cools
        span = math.log(self.termination_temperature) - math.log(self.initial_temperature)
        bound = min(math.exp(span / _MAX_LEVELS), math.nextafter(1.0, 0.0))
        decrement = self.cooling_reading == "decrement"
        low, high, closed = (1.0 - bound, 1.0, True) if decrement else (0.0, bound, "high")
        require("AnnealingSchedule.cooling_rate", self.cooling_rate, low, high, closed)
        levels = math.ceil(span / math.log(self.next_temperature(1.0)))
        if levels:  # none when termination equals initial
            require("AnnealingSchedule.iterations_per_temperature", self.iterations_per_temperature,
                    1, _MAX_EVALUATIONS // levels + 1, closed=True, integer=True)

    def next_temperature(self, temperature: float) -> float:
        if self.cooling_reading == "decrement":
            return temperature * (1.0 - self.cooling_rate)
        return temperature * self.cooling_rate


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
    band = effective_band(absorption_spectrum(build_chain(design, mpps), grid, medium), threshold)
    return band.width if band is not None else 0.0


def neighbor(
    design: DesignVector, schedule: AnnealingSchedule, rng: np.random.Generator
) -> DesignVector:
    """All coordinates perturbed by +/- step_fraction of their bound range,
    then clamped into the box; the output always satisfies the bounds."""
    step = rng.uniform(-1.0, 1.0, size=_RANGE.size) * (schedule.step_fraction * _RANGE)
    return DesignVector(*np.clip(design.as_array() + step, _LOWER, _UPPER).tolist())


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

    At each temperature level, iterations_per_temperature proposal/accept
    steps run, then the temperature cools; the loop stops once the
    temperature is no longer above termination_temperature. The initial
    design is evaluated as given (it may sit outside the bounds; every
    proposal afterwards is clamped inside). A panel whose hole the
    narrowest main duct of the search's reach cannot hold is refused before
    any evaluation (ThreeChamberStructure.reach).
    """
    ThreeChamberStructure(initial, mpps).reach()
    rng = np.random.default_rng(schedule.seed)
    current, current_objective = initial, objective(initial, mpps, medium, grid, threshold)
    best, best_objective = current, current_objective
    trace: list[TraceRow] = []

    temperature = schedule.initial_temperature
    while temperature > schedule.termination_temperature:
        for _ in range(schedule.iterations_per_temperature):
            candidate = neighbor(current, schedule, rng)
            candidate_objective = objective(candidate, mpps, medium, grid, threshold)
            if accept(candidate_objective - current_objective, temperature, rng):
                current, current_objective = candidate, candidate_objective
                if current_objective > best_objective:
                    best, best_objective = current, current_objective
            trace.append(
                TraceRow(temperature, len(trace) + 1, current_objective, best_objective)
            )
        temperature = schedule.next_temperature(temperature)

    return OptimizationResult(
        best_design=best,
        best_objective=best_objective,
        best_spectrum=absorption_spectrum(build_chain(best, mpps), grid, medium),
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
