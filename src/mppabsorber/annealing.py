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
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .acoustics import AIR, Medium, absorption_coefficients, mpp_normalized_impedance
from .spectrum import (
    DEFAULT_GRID,
    AbsorptionSpectrum,
    EffectiveBand,
    FrequencyGrid,
    effective_band,
    longest_band,
    require_positive,
)
from .structure import BOUNDS_MM, DESIGN_FIELDS, DesignVector, MppSet, build_chain

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

_LOWER = np.array([BOUNDS_MM[name][0] for name in DESIGN_FIELDS])
_UPPER = np.array([BOUNDS_MM[name][1] for name in DESIGN_FIELDS])
_RANGE = _UPPER - _LOWER


@dataclass(frozen=True)
class AnnealingSchedule:
    """Cooling schedule and move-kernel parameters.

    Temperature is a bare number compared against objective deltas in Hz.
    cooling_rate is read as a per-level decrement by default
    (T <- (1 - rate) * T); set cooling_reading="multiplier" for the
    alternative T <- rate * T.
    """

    initial_temperature: float = 100.0
    iterations_per_temperature: int = 100
    cooling_rate: float = 0.2
    termination_temperature: float = 1e-6
    step_fraction: float = 0.1
    seed: int = 0
    cooling_reading: str = "decrement"

    def __post_init__(self):
        require_positive(self, "initial_temperature", "termination_temperature")
        if not 0 < self.cooling_rate < 1:
            raise ValueError(f"cooling_rate must be in (0, 1), got {self.cooling_rate}")
        if self.termination_temperature > self.initial_temperature:
            raise ValueError(
                "termination_temperature must not exceed initial_temperature"
            )
        if self.iterations_per_temperature < 1:
            raise ValueError("iterations_per_temperature must be at least 1")
        if not 0 <= self.step_fraction < math.inf:
            raise ValueError(
                f"step_fraction must be finite and >= 0, got {self.step_fraction}"
            )
        if self.cooling_reading not in ("decrement", "multiplier"):
            raise ValueError(
                f"cooling_reading must be 'decrement' or 'multiplier',"
                f" got {self.cooling_reading!r}"
            )

    def next_temperature(self, temperature: float) -> float:
        if self.cooling_reading == "decrement":
            return temperature * (1.0 - self.cooling_rate)
        return temperature * self.cooling_rate


@dataclass(frozen=True)
class TraceRow:
    """One proposal step of the annealing chain."""

    temperature: float
    iteration: int
    current: float
    best: float


@dataclass
class OptimizationResult:
    """Best-ever design of a run with its spectrum, band and convergence
    trace."""

    best_design: DesignVector
    best_objective: float
    best_spectrum: AbsorptionSpectrum = field(repr=False, compare=False)
    best_band: EffectiveBand | None
    objective_trace: list[TraceRow] = field(repr=False)
    evaluations: int = 0
    seed: int = 0


@functools.lru_cache(maxsize=1)
def _panel_impedances(mpps: MppSet, medium: Medium, grid: FrequencyGrid):
    """Grid frequencies and the normalised Maa impedance of each panel on
    them, all read-only.

    Z/(rho0*c0) does not depend on the duct the panel sits in, so one set
    serves every design of a run; the duct diameter passed here is a
    placeholder.
    """
    frequencies = grid.frequencies()
    impedances = tuple(
        mpp_normalized_impedance(spec.panel(1.0), frequencies, medium) for spec in mpps
    )
    for array in (frequencies, *impedances):
        array.flags.writeable = False
    return frequencies, impedances


def _alphas(design: DesignVector, mpps: MppSet, medium: Medium, grid: FrequencyGrid):
    """Grid frequencies and the design's alphas on them, with the run's panel
    impedances."""
    frequencies, impedances = _panel_impedances(mpps, medium, grid)
    alphas = absorption_coefficients(
        build_chain(design, mpps), grid.f_min, grid.step, frequencies.size, medium,
        impedances,
    )
    return frequencies, alphas


def objective(
    design: DesignVector,
    mpps: MppSet,
    medium: Medium = AIR,
    grid: FrequencyGrid = DEFAULT_GRID,
    threshold: float = 0.8,
) -> float:
    """Width of the longest effective band (Hz); 0.0 when none qualifies.

    Equal to effective_band(absorption_spectrum(...)).width, without wrapping
    and re-validating the arrays as an AbsorptionSpectrum.
    """
    band = longest_band(*_alphas(design, mpps, medium, grid), threshold)
    return band.width if band is not None else 0.0


def neighbor(
    design: DesignVector, schedule: AnnealingSchedule, rng: np.random.Generator
) -> DesignVector:
    """All coordinates perturbed by +/- step_fraction of their bound range,
    then clamped into the box; the output always satisfies the bounds."""
    values = design.as_array()
    values = values + rng.uniform(-1.0, 1.0, size=values.size) * (
        schedule.step_fraction * _RANGE
    )
    return DesignVector.from_array(np.clip(values, _LOWER, _UPPER))


def accept(delta_objective: float, temperature: float, rng: np.random.Generator) -> bool:
    """Metropolis rule: improvements always, others with exp(delta/T)."""
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
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
    proposal afterwards is clamped inside).
    """

    def evaluate(design: DesignVector) -> float:
        return objective(design, mpps, medium, grid, threshold)

    rng = np.random.default_rng(schedule.seed)
    current = initial
    current_objective = evaluate(current)
    evaluations = 1
    best = current
    best_objective = current_objective
    trace: list[TraceRow] = []

    temperature = schedule.initial_temperature
    iteration = 0
    while temperature > schedule.termination_temperature:
        for _ in range(schedule.iterations_per_temperature):
            iteration += 1
            candidate = neighbor(current, schedule, rng)
            candidate_objective = evaluate(candidate)
            evaluations += 1
            if accept(candidate_objective - current_objective, temperature, rng):
                current = candidate
                current_objective = candidate_objective
                if current_objective > best_objective:
                    best = current
                    best_objective = current_objective
            trace.append(
                TraceRow(temperature, iteration, current_objective, best_objective)
            )
        temperature = schedule.next_temperature(temperature)

    best_spectrum = AbsorptionSpectrum(*_alphas(best, mpps, medium, grid))
    return OptimizationResult(
        best_design=best,
        best_objective=best_objective,
        best_spectrum=best_spectrum,
        best_band=effective_band(best_spectrum, threshold),
        objective_trace=trace,
        evaluations=evaluations,
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
        anneal(
            initial,
            mpps,
            medium,
            grid,
            dataclasses.replace(schedule, seed=seed),
            threshold,
        )
        for seed in seeds
    ]
