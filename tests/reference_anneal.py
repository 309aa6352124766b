"""A textbook simulated-annealing loop (Metropolis et al., J. Chem. Phys. 21,
1087 (1953)) over the public API: the oracle that `anneal` must match bit
for bit, decision by decision (`test_annealing.py`). Each step moves every
coordinate by a uniform(-1, 1) share of step_fraction of its range, clamps
it into BOUNDS_MM, evaluates the proposal in full with `objective` and
lets `accept` decide on the generator itself. pytest does not collect it."""

import numpy as np

from mppabsorber import BOUNDS_MM, DesignVector, accept, objective

LOWER, UPPER = np.array(list(BOUNDS_MM.values())).T


def reference_anneal(initial, mpps, medium, grid, schedule, threshold):
    """The best design, its objective, the trace of (temperature, step,
    current, best) rows and the evaluation count of one annealing chain."""
    rng = np.random.default_rng(schedule.seed)
    design = best = initial.as_array()
    current = best_objective = objective(initial, mpps, medium, grid, threshold)
    scale = schedule.step_fraction * (UPPER - LOWER)
    trace, temperature = [], schedule.initial_temperature
    for _ in range(schedule.levels):
        for _ in range(schedule.iterations_per_temperature):
            proposal = np.clip(design + rng.uniform(-1.0, 1.0, design.size) * scale, LOWER, UPPER)
            value = objective(DesignVector(*proposal.tolist()), mpps, medium, grid, threshold)
            if accept(value - current, temperature, rng):
                design, current = proposal, value
                if current > best_objective:
                    best, best_objective = design, current
            trace.append((temperature, len(trace) + 1, current, best_objective))
        temperature = schedule.next_temperature(temperature)
    return DesignVector(*best.tolist()), best_objective, trace, len(trace) + 1
