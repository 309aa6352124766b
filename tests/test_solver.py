"""The wall-to-mouth state solver against the double-precision four-pole
product, and the annealer's reuse of panel impedances across evaluations."""

import dataclasses

import numpy as np
import pytest

from mppabsorber import (
    AIR,
    AnnealingSchedule,
    BASELINE_DESIGN,
    BOUNDS_MM,
    DEFAULT_GRID,
    DEFAULT_MPPS,
    OPTIMIZED_DESIGN,
    AreaChange,
    DesignVector,
    MppSet,
    MppSpec,
    absorption_spectrum,
    anneal,
    build_chain,
    effective_band,
    element_matrix,
    objective,
    single_chamber_chain,
)

MPP_RANGES = ((0.2, 1.0), (0.1, 0.8), (0.005, 0.05))  # thickness, aperture (mm), porosity
SINGLE_RANGES = ((5.0, 11.0), (60.0, 120.0), (40.0, 100.0), (4.0, 40.0))  # mm


def uniform(rng, ranges):
    return [rng.uniform(lo, hi) for lo, hi in ranges]


def random_spec(rng):
    return MppSpec(*uniform(rng, MPP_RANGES))


def four_pole_alphas(chain, frequencies):
    """alpha from the complex128 product of the element matrices, source
    first, with Gamma = (a11 - Z0*a21) / (a11 + Z0*a21)."""
    matrices = [
        element_matrix(e, frequencies) for e in chain.elements if not isinstance(e, AreaChange)
    ]
    product = matrices[0]
    for matrix in matrices[1:]:
        product = product @ matrix
    z0 = chain.characteristic_impedance(AIR)
    gamma = (product.a11 - z0 * product.a21) / (product.a11 + z0 * product.a21)
    return np.clip(1.0 - np.abs(gamma) ** 2, 0.0, 1.0)


def random_chains(seed, n_three, n_single):
    rng = np.random.default_rng(seed)
    for _ in range(n_three):
        design = DesignVector(**dict(zip(BOUNDS_MM, uniform(rng, BOUNDS_MM.values()))))
        yield build_chain(design, MppSet(*(random_spec(rng) for _ in range(3))))
    for _ in range(n_single):
        yield single_chamber_chain(random_spec(rng), *uniform(rng, SINGLE_RANGES))


@pytest.mark.parametrize("seed", [101, 202])
def test_state_solver_matches_four_pole_product(seed):
    frequencies = DEFAULT_GRID.frequencies()
    for chain in random_chains(seed, n_three=15, n_single=5):
        alphas = absorption_spectrum(chain, DEFAULT_GRID).alphas
        assert np.max(np.abs(alphas - four_pole_alphas(chain, frequencies))) <= 1e-12


def test_anneal_best_objective_is_objective_of_best_design():
    schedule = AnnealingSchedule(
        initial_temperature=100.0,
        iterations_per_temperature=5,
        termination_temperature=30.0,
        seed=7,
    )
    result = anneal(BASELINE_DESIGN, DEFAULT_MPPS, schedule=schedule)
    assert result.best_objective == objective(result.best_design, DEFAULT_MPPS)
    assert result.best_band.width == result.best_objective
    fresh = absorption_spectrum(build_chain(result.best_design, DEFAULT_MPPS), DEFAULT_GRID)
    assert np.array_equal(result.best_spectrum.alphas, fresh.alphas)


def test_objective_does_not_reuse_other_panels():
    other = dataclasses.replace(DEFAULT_MPPS, mpp3=MppSpec(thickness=0.5, aperture=0.3, porosity=0.01))

    def uncached(design, mpps):
        return effective_band(absorption_spectrum(build_chain(design, mpps), DEFAULT_GRID)).width

    for design in (BASELINE_DESIGN, OPTIMIZED_DESIGN):
        widths = [objective(design, mpps) for mpps in (DEFAULT_MPPS, other, DEFAULT_MPPS)]
        assert widths == [uncached(design, DEFAULT_MPPS), uncached(design, other),
                          uncached(design, DEFAULT_MPPS)]
        assert widths[0] != widths[1]
