"""The wall-to-mouth state solver against the double-precision four-pole
product and against direct trig, its angle-addition phase tables, and the
annealer's objective against the public spectrum path."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    FrequencyGrid,
    Mpp,
    MppSet,
    MppSpec,
    SingularConfigurationError,
    StraightPipe,
    absorption_at,
    absorption_spectrum,
    anneal,
    build_chain,
    effective_band,
    element_matrix,
    load_config,
    mpp_normalized_impedance,
    objective,
    single_chamber_chain,
)
from mppabsorber import acoustics
from mppabsorber.acoustics import _phase_trig, absorption_coefficients

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


def direct_trig_alpha(chain, frequency):
    """alpha at one frequency by the complex state recurrence with cos/sin
    of each pipe phase taken directly: the solver before its phase tables
    and its real-arithmetic wall segment."""
    frequencies = np.asarray([frequency], dtype=float)
    k = 2.0 * np.pi * frequencies / AIR.sound_speed
    rho_c = AIR.characteristic_impedance
    p = np.ones(1, dtype=complex)
    u = np.zeros(1, dtype=complex)
    for element in reversed(chain.elements):
        if isinstance(element, StraightPipe):
            z_c = rho_c / element.area
            c, s = np.cos(element.length * k), np.sin(element.length * k)
            p, u = c * p + (1j * z_c) * s * u, (1j / z_c) * s * p + c * u
        elif isinstance(element, Mpp):
            z = mpp_normalized_impedance(element.panel, frequencies, AIR) * (
                rho_c / element.panel.duct_area
            )
            p = p + z * u
    z0_u = chain.characteristic_impedance(AIR) * u
    gamma = (p - z0_u) / (p + z0_u)
    return float(np.clip(1.0 - np.abs(gamma) ** 2, 0.0, 1.0)[0])


def random_designs(rng, n):
    """n three-chamber designs over BOUNDS_MM, each with a random panel set."""
    for _ in range(n):
        design = DesignVector(**dict(zip(BOUNDS_MM, uniform(rng, BOUNDS_MM.values()))))
        yield design, MppSet(*(random_spec(rng) for _ in range(3)))


def random_chains(seed, n_three, n_single):
    rng = np.random.default_rng(seed)
    for design, mpps in random_designs(rng, n_three):
        yield build_chain(design, mpps)
    for _ in range(n_single):
        yield single_chamber_chain(random_spec(rng), *uniform(rng, SINGLE_RANGES))


@pytest.mark.parametrize("seed", [101, 202])
def test_state_solver_matches_four_pole_product(seed):
    # 2000 points (44 x 46 table blocks, the last one partial) and 2853
    # points, which is not a perfect square
    grids = (DEFAULT_GRID, FrequencyGrid(3.0, 1999.5, 0.7))
    for chain in random_chains(seed, n_three=15, n_single=5):
        for grid in grids:
            alphas = absorption_spectrum(chain, grid).alphas
            reference = four_pole_alphas(chain, grid.frequencies())
            assert np.max(np.abs(alphas - reference)) <= 1e-12


# Point counts with special block shapes: one point, primes, perfect
# squares, and the 0.01 Hz grid over 1-2000 Hz.
SPECIAL_COUNTS = (1, 2, 3, 4, 97, 1999, 2000, 2025, 7919, 199_901)


@st.composite
def progressions(draw):
    """(start, step, count) with every frequency inside 1-2000 Hz, the
    range the plane-wave model covers."""
    count = draw(st.one_of(st.sampled_from(SPECIAL_COUNTS), st.integers(1, 5000)))
    start = draw(st.floats(1.0, 1999.0))
    step = draw(st.floats(1e-4, max((2000.0 - start) / max(count - 1, 1), 1e-4)))
    return start, step, count


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    lengths=st.lists(st.floats(1e-3, 0.15), min_size=1, max_size=8),
    progression=progressions(),
)
def test_phase_tables_match_direct_trig(lengths, progression):
    # the table's error is a few ulp of the angle l*k, at most ~5.5 rad here
    start, step, count = progression
    cos_kl, sin_kl = _phase_trig(lengths, start, step, count, AIR.sound_speed)
    k = 2.0 * np.pi * (start + step * np.arange(count)) / AIR.sound_speed
    phase = np.multiply.outer(lengths, k)
    assert cos_kl.shape == sin_kl.shape == phase.shape
    assert np.max(np.abs(cos_kl - np.cos(phase))) <= 4e-15
    assert np.max(np.abs(sin_kl - np.sin(phase))) <= 4e-15
    if count == 1:
        assert np.array_equal(cos_kl, np.cos(phase))
        assert np.array_equal(sin_kl, np.sin(phase))


# Counts the solver takes in one (8192, 8193), two (12,345) and three
# blocks, the last one partial: of one row (16,411) or more.
BLOCKED_COUNTS = SPECIAL_COUNTS + (8192, 8193, 12_345, 16_411, 20_000, 24_001)


@st.composite
def row_ranges(draw):
    """(count, rows): a progression length and a range of its phase-table
    rows, single rows and the whole table included."""
    count = draw(st.one_of(st.sampled_from(BLOCKED_COUNTS), st.integers(1, 25_000)))
    n_rows = -(-count // math.isqrt(count))
    first = draw(st.integers(0, n_rows - 1))
    stop = draw(st.one_of(st.just(first + 1), st.just(n_rows), st.integers(first + 1, n_rows)))
    return count, range(first, stop)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    lengths=st.lists(st.floats(1e-3, 0.15), min_size=1, max_size=8),
    start=st.floats(1.0, 50.0),
    step=st.floats(1e-3, 0.05),
    table=row_ranges(),
)
def test_phase_table_rows_equal_full_table_bit_for_bit(lengths, start, step, table):
    count, rows = table
    block = math.isqrt(count)
    lo, hi = rows.start * block, min(rows.stop * block, count)
    full_cos, full_sin = _phase_trig(lengths, start, step, count, AIR.sound_speed)
    cos_kl, sin_kl = _phase_trig(lengths, start, step, count, AIR.sound_speed, rows)
    assert np.array_equal(cos_kl, full_cos[:, lo:hi])
    assert np.array_equal(sin_kl, full_sin[:, lo:hi])


@pytest.mark.parametrize(
    "name", ["three_chamber_baseline", "three_chamber_optimized", "single_chamber"]
)
def test_blocked_solve_equals_one_block_bit_for_bit(monkeypatch, config_dir, name):
    config = load_config(config_dir / f"{name}.json")
    chain, medium = config.structure.chain(), config.medium
    grid = FrequencyGrid(config.grid.f_min, config.grid.f_max, 0.01)
    count = grid.frequencies().size
    progression = (grid.f_min, grid.step, count, medium)
    impedances = [
        mpp_normalized_impedance(e.panel, grid.frequencies(), medium)
        for e in chain.elements
        if isinstance(e, Mpp)
    ]
    assert count > 20 * acoustics._BLOCK_POINTS
    blocked = absorption_coefficients(chain, *progression)
    blocked_cached = absorption_coefficients(chain, *progression, impedances)
    monkeypatch.setattr(acoustics, "_BLOCK_POINTS", count + 1)
    reference = absorption_coefficients(chain, *progression)
    assert np.array_equal(blocked, reference)
    assert np.array_equal(blocked_cached, reference)


def test_singular_configuration_in_a_later_block_reports_its_frequency(
    monkeypatch, baseline_chain
):
    start, step, count = 1.0, 0.01, 30_000
    block = math.isqrt(count)
    target = 20_000  # the third block
    assert target >= 2 * acoustics._BLOCK_POINTS
    z0 = baseline_chain.characteristic_impedance()
    solve = acoustics._mouth_state

    def forced(chain, start, step, count, medium, panel_impedances, rows):
        p, u = solve(chain, start, step, count, medium, panel_impedances, rows)
        index = target - rows.start * block
        if 0 <= index < p.size:
            p[index] = -z0 * u[index]  # p + Z0*u == 0 exactly
        return p, u

    monkeypatch.setattr(acoustics, "_mouth_state", forced)
    with pytest.raises(SingularConfigurationError) as excinfo:
        absorption_coefficients(baseline_chain, start, step, count)
    assert excinfo.value.frequency == start + step * target


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    single=st.booleans(),
    frequency=st.floats(1.0, 4000.0),
)
def test_absorption_at_equals_direct_trig_bit_for_bit(seed, single, frequency):
    chain = next(random_chains(seed, n_three=int(not single), n_single=int(single)))
    assert absorption_at(chain, frequency) == direct_trig_alpha(chain, frequency)


def reference_width(design, mpps, grid=DEFAULT_GRID, threshold=0.8):
    band = effective_band(absorption_spectrum(build_chain(design, mpps), grid), threshold)
    return band.width if band is not None else 0.0


def test_objective_equals_effective_band_of_spectrum():
    rng = np.random.default_rng(404)
    widths = []
    for design, mpps in random_designs(rng, 40):
        widths.append(objective(design, mpps))
        assert widths[-1] == reference_width(design, mpps)
    assert sum(w > 0 for w in widths) >= 10  # the sample is not all infeasible


def test_objective_of_infeasible_design_is_zero():
    # the baseline's alpha peaks at about 0.934
    assert objective(BASELINE_DESIGN, DEFAULT_MPPS, threshold=0.95) == 0.0
    spectrum = absorption_spectrum(build_chain(BASELINE_DESIGN, DEFAULT_MPPS), DEFAULT_GRID)
    assert effective_band(spectrum, 0.95) is None


@pytest.mark.parametrize(
    "grid, edges",
    [
        (FrequencyGrid(200.0, 1000.0, 1.0), (200.0, 1000.0)),  # band spans the whole grid
        (FrequencyGrid(1.0, 1000.0, 1.0), (None, 1000.0)),  # band ends at the upper edge
    ],
)
def test_objective_of_band_reaching_grid_edge(grid, edges):
    width = objective(OPTIMIZED_DESIGN, DEFAULT_MPPS, grid=grid)
    assert width == reference_width(OPTIMIZED_DESIGN, DEFAULT_MPPS, grid)
    spectrum = absorption_spectrum(build_chain(OPTIMIZED_DESIGN, DEFAULT_MPPS), grid)
    band = effective_band(spectrum)
    f_low, f_high = edges
    assert band.f_high == f_high
    assert f_low is None or band.f_low == f_low


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
