"""The wall-to-mouth state solver against the double-precision four-pole
product and against direct trig, its angle-addition phase tables, and the
annealer's objective against the public spectrum path."""

import dataclasses
import math
import sys
import threading
import tracemalloc
from types import SimpleNamespace
from unittest import mock

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
    DesignVector,
    FrequencyGrid,
    Medium,
    MppPanel,
    MppSet,
    MppSpec,
    StraightPipe,
    absorption_at,
    absorption_spectrum,
    anneal,
    build_chain,
    chain_matrix,
    effective_band,
    load_config,
    mpp_normalized_impedance,
    objective,
    single_chamber_chain,
)
from mppabsorber import acoustics, annealing, structure
from mppabsorber.acoustics import PointSolver, _phase_trig, _Workspace
from mppabsorber.spectrum import band_edges, longest_run

from four_pole import element_entries, four_pole_product

MPP_RANGES = ((0.2, 1.0), (0.1, 0.8), (0.005, 0.05))  # thickness, aperture (mm), porosity
SINGLE_RANGES = ((5.0, 11.0), (60.0, 120.0), (40.0, 100.0), (4.0, 40.0))  # mm


def uniform(rng, ranges):
    return [rng.uniform(lo, hi) for lo, hi in ranges]


def random_spec(rng):
    return MppSpec(*uniform(rng, MPP_RANGES))


def grid_of(start, step, count):
    """The `count`-point grid start, start + step, ..."""
    grid = FrequencyGrid(start, start + step * (count - 0.5), step)
    assert grid.size == count
    return grid


def own_phase_trig(lengths, grid, rows=None):
    """_phase_trig over the table rows `rows` of `grid` (all of them when
    None), in a workspace of its own, not the thread's, whose blocks are
    len(rows) rows. As in the solver, block 0 takes the fine cos/sin first."""
    block = math.isqrt(grid.size)
    rows = range(-(-grid.size // block)) if rows is None else rows
    with mock.patch.object(acoustics, "_BLOCK_POINTS", len(rows) * block):
        ws = _Workspace(grid, AIR, len(lengths))
    if rows.start:
        _phase_trig(lengths, ws, 0)
    ws.set_points(min(rows.stop * block, grid.size) - rows.start * block)
    return _phase_trig(lengths, ws, rows.start)


def four_pole_alphas(chain, frequencies):
    """alpha from the complex128 product of the element matrices, source
    first, with Gamma = (a11 - Z0*a21) / (a11 + Z0*a21)."""
    a11, _, a21, _ = four_pole_product(chain, frequencies)
    z0 = chain.characteristic_impedance(AIR)
    gamma = (a11 - z0 * a21) / (a11 + z0 * a21)
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
        elif isinstance(element, MppPanel):
            z = mpp_normalized_impedance(element, frequencies, AIR) * (rho_c / element.duct_area)
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


@settings(max_examples=150)
@given(
    lengths=st.lists(st.floats(1e-3, 0.15), min_size=1, max_size=8),
    progression=progressions(),
)
def test_phase_tables_match_direct_trig(lengths, progression):
    # the table's error is a few ulp of the angle l*k, at most ~5.5 rad here
    start, step, count = progression
    cos_kl, sin_kl = own_phase_trig(lengths, grid_of(start, step, count))
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


@settings(max_examples=150)
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
    grid = grid_of(start, step, count)
    full_cos, full_sin = own_phase_trig(lengths, grid)
    cos_kl, sin_kl = own_phase_trig(lengths, grid, rows)
    assert not np.shares_memory(cos_kl, full_cos)
    assert np.array_equal(cos_kl, full_cos[:, lo:hi])
    assert np.array_equal(sin_kl, full_sin[:, lo:hi])


def test_kept_workspace_is_replaced_by_any_change_of_grid_or_medium(
    monkeypatch, baseline_chain
):
    # the one rule for when the kept wavenumbers and panel impedances are
    # stale: any change of grid or medium; an equal grid keeps them
    monkeypatch.setattr(acoustics, "_local", threading.local())
    grid = grid_of(1.0, 0.05, 2000)
    absorption_spectrum(baseline_chain, grid)
    kept = acoustics._local.workspace
    absorption_spectrum(baseline_chain, FrequencyGrid(grid.f_min, grid.f_max, grid.step))
    assert acoustics._local.workspace is kept
    for key in [
        (grid_of(1.5, 0.05, 2000), AIR),
        (grid_of(1.0, 0.06, 2000), AIR),
        (FrequencyGrid(grid.f_min, grid.f_max + 0.01, grid.step), AIR),  # also 2000 points
        (grid, Medium(density=1.3)),
    ]:
        absorption_spectrum(baseline_chain, *key)
        replaced = acoustics._local.workspace
        assert replaced is not kept and replaced.key == key
        # the same chain's panels, computed afresh
        assert len(replaced.impedances) == len(kept.impedances) == 3
        assert all(new is not old for new, old in zip(replaced.impedances, kept.impedances))
        absorption_spectrum(baseline_chain, grid)
        fresh = acoustics._local.workspace
        assert fresh is not replaced and fresh.key == (grid, AIR)
        assert np.array_equal(fresh.fine_k, kept.fine_k)
        assert np.array_equal(fresh.coarse_k, kept.coarse_k)


@pytest.fixture
def workspaces_built(monkeypatch):
    """(pipes, rows, block, points) of each solver workspace built from here
    on, in order, in a thread that keeps none yet."""
    built = []

    class Counted(_Workspace):
        def __init__(self, grid, medium, n_pipes):
            super().__init__(grid, medium, n_pipes)
            built.append((n_pipes, self.rows, self.block, self.points))

    monkeypatch.setattr(acoustics, "_Workspace", Counted)
    monkeypatch.setattr(acoustics, "_local", threading.local())
    return built


@pytest.mark.parametrize(
    "name", ["three_chamber_baseline", "three_chamber_optimized", "single_chamber"]
)
def test_blocked_solve_equals_one_block_bit_for_bit(
    monkeypatch, config_dir, name, workspaces_built
):
    config = load_config(config_dir / f"{name}.json")
    chain, medium = config.structure.chain(), config.medium
    grid = FrequencyGrid(config.grid.f_min, config.grid.f_max, 0.01)
    assert grid.size > 20 * acoustics._BLOCK_POINTS
    blocked = absorption_spectrum(chain, grid, medium).alphas
    # the second solve builds a workspace of its own, with nothing kept from
    # the first
    blocked_again = absorption_spectrum(chain, grid, medium).alphas
    assert all(points < grid.size for *_, points in workspaces_built[:2])
    monkeypatch.setattr(acoustics, "_BLOCK_POINTS", grid.size + 1)
    reference = absorption_spectrum(chain, grid, medium).alphas
    assert [points for *_, points in workspaces_built[2:]] == [grid.size]
    assert np.array_equal(blocked, reference)
    assert np.array_equal(blocked_again, reference)


def test_long_grids_in_sequence_equal_their_one_block_solves(
    monkeypatch, config_dir, workspaces_built
):
    # a long grid's fine cos/sin are taken once per call, in its first block;
    # any carried over from the call before, for another chain's pipes, would
    # show in every later block
    solves = []
    for name in ["three_chamber_baseline", "single_chamber", "three_chamber_optimized"]:
        config = load_config(config_dir / f"{name}.json")
        grid = FrequencyGrid(config.grid.f_min, config.grid.f_max, 0.01)
        solves.append((config.structure.chain(), grid, config.medium))
    blocked = [absorption_spectrum(*solve).alphas for solve in solves]
    assert len(workspaces_built) == 3
    assert all(built[-1] < solve[1].size for solve, built in zip(solves, workspaces_built))
    for solve, alphas in zip(solves, blocked):
        monkeypatch.setattr(acoustics, "_BLOCK_POINTS", solve[1].size + 1)
        assert np.array_equal(alphas, absorption_spectrum(*solve).alphas)


def test_long_grid_builds_one_workspace_and_keeps_none(baseline_chain, workspaces_built):
    # one workspace, sized for a full block, also serves the shorter last
    # block, and the call drops it: what stays allocated is the alphas
    grid = FrequencyGrid(1.0, 2000.0, 0.01)
    absorption_spectrum(baseline_chain, grid)
    tracemalloc.start()
    try:
        alphas = absorption_spectrum(baseline_chain, grid).alphas
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    block = math.isqrt(grid.size)
    rows = -(-acoustics._BLOCK_POINTS // block)
    assert workspaces_built == [(8, rows, block, rows * block)] * 2  # one per call
    assert kept <= alphas.nbytes + 64 * 1024


def test_long_grid_neither_evicts_nor_replaces_the_kept_workspace(
    baseline_chain, workspaces_built
):
    alphas = absorption_spectrum(baseline_chain, DEFAULT_GRID).alphas
    kept = acoustics._local.workspace
    absorption_spectrum(baseline_chain, FrequencyGrid(1.0, 2000.0, 0.01))
    again = absorption_spectrum(baseline_chain, DEFAULT_GRID).alphas
    assert len(workspaces_built) == 2  # the kept one and the long grid's
    assert acoustics._local.workspace is kept
    assert again.tobytes() == alphas.tobytes()


@pytest.fixture
def impedance_calls(monkeypatch):
    """The panel of each Maa impedance the solver computes from here on."""
    calls = []
    impedance = acoustics.mpp_normalized_impedance

    def counted(panel, frequency, medium=AIR):
        calls.append(panel)
        return impedance(panel, frequency, medium)

    monkeypatch.setattr(acoustics, "mpp_normalized_impedance", counted)
    return calls


def test_one_point_solve_neither_keeps_nor_evicts_a_workspace(workspaces_built):
    # absorption_at between two evaluations leaves the annealer's workspace
    # as it was, and builds none: its point solver lives for the call
    width = objective(BASELINE_DESIGN, DEFAULT_MPPS)
    kept = acoustics._local.workspace
    absorption_at(build_chain(BASELINE_DESIGN, DEFAULT_MPPS), 500.0)
    assert acoustics._local.workspace is kept
    assert objective(BASELINE_DESIGN, DEFAULT_MPPS) == width
    assert [points for *_, points in workspaces_built] == [2000]


def test_repeated_panels_reuse_their_impedances(impedance_calls, workspaces_built):
    # MPPs 1 and 2 share a triple, so a chain's impedances are two arrays;
    # another d_m moves every panel's duct but none of its impedance
    objective(BASELINE_DESIGN, DEFAULT_MPPS)
    assert len(impedance_calls) == 2
    objective(dataclasses.replace(BASELINE_DESIGN, d_m=6.0), DEFAULT_MPPS)
    assert len(impedance_calls) == 2


def test_long_grid_computes_each_distinct_panel_once_per_block(
    baseline_chain, impedance_calls, workspaces_built
):
    # each block computes its own impedances, and MPPs 1 and 2 share theirs
    grid = FrequencyGrid(1.0, 2000.0, 0.01)
    absorption_spectrum(baseline_chain, grid)
    [(_, rows, block, _)] = workspaces_built
    n_rows = -(-grid.size // block)
    assert -(-n_rows // rows) == 24
    assert len(impedance_calls) == 2 * 24


def test_fewer_pipes_use_the_leading_rows_of_the_kept_workspace(monkeypatch, workspaces_built):
    # three-chamber chains have 8 pipes and the single chamber 2: after the
    # first solve the thread's workspace serves both, bit for bit as a fresh one
    chains = list(random_chains(505, n_three=3, n_single=1))
    alphas = [absorption_spectrum(chain, DEFAULT_GRID).alphas for chain in chains]
    assert workspaces_built == [(8, 46, 44, 2000)]
    for chain, solved in zip(chains, alphas):
        monkeypatch.setattr(acoustics, "_local", threading.local())
        assert np.array_equal(solved, absorption_spectrum(chain, DEFAULT_GRID).alphas)


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    single=st.booleans(),
    frequency=st.floats(1.0, 4000.0),
)
def test_absorption_at_equals_direct_trig_bit_for_bit(seed, single, frequency):
    chain = next(random_chains(seed, n_three=int(not single), n_single=int(single)))
    assert absorption_at(chain, frequency) == direct_trig_alpha(chain, frequency)


def admittance_alphas(chain, frequencies):
    """alpha from the admittance Y = u/p, carried from the rigid wall (Y =
    0) to the mouth one element at a time, multiplying no matrices: a pipe
    gives Y <- (Y*c + j*s/Zc) / (c + j*Zc*s*Y), a panel Y <- Y / (1 + z*Y),
    and the mouth Gamma = (1 - Z0*Y) / (1 + Z0*Y). A denominator can vanish
    while the states are lossless, so this is an oracle and not a solver."""
    k = 2.0 * np.pi * frequencies / AIR.sound_speed
    rho_c = AIR.characteristic_impedance
    y = np.zeros(len(frequencies), complex)
    for element in reversed(chain.elements):
        if isinstance(element, StraightPipe):
            z_c = rho_c / element.area
            c, s = np.cos(element.length * k), np.sin(element.length * k)
            y = (y * c + 1j * s / z_c) / (c + 1j * z_c * s * y)
        elif isinstance(element, MppPanel):
            z = mpp_normalized_impedance(element, frequencies, AIR) * (rho_c / element.duct_area)
            y = y / (1.0 + z * y)
    z0_y = chain.characteristic_impedance(AIR) * y
    gamma = (1.0 - z0_y) / (1.0 + z0_y)
    return np.clip(1.0 - np.abs(gamma) ** 2, 0.0, 1.0)


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), single=st.booleans())
def test_spectrum_equals_admittance_recursion(seed, single):
    """The state walk against a formulation that shares neither its
    states nor a matrix product: every alpha of the default grid within
    1e-12, on random three-chamber and single-chamber chains."""
    chain = next(random_chains(seed, n_three=int(not single), n_single=int(single)))
    alphas = absorption_spectrum(chain, DEFAULT_GRID).alphas
    assert np.abs(alphas - admittance_alphas(chain, DEFAULT_GRID.frequencies())).max() <= 1e-12


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
    assert effective_band(result.best_spectrum).width == result.best_objective
    fresh = absorption_spectrum(build_chain(result.best_design, DEFAULT_MPPS), DEFAULT_GRID)
    assert np.array_equal(result.best_spectrum.alphas, fresh.alphas)


def test_objective_does_not_reuse_other_panels():
    # The solver keeps the last chain's panel impedances for the last grid
    # and medium. Each call below changes one thing the kept values depend
    # on, against the call before it.
    def uncached(design, mpps, medium=AIR, grid=DEFAULT_GRID):
        spectrum = absorption_spectrum(build_chain(design, mpps), grid, medium)
        return effective_band(spectrum).width

    other = dataclasses.replace(DEFAULT_MPPS, mpp3=MppSpec(thickness=0.5, aperture=0.3, porosity=0.01))
    porous = dataclasses.replace(
        DEFAULT_MPPS, mpp1=dataclasses.replace(DEFAULT_MPPS.mpp1, porosity=0.02)
    )
    dense = Medium(density=1.3)
    shifted = FrequencyGrid(DEFAULT_GRID.f_min + 0.5, DEFAULT_GRID.f_max + 0.5, DEFAULT_GRID.step)
    assert shifted.frequencies().size == DEFAULT_GRID.frequencies().size
    for design in (BASELINE_DESIGN, OPTIMIZED_DESIGN):
        cases = [
            (DEFAULT_MPPS, AIR, DEFAULT_GRID),
            (other, AIR, DEFAULT_GRID),
            (DEFAULT_MPPS, AIR, DEFAULT_GRID),
            (porous, AIR, DEFAULT_GRID),  # differs only in a porosity
            (DEFAULT_MPPS, dense, DEFAULT_GRID),
            (DEFAULT_MPPS, AIR, shifted),  # same point count, another f_min
            (DEFAULT_MPPS, AIR, DEFAULT_GRID),
        ]
        widths = [objective(design, mpps, medium, grid) for mpps, medium, grid in cases]
        assert widths == [uncached(design, *case) for case in cases]
        # each change moves the width, so impedances kept from the call
        # before would show
        assert widths[0] != widths[1]
        assert len({widths[0], widths[3], widths[4], widths[5]}) == 4
        # a one-point solve at the grid's f_min leaves the thread's
        # workspace alone
        assert objective(design, porous) == widths[3]
        absorption_at(build_chain(design, DEFAULT_MPPS), DEFAULT_GRID.f_min)
        assert objective(design, DEFAULT_MPPS) == widths[0]


@pytest.mark.parametrize(
    "grid, limit", [(DEFAULT_GRID, 64 * 1024), (FrequencyGrid(1.0, 4000.0, 1.0), 128 * 1024)]
)
def test_repeated_objective_allocates_little(grid, limit):
    # The first call sizes the thread's solver workspace and computes the
    # panel impedances it keeps; a later call on the same grid reuses both
    # and allocates little more than the alphas it returns (16 KiB here):
    # the band reads its edge frequencies without the grid's frequency
    # array. tracemalloc sees numpy's array data.
    objective(BASELINE_DESIGN, DEFAULT_MPPS, grid=grid)
    tracemalloc.start()
    try:
        objective(OPTIMIZED_DESIGN, DEFAULT_MPPS, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit


@pytest.mark.parametrize("count", [2000, 30_000])  # one block and four
def test_alphas_outlive_the_workspace(monkeypatch, baseline_chain, optimized_chain, count):
    # a fresh thread-local: the thread's workspace is only what these solves keep
    monkeypatch.setattr(acoustics, "_local", threading.local())
    grid = grid_of(1.0, 0.05, count)
    alphas = absorption_spectrum(baseline_chain, grid).alphas
    kept = alphas.copy()
    workspace = getattr(acoustics._local, "workspace", None)
    if count > acoustics._BLOCK_POINTS:
        assert workspace is None  # the long grid's workspace went with its call
    else:
        buffers = vars(workspace).values()
        assert not any(np.shares_memory(alphas, b) for b in buffers if isinstance(b, np.ndarray))
    # a chain of the same shape reuses the same buffers, or builds new ones
    other = absorption_spectrum(optimized_chain, grid).alphas
    assert np.array_equal(alphas, kept)
    assert not np.array_equal(other, kept)


def test_chain_matrix_entries_outlive_the_walk(baseline_chain, optimized_chain):
    frequencies = DEFAULT_GRID.frequencies()
    matrix = chain_matrix(baseline_chain, frequencies)
    entries = (matrix.a11, matrix.a12, matrix.a21, matrix.a22)
    kept = [entry.copy() for entry in entries]
    buffers = vars(acoustics._local.chain_walk).values()
    assert not any(
        np.shares_memory(entry, b)
        for entry in entries
        for b in buffers
        if isinstance(b, np.ndarray)
    )
    # a chain of the same size reuses the same buffers
    other = chain_matrix(optimized_chain, frequencies)
    assert all(np.array_equal(entry, k) for entry, k in zip(entries, kept))
    assert not np.array_equal(other.a11, kept[0])


def test_chain_matrix_on_the_solved_grid_computes_no_impedance(
    baseline_chain, impedance_calls, workspaces_built
):
    # after the chain's solve, chain_matrix on the grid's points takes the
    # kept impedances; a chain of other panels computes each distinct triple
    # once and keeps them for its own solve
    frequencies = DEFAULT_GRID.frequencies()
    absorption_spectrum(baseline_chain, DEFAULT_GRID)
    assert len(impedance_calls) == 2
    chain_matrix(baseline_chain, frequencies)
    assert len(impedance_calls) == 2
    shared, own = random_spec(np.random.default_rng(3)), random_spec(np.random.default_rng(4))
    other = build_chain(BASELINE_DESIGN, MppSet(shared, shared, own))
    chain_matrix(other, frequencies)
    assert len(impedance_calls) == 4
    assert len({(p.thickness, p.aperture, p.porosity) for p in impedance_calls[2:]}) == 2
    absorption_spectrum(other, DEFAULT_GRID)
    assert len(impedance_calls) == 4
    assert len(workspaces_built) == 1


def dimensionless_entries(matrix, chain):
    """a11, a12/Z0, a21*Z0 and a22, stacked: entries of one scale."""
    z0 = chain.characteristic_impedance()
    return np.stack([matrix.a11, matrix.a12 / z0, matrix.a21 * z0, matrix.a22])


def test_chain_matrix_from_the_tables_agrees_with_direct_trig(
    monkeypatch, baseline_chain, optimized_chain, single_chain, impedance_calls
):
    # the kept grid's phase tables are within a few ulp of direct cos/sin;
    # each path keeps the unit determinant
    monkeypatch.setattr(acoustics, "_local", threading.local())
    frequencies = DEFAULT_GRID.frequencies()
    chains = [baseline_chain, optimized_chain, single_chain]
    for chain in chains + list(random_chains(606, n_three=9, n_single=3)):
        absorption_spectrum(chain, DEFAULT_GRID)
        calls = len(impedance_calls)
        tabled = chain_matrix(chain, frequencies)
        assert len(impedance_calls) == calls  # the table path
        acoustics._local.workspace = None
        direct = chain_matrix(chain, frequencies)
        a, b = dimensionless_entries(tabled, chain), dimensionless_entries(direct, chain)
        assert np.all(np.max(np.abs(a - b), axis=0) <= 1e-13 * np.max(np.abs(b), axis=0))
        for matrix in (tabled, direct):
            assert np.max(np.abs(matrix.det() - 1.0)) < 1e-9


def test_chain_matrix_off_the_kept_grid_takes_direct_trig(monkeypatch, baseline_chain):
    # another medium, or frequencies of the grid's size that are not its
    # points bit for bit, give what a thread without a workspace gives
    frequencies = DEFAULT_GRID.frequencies()
    nudged = frequencies.copy()
    nudged[1000] = math.nextafter(nudged[1000], math.inf)
    for others, medium in [
        (frequencies, Medium(sound_speed=340.0)),
        (nudged, AIR),
        (frequencies[::-1], AIR),
    ]:
        monkeypatch.setattr(acoustics, "_local", threading.local())
        cold = chain_matrix(baseline_chain, others, medium)
        absorption_spectrum(baseline_chain, DEFAULT_GRID)
        warm = chain_matrix(baseline_chain, others, medium)
        # equal values: a long double's padding bytes are not its bits
        for name in ("a11", "a12", "a21", "a22"):
            assert np.array_equal(getattr(warm, name), getattr(cold, name))


def test_solve_after_an_interleaved_chain_matrix_equals_a_cold_solve(
    monkeypatch, baseline_chain, single_chain
):
    # chain_matrix on the kept grid rewrites its tables and, for other
    # panels, its kept impedances; the next solve must not see either
    frequencies = DEFAULT_GRID.frequencies()
    [other] = random_chains(707, n_three=1, n_single=0)
    for chain, between in [
        (baseline_chain, other),
        (baseline_chain, single_chain),
        (single_chain, baseline_chain),
        (other, single_chain),
    ]:
        monkeypatch.setattr(acoustics, "_local", threading.local())
        cold = absorption_spectrum(chain, DEFAULT_GRID).alphas
        chain_matrix(between, frequencies)
        warm = absorption_spectrum(chain, DEFAULT_GRID).alphas
        assert warm.tobytes() == cold.tobytes()


def test_threads_solve_concurrently_as_in_series():
    # chains of different shapes, one block and several, each solved by two
    # threads at once; a workspace shared between threads garbles alphas
    chains = list(random_chains(909, n_three=2, n_single=1))
    jobs = [(chain, grid_of(1.0, 0.09, count)) for chain in chains for count in (2000, 20_000)]
    serial = [absorption_spectrum(chain, grid).alphas for chain, grid in jobs]
    results = {}

    def solve(worker):
        chain, grid = jobs[worker % len(jobs)]
        results[worker] = [absorption_spectrum(chain, grid).alphas for _ in range(4)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(w,)) for w in range(2 * len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == list(range(2 * len(jobs)))
    for worker, alphas in results.items():
        for a in alphas:
            assert np.array_equal(a, serial[worker % len(jobs)])


# the default grid, one of a step that is no integer (2,853 points), and a
# coarse one of 9 points, on which the floor on a pair's difference, 7.5e-4,
# refuses the most crossings
PROBE_GRIDS = (DEFAULT_GRID, FrequencyGrid(3.0, 1999.5, 0.7), FrequencyGrid(1.0, 2001.0, 250.0))


def test_probed_alphas_agree_with_the_spectrum():
    # alpha at 25 random points of a grid by direct cos/sin, against the
    # solve of the whole grid by its phase tables: with the panel
    # impedances computed at the points, as the workspace the thread keeps
    # holds the baseline's panels, and gathered from the one the solve keeps
    rng = np.random.default_rng(36)
    baseline = build_chain(BASELINE_DESIGN, DEFAULT_MPPS)
    for chain in random_chains(36, n_three=80, n_single=20):
        for grid in PROBE_GRIDS:
            points = np.unique(rng.integers(0, grid.size, 25))
            template = chain.template(AIR)
            absorption_spectrum(baseline, grid)
            computed = PointSolver(template, grid, points, AIR)
            alphas = absorption_spectrum(chain, grid).alphas[points]
            computes = mock.patch.object(acoustics, "mpp_normalized_impedance", side_effect=OSError)
            with computes:  # it computes no impedance
                gathered = PointSolver(template, grid, points, AIR)
            for probe in (computed, gathered):
                assert np.max(np.abs(probe.alphas(template) - alphas)) <= 1e-12


def touches_an_end(alphas, threshold):
    """Whether the longest band of `alphas` reaches the grid's first or last point."""
    run = longest_run(alphas, threshold)
    return run is not None and (run[0] == 0 or run[1] == alphas.size - 1)


def test_a_probe_bound_is_never_below_the_objective():
    # a random in-box design, with random or the bundled panels, a
    # threshold and a grid, probed as anneal probes a design it accepts;
    # then moves of 1-30 % of the box from it, as anneal moves: no move's
    # objective exceeds its bound. Among them, bands that reach f_min or
    # f_max, whose edge there is the grid's end, and the coarse grid's.
    rng = np.random.default_rng(3636)
    below = tight = ends = coarse = 0
    for design, mpps in random_designs(rng, 90):
        mpps = mpps if rng.random() < 0.5 else DEFAULT_MPPS
        grid = PROBE_GRIDS[rng.integers(3)]
        threshold = float(rng.choice([0.5, 0.8, 0.81]))
        template = build_chain(design, mpps).template(AIR)
        width, spectrum = annealing._evaluate(template, AIR, grid, threshold)
        probe = annealing._Probe(template, spectrum, threshold, AIR)
        for fraction in (0.01, 0.03, 0.1, 0.3):
            steps = rng.uniform(-1.0, 1.0, annealing._RANGE.size)
            move = annealing._move(design.as_array(), steps, fraction * annealing._RANGE)
            [bound] = probe.bound(move[None])
            candidate = DesignVector(*move.tolist())
            value = objective(candidate, mpps, grid=grid, threshold=threshold)
            assert value <= bound
            below += bound < width
            tight += bound - value <= 1e-3  # the grid's points resolve an edge to about 1 Hz
            moved = absorption_spectrum(build_chain(candidate, mpps), grid)
            ends += touches_an_end(moved.alphas, threshold)
            coarse += grid.size == 9
    assert below >= 20 and tight >= 20  # bounds that would certify a rejection; crossings
    assert ends >= 20 and coarse >= 80


@pytest.mark.parametrize("grid", [DEFAULT_GRID, PROBE_GRIDS[2]], ids=["1Hz", "250Hz"])
def test_a_bound_holds_for_probed_alphas_as_far_off_as_they_may_be(grid):
    # the baseline's spectrum with the pairs at its band's two edges set to
    # straddle the threshold, by a difference from 3e-9 to 1e-2, across the
    # floor on a pair's difference (7.5e-4 on the coarse grid), probed 1e-12
    # off, the agreement a bound assumes, in four patterns of sign: no bound
    # is below the objective, and where no pair is under the floor, both
    # edges are crossings, within the slack
    threshold, error = 0.8, 1e-12
    chain = build_chain(BASELINE_DESIGN, DEFAULT_MPPS)
    spectrum = absorption_spectrum(chain, grid)
    lo, hi = longest_run(spectrum.alphas, threshold)
    probe = annealing._Probe(chain.template(AIR), spectrum, threshold, AIR)
    points = np.rint((probe.edges[1:-1] - grid.f_min) / grid.step).astype(int)
    assert {lo - 1, lo, hi, hi + 1} <= set(points)
    for rise in np.geomspace(3e-9, 1e-2, 40):
        alphas = spectrum.alphas.copy()
        alphas[[lo - 1, lo, hi, hi + 1]] = threshold + rise * np.array([-0.5, 0.5, 0.5, -0.5])
        f_low, f_high = band_edges(grid, alphas, *longest_run(alphas, threshold), threshold)
        for signs in ([-1], [1], [-1, 1], [1, -1]):
            probed = alphas[points] + error * np.resize(signs, points.size)
            probe.solver = SimpleNamespace(alphas=lambda template: probed[None])
            [bound] = probe.bound(BASELINE_DESIGN.as_array()[None])
            assert f_high - f_low <= bound
            if rise - 2 * error >= probe.floor:
                assert bound <= f_high - f_low + 2 * probe.slack


@pytest.mark.parametrize(
    "grid, count",
    [(DEFAULT_GRID, 40), (FrequencyGrid(1.0, 2000.0, 0.05), 10)],  # the second in 5 blocks
    ids=["1Hz", "0.05Hz"],
)
def test_the_search_template_solves_and_probes_as_the_chain(grid, count):
    # random in-box designs, with random or the bundled panels: the template
    # the search fills from an array is the chain's, and solves to its
    # spectrum, bit for bit; probed as anneal probes a design it accepts,
    # the bounds of 16 moves from it in one batch are each move's bound
    # probed alone, and none is below the move's objective
    rng = np.random.default_rng(41)
    batched = below = 0
    for design, mpps in random_designs(rng, count):
        mpps = mpps if rng.random() < 0.5 else DEFAULT_MPPS
        chain = build_chain(design, mpps)
        base = build_chain(BASELINE_DESIGN, mpps).template(AIR)
        template = structure.design_template(base, design.as_array(), AIR)
        for name in ("kinds", "lengths", "z_c", "factors", "z0"):
            expected = getattr(chain.template(AIR), name)
            assert np.asarray(getattr(template, name)).tobytes() == np.asarray(expected).tobytes()
        alphas = acoustics.template_spectrum(template, grid, AIR).alphas
        assert alphas.tobytes() == absorption_spectrum(chain, grid).alphas.tobytes()
        width, spectrum = annealing._evaluate(template, AIR, grid, 0.8)
        assert width == objective(design, mpps, grid=grid)
        probe = annealing._Probe(template, spectrum, 0.8, AIR)
        fractions = np.geomspace(0.003, 0.3, 16)[:, None] * annealing._RANGE
        moves = annealing._move(design.as_array(), rng.uniform(-1.0, 1.0, (16, 12)), fractions)
        bounds = probe.bound(moves)
        assert bounds == [probe.bound(move[None])[0] for move in moves]
        for move, bound in zip(moves, bounds):
            assert objective(DesignVector(*move.tolist()), mpps, grid=grid) <= bound
        batched, below = batched + len(bounds), below + sum(b < width for b in bounds)
    assert batched >= 64 and below >= 10  # bounds that would certify a rejection


def test_panels_dissipate_the_absorbed_power(baseline_chain, optimized_chain, single_chain):
    # The pipes are lossless and an area change is the identity, so the
    # panels dissipate all the power the mouth takes in: alpha = sum_i
    # (1/2) Re(Z_i) |U_i|^2 / W_in, with Z_i panel i's series impedance, U_i
    # the volume velocity through it and W_in = |p + Z0*u|^2 / (8*Z0) the
    # incident power at the mouth (Munjal, Acoustics of Ducts and Mufflers,
    # 2nd ed., ch. 2). The dissipation is walked from the wall on
    # four_pole.py's element entries, with Z0 from the main duct's diameter;
    # alpha is the solver's, whose clip these passive chains never reach.
    frequencies = DEFAULT_GRID.frequencies()
    chains = [baseline_chain, optimized_chain, single_chain, *random_chains(14, 80, 20)]
    for chain in chains:
        p, u = np.ones(frequencies.size, complex), np.zeros(frequencies.size, complex)
        dissipated = np.zeros(frequencies.size)
        for element in reversed(chain.elements):
            a11, a12, a21, a22 = element_entries(element, frequencies)
            if isinstance(element, MppPanel):
                dissipated += 0.5 * a12.real * np.abs(u) ** 2
            p, u = a11 * p + a12 * u, a21 * p + a22 * u
        z0 = AIR.characteristic_impedance / (math.pi * chain.main_duct_diameter**2 / 4.0)
        incident = np.abs(p + z0 * u) ** 2 / (8.0 * z0)
        alphas = absorption_spectrum(chain, DEFAULT_GRID).alphas
        assert np.max(np.abs(dissipated / incident - alphas)) <= 1e-12
