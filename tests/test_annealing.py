"""Annealing optimizer: objective, move kernel, acceptance rule, full runs."""

import dataclasses
import math

import numpy as np
import pytest

from mppabsorber import (
    AnnealingSchedule,
    BASELINE_DESIGN,
    BOUNDS_MM,
    DEFAULT_MPPS,
    OPTIMIZED_DESIGN,
    accept,
    anneal,
    anneal_multi,
    effective_band,
    neighbor,
    objective,
)

# widths computed by the independent scalar evaluation of the full chain
BASELINE_WIDTH = 1317.8495348553893
OPTIMIZED_WIDTH = 1602.2895724252717


def in_box(design):
    return all(lo <= getattr(design, name) <= hi for name, (lo, hi) in BOUNDS_MM.items())


FAST_SCHEDULE = AnnealingSchedule(
    initial_temperature=100.0,
    iterations_per_temperature=2,
    cooling_rate=0.2,
    termination_temperature=50.0,
    step_fraction=0.1,
    seed=42,
)


class TestObjective:
    def test_baseline_width(self):
        assert objective(BASELINE_DESIGN, DEFAULT_MPPS) == pytest.approx(
            BASELINE_WIDTH, rel=1e-9
        )

    def test_optimized_width(self):
        assert objective(OPTIMIZED_DESIGN, DEFAULT_MPPS) == pytest.approx(
            OPTIMIZED_WIDTH, rel=1e-9
        )

    def test_infeasible_design_scores_zero(self):
        # the baseline never reaches alpha = 0.95, so that threshold is infeasible
        assert objective(BASELINE_DESIGN, DEFAULT_MPPS, threshold=0.95) == 0.0

    def test_nan_alphas_are_refused_not_scored_zero(self, nan_walk):
        # a walk that overflowed to NaN gives NaN alphas, which the spectrum
        # refuses rather than score as a design without a band
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match=r"alpha values must lie in \[0, 1\]"):
                objective(BASELINE_DESIGN, DEFAULT_MPPS)


class TestNeighbor:
    def test_zero_step_clamps_input(self):
        schedule = dataclasses.replace(FAST_SCHEDULE, step_fraction=0.0)
        rng = np.random.default_rng(0)
        moved = neighbor(BASELINE_DESIGN, schedule, rng)
        assert moved.l_1 == 80.0
        assert moved.l_1p == 10.0
        assert moved.d_m == BASELINE_DESIGN.d_m

    def test_out_of_bounds_input_lands_inside(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            moved = neighbor(BASELINE_DESIGN, FAST_SCHEDULE, rng)
            assert in_box(moved)
            assert 60.0 <= moved.l_1 <= 80.0

    def test_moves_stay_inside_from_upper_corner(self):
        upper = dataclasses.replace(
            BASELINE_DESIGN,
            **{name: hi for name, (_, hi) in BOUNDS_MM.items()},
        )
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert in_box(neighbor(upper, FAST_SCHEDULE, rng))

    def test_deterministic_given_rng_state(self):
        a = neighbor(BASELINE_DESIGN, FAST_SCHEDULE, np.random.default_rng(9))
        b = neighbor(BASELINE_DESIGN, FAST_SCHEDULE, np.random.default_rng(9))
        assert a == b


class TestAccept:
    def test_improvement_always_accepted(self):
        rng = np.random.default_rng(0)
        for delta in (0.0, 1e-9, 10.0, 1e6):
            assert accept(delta, 1e-6, rng)

    def test_metropolis_frequency_matches_monte_carlo(self):
        # P(accept | delta = -T) = 1/e; independent analytic oracle
        rng = np.random.default_rng(12345)
        temperature = 37.0
        trials = 100_000
        accepted = sum(
            accept(-temperature, temperature, rng) for _ in range(trials)
        )
        assert accepted / trials == pytest.approx(math.exp(-1.0), abs=0.01)

    def test_greedy_limit_at_low_temperature(self):
        rng = np.random.default_rng(3)
        assert not any(accept(-1.0, 1e-4, rng) for _ in range(1000))

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            accept(-1.0, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            accept(-1.0, math.nan, np.random.default_rng(0))


class TestSchedule:
    def test_cooling_level_counts(self):
        # decrement reading: ~83 levels from 100 to 1e-6; multiplier: ~12
        def levels(schedule):
            count, t = 0, schedule.initial_temperature
            while t > schedule.termination_temperature:
                count += 1
                t = schedule.next_temperature(t)
            return count

        assert levels(AnnealingSchedule()) == 83
        assert levels(AnnealingSchedule(cooling_reading="multiplier")) == 12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cooling_rate": 0.0},
            {"cooling_rate": 1.0},
            {"termination_temperature": 200.0},
            {"iterations_per_temperature": 0},
            {"step_fraction": -0.1},
            {"cooling_reading": "geometric"},
            {"initial_temperature": -5.0, "termination_temperature": -10.0},
            {"initial_temperature": math.nan},
            {"initial_temperature": math.inf},
            {"termination_temperature": 0.0},
            {"termination_temperature": math.nan},
            {"step_fraction": math.inf},
            {"step_fraction": math.nan},
            {"step_fraction": 1.0},  # [0, 1): a move spans at most the box
            {"step_fraction": 1e308},  # overflowed in the move kernel
            {"seed": -1},
        ],
    )
    def test_invalid_schedules_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AnnealingSchedule(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cooling_rate": 1e-17},  # 1 - rate rounds to 1: the temperature never falls
            {"cooling_rate": 2e-16},  # a factor of 1 - 2**-52, below 1
            {"cooling_rate": 1e-6},  # about 1.8e7 levels
            {"cooling_rate": 1 - 1e-6, "cooling_reading": "multiplier"},
            # about 1.4e7 levels over this span; 1.8e5 over the default one
            {"cooling_rate": 1e-4, "initial_temperature": 1e300, "termination_temperature": 1e-300},
        ],
    )
    def test_schedules_that_barely_cool_rejected(self, kwargs):
        with pytest.raises(ValueError, match="^cooling_rate .* more than 1000000 levels"):
            AnnealingSchedule(**kwargs)

    def test_slow_schedule_within_the_level_cap_accepted(self):
        # about 9e5 levels from 100 to 1e-6, each one a factor below 1
        schedule = AnnealingSchedule(cooling_rate=2.05e-5)
        levels, t = 0, schedule.initial_temperature
        while t > schedule.termination_temperature:
            levels += 1
            t = schedule.next_temperature(t)
        assert 8e5 < levels <= 10**6
        AnnealingSchedule(cooling_rate=1e-4)

    def test_schedule_that_cannot_finish_rejected(self):
        # 83 levels of 10**12 iterations: about 8e13 evaluations, each level
        # within the cap
        with pytest.raises(ValueError, match="^iterations_per_temperature .* 100000000 evaluations"):
            AnnealingSchedule(iterations_per_temperature=10**12)
        AnnealingSchedule(iterations_per_temperature=10**6)  # 8.3e7 evaluations

    @pytest.mark.parametrize("field", ["iterations_per_temperature", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_non_integer_counts_rejected(self, field, value):
        # iterations_per_temperature=2.5 used to be accepted, and anneal died
        # with TypeError after its first evaluation; True passed as 1
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            AnnealingSchedule(**{field: value})

    def test_any_integral_count_accepted(self):
        schedule = AnnealingSchedule(iterations_per_temperature=np.int64(3), seed=np.uint8(7))
        assert (schedule.iterations_per_temperature, schedule.seed) == (3, 7)


class TestAnneal:
    def test_termination_equal_initial_runs_zero_moves(self):
        schedule = dataclasses.replace(
            FAST_SCHEDULE, termination_temperature=FAST_SCHEDULE.initial_temperature
        )
        result = anneal(BASELINE_DESIGN, DEFAULT_MPPS, schedule=schedule)
        assert result.evaluations == 1
        assert result.best_design == BASELINE_DESIGN
        assert result.best_objective == pytest.approx(BASELINE_WIDTH, rel=1e-9)
        assert result.objective_trace == []

    def test_best_never_below_initial(self):
        result = anneal(BASELINE_DESIGN, DEFAULT_MPPS, schedule=FAST_SCHEDULE)
        assert result.best_objective >= BASELINE_WIDTH - 1e-9

    def test_trace_best_is_monotone_and_consistent(self):
        result = anneal(BASELINE_DESIGN, DEFAULT_MPPS, schedule=FAST_SCHEDULE)
        bests = [row.best for row in result.objective_trace]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
        assert result.best_objective == bests[-1]
        assert all(row.current <= row.best for row in result.objective_trace)

    def test_evaluation_budget(self):
        result = anneal(BASELINE_DESIGN, DEFAULT_MPPS, schedule=FAST_SCHEDULE)
        # 4 levels (100, 80, 64, 51.2) x 2 iterations + initial evaluation
        assert result.evaluations == 4 * 2 + 1
        assert len(result.objective_trace) == 4 * 2

    def test_all_visited_designs_feasible(self):
        schedule = dataclasses.replace(FAST_SCHEDULE, termination_temperature=20.0)
        result = anneal(BASELINE_DESIGN, DEFAULT_MPPS, schedule=schedule)
        assert in_box(result.best_design)

    def test_deterministic_given_seed(self):
        first = anneal(BASELINE_DESIGN, DEFAULT_MPPS, schedule=FAST_SCHEDULE)
        second = anneal(BASELINE_DESIGN, DEFAULT_MPPS, schedule=FAST_SCHEDULE)
        assert first.best_design == second.best_design
        assert first.best_objective == second.best_objective
        assert first.objective_trace == second.objective_trace
        assert effective_band(first.best_spectrum) == effective_band(second.best_spectrum)

    def test_best_band_width_equals_best_objective(self):
        result = anneal(BASELINE_DESIGN, DEFAULT_MPPS, schedule=FAST_SCHEDULE)
        band = effective_band(result.best_spectrum)
        assert band is not None
        assert band.width == pytest.approx(result.best_objective)

    def test_multi_seed_driver_orders_results_by_seed(self):
        results = anneal_multi(
            BASELINE_DESIGN, DEFAULT_MPPS, seeds=[5, 6], schedule=FAST_SCHEDULE
        )
        assert [r.seed for r in results] == [5, 6]
        solo = anneal(
            BASELINE_DESIGN,
            DEFAULT_MPPS,
            schedule=dataclasses.replace(FAST_SCHEDULE, seed=5),
        )
        assert results[0].best_design == solo.best_design
