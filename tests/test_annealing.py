"""Annealing optimizer: objective, move kernel, acceptance rule, full runs."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mppabsorber import (
    AnnealingSchedule,
    BASELINE_DESIGN,
    BOUNDS_MM,
    DEFAULT_MPPS,
    OPTIMIZED_DESIGN,
    MppSpec,
    accept,
    anneal,
    anneal_multi,
    effective_band,
    neighbor,
    objective,
)
from mppabsorber import annealing

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

    @pytest.mark.parametrize("temperature", [0.0, -1.0, math.nan, math.inf])
    def test_temperature_is_refused_in_the_one_wording(self, temperature):
        # it read "temperature must be positive", and infinity was taken
        with pytest.raises(ValueError) as excinfo:
            accept(-1.0, temperature, np.random.default_rng(0))
        assert str(excinfo.value) == f"temperature must lie in (0, inf), got {temperature}"


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
        "kwargs, refusal",
        [
            # 1 - rate rounds to 1: the temperature never falls
            ({"cooling_rate": 1e-17}, "[1.842051108424947e-05, 1), got 1e-17"),
            # a factor of 1 - 2**-52, below 1
            ({"cooling_rate": 2e-16}, "[1.842051108424947e-05, 1), got 2e-16"),
            ({"cooling_rate": 1e-6}, "[1.842051108424947e-05, 1), got 1e-06"),  # about 1.8e7 levels
            (
                {"cooling_rate": 1 - 1e-6, "cooling_reading": "multiplier"},
                "(0, 0.9999815794889158], got 0.999999",
            ),
            # about 1.4e7 levels over this span; 1.8e5 over the default one
            (
                {"cooling_rate": 1e-4, "initial_temperature": 1e300,
                 "termination_temperature": 1e-300},
                "[0.0013805971534753825, 1), got 0.0001",
            ),
        ],
        ids=[f"kwargs{index}" for index in range(5)],
    )
    def test_schedules_that_barely_cool_rejected(self, kwargs, refusal):
        # the rate must cool within 10**6 levels: it read "cooling_rate 1e-17
        # gives the per-level factor 1.0, more than 1000000 levels ..."
        with pytest.raises(ValueError) as excinfo:
            AnnealingSchedule(**kwargs)
        assert str(excinfo.value) == f"AnnealingSchedule.cooling_rate must lie in {refusal}"

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
        # within the cap. 10**8 // 83 + 1 is the open high edge
        with pytest.raises(ValueError) as excinfo:
            AnnealingSchedule(iterations_per_temperature=10**12)
        assert str(excinfo.value) == (
            "AnnealingSchedule.iterations_per_temperature must lie in [1, 1.20482e+06),"
            " got 1000000000000"
        )
        AnnealingSchedule(iterations_per_temperature=10**6)  # 8.3e7 evaluations
        AnnealingSchedule(iterations_per_temperature=10**8 // 83)
        with pytest.raises(ValueError):
            AnnealingSchedule(iterations_per_temperature=10**8 // 83 + 1)

    def test_count_too_long_to_spell_is_refused_by_name(self):
        # the cap's message used to raise Python's own "Exceeds the limit"
        with pytest.raises(ValueError) as excinfo:
            AnnealingSchedule(iterations_per_temperature=10**5000)
        assert str(excinfo.value) == (
            "AnnealingSchedule.iterations_per_temperature must lie in [1, 1.20482e+06),"
            " got int of more than 4300 digits"
        )

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


def refused_by_the_old_caps(initial, termination, rate, reading, iterations) -> bool:
    """The two caps as AnnealingSchedule checked them before they became
    intervals: more than 10**6 levels, a per-level factor of 1 taking
    infinitely many, then more than 10**8 evaluations."""
    factor = 1.0 - rate if reading == "decrement" else rate
    span = math.log(termination) - math.log(initial)
    levels = math.inf if factor == 1.0 else span / math.log(factor)
    return levels > 10**6 or math.ceil(levels) * iterations > 10**8


def ulps_from(value: float, toward: float, count: int) -> float:
    for _ in range(count):
        value = math.nextafter(value, toward)
    return value


@st.composite
def schedules(draw):
    """The fields the two caps judge. Temperatures from 1e-300 to 1e300,
    apart by any span, equal, or apart by a few ulps or a sliver; a rate
    log-uniform, a few ulps above 0 or below 1, next to 2**-54, where 1 -
    rate starts to round to 1, or next to the rate that takes 10**6 levels;
    iterations of any size, or next to the evaluation cap."""
    reading = draw(st.sampled_from(["decrement", "multiplier"]))
    initial = 10.0 ** draw(st.floats(-300.0, 300.0))
    termination = draw(st.one_of(
        st.floats(-300.0, 300.0).map(lambda exponent: min(10.0**exponent, initial)),
        st.just(initial),
        st.integers(1, 4).map(lambda count: ulps_from(initial, 0.0, count)),
        st.floats(-16.0, -6.0).map(lambda exponent: initial * (1.0 - 10.0**exponent)),
    ))
    span = math.log(termination) - math.log(initial)
    edge = math.exp(span / 10**6)
    edge = 1.0 - edge if reading == "decrement" else edge
    rate = draw(st.one_of(
        st.floats(-20.0, -1e-9).map(lambda exponent: 10.0**exponent),
        st.integers(1, 4).map(lambda count: ulps_from(0.0, 1.0, count)),
        st.integers(1, 4).map(lambda count: ulps_from(1.0, 0.0, count)),
        st.builds(ulps_from, st.sampled_from([edge, 2.0**-54]), st.sampled_from([0.0, 1.0]),
                  st.integers(0, 4)),
    ).filter(lambda rate: 0.0 < rate < 1.0))
    factor = 1.0 - rate if reading == "decrement" else rate
    levels = math.ceil(span / math.log(factor)) if factor != 1.0 else 0
    iterations = draw(st.one_of(
        st.sampled_from([1, 2, 100, 10**6, 10**8, 10**12]),
        st.integers(1, 10**9),
        st.integers(-1, 1).map(lambda step: max(1, 10**8 // max(levels, 1) + step)),
    ))
    return initial, termination, rate, reading, iterations


@settings(max_examples=300)
@given(schedules())
@example((100.0, 5.161664442490212e-12, 3.0594464187849724e-05, "decrement", 1))
@example((100.0, 5.161664442490212e-12, 0.9999694055358122, "multiplier", 1))
def test_schedule_intervals_refuse_what_the_old_caps_refused(fields):
    # the caps were hand-worded predicates; as intervals on cooling_rate and
    # iterations_per_temperature they refuse the same schedules, in the one
    # wording. They part only at a per-level factor equal to the level cap's
    # edge factor, exp(span / 10**6), which the old predicate put on either
    # side by the rounding of its level count: the two examples, 1.5e-6
    # levels past 10**6 by that count, are refused before and taken now
    initial, termination, rate, reading, iterations = fields
    before = refused_by_the_old_caps(*fields)
    try:
        AnnealingSchedule(
            initial_temperature=initial, termination_temperature=termination,
            cooling_rate=rate, cooling_reading=reading, iterations_per_temperature=iterations,
        )
    except ValueError as exc:
        now = True
        labels = r"AnnealingSchedule\.(?:cooling_rate|iterations_per_temperature)"
        assert re.fullmatch(rf"{labels} must lie in [\[(].+, .+[\])], got .+", str(exc)), exc
    else:
        now = False
    span = math.log(termination) - math.log(initial)
    edge = min(math.exp(span / 10**6), math.nextafter(1.0, 0.0))
    factor = 1.0 - rate if reading == "decrement" else rate
    assert now == before or factor == edge, fields


def test_a_span_too_short_to_cool_still_refuses_a_factor_of_one():
    # exp(span / 10**6) rounds to 1 for a span below about 5.6e-11, so the
    # rate's interval keeps its low edge at 2**-53: the factor of a rate of
    # 1e-17 is 1, and the temperature would never fall below termination
    for termination in (math.nextafter(100.0, 0.0), 100.0):
        with pytest.raises(ValueError) as excinfo:
            AnnealingSchedule(termination_temperature=termination, cooling_rate=1e-17)
        assert str(excinfo.value) == (
            "AnnealingSchedule.cooling_rate must lie in [1.1102230246251565e-16, 1), got 1e-17"
        )
    # no level is run when termination equals initial, so no count is capped
    schedule = AnnealingSchedule(termination_temperature=100.0, iterations_per_temperature=10**12)
    assert schedule.iterations_per_temperature == 10**12


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


@pytest.mark.parametrize("seed", range(1, 7))
def test_hole_the_search_cannot_hold_is_refused_before_any_evaluation(monkeypatch, seed):
    # an 8 mm hole fits the baseline's 10 mm duct, but not the 5 mm one the
    # search may reach: seeds 2 and 5 used to fail partway through the run,
    # and seeds 1, 3, 4 and 6 to answer
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return objective(*args, **kwargs)

    monkeypatch.setattr(annealing, "objective", spy)
    mpps = dataclasses.replace(DEFAULT_MPPS, mpp1=MppSpec(0.6, 8.0, 0.025))
    schedule = AnnealingSchedule(iterations_per_temperature=2, seed=seed)
    refusal = (
        "the search reaches d_m = 5 mm: ThreeChamberStructure.mpps[0].aperture must lie in"
        " (0.001, 5), got 8.0"
    )
    for run in (
        lambda: anneal(BASELINE_DESIGN, mpps, schedule=schedule),
        lambda: anneal_multi(BASELINE_DESIGN, mpps, seeds=[seed], schedule=schedule),
    ):
        with pytest.raises(ValueError) as excinfo:
            run()
        assert str(excinfo.value) == refusal
    assert calls == []
