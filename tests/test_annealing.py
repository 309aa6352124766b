"""Annealing optimizer: objective, move kernel, acceptance rule, full runs."""

import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mppabsorber import (
    AnnealingSchedule,
    BASELINE_DESIGN,
    BOUNDS_MM,
    DEFAULT_GRID,
    DEFAULT_MPPS,
    OPTIMIZED_DESIGN,
    DesignVector,
    FrequencyGrid,
    MppSpec,
    accept,
    anneal,
    anneal_multi,
    effective_band,
    objective,
)
from mppabsorber import annealing

# widths computed by the independent scalar evaluation of the full chain
BASELINE_WIDTH = 1317.8495348553893
OPTIMIZED_WIDTH = 1602.2895724252717


def in_box(design):
    return all(lo <= getattr(design, name) <= hi for name, (lo, hi) in BOUNDS_MM.items())


TINY_GRID = FrequencyGrid(1.0, 50.0, 1.0)
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


def move(design, rng, fraction=FAST_SCHEDULE.step_fraction):
    """`design` moved as anneal moves it, by uniform(-1, 1) steps of
    `fraction` of each coordinate's range."""
    steps = -1.0 + 2.0 * rng.random(annealing._RANGE.size)
    moved = annealing._move(design.as_array(), steps, fraction * annealing._RANGE)
    return DesignVector(*moved.tolist())


class TestMove:
    def test_zero_step_clamps_input(self):
        moved = move(BASELINE_DESIGN, np.random.default_rng(0), fraction=0.0)
        assert moved.l_1 == 80.0
        assert moved.l_1p == 10.0
        assert moved.d_m == BASELINE_DESIGN.d_m

    def test_out_of_bounds_input_lands_inside(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            moved = move(BASELINE_DESIGN, rng)
            assert in_box(moved)
            assert 60.0 <= moved.l_1 <= 80.0

    def test_moves_stay_inside_from_upper_corner(self):
        upper = dataclasses.replace(
            BASELINE_DESIGN,
            **{name: hi for name, (_, hi) in BOUNDS_MM.items()},
        )
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert in_box(move(upper, rng))


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
        # 83 levels from 100 to 1e-6 at a decrement of 0.2, by the count and
        # by the temperatures: 100 * 0.8**82 is above 1e-6, 100 * 0.8**83 not
        schedule = AnnealingSchedule()
        assert schedule.levels == 83
        t = schedule.initial_temperature
        for _ in range(82):
            t = schedule.next_temperature(t)
        assert t > schedule.termination_temperature >= schedule.next_temperature(t)

    def test_multiplier_reading_is_refused_by_name(self):
        # T <- rate * T was the one other reading; nothing set it but tests
        with pytest.raises(ValueError) as excinfo:
            AnnealingSchedule(cooling_reading="multiplier")
        assert str(excinfo.value) == (
            "AnnealingSchedule.cooling_reading must be 'decrement', got 'multiplier'"
        )

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
            ({"cooling_rate": 1e-17}, "[1.842051108436049e-05, 1), got 1e-17"),
            # a factor of 1 - 2**-52, below 1
            ({"cooling_rate": 2e-16}, "[1.842051108436049e-05, 1), got 2e-16"),
            ({"cooling_rate": 1e-6}, "[1.842051108436049e-05, 1), got 1e-06"),  # about 1.8e7 levels
            # one ulp below the closed low edge
            (
                {"cooling_rate": 1.8420511084360488e-05},
                "[1.842051108436049e-05, 1), got 1.8420511084360488e-05",
            ),
            # about 1.4e7 levels over this span; 1.8e5 over the default one
            (
                {"cooling_rate": 1e-4, "initial_temperature": 1e300,
                 "termination_temperature": 1e-300},
                "[0.0013805971534753825, 1), got 0.0001",
            ),
            # 1 - exp(span / 10**6), whose factor rounds up: its count read
            # 1,000,001 levels and it was taken
            (
                {"cooling_rate": 1.842051108424947e-05, "iterations_per_temperature": 1},
                "[1.842051108436049e-05, 1), got 1.842051108424947e-05",
            ),
        ],
        ids=[f"kwargs{index}" for index in range(6)],
    )
    def test_schedules_that_barely_cool_rejected(self, kwargs, refusal):
        # the rate must cool within 10**6 levels: it read "cooling_rate 1e-17
        # gives the per-level factor 1.0, more than 1000000 levels ..."
        with pytest.raises(ValueError) as excinfo:
            AnnealingSchedule(**kwargs)
        assert str(excinfo.value) == f"AnnealingSchedule.cooling_rate must lie in {refusal}"

    def test_slow_schedule_within_the_level_cap_accepted(self):
        # about 9e5 levels from 100 to 1e-6, each one a factor below 1
        assert 8e5 < AnnealingSchedule(cooling_rate=2.05e-5).levels <= 10**6
        # the edge takes exactly the cap
        edge = AnnealingSchedule(cooling_rate=1.842051108436049e-05, iterations_per_temperature=1)
        assert edge.levels == 10**6
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


def refused_by_the_old_caps(initial, termination, rate, iterations) -> bool:
    """The two caps as AnnealingSchedule checked them before they became
    intervals: more than 10**6 levels, a per-level factor of 1 taking
    infinitely many, then more than 10**8 evaluations."""
    factor = 1.0 - rate
    span = math.log(termination) - math.log(initial)
    levels = math.inf if factor == 1.0 else span / math.log(factor)
    return levels > 10**6 or math.ceil(levels) * iterations > 10**8


def ulps_from(value: float, toward: float, count: int) -> float:
    for _ in range(count):
        value = math.nextafter(value, toward)
    return value


@st.composite
def temperatures(draw):
    """An initial temperature from 1e-300 to 1e300 and a termination apart
    from it by any span, equal, apart by a few ulps or a sliver, or a
    subnormal: 5e-324 or a few ulps above it."""
    initial = 10.0 ** draw(st.floats(-300.0, 300.0))
    termination = draw(st.one_of(
        st.floats(-300.0, 300.0).map(lambda exponent: min(10.0**exponent, initial)),
        st.just(initial),
        st.integers(1, 4).map(lambda count: ulps_from(initial, 0.0, count)),
        st.floats(-16.0, -6.0).map(lambda exponent: initial * (1.0 - 10.0**exponent)),
        st.integers(1, 4).map(lambda count: ulps_from(0.0, 1.0, count)),
    ))
    return initial, termination


@st.composite
def schedules(draw):
    """The fields the two caps judge: temperatures as drawn above; a rate
    log-uniform, a few ulps above 0 or below 1, next to 2**-54, where 1 -
    rate starts to round to 1, or next to the rate that takes 10**6 levels;
    iterations of any size, or next to the evaluation cap."""
    initial, termination = draw(temperatures())
    span = math.log(termination) - math.log(initial)
    edge = 1.0 - math.exp(span / 10**6)
    rate = draw(st.one_of(
        st.floats(-20.0, -1e-9).map(lambda exponent: 10.0**exponent),
        st.integers(1, 4).map(lambda count: ulps_from(0.0, 1.0, count)),
        st.integers(1, 4).map(lambda count: ulps_from(1.0, 0.0, count)),
        st.builds(ulps_from, st.sampled_from([edge, 2.0**-54]), st.sampled_from([0.0, 1.0]),
                  st.integers(0, 4)),
    ).filter(lambda rate: 0.0 < rate < 1.0))
    factor = 1.0 - rate
    levels = math.ceil(span / math.log(factor)) if factor != 1.0 else 0
    iterations = draw(st.one_of(
        st.sampled_from([1, 2, 100, 10**6, 10**8, 10**12]),
        st.integers(1, 10**9),
        st.integers(-1, 1).map(lambda step: max(1, 10**8 // max(levels, 1) + step)),
    ))
    return initial, termination, rate, iterations


@settings(max_examples=300)
@given(schedules())
@example((100.0, 5.161664442490212e-12, 3.0594464187849724e-05, 1))
@example((100.0, 1e-6, 1.842051108424947e-05, 1))
# 644 levels by the count; a run that compared temperatures took 645, which
# is 100,154,956 evaluations
@example((1748755555.0968451, 284132629.0137059, 0.002817790520427048, 155279))
def test_schedule_intervals_refuse_what_the_old_caps_refused(fields):
    # the caps were hand-worded predicates; as intervals on cooling_rate and
    # iterations_per_temperature they refuse the same schedules, in the one
    # wording. The first two examples sit at the factor exp(span / 10**6),
    # rounded up, whose level count reads past 10**6 (by 1.5e-6 and 3e-7
    # levels): the interval's edge is the next factor down. A schedule taken
    # runs at most 10**6 levels and 10**8 evaluations
    initial, termination, rate, iterations = fields

    def build(rate):
        return AnnealingSchedule(
            initial_temperature=initial, termination_temperature=termination,
            cooling_rate=rate, iterations_per_temperature=iterations,
        )

    before = refused_by_the_old_caps(*fields)
    try:
        schedule = build(rate)
    except ValueError as exc:
        now = True
        labels = r"AnnealingSchedule\.(?:cooling_rate|iterations_per_temperature)"
        assert re.fullmatch(rf"{labels} must lie in [\[(].+, .+[\])], got .+", str(exc)), exc
    else:
        now = False
        assert schedule.levels <= 10**6 and schedule.levels * iterations <= 10**8, fields
    # they part only where a rate just below the interval's low edge rounds
    # to the edge's own factor, 1 - rate, the one the old caps judged: the
    # exact rate of that factor is taken
    assert now == before or now and build(1.0 - (1.0 - rate)).levels <= 10**6, fields


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


@settings(max_examples=100)
@given(temperatures(), st.integers(1, 200), st.integers(-3, 3), st.integers(1, 3))
def test_every_taken_schedule_runs_its_level_count(ends, target, ulps, iterations):
    # a rate that cools the span in about `target` levels (more where it
    # rounds to 1 - 2**-53), a few ulps off, so the count and the
    # temperatures may part by rounding; the loop's one full evaluation is
    # stubbed out, a width of 0, and so is the probe, one whose bound never
    # certifies, so the run is the loop, the moves and the Metropolis rule,
    # which refuses a temperature that has fallen to 0
    initial, termination = ends
    rate = 1.0 - math.exp((math.log(termination) - math.log(initial)) / target)
    rate = ulps_from(rate, 1.0 if ulps > 0 else 0.0, abs(ulps))
    try:
        schedule = AnnealingSchedule(
            initial_temperature=initial, iterations_per_temperature=iterations,
            cooling_rate=rate, termination_temperature=termination,
        )
    except ValueError:
        assume(False)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(annealing, "_evaluate", lambda *args: (0.0, None))
        never = SimpleNamespace(bound=lambda designs: [math.inf] * len(designs))
        patch.setattr(annealing, "_Probe", lambda *args: never)
        result = anneal(BASELINE_DESIGN, DEFAULT_MPPS, grid=TINY_GRID, schedule=schedule)
    assert result.evaluations == 1 + schedule.levels * iterations


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

    @pytest.mark.parametrize(
        "initial, termination, rate, evaluations",
        [
            # the temperatures fell to termination a level before the count
            (100.0, 5.7648009999999985, 0.3, 9),
            # a level after it: the second level runs at termination, 90
            (100.0, 90.00000000000001, 0.1, 3),
            # the temperature stuck at 2.5e-323, above termination, and the
            # run never ended while the caps counted 510 levels
            (1e-300, 5e-324, 0.1, 511),
        ],
        ids=["count-above-temperatures", "count-below-temperatures", "subnormal"],
    )
    def test_a_run_takes_the_level_count_its_caps_judged(
        self, initial, termination, rate, evaluations
    ):
        schedule = AnnealingSchedule(
            initial_temperature=initial, iterations_per_temperature=1, cooling_rate=rate,
            termination_temperature=termination,
        )
        result = anneal(BASELINE_DESIGN, DEFAULT_MPPS, grid=TINY_GRID, schedule=schedule)
        assert result.evaluations == 1 + schedule.levels == evaluations

    def test_all_visited_designs_feasible(self):
        schedule = dataclasses.replace(FAST_SCHEDULE, termination_temperature=20.0)
        result = anneal(BASELINE_DESIGN, DEFAULT_MPPS, schedule=schedule)
        assert in_box(result.best_design)

    def test_every_solved_proposal_lies_in_the_box(self, monkeypatch):
        # the baseline sits outside the box in l_1 and l_1p, and the widest
        # step the schedule takes, just under each coordinate's full range,
        # clamps often: every row that the full evaluation or the probe
        # solves lies in BOUNDS_MM, so within the ranges DesignVector declares
        rows = []
        template = annealing.design_template

        def spied(layout, designs, medium):
            rows.extend(np.atleast_2d(designs).tolist())
            return template(layout, designs, medium)

        monkeypatch.setattr(annealing, "design_template", spied)
        widest = math.nextafter(1.0, 0.0)
        schedule = AnnealingSchedule(iterations_per_temperature=4, step_fraction=widest, seed=3)
        result = anneal(BASELINE_DESIGN, DEFAULT_MPPS, schedule=schedule)
        assert len(rows) > result.evaluations  # the probes solved rows too
        low, high = np.array(list(BOUNDS_MM.values())).T
        assert np.all((low <= np.array(rows)) & (np.array(rows) <= high))

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
    # and seeds 1, 3, 4 and 6 to answer. Neither the loop's one full
    # evaluation nor its probe may run.
    calls = []

    def spy(seam):
        def spied(*args):
            calls.append(args)
            return seam(*args)

        return spied

    monkeypatch.setattr(annealing, "_evaluate", spy(annealing._evaluate))
    monkeypatch.setattr(annealing, "_Probe", spy(annealing._Probe))
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


@pytest.mark.parametrize(
    "threshold, grid, iterations, certifies, batch",
    [
        (0.5, DEFAULT_GRID, 10, True, annealing._BATCH),
        (0.8, DEFAULT_GRID, 10, True, annealing._BATCH),
        (0.81, DEFAULT_GRID, 10, True, annealing._BATCH),
        # a band 294 Hz wide, and every gap that reaches a grid end is wider
        (0.95, DEFAULT_GRID, 10, False, annealing._BATCH),
        (0.8, FrequencyGrid(1.0, 2000.0, 0.5), 5, True, annealing._BATCH),
        # 39,981 points, solved in several blocks
        (0.8, FrequencyGrid(1.0, 2000.0, 0.05), 2, True, annealing._BATCH),
        # one proposal per probe: every miss sets the generator back
        (0.8, DEFAULT_GRID, 10, True, 1),
        # 9 points, where the floor on a pair's difference refuses the most crossings
        (0.8, FrequencyGrid(1.0, 2001.0, 250.0), 10, True, annealing._BATCH),
    ],
    ids=["0.5", "0.8", "0.81", "0.95", "0.5Hz", "0.05Hz", "0.8-batch1", "250Hz"],
)
def test_a_run_decides_as_it_does_with_every_spectrum_taken(
    monkeypatch, threshold, grid, iterations, certifies, batch
):
    # the probe's certified rejections against a run whose bounds are
    # forced to inf, so that every proposal takes its full spectrum
    monkeypatch.setattr(annealing, "_BATCH", batch)
    schedule = AnnealingSchedule(iterations_per_temperature=iterations, seed=1)
    full = []
    evaluate = annealing._evaluate

    def counted(*args):
        full.append(args)
        return evaluate(*args)

    monkeypatch.setattr(annealing, "_evaluate", counted)
    probed = anneal(BASELINE_DESIGN, DEFAULT_MPPS, grid=grid, schedule=schedule, threshold=threshold)
    probed_full = len(full)
    monkeypatch.setattr(annealing._Probe, "bound", lambda self, designs: [math.inf] * len(designs))
    taken = anneal(BASELINE_DESIGN, DEFAULT_MPPS, grid=grid, schedule=schedule, threshold=threshold)
    assert len(full) - probed_full == taken.evaluations == probed.evaluations
    assert probed.objective_trace == taken.objective_trace
    assert probed.best_design == taken.best_design
    assert probed.best_objective.hex() == taken.best_objective.hex()
    assert probed.best_spectrum.alphas.tobytes() == taken.best_spectrum.alphas.tobytes()
    assert (probed_full < probed.evaluations) == certifies


@pytest.mark.parametrize("threshold, stubbed", [(0.8, True), (0.95, False)], ids=["inf", "0.95"])
def test_a_probe_that_never_certifies_rests_after_each_batch(monkeypatch, threshold, stubbed):
    # a bound that never certifies, and the real one at threshold 0.95,
    # whose bands are narrower than their gaps to the grid's ends: a level
    # that probes bounds one batch, certifies none of it and rests the
    # _REST levels after it, so bound is called once per 1 + _REST levels
    calls = []
    bound = (lambda self, designs: [math.inf] * len(designs)) if stubbed else annealing._Probe.bound

    def counted(self, designs):
        calls.append(designs)
        return bound(self, designs)

    monkeypatch.setattr(annealing._Probe, "bound", counted)
    schedule = AnnealingSchedule(iterations_per_temperature=10, seed=1)
    anneal(BASELINE_DESIGN, DEFAULT_MPPS, schedule=schedule, threshold=threshold)
    assert len(calls) == math.ceil(schedule.levels / (1 + annealing._REST)) == 28


def test_a_batch_draws_and_rewinds_as_the_loop_steps():
    # a batch draws its K proposals as K certified-rejected steps draw them,
    # 12 uniforms for the move and one for accept; set back to the batch's
    # start and advanced by 13 * i + 12, the generator stands where the
    # loop stands after proposal i's move, and draws proposal i's u next
    for seed in range(20):
        rng, stepped = np.random.default_rng(seed), np.random.default_rng(seed)
        saved = rng.bit_generator.state
        draws = rng.random((16, 13))
        for i in range(len(draws)):
            rng.bit_generator.state = saved
            rng.bit_generator.advance(13 * i + 12)
            stepped.random(12)
            assert rng.bit_generator.state == stepped.bit_generator.state
            assert stepped.random() == draws[i, 12]
