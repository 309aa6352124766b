"""Annealing optimizer: objective, acceptance rule, schedules, and full runs
against a textbook loop."""

import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    MppSpec,
    absorption_spectrum,
    accept,
    anneal,
    anneal_multi,
    build_chain,
    effective_band,
    objective,
)
from mppabsorber import annealing
from reference_anneal import reference_anneal

# widths computed by the independent scalar evaluation of the full chain
BASELINE_WIDTH = 1317.8495348553893
OPTIMIZED_WIDTH = 1602.2895724252717


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

    def test_infeasible_design_scores_zero(self, baseline_spectrum):
        # the baseline's alpha peaks at about 0.934, so a threshold of 0.95 is
        # infeasible
        assert objective(BASELINE_DESIGN, DEFAULT_MPPS, threshold=0.95) == 0.0
        assert effective_band(baseline_spectrum, 0.95) is None

    def test_nan_alphas_are_refused_not_scored_zero(self, nan_walk):
        # a walk that overflowed to NaN gives NaN alphas, which the spectrum
        # refuses rather than score as a design without a band
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match=r"alpha values must lie in \[0, 1\]"):
                objective(BASELINE_DESIGN, DEFAULT_MPPS)


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
        for reading in ("multiplier", "geometric"):
            with pytest.raises(ValueError) as excinfo:
                AnnealingSchedule(cooling_reading=reading)
            assert str(excinfo.value) == (
                f"AnnealingSchedule.cooling_reading must be 'decrement', got {reading!r}"
            )

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


def anneals_as_the_textbook_loop(initial, grid, schedule, threshold):
    """`anneal` against the textbook loop (reference_anneal): the same trace,
    best design, best objective to the bit, evaluation count and best
    spectrum to the byte, whose band is as wide as the best objective."""
    result = anneal(initial, DEFAULT_MPPS, AIR, grid, schedule, threshold)
    best, best_objective, trace, evaluations = reference_anneal(
        initial, DEFAULT_MPPS, AIR, grid, schedule, threshold
    )
    assert result.objective_trace == trace
    assert result.best_design == best
    assert result.best_objective.hex() == best_objective.hex()
    assert result.evaluations == evaluations
    fresh = absorption_spectrum(build_chain(best, DEFAULT_MPPS), grid)
    assert result.best_spectrum.alphas.tobytes() == fresh.alphas.tobytes()
    band = effective_band(result.best_spectrum, threshold)
    assert (band.width if band else 0.0) == result.best_objective


UPPER_CORNER = DesignVector(*(high for _, high in BOUNDS_MM.values()))
COARSE_GRID = FrequencyGrid(1.0, 2001.0, 250.0)  # 9 points


def schedule_of(termination, iterations, step_fraction, seed, initial=100.0):
    return AnnealingSchedule(
        initial_temperature=initial, iterations_per_temperature=iterations,
        termination_temperature=termination, step_fraction=step_fraction, seed=seed,
    )


@st.composite
def textbook_schedules(draw):
    """From 0.1 to 1,000 down to 1e-7 to 0.1, where a worse proposal within
    0.02 Hz of the current one is rejected nearly always, at a rate of 0.5
    to 0.9: at most 34 levels of 1 to 12 iterations. A step fraction in
    [0, 0.99]; any seed."""
    return AnnealingSchedule(
        initial_temperature=10.0 ** draw(st.floats(-1.0, 3.0)),
        iterations_per_temperature=draw(st.integers(1, 12)),
        cooling_rate=draw(st.floats(0.5, 0.9)),
        termination_temperature=10.0 ** draw(st.floats(-7.0, -1.0)),
        step_fraction=draw(st.floats(0.0, 0.99)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


# the runs of the tests this property took over: FAST_SCHEDULE, with no
# level and with cooling to 20; 6 levels of 5 at seed 7; 50 moves at step
# fraction 0 from the baseline, which lies outside the box, at 0.1 from
# there and from the box's upper corner; and one level of 16 iterations at
# a low temperature for each of seeds 0-19, whose batches of certified
# rejections rewind the generator at every place in a batch. Then the
# default temperatures at 3 per level and threshold 0.5, where a bound that
# falls 0.02 Hz short decides wrongly
RUN_EXAMPLES = [
    *((BASELINE_DESIGN, DEFAULT_GRID, schedule_of(end, 2, 0.1, 42), 0.8)
      for end in (FAST_SCHEDULE.termination_temperature, 100.0, 20.0)),
    (BASELINE_DESIGN, DEFAULT_GRID, schedule_of(30.0, 5, 0.1, 7), 0.8),
    (BASELINE_DESIGN, DEFAULT_GRID, schedule_of(35.0, 10, 0.0, 0), 0.8),
    (BASELINE_DESIGN, DEFAULT_GRID, schedule_of(35.0, 10, 0.1, 1), 0.8),
    (UPPER_CORNER, DEFAULT_GRID, schedule_of(35.0, 10, 0.1, 2), 0.8),
    *((BASELINE_DESIGN, DEFAULT_GRID, schedule_of(0.85, 16, 0.1, seed, initial=1.0), 0.8)
      for seed in range(20)),
    (BASELINE_DESIGN, DEFAULT_GRID, AnnealingSchedule(iterations_per_temperature=3, seed=1), 0.5),
]


def run_examples(test):
    for initial, grid, schedule, threshold in RUN_EXAMPLES:
        test = example(initial=initial, grid=grid, schedule=schedule, threshold=threshold)(test)
    return test


@settings(max_examples=6)
@given(
    initial=st.sampled_from([BASELINE_DESIGN, OPTIMIZED_DESIGN, UPPER_CORNER]),
    grid=st.sampled_from([DEFAULT_GRID, FrequencyGrid(1.0, 2000.0, 0.5), COARSE_GRID]),
    schedule=textbook_schedules(),
    threshold=st.floats(0.5, 0.95),
)
@run_examples
def test_a_run_decides_as_the_textbook_loop(initial, grid, schedule, threshold):
    # the loop's batches, bounds, replayed draws, rewinds and rests against
    # a loop that has none of them
    anneals_as_the_textbook_loop(initial, grid, schedule, threshold)


def test_a_default_run_decides_as_the_textbook_loop():
    # 8,301 evaluations at seed 1, the bundled baseline config's schedule
    anneals_as_the_textbook_loop(BASELINE_DESIGN, DEFAULT_GRID, AnnealingSchedule(seed=1), 0.8)
