"""Physics layer: hole impedance, element matrices, chain composition,
absorption of the rigidly terminated chain.

Reference constants were frozen from a standalone scalar evaluation of the
formulas (plain float/cmath arithmetic, written before this package); the
brute-force absorption oracle below re-derives the full 16-element product
inline so it shares no code with the implementation under test.
"""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mppabsorber import (
    AIR,
    AreaChange,
    BASELINE_DESIGN,
    BOUNDS_MM,
    DEFAULT_GRID,
    DEFAULT_MPPS,
    DesignVector,
    ElementChain,
    Medium,
    MppPanel,
    MppSet,
    MppSpec,
    SingleChamberStructure,
    StraightPipe,
    absorption_at,
    absorption_spectrum,
    build_chain,
    chain_matrix,
    cut_on_frequency,
    mpp_normalized_impedance,
    perforate_constant,
)
from mppabsorber.spectrum import FrequencyGrid

from four_pole import element_entries, four_pole_product
from test_solver import MPP_RANGES, random_chains

# Frozen oracle values (independent scalar evaluation, air at 20 degC).
K_AT_500HZ_02MM = 1.4456025058533009
MPP1_DC_RESISTANCE = 0.8415098360179382
MPP1_Z_AT_500HZ = complex(0.8864733648037593, 0.3514598756904818)
MPP3_Z_AT_500HZ = complex(0.33293722128394854, 0.49839165872779506)

MPP1 = MppPanel(thickness=0.6e-3, aperture=0.2e-3, porosity=0.025, duct_diameter=10e-3)
MPP3 = MppPanel(thickness=0.8e-3, aperture=0.4e-3, porosity=0.025, duct_diameter=10e-3)


def brute_force_baseline_alpha(f: float) -> float:
    """Absorption of the baseline three-chamber structure at one frequency,
    composed inline from scratch with scalar cmath arithmetic."""
    c0, rho0, eta = 343.0, 1.204, 1.81e-5

    def area(d):
        return math.pi * (d / 2) ** 2

    def pipe(length, dia):
        k = 2 * math.pi * f / c0
        zc = rho0 * c0 / area(dia)
        kl = k * length
        return (cmath.cos(kl), 1j * zc * cmath.sin(kl),
                1j * cmath.sin(kl) / zc, cmath.cos(kl))

    def mpp(t, d, sigma, duct):
        kp = d * math.sqrt(2 * math.pi * f * rho0 / (4 * eta))
        r = (32 * eta * t) / (sigma * rho0 * c0 * d * d) * (
            math.sqrt(1 + kp * kp / 32) + (math.sqrt(2) / 32) * kp * (d / t))
        x = (2 * math.pi * f * t) / (sigma * c0) * (
            1 + (9 + kp * kp / 2) ** -0.5 + 0.85 * (d / t))
        return (1.0, (r + 1j * x) * rho0 * c0 / area(duct), 0.0, 1.0)

    ident = (1.0, 0.0, 0.0, 1.0)
    mats = [
        mpp(0.6e-3, 0.2e-3, 0.025, 10e-3),
        pipe(98e-3, 10e-3),
        mpp(0.6e-3, 0.2e-3, 0.025, 10e-3),
        pipe(2e-3, 10e-3),
        ident,
        pipe(10e-3, 60e-3),
        ident,
        pipe(10e-3, 10e-3),
        mpp(0.8e-3, 0.4e-3, 0.025, 10e-3),
        pipe(10e-3, 10e-3),
        ident,
        pipe(20e-3, 60e-3),
        ident,
        pipe(20e-3, 10e-3),
        ident,
        pipe(30e-3, 60e-3),
    ]
    m = mats[0]
    for b in mats[1:]:
        m = (m[0] * b[0] + m[1] * b[2], m[0] * b[1] + m[1] * b[3],
             m[2] * b[0] + m[3] * b[2], m[2] * b[1] + m[3] * b[3])
    z0 = rho0 * c0 / area(10e-3)
    gamma = (m[0] - z0 * m[2]) / (m[0] + z0 * m[2])
    return 1 - abs(gamma) ** 2


class TestMedium:
    def test_defaults_are_air_at_20c(self):
        assert AIR.sound_speed == 343.0
        assert AIR.density == 1.204
        assert AIR.dynamic_viscosity == 1.81e-5

    @pytest.mark.parametrize(
        "field, low, high",
        [("sound_speed", 1.0, 1e5), ("density", 1e-3, 1e5), ("dynamic_viscosity", 1e-8, 1e3)],
    )
    def test_properties_lie_in_their_open_ranges(self, field, low, high):
        # the edges are refused, and so is anything past them or no finite
        # number; a value one ulp inside is a medium, and air lies far inside
        assert low * 10 < getattr(AIR, field) < high / 10
        for value in (low, high, 1e-300, 1e300, 0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError) as excinfo:
                Medium(**{field: value})
            assert str(excinfo.value) == (
                f"Medium.{field} must lie in ({low:g}, {high:g}), got {value}"
            )
        for value in (math.nextafter(low, high), math.nextafter(high, low)):
            assert getattr(Medium(**{field: value}), field) == value


class TestCutOn:
    def test_a_panel_duct_wider_than_every_pipe_sets_the_cut_on(self):
        # 1.8412 * 343 / (pi * 0.2 m); the widest pipe alone would give 20,102 Hz
        chain = ElementChain((MppPanel(0.6e-3, 0.2e-3, 0.025, 0.2), StraightPipe(0.1, 0.01)), 0.01)
        assert cut_on_frequency(chain) == pytest.approx(1005.1, abs=0.1)

    def test_widest_of_main_duct_and_pipes(self):
        pipes = (StraightPipe(0.1, 0.05), AreaChange(), StraightPipe(0.1, 0.08))
        assert cut_on_frequency(ElementChain(pipes, 0.02)) == 1.8412 * 343.0 / (math.pi * 0.08)
        assert cut_on_frequency(ElementChain(pipes, 0.1)) == 1.8412 * 343.0 / (math.pi * 0.1)


class TestPerforateConstant:
    def test_reference_value(self):
        assert perforate_constant(500.0, 0.2e-3) == pytest.approx(
            K_AT_500HZ_02MM, rel=1e-12
        )

    def test_quadrupling_frequency_doubles_k(self):
        k1 = perforate_constant(250.0, 0.3e-3)
        k4 = perforate_constant(1000.0, 0.3e-3)
        assert k4 == pytest.approx(2.0 * k1, rel=1e-12)

    def test_zero_aperture_gives_zero(self):
        assert perforate_constant(500.0, 0.0) == 0.0

    @pytest.mark.parametrize(
        "aperture, shown",
        [(-2e-4, "-0.0002"), (math.nan, "nan"), (math.inf, "inf"), ("2e-4", "'2e-4'"),
         (10**400, str(10**400))],
        ids=["negative", "nan", "inf", "str", "int"],
    )
    def test_aperture_is_refused_in_the_one_wording(self, aperture, shown):
        # only the frequency was checked: -2e-4 gave K = -1.4456, NaN and inf
        # were answered, a string raised TypeError and 10**400 OverflowError
        with pytest.raises(ValueError) as excinfo:
            perforate_constant(500.0, aperture)
        assert str(excinfo.value) == f"aperture must lie in [0, inf), got {shown}"

    def test_monotone_in_frequency_and_aperture(self):
        rng = np.random.default_rng(3)
        freqs = np.sort(rng.uniform(1.0, 2000.0, 20))
        ks = perforate_constant(freqs, 0.2e-3)
        assert np.all(np.diff(ks) > 0)
        assert perforate_constant(500.0, 0.4e-3) > perforate_constant(500.0, 0.2e-3)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            perforate_constant(0.0, 0.2e-3)
        with pytest.raises(ValueError):
            perforate_constant(-10.0, 0.2e-3)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = rng.uniform(1.0, 2000.0)
            d = rng.uniform(0.05e-3, 1e-3)
            expected = d * math.sqrt(2 * math.pi * f * AIR.density / (4 * AIR.dynamic_viscosity))
            assert perforate_constant(f, d) == pytest.approx(expected, rel=1e-13)


class TestMppImpedance:
    def test_dc_resistance_limit(self):
        z = mpp_normalized_impedance(MPP1, 1e-4)
        assert z.real == pytest.approx(MPP1_DC_RESISTANCE, rel=1e-4)

    def test_reactance_vanishes_at_low_frequency(self):
        z = mpp_normalized_impedance(MPP1, 1e-4)
        assert abs(z.imag) < 1e-6

    def test_frozen_regression_values(self):
        assert mpp_normalized_impedance(MPP3, 500.0) == pytest.approx(
            MPP3_Z_AT_500HZ, rel=1e-12
        )
        assert mpp_normalized_impedance(MPP1, 500.0) == pytest.approx(
            MPP1_Z_AT_500HZ, rel=1e-12
        )

    def test_resistance_and_reactance_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            f = rng.uniform(0.5, 2000.0)
            z = mpp_normalized_impedance(MPP3, f)
            assert z.real > 0
            assert z.imag > 0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            f = rng.uniform(1.0, 2000.0)
            t = rng.uniform(0.2e-3, 2e-3)
            d = rng.uniform(0.1e-3, 0.8e-3)
            sigma = rng.uniform(0.005, 0.2)
            panel = MppPanel(t, d, sigma, 10e-3)
            k = d * math.sqrt(2 * math.pi * f * 1.204 / (4 * 1.81e-5))
            r = (32 * 1.81e-5 * t) / (sigma * 1.204 * 343.0 * d * d) * (
                math.sqrt(1 + k * k / 32) + (math.sqrt(2) / 32) * k * (d / t))
            x = (2 * math.pi * f * t) / (sigma * 343.0) * (
                1 + (9 + k * k / 2) ** -0.5 + 0.85 * (d / t))
            assert mpp_normalized_impedance(panel, f) == pytest.approx(
                complex(r, x), rel=1e-12
            )

    @pytest.mark.parametrize("porosity", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_rejects_bad_porosity(self, porosity):
        with pytest.raises(ValueError):
            MppPanel(0.6e-3, 0.2e-3, porosity, 10e-3)

    def test_a_list_of_frequencies_is_answered_as_its_array(self):
        # a list raised TypeError: it was multiplied by a float
        listed, array = [500.0, 600.0], np.array([500.0, 600.0])
        for call in (lambda f: perforate_constant(f, 2e-4), lambda f: mpp_normalized_impedance(MPP1, f)):
            assert call(listed).tobytes() == call(array).tobytes()


def one_element_matrix(element, frequency):
    """The four-pole matrix of one element: a one-element chain's."""
    return chain_matrix(ElementChain((element,), 0.01), frequency)


class TestElementMatrix:
    def test_area_change_is_identity(self):
        for f in (1.0, 123.4, 2000.0):
            m = one_element_matrix(AreaChange(), f)
            assert m.a11 == 1.0 and m.a22 == 1.0
            assert m.a12 == 0.0 and m.a21 == 0.0

    def test_quarter_wave_pipe(self):
        # kl = pi/2: length = c0 / (4 f)
        f = 500.0
        pipe = StraightPipe(length=343.0 / (4 * f), diameter=10e-3)
        m = one_element_matrix(pipe, f)
        z_c = AIR.characteristic_impedance / pipe.area
        assert abs(m.a11) < 1e-12
        assert abs(m.a22) < 1e-12
        assert complex(m.a12) == pytest.approx(1j * z_c, rel=1e-12)
        assert complex(m.a21) == pytest.approx(1j / z_c, rel=1e-12)

    def test_mpp_matrix_form(self):
        m = one_element_matrix(MPP3, 500.0)
        assert m.a11 == 1.0 and m.a22 == 1.0 and m.a21 == 0.0
        expected = MPP3_Z_AT_500HZ * AIR.characteristic_impedance / MPP3.duct_area
        assert complex(m.a12) == pytest.approx(expected, rel=1e-12)

    def test_unit_determinant_every_element_type(self):
        rng = np.random.default_rng(23)
        elements = [
            AreaChange(),
            StraightPipe(0.05, 0.01),
            StraightPipe(0.3, 0.08),
            MPP1,
            MPP3,
        ]
        for element in elements:
            for f in rng.uniform(1.0, 2000.0, 20):
                det = one_element_matrix(element, float(f)).det()
                assert abs(det - 1.0) < 1e-10

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            one_element_matrix(StraightPipe(0.1, 0.01), 0.0)
        with pytest.raises(ValueError):
            one_element_matrix(StraightPipe(0.1, 0.01), math.nan)


FREQUENCY_ENTRY_POINTS = {
    "chain_matrix": lambda f: chain_matrix(
        ElementChain((MPP1, StraightPipe(0.1, 0.01)), 0.01), f
    ),
    "perforate_constant": lambda f: perforate_constant(f, 0.2e-3),
    "mpp_normalized_impedance": lambda f: mpp_normalized_impedance(MPP1, f),
}


@pytest.mark.filterwarnings("error")  # refused before any arithmetic warns
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 1e11, 1e300])
@pytest.mark.parametrize("entry_point", sorted(FREQUENCY_ENTRY_POINTS))
def test_non_finite_frequency_rejected(entry_point, value):
    # infinities used to pass the check and come back as NaN with a
    # RuntimeWarning; 1e11 and 1e300, which no grid takes, were answered
    call = FREQUENCY_ENTRY_POINTS[entry_point]
    with pytest.raises(ValueError) as excinfo:
        call(value)
    assert str(excinfo.value) == f"frequency must lie in (0, 1e+11), got {value}"
    with pytest.raises(ValueError, match=re.escape("frequency must lie in (0, 1e+11), got [")):
        call(np.array([100.0, value, 200.0]))


@pytest.mark.parametrize("entry_point", sorted(FREQUENCY_ENTRY_POINTS))
def test_int_past_the_largest_double_is_refused(entry_point):
    # converted before any range test, 10**400 raised OverflowError
    call = FREQUENCY_ENTRY_POINTS[entry_point]
    with pytest.raises(ValueError) as excinfo:
        call(10**400)
    assert str(excinfo.value) == f"frequency must lie in (0, 1e+11), got {10**400}"
    refusal = re.escape("frequency must lie in (0, 1e+11), got [100.0, 1000")
    with pytest.raises(ValueError, match=refusal):
        call([100.0, 10**400])


@pytest.mark.parametrize(
    "call",
    [
        lambda f: chain_matrix(ElementChain((MPP1, StraightPipe(0.1, 0.01)), 0.01), f),
        lambda f: perforate_constant(f, 0.2e-3),
        lambda f: absorption_at(ElementChain((MPP1, StraightPipe(0.1, 0.01)), 0.01), f),
    ],
    ids=["chain_matrix", "perforate_constant", "absorption_at"],
)
def test_int_too_long_to_spell_is_refused_in_the_one_wording(call):
    # str() of an int of more than 4,300 digits raises, so the refusal came
    # out as Python's own "Exceeds the limit (4300 digits)" error
    for value, shown in ((10**5000, "int"), ([100.0, -(10**5000)], "list")):
        with pytest.raises(ValueError) as excinfo:
            call(value)
        refusal = f"frequency must lie in (0, 1e+11), got {shown} of more than 4300 digits"
        assert str(excinfo.value) == refusal


@pytest.mark.parametrize("entry_point", sorted(FREQUENCY_ENTRY_POINTS))
def test_ragged_frequency_list_is_refused_by_name(entry_point):
    # numpy's own "inhomogeneous shape" ValueError named no argument
    with pytest.raises(ValueError) as excinfo:
        FREQUENCY_ENTRY_POINTS[entry_point]([500.0, [600.0, 700.0]])
    assert str(excinfo.value) == "frequency must lie in (0, 1e+11), got [500.0, [600.0, 700.0]]"


# Every SI length of a chain element: a call that builds the element with
# that one value, the interval it lies in and the widest value it takes, the
# edge itself but for a hole, which must stay narrower than its duct.
SI_LENGTHS = {
    "MppPanel.thickness": (lambda v: MppPanel(v, 2e-4, 0.025, 0.01), "(0, 1000]", 1e3),
    "MppPanel.aperture": (
        lambda v: MppPanel(6e-4, v, 0.025, 1e3), "(0, 1000]", math.nextafter(1e3, 0.0)
    ),
    "MppPanel.duct_diameter": (lambda v: MppPanel(6e-4, 2e-4, 0.025, v), "(0.0002, 1000]", 1e3),
    "StraightPipe.length": (lambda v: StraightPipe(v, 0.01), "(0, 1000]", 1e3),
    "StraightPipe.diameter": (lambda v: StraightPipe(0.1, v), "(0, 1000]", 1e3),
    "ElementChain.main_duct_diameter": (
        lambda v: ElementChain((AreaChange(),), v), "(0, 1000]", 1e3
    ),
}


@pytest.mark.parametrize("label", sorted(SI_LENGTHS))
def test_si_lengths_stop_at_one_kilometre(label):
    # lengths were unbounded above: a duct of 1e160 m was built, and its
    # solve raised OverflowError from circle_area
    build, interval, widest = SI_LENGTHS[label]
    assert build(widest) is not None
    for value in (math.nextafter(1e3, math.inf), 1e160):
        with pytest.raises(ValueError) as excinfo:
            build(value)
        assert str(excinfo.value) == f"{label} must lie in {interval}, got {value}"


@pytest.mark.filterwarnings("error")
def test_every_config_length_one_ulp_below_one_kilometre_is_answered():
    # the config's lengths stop below 1e6 mm, so each SI length stays at or
    # below the 1 km edge and the chain solves
    below = math.nextafter(1e6, 0.0)
    structure = SingleChamberStructure(below, below, below, below, MppSpec(below, below / 2, 0.5))
    alpha = absorption_at(structure.chain(), 500.0)
    assert 0.0 <= alpha <= 1.0


class TestChainMatrix:
    def test_area_change_insertion_leaves_matrix_unchanged(self):
        pipes = (StraightPipe(0.1, 0.01), StraightPipe(0.05, 0.06))
        plain = ElementChain(pipes, 0.01)
        padded = ElementChain(
            (AreaChange(), pipes[0], AreaChange(), AreaChange(), pipes[1], AreaChange()),
            0.01,
        )
        for f in (7.0, 440.0, 1999.0):
            a = chain_matrix(plain, f)
            b = chain_matrix(padded, f)
            for entry_a, entry_b in zip(
                (a.a11, a.a12, a.a21, a.a22), (b.a11, b.a12, b.a21, b.a22)
            ):
                assert abs(entry_a - entry_b) <= 1e-12 * max(1.0, abs(entry_a))

    def test_two_collinear_pipes_equal_one(self):
        rng = np.random.default_rng(31)
        l1, l2, dia = 0.07, 0.13, 0.02
        split = ElementChain((StraightPipe(l1, dia), StraightPipe(l2, dia)), dia)
        joined = ElementChain((StraightPipe(l1 + l2, dia),), dia)
        for f in rng.uniform(1.0, 2000.0, 10):
            a = chain_matrix(split, float(f))
            b = chain_matrix(joined, float(f))
            for entry_a, entry_b in zip(
                (a.a11, a.a12, a.a21, a.a22), (b.a11, b.a12, b.a21, b.a22)
            ):
                assert abs(entry_a - entry_b) <= 1e-10 * max(1.0, abs(entry_b))

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            ElementChain((), main_duct_diameter=0.01)

    @pytest.mark.parametrize(
        "element",
        [
            MppSpec(0.6, 0.2, 0.025),
            "pipe",
            None,
            ElementChain((StraightPipe(0.1, 0.01),), 0.01),
            (StraightPipe(0.1, 0.01),),
        ],
        ids=lambda element: type(element).__name__,
    )
    def test_anything_but_an_element_rejected(self, element):
        # the walk skips what it does not know: an MppSpec among pipes used
        # to give alpha 0 and the pipes' matrix alone
        with pytest.raises(ValueError) as excinfo:
            ElementChain((StraightPipe(0.1, 0.01), element), 0.01)
        assert str(excinfo.value) == (
            "elements[1] must be a StraightPipe, AreaChange or MppPanel,"
            f" got {type(element).__name__}"
        )

    @pytest.mark.parametrize("element", [StraightPipe(0.1, 0.01), MPP1])
    @pytest.mark.parametrize("frequency", [300.0, np.array([1.0, 300.0, 1999.5])])
    def test_singleton_chain_equals_element_matrix(self, element, frequency):
        # the walk's one-element chain against the textbook element formulas;
        # a scalar frequency gives extended-precision scalars
        a = chain_matrix(ElementChain((element,), 0.01), frequency)
        b = element_entries(element, frequency)
        for entry_a, entry_b in zip((a.a11, a.a12, a.a21, a.a22), b):
            assert np.shape(entry_a) == np.shape(frequency)
            assert isinstance(entry_a if np.ndim(frequency) == 0 else entry_a[0], np.clongdouble)
            assert np.array_equal(entry_a, entry_b)


specs = st.builds(MppSpec, *(st.floats(lo, hi) for lo, hi in MPP_RANGES))
panels = st.builds(MppSpec.panel, specs, st.floats(5.0, 20.0))
elements = st.one_of(
    st.builds(StraightPipe, st.floats(1e-3, 0.15), st.floats(5e-3, 0.1)),
    st.just(AreaChange()),
    panels,
)
frequencies = st.one_of(
    st.floats(1.0, 2000.0),
    st.lists(st.floats(1.0, 2000.0), min_size=1, max_size=40).map(np.array),
)
grids = st.builds(FrequencyGrid, st.floats(1.0, 10.0), st.just(2000.0), st.floats(0.5, 2.0))
WALL_MPP = ElementChain((StraightPipe(0.05, 0.01), StraightPipe(0.02, 0.06), MPP3), 0.01)
ADJACENT_MPPS = ElementChain(
    (StraightPipe(0.05, 0.01), MPP1, MPP3, StraightPipe(0.03, 0.06)), 0.01
)
MPPS_ONLY = ElementChain((MPP1, MPP3, MPP1), 0.01)
AREA_CHANGES_ONLY = ElementChain((AreaChange(), AreaChange()), 0.01)
designs = st.builds(
    DesignVector, **{name: st.floats(lo, hi) for name, (lo, hi) in BOUNDS_MM.items()}
)
mpp_sets = st.builds(MppSet, specs, specs, specs)
three_chamber_chains = st.builds(build_chain, designs, mpp_sets)
BASELINE_CHAIN = build_chain(BASELINE_DESIGN, DEFAULT_MPPS)


@settings(max_examples=200)
@given(
    chain=st.lists(elements, min_size=1, max_size=10).map(lambda e: ElementChain(tuple(e), 0.01)),
    frequency=frequencies,
)
@example(chain=WALL_MPP, frequency=np.array([1.0, 437.5, 2000.0]))
@example(chain=ADJACENT_MPPS, frequency=np.full((3, 4), 500.0))
@example(chain=ADJACENT_MPPS, frequency=811.0)
@example(chain=MPPS_ONLY, frequency=np.array([3.0, 1500.0]))
@example(chain=MPPS_ONLY, frequency=20.0)
@example(chain=AREA_CHANGES_ONLY, frequency=np.array([5.0, 50.0]))
@example(chain=AREA_CHANGES_ONLY, frequency=50.0)
def test_chain_matrix_equals_four_pole_product(chain, frequency):
    """The wall walk against the extended-precision product of the element
    matrices, source first, for any mix of pipes, area changes and panels."""
    walked = chain_matrix(chain, frequency)
    reference = four_pole_product(chain, frequency, np.clongdouble)
    for entry, expected in zip((walked.a11, walked.a12, walked.a21, walked.a22), reference):
        assert np.asarray(entry).dtype == np.clongdouble
        assert np.shape(entry) == np.shape(frequency)
        assert np.all(np.abs(entry - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


@settings(max_examples=100)
@given(chain=three_chamber_chains, frequency=frequencies)
def test_reversed_chain_swaps_the_diagonal(chain, frequency):
    """Reciprocity: every element has a11 = a22, so the chain reversed has
    a11 and a22 swapped and a12 and a21 kept."""
    forward = chain_matrix(chain, frequency)
    reverse = chain_matrix(ElementChain(chain.elements[::-1], chain.main_duct_diameter), frequency)
    for entry, expected in (
        (reverse.a11, forward.a22),
        (reverse.a12, forward.a12),
        (reverse.a21, forward.a21),
        (reverse.a22, forward.a11),
    ):
        assert np.all(np.abs(entry - expected) <= 1e-12 * np.abs(expected))


@settings(max_examples=50)
@given(chain=three_chamber_chains, grid=grids)
def test_chain_without_its_panels_is_lossless(chain, grid):
    """Pipes and area changes dissipate nothing: with its panels removed, a
    chain absorbs alpha <= 1e-12 at every grid point."""
    pipes = ElementChain(
        tuple(e for e in chain.elements if not isinstance(e, MppPanel)), chain.main_duct_diameter
    )
    assert absorption_spectrum(pipes, grid).alphas.max() <= 1e-12


@settings(max_examples=200)
@given(
    chain=three_chamber_chains,
    pipe=st.integers(0, 7),
    fraction=st.floats(0.01, 0.99),
    grid=grids,
)
def test_splitting_a_pipe_moves_no_alpha(chain, pipe, fraction, grid):
    """A pipe cut in two at any fraction of its length is the same pipe:
    every alpha agrees within 1e-10."""
    elements = list(chain.elements)
    index = [i for i, e in enumerate(elements) if isinstance(e, StraightPipe)][pipe]
    whole = elements[index]
    elements[index : index + 1] = [
        StraightPipe(whole.length * fraction, whole.diameter),
        StraightPipe(whole.length * (1.0 - fraction), whole.diameter),
    ]
    split = ElementChain(tuple(elements), chain.main_duct_diameter)
    difference = absorption_spectrum(split, grid).alphas - absorption_spectrum(chain, grid).alphas
    assert np.abs(difference).max() <= 1e-10


@settings(max_examples=200)
@given(chain=three_chamber_chains, position=st.integers(0, 16), grid=grids)
@example(chain=BASELINE_CHAIN, position=0, grid=FrequencyGrid(1.0, 2000.0, 7.0))
@example(chain=BASELINE_CHAIN, position=16, grid=FrequencyGrid(1.0, 2000.0, 7.0))
def test_inserting_an_area_change_leaves_every_alpha_unchanged(chain, position, grid):
    """An area change carries the identity matrix: inserted anywhere, it
    leaves the spectrum bit for bit."""
    elements = chain.elements[:position] + (AreaChange(),) + chain.elements[position:]
    padded = ElementChain(elements, chain.main_duct_diameter)
    assert np.array_equal(
        absorption_spectrum(padded, grid).alphas, absorption_spectrum(chain, grid).alphas
    )


@settings(max_examples=40)
@given(design=designs, mpps=mpp_sets)
def test_scaling_every_length_moves_no_alpha(design, mpps):
    """Dynamic similarity: every length times s, the frequencies over s and
    the viscosity times s leave K, Maa's normalised impedance, every k*l and
    every impedance relative to Z0 unchanged, so every alpha agrees within
    1e-12. A slip between mm and m, or a wrong power of a length, breaks it."""
    alphas = absorption_spectrum(build_chain(design, mpps), DEFAULT_GRID).alphas
    for s in (0.1, 0.5, 2.0, 3.0):
        scaled_design = DesignVector(*(s * design.as_array()).tolist())
        scaled_mpps = MppSet(*(MppSpec(s * m.thickness, s * m.aperture, m.porosity) for m in mpps))
        grid = FrequencyGrid(*(value / s for value in (1.0, 2000.0, 1.0)))
        medium = Medium(dynamic_viscosity=s * AIR.dynamic_viscosity)
        scaled = absorption_spectrum(build_chain(scaled_design, scaled_mpps), grid, medium).alphas
        assert np.max(np.abs(scaled - alphas)) <= 1e-12


@settings(max_examples=200)
@given(panel=panels, k_target=st.floats(1e-4, 0.1))
def test_resistance_tends_to_maa_low_k_limit(panel, k_target):
    """As K -> 0 the resistance tends to 32*eta*t / (sigma*rho0*c0*d^2)
    (Maa, J. Acoust. Soc. Am. 104, 2861 (1998)); for K <= 0.1 it lies within
    a relative K of that limit."""
    d, eta, rho = panel.aperture, AIR.dynamic_viscosity, AIR.density
    frequency = (k_target / d) ** 2 * 4.0 * eta / (2.0 * math.pi * rho)
    k = perforate_constant(frequency, d)
    limit = 32.0 * eta * panel.thickness / (
        panel.porosity * AIR.characteristic_impedance * d * d
    )
    resistance = mpp_normalized_impedance(panel, frequency).real
    assert abs(resistance - limit) <= k * limit


def bessel_j0_j1(x, terms=40):
    """J0(x) and J1(x) of a complex array by their power series,
    sum over m of (-1)^m (x/2)^(2m+n) / (m! (m+n)!); at |x| <= 12 the
    terms stay within a few thousand, so little is lost to cancellation."""
    q = -((x / 2.0) ** 2)
    term0, term1 = np.ones_like(x), x / 2.0
    j0, j1 = term0, term1
    for m in range(1, terms):
        term0 = term0 * q / (m * m)
        term1 = term1 * q / (m * (m + 1))
        j0, j1 = j0 + term0, j1 + term1
    return j0, j1


def crandall_normalized_impedance(panel, frequency, medium=AIR):
    """The exact impedance of the panel's holes as tubes, with no end
    correction, normalised by sigma*rho0*c0: j*omega*rho0*t / [1 -
    2*J1(x) / (x*J0(x))], x = K*sqrt(-j) (Crandall, Theory of Vibrating
    Systems and Sound, 1926). Maa's formula approximates it."""
    x = perforate_constant(frequency, panel.aperture, medium) * np.sqrt(-1j)
    j0, j1 = bessel_j0_j1(x)
    tube = 1j * 2.0 * np.pi * frequency * medium.density * panel.thickness
    return tube / (1.0 - 2.0 * j1 / (x * j0)) / (panel.porosity * medium.characteristic_impedance)


@settings(max_examples=200)
@given(aperture=st.floats(0.1e-3, 0.8e-3), porosity=st.floats(0.005, 0.05))
@example(aperture=0.8e-3, porosity=0.005)
def test_maa_impedance_lies_within_5_percent_of_crandall(aperture, porosity):
    """Maa's impedance against the exact tube impedance, for panels so
    thick (t = 1000 d) that the end corrections, which the tube lacks, are
    below 0.1 %: within a relative 5 % at every point of the default grid,
    K up to 11.6 (Maa, J. Acoust. Soc. Am. 104, 2861 (1998))."""
    panel = MppPanel(1000.0 * aperture, aperture, porosity, 0.01)
    frequencies = DEFAULT_GRID.frequencies()
    exact = crandall_normalized_impedance(panel, frequencies)
    maa = mpp_normalized_impedance(panel, frequencies)
    assert np.max(np.abs(maa - exact) / np.abs(exact)) <= 0.05


class TestAbsorption:
    def test_mpp_free_chain_is_lossless(self):
        rng = np.random.default_rng(41)
        chain = ElementChain(
            (
                StraightPipe(0.1, 0.01),
                AreaChange(),
                StraightPipe(0.01, 0.06),
                AreaChange(),
                StraightPipe(0.02, 0.01),
            ),
            main_duct_diameter=0.01,
        )
        for f in rng.uniform(1.0, 2000.0, 200):
            assert absorption_at(chain, float(f)) < 1e-9

    def test_passivity_raw_reflection(self, baseline_chain, optimized_chain):
        # before the clip, on the bundled chains and 100 random ones over
        # BOUNDS_MM and the single chamber's ranges, with random panels: the
        # mouth state (p, u) = (a11, a21), the solver's walk of the wall's
        # (1, 0), takes power in, Re(p * conj(u)) >= 0. So Gamma's
        # denominator |p + Z0*u| is never below max(|p|, Z0*|u|), and no
        # chain makes it 0
        chains = [baseline_chain, optimized_chain, *random_chains(3, n_three=80, n_single=20)]
        for chain in chains:
            z0 = chain.characteristic_impedance()
            m = chain_matrix(chain, DEFAULT_GRID.frequencies())
            assert np.all((m.a11 * np.conj(m.a21)).real >= 0.0)
            denominator = np.abs(m.a11 + z0 * m.a21)
            larger = np.maximum(np.abs(m.a11), z0 * np.abs(m.a21))
            assert np.all(denominator >= (1.0 - 1e-12) * larger)
            alpha = 1.0 - np.abs((m.a11 - z0 * m.a21) / (m.a11 + z0 * m.a21)) ** 2
            assert np.all(alpha >= -1e-12)
            assert np.all(alpha <= 1.0 + 1e-12)

    def test_alpha_of_chain_matrix_equals_absorption(
        self, baseline_chain, optimized_chain, single_chain
    ):
        # the first column of chain_matrix is the mouth state the absorption
        # solver computes; both walks must give the same alphas
        rng = np.random.default_rng(71)
        chains = [baseline_chain, optimized_chain, single_chain]
        for _ in range(12):
            design = DesignVector(**{k: rng.uniform(lo, hi) for k, (lo, hi) in BOUNDS_MM.items()})
            specs = [
                MppSpec(rng.uniform(0.2, 1.0), rng.uniform(0.1, 0.8), rng.uniform(0.005, 0.05))
                for _ in range(3)
            ]
            chains.append(build_chain(design, MppSet(*specs)))
        frequencies = DEFAULT_GRID.frequencies()
        for chain in chains:
            z0 = chain.characteristic_impedance()
            m = chain_matrix(chain, frequencies)
            gamma = (m.a11 - z0 * m.a21) / (m.a11 + z0 * m.a21)
            alpha = np.clip(1.0 - np.abs(gamma) ** 2, 0.0, 1.0).astype(float)
            solved = absorption_spectrum(chain, DEFAULT_GRID).alphas
            assert np.max(np.abs(alpha - solved)) <= 1e-12

    def test_matches_brute_force_oracle(self, baseline_chain):
        rng = np.random.default_rng(53)
        for f in rng.uniform(1.0, 2000.0, 50):
            ours = absorption_at(baseline_chain, float(f))
            theirs = brute_force_baseline_alpha(float(f))
            assert abs(ours - theirs) < 1e-10

    def test_spectrum_matches_pointwise_evaluation(self, baseline_chain):
        grid = FrequencyGrid(50.0, 60.0, 2.5)
        spectrum = absorption_spectrum(baseline_chain, grid)
        for f, a in zip(spectrum.frequencies, spectrum.alphas):
            assert a == pytest.approx(absorption_at(baseline_chain, float(f)), abs=1e-14)

    def test_pipe_splitting_invariance(self, baseline_chain):
        rng = np.random.default_rng(61)
        elements = list(baseline_chain.elements)
        pipe_index = next(
            i for i, e in enumerate(elements) if isinstance(e, StraightPipe)
        )
        pipe = elements[pipe_index]
        halves = [
            StraightPipe(pipe.length * 0.37, pipe.diameter),
            StraightPipe(pipe.length * 0.63, pipe.diameter),
        ]
        split = ElementChain(
            tuple(elements[:pipe_index] + halves + elements[pipe_index + 1 :]),
            baseline_chain.main_duct_diameter,
        )
        for f in rng.uniform(1.0, 2000.0, 30):
            assert abs(
                absorption_at(split, float(f)) - absorption_at(baseline_chain, float(f))
            ) < 1e-10

    def test_negative_step_rejected_without_an_mpp(self):
        # used to return alphas at negative frequencies: nothing on this
        # chain's path checks a frequency. A step now reaches the solver only
        # in a FrequencyGrid, which checks it.
        chain = ElementChain((StraightPipe(0.1, 0.05),), 0.05)
        with pytest.raises(ValueError, match=re.escape("step must lie in (0, 1e+11), got -1")):
            absorption_spectrum(chain, FrequencyGrid(100.0, 300.0, -1.0))

    @pytest.mark.parametrize("frequency", [0.0, -5.0, math.nan, math.inf])
    def test_absorption_at_refuses_a_bad_frequency_without_an_mpp(self, frequency):
        # nothing else on this chain's path checks a frequency: before the
        # check, a negative one gave alphas at negative frequencies
        chain = ElementChain((StraightPipe(0.1, 0.05),), 0.05)
        with pytest.raises(ValueError) as excinfo:
            absorption_at(chain, frequency)
        assert str(excinfo.value) == f"frequency must lie in (0, 1e+11), got {frequency}"

    def test_absorption_at_refuses_a_nan_alpha(self, baseline_chain, nan_walk):
        # a walk that overflowed to NaN gives a NaN alpha; the one-point
        # answer passes the spectrum's check, which refuses it
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            absorption_at(baseline_chain, 500.0)

    def test_absorption_at_answers_every_frequency_a_grid_can_start_at(self, baseline_chain):
        # the one-point grid (f, 2f, 2f) refused 6e10 Hz by naming 1.2e11 Hz,
        # and (f, nextafter(f), f) refused the double below 1e11
        for frequency in (6e10, math.nextafter(1e11, 0.0)):
            assert 0.0 <= absorption_at(baseline_chain, frequency) <= 1.0
        # refused by the rule of chain_matrix and perforate_constant
        for frequency in (1e11, 1e300):
            with pytest.raises(ValueError) as excinfo:
                absorption_at(baseline_chain, frequency)
            assert str(excinfo.value) == f"frequency must lie in (0, 1e+11), got {frequency}"

    @pytest.mark.parametrize("frequency", [np.array([500.0]), np.array([500.0, 600.0])])
    def test_absorption_at_refuses_an_array(self, single_chain, frequency):
        # a one-element array passed the grid's range check and failed as a
        # TypeError when the grid's size was read
        with pytest.raises(ValueError) as excinfo:
            absorption_at(single_chain, frequency)
        refusal = f"FrequencyGrid.f_min must lie in (0, 1e+11), got {frequency}"
        assert str(excinfo.value) == refusal

    def test_absorption_at_takes_a_zero_dimensional_array(self, baseline_chain):
        # a 0-d array is a number: the grid's check takes it as one
        at_array = absorption_at(baseline_chain, np.array(500.0))
        assert at_array == absorption_at(baseline_chain, 500.0)

    def test_bad_progression_message_names_the_argument_not_the_grid(self, baseline_chain):
        # used to print every frequency of the grid from the panel impedance;
        # a progression reaches the solver only as a FrequencyGrid, or as
        # absorption_at's frequency
        with pytest.raises(ValueError) as excinfo:
            absorption_spectrum(baseline_chain, FrequencyGrid(100.0, 2000.0, -1.0))
        assert str(excinfo.value) == "FrequencyGrid.step must lie in (0, 1e+11), got -1.0"
        with pytest.raises(ValueError) as excinfo:
            absorption_at(baseline_chain, -1.0)
        assert str(excinfo.value) == "frequency must lie in (0, 1e+11), got -1.0"

    def test_step_of_a_single_point_is_not_used(self, baseline_chain):
        # absorption_at solves the one-point grid (f, f, f); another f_max and
        # step give the same bits
        for frequency in (1.0, 123.456, 500.0, 1999.9):
            grid = FrequencyGrid(frequency, frequency + 0.5, 1.0)
            assert grid.size == 1
            one = absorption_spectrum(baseline_chain, grid)
            assert one.frequencies.tolist() == [frequency]
            assert one.alphas.tolist() == [absorption_at(baseline_chain, frequency)]
