"""Physics layer: hole impedance, element matrices, chain composition,
absorption of the rigidly terminated chain.

Reference constants were frozen from a standalone scalar evaluation of the
formulas (plain float/cmath arithmetic, written before this package); the
brute-force absorption oracle below re-derives the full 16-element product
inline so it shares no code with the implementation under test.
"""

import cmath
import math

import numpy as np
import pytest

from mppabsorber import (
    AIR,
    AreaChange,
    BASELINE_DESIGN,
    DEFAULT_GRID,
    DEFAULT_MPPS,
    ElementChain,
    Medium,
    Mpp,
    MppPanel,
    SingularConfigurationError,
    StraightPipe,
    absorption_at,
    absorption_spectrum,
    build_chain,
    chain_matrix,
    element_matrix,
    mpp_normalized_impedance,
    perforate_constant,
)
from mppabsorber import acoustics
from mppabsorber.acoustics import absorption_coefficients
from mppabsorber.spectrum import FrequencyGrid

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
        "kwargs",
        [
            {"sound_speed": 0.0},
            {"density": -1.0},
            {"dynamic_viscosity": 0.0},
            {"sound_speed": math.nan},
            {"density": math.inf},
        ],
    )
    def test_rejects_nonpositive_properties(self, kwargs):
        with pytest.raises(ValueError):
            Medium(**kwargs)


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


class TestElementMatrix:
    def test_area_change_is_identity(self):
        for f in (1.0, 123.4, 2000.0):
            m = element_matrix(AreaChange(), f)
            assert m.a11 == 1.0 and m.a22 == 1.0
            assert m.a12 == 0.0 and m.a21 == 0.0

    def test_quarter_wave_pipe(self):
        # kl = pi/2: length = c0 / (4 f)
        f = 500.0
        pipe = StraightPipe(length=343.0 / (4 * f), diameter=10e-3)
        m = element_matrix(pipe, f)
        z_c = AIR.characteristic_impedance / pipe.area
        assert abs(m.a11) < 1e-12
        assert abs(m.a22) < 1e-12
        assert m.a12 == pytest.approx(1j * z_c, rel=1e-12)
        assert m.a21 == pytest.approx(1j / z_c, rel=1e-12)

    def test_mpp_matrix_form(self):
        m = element_matrix(Mpp(MPP3), 500.0)
        assert m.a11 == 1.0 and m.a22 == 1.0 and m.a21 == 0.0
        expected = MPP3_Z_AT_500HZ * AIR.characteristic_impedance / MPP3.duct_area
        assert m.a12 == pytest.approx(expected, rel=1e-12)

    def test_unit_determinant_every_element_type(self):
        rng = np.random.default_rng(23)
        elements = [
            AreaChange(),
            StraightPipe(0.05, 0.01),
            StraightPipe(0.3, 0.08),
            Mpp(MPP1),
            Mpp(MPP3),
        ]
        for element in elements:
            for f in rng.uniform(1.0, 2000.0, 20):
                det = element_matrix(element, float(f)).det()
                assert abs(det - 1.0) < 1e-10

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            element_matrix(StraightPipe(0.1, 0.01), 0.0)
        with pytest.raises(ValueError):
            element_matrix(StraightPipe(0.1, 0.01), math.nan)


class TestChainMatrix:
    def test_singleton_chain(self):
        pipe = StraightPipe(0.1, 0.01)
        chain = ElementChain((pipe,), main_duct_diameter=0.01)
        a = chain_matrix(chain, 300.0)
        b = element_matrix(pipe, 300.0)
        assert (a.a11, a.a12, a.a21, a.a22) == (b.a11, b.a12, b.a21, b.a22)

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

    def test_chain_determinant_across_grid(self, baseline_chain):
        det = chain_matrix(baseline_chain, DEFAULT_GRID.frequencies()).det()
        assert np.max(np.abs(det - 1.0)) < 1e-9


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
        for chain in (baseline_chain, optimized_chain):
            z0 = chain.characteristic_impedance()
            m = chain_matrix(chain, DEFAULT_GRID.frequencies())
            gamma = (m.a11 - z0 * m.a21) / (m.a11 + z0 * m.a21)
            alpha = 1.0 - np.abs(gamma) ** 2
            assert np.all(alpha >= -1e-12)
            assert np.all(alpha <= 1.0 + 1e-12)

    def test_clamped_output_range(self, baseline_spectrum):
        assert np.all(baseline_spectrum.alphas >= 0.0)
        assert np.all(baseline_spectrum.alphas <= 1.0)

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

    def test_single_point_grid(self, baseline_chain):
        grid = FrequencyGrid(500.0, 500.5, 1.0)
        spectrum = absorption_spectrum(baseline_chain, grid)
        assert len(spectrum) == 1
        assert spectrum.frequencies[0] == 500.0
        assert spectrum.alphas[0] == pytest.approx(
            absorption_at(baseline_chain, 500.0), abs=1e-14
        )

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

    def test_identity_insertion_spectrum_invariance(self, baseline_chain):
        padded = ElementChain(
            (AreaChange(),) + baseline_chain.elements + (AreaChange(),),
            baseline_chain.main_duct_diameter,
        )
        grid = FrequencyGrid(1.0, 2000.0, 7.0)
        a = absorption_spectrum(baseline_chain, grid).alphas
        b = absorption_spectrum(padded, grid).alphas
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_singular_configuration_reported(self, monkeypatch, baseline_chain):
        # force a mouth state with p + Z0*u == 0 exactly; unreachable through
        # real geometry
        z0 = baseline_chain.characteristic_impedance()
        forced = (np.array([-z0 + 0.0j]), np.array([1.0 + 0.0j]))
        monkeypatch.setattr(acoustics, "_mouth_state", lambda *a, **k: forced)
        with pytest.raises(SingularConfigurationError) as excinfo:
            absorption_at(baseline_chain, 123.0)
        assert excinfo.value.frequency == 123.0
        assert "123" in str(excinfo.value)

    def test_zero_count_rejected(self, baseline_chain):
        # used to fail with ZeroDivisionError inside the phase tables
        with pytest.raises(ValueError, match="count must be an integer >= 1, got 0"):
            absorption_coefficients(baseline_chain, 100.0, 1.0, 0)

    def test_negative_step_rejected_without_an_mpp(self):
        # used to return alphas at negative frequencies: nothing on this
        # chain's path checks a frequency
        chain = ElementChain((StraightPipe(0.1, 0.05),), 0.05)
        with pytest.raises(ValueError, match="step must be finite and positive, got -1"):
            absorption_coefficients(chain, 100.0, -1.0, 200)

    def test_bad_progression_message_names_the_argument_not_the_grid(self, baseline_chain):
        # used to print every frequency of the grid from the panel impedance
        with pytest.raises(ValueError) as excinfo:
            absorption_coefficients(baseline_chain, 100.0, -1.0, 2000)
        assert str(excinfo.value) == "step must be finite and positive, got -1.0"

    @pytest.mark.parametrize(
        "start, step, count, argument",
        [
            (0.0, 1.0, 10, "start"),
            (-5.0, 1.0, 1, "start"),
            (math.nan, 1.0, 10, "start"),
            (math.inf, 1.0, 10, "start"),
            (1.0, 0.0, 10, "step"),
            (1.0, math.nan, 10, "step"),
            (1.0, math.inf, 10, "step"),
            (1.0, 1.0, -3, "count"),
            (1.0, 1.0, 2.0, "count"),
            (1.0, 1.0, None, "count"),
        ],
    )
    def test_every_bad_progression_names_its_argument(
        self, baseline_chain, start, step, count, argument
    ):
        with pytest.raises(ValueError, match=f"^{argument} must be"):
            absorption_coefficients(baseline_chain, start, step, count)

    def test_step_of_a_single_point_is_not_used(self, baseline_chain):
        one = absorption_coefficients(baseline_chain, 500.0, 0.0, 1)
        assert one.tolist() == [absorption_at(baseline_chain, 500.0)]
