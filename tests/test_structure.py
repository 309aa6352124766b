"""Geometry mapping: design vector to element chain, box bounds, presets."""

import pytest

from mppabsorber import (
    BASELINE_DESIGN,
    BOUNDS_MM,
    DEFAULT_MPPS,
    OPTIMIZED_DESIGN,
    AreaChange,
    DesignVector,
    Mpp,
    MppSpec,
    StraightPipe,
    build_chain,
    single_chamber_chain,
    validate_bounds,
)

MM = 1e-3


class TestBuildChain:
    def test_element_counts(self):
        chain = build_chain(BASELINE_DESIGN, DEFAULT_MPPS)
        assert len(chain.elements) == 16
        counts = {
            Mpp: sum(isinstance(e, Mpp) for e in chain.elements),
            AreaChange: sum(isinstance(e, AreaChange) for e in chain.elements),
            StraightPipe: sum(isinstance(e, StraightPipe) for e in chain.elements),
        }
        assert counts == {Mpp: 3, AreaChange: 5, StraightPipe: 8}

    def test_element_type_pattern(self):
        chain = build_chain(BASELINE_DESIGN, DEFAULT_MPPS)
        pattern = [type(e).__name__ for e in chain.elements]
        assert pattern == [
            "Mpp", "StraightPipe", "Mpp", "StraightPipe",
            "AreaChange", "StraightPipe", "AreaChange", "StraightPipe",
            "Mpp", "StraightPipe", "AreaChange", "StraightPipe",
            "AreaChange", "StraightPipe", "AreaChange", "StraightPipe",
        ]

    def test_baseline_reproduces_reference_layout(self):
        # main pipe sections: 100 / 20 / 20 mm; chamber thicknesses 10/20/30
        d = BASELINE_DESIGN
        assert d.l_1 + d.l_1p == pytest.approx(100.0)
        assert d.l_3 + d.l_3p == pytest.approx(20.0)
        assert d.l_5 == pytest.approx(20.0)
        assert (d.l_2, d.l_4, d.l_6) == (10.0, 20.0, 30.0)
        assert (d.d_2, d.d_4, d.d_6) == (60.0, 60.0, 60.0)

        chain = build_chain(d, DEFAULT_MPPS)
        pipes = [e for e in chain.elements if isinstance(e, StraightPipe)]
        assert [p.length for p in pipes] == pytest.approx(
            [v * MM for v in (98.0, 2.0, 10.0, 10.0, 10.0, 20.0, 20.0, 30.0)]
        )
        assert [p.diameter for p in pipes] == pytest.approx(
            [v * MM for v in (10.0, 10.0, 60.0, 10.0, 10.0, 60.0, 10.0, 60.0)]
        )
        assert chain.main_duct_diameter == pytest.approx(10.0 * MM)

    def test_panels_embedded_in_main_duct(self):
        chain = build_chain(OPTIMIZED_DESIGN, DEFAULT_MPPS)
        panels = [e.panel for e in chain.elements if isinstance(e, Mpp)]
        assert len(panels) == 3
        for panel, spec in zip(panels, DEFAULT_MPPS):
            assert panel.duct_diameter == pytest.approx(OPTIMIZED_DESIGN.d_m * MM)
            assert panel.thickness == pytest.approx(spec.thickness * MM)
            assert panel.aperture == pytest.approx(spec.aperture * MM)
            assert panel.porosity == spec.porosity

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError, match="l_4"):
            DesignVector(
                d_m=10, d_2=60, d_4=60, d_6=60,
                l_1=98, l_1p=2, l_2=10, l_3=10, l_3p=10, l_4=0.0, l_5=20, l_6=30,
            )

    def test_single_chamber_layout(self):
        chain = single_chamber_chain(MppSpec(0.6, 0.2, 0.025))
        pattern = [type(e).__name__ for e in chain.elements]
        assert pattern == ["Mpp", "StraightPipe", "AreaChange", "StraightPipe"]
        main, chamber = [e for e in chain.elements if isinstance(e, StraightPipe)]
        assert (main.length, main.diameter) == pytest.approx((0.1, 0.01))
        assert (chamber.length, chamber.diameter) == pytest.approx((0.01, 0.06))


class TestBounds:
    def test_optimized_design_is_inside_bounds(self):
        assert validate_bounds(OPTIMIZED_DESIGN) == []

    def test_baseline_design_violations(self):
        violations = {v.field: v for v in validate_bounds(BASELINE_DESIGN)}
        # l_1 = 98 sits above [60, 80]; its complement l_1p = 2 below [10, 30]
        assert set(violations) == {"l_1", "l_1p"}
        assert violations["l_1"].value == 98.0
        assert (violations["l_1"].lower, violations["l_1"].upper) == (60.0, 80.0)
        assert "l_1 = 98.0 outside [60.0, 80.0]" in str(violations["l_1"])

    def test_bounds_inclusive_at_both_ends(self):
        lows = DesignVector(**{name: lo for name, (lo, _) in BOUNDS_MM.items()})
        highs = DesignVector(**{name: hi for name, (_, hi) in BOUNDS_MM.items()})
        assert validate_bounds(lows) == []
        assert validate_bounds(highs) == []

    def test_optimized_design_touches_a_bound(self):
        # l_3 sits exactly on its lower bound and must not be flagged
        assert OPTIMIZED_DESIGN.l_3 == BOUNDS_MM["l_3"][0]


class TestDesignVectorArray:
    def test_array_round_trip(self):
        array = OPTIMIZED_DESIGN.as_array()
        assert DesignVector.from_array(array) == OPTIMIZED_DESIGN

    def test_from_array_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            DesignVector.from_array([1.0, 2.0])
