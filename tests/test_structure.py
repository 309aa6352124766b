"""Geometry mapping: design vector to element chain, box bounds, presets."""

import dataclasses
import math
import re

import pytest

from mppabsorber import (
    BASELINE_DESIGN,
    BOUNDS_MM,
    DEFAULT_MPPS,
    OPTIMIZED_DESIGN,
    AreaChange,
    DesignVector,
    MppPanel,
    MppSpec,
    StraightPipe,
    ThreeChamberStructure,
    build_chain,
    single_chamber_chain,
)

MM = 1e-3


class TestBuildChain:
    def test_element_counts(self):
        chain = build_chain(BASELINE_DESIGN, DEFAULT_MPPS)
        assert len(chain.elements) == 16
        counts = {
            MppPanel: sum(isinstance(e, MppPanel) for e in chain.elements),
            AreaChange: sum(isinstance(e, AreaChange) for e in chain.elements),
            StraightPipe: sum(isinstance(e, StraightPipe) for e in chain.elements),
        }
        assert counts == {MppPanel: 3, AreaChange: 5, StraightPipe: 8}

    def test_element_type_pattern(self):
        chain = build_chain(BASELINE_DESIGN, DEFAULT_MPPS)
        pattern = [type(e).__name__ for e in chain.elements]
        assert pattern == [
            "MppPanel", "StraightPipe", "MppPanel", "StraightPipe",
            "AreaChange", "StraightPipe", "AreaChange", "StraightPipe",
            "MppPanel", "StraightPipe", "AreaChange", "StraightPipe",
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
        panels = [e for e in chain.elements if isinstance(e, MppPanel)]
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

    def test_lengths_lie_in_their_open_mm_range(self):
        # a value one ulp inside is a design that builds a chain, and a hole
        # of a single chamber. A hole one ulp below 1 km is wider than any
        # duct, so its chain is refused.
        low, high = 1e-3, 1e6
        above, below = math.nextafter(low, high), math.nextafter(high, low)
        for value in (above, below):
            build_chain(dataclasses.replace(BASELINE_DESIGN, d_2=value), DEFAULT_MPPS)
        single_chamber_chain(MppSpec(0.6, above, 0.025), 10.0, 100.0, 60.0, 10.0)
        # the hole, 1e6 mm less one ulp, read as 1000 m to the "g" format,
        # an interval that held no number
        message = re.escape(
            "MppPanel.duct_diameter must lie in (999.9999999999999, 1000], got 0.01"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            single_chamber_chain(MppSpec(0.6, below, 0.025), 10.0, 100.0, 60.0, 10.0)

    def test_single_chamber_layout(self):
        chain = single_chamber_chain(MppSpec(0.6, 0.2, 0.025), 10.0, 100.0, 60.0, 10.0)
        pattern = [type(e).__name__ for e in chain.elements]
        assert pattern == ["MppPanel", "StraightPipe", "AreaChange", "StraightPipe"]
        main, chamber = [e for e in chain.elements if isinstance(e, StraightPipe)]
        assert (main.length, main.diameter) == pytest.approx((0.1, 0.01))
        assert (chamber.length, chamber.diameter) == pytest.approx((0.01, 0.06))


def outside(design):
    """The fields of `design` outside their inclusive `BOUNDS_MM` box."""
    return {
        name: value
        for name, value in design.as_dict().items()
        if not BOUNDS_MM[name][0] <= value <= BOUNDS_MM[name][1]
    }


class TestBounds:
    def test_the_box_is_the_one_criterion_4_searches(self):
        # a standing rule: each field's declared box, in field order
        assert type(BOUNDS_MM) is dict
        assert list(BOUNDS_MM.items()) == [
            ("d_m", (5.0, 11.0)),
            ("d_2", (40.0, 70.0)),
            ("d_4", (50.0, 80.0)),
            ("d_6", (50.0, 100.0)),
            ("l_1", (60.0, 80.0)),
            ("l_1p", (10.0, 30.0)),
            ("l_2", (4.0, 12.0)),
            ("l_3", (4.0, 10.0)),
            ("l_3p", (4.0, 10.0)),
            ("l_4", (10.0, 30.0)),
            ("l_5", (10.0, 30.0)),
            ("l_6", (20.0, 40.0)),
        ]
        assert all(type(edge) is float for box in BOUNDS_MM.values() for edge in box)
        assert tuple(BOUNDS_MM) == tuple(BASELINE_DESIGN.as_dict())

    def test_each_box_lies_strictly_inside_its_declared_range(self):
        # so a design clamped into the box keeps every DesignVector rule
        for item in dataclasses.fields(DesignVector):
            low, high, closed = item.metadata["range"]
            assert (closed, BOUNDS_MM[item.name]) == (False, item.metadata["box"])
            assert low < item.metadata["box"][0] < item.metadata["box"][1] < high

    def test_optimized_design_is_inside_bounds(self):
        assert outside(OPTIMIZED_DESIGN) == {}

    def test_baseline_design_violations(self):
        # l_1 = 98 sits above [60, 80]; its complement l_1p = 2 below [10, 30]
        assert outside(BASELINE_DESIGN) == {"l_1": 98.0, "l_1p": 2.0}
        assert (BOUNDS_MM["l_1"], BOUNDS_MM["l_1p"]) == ((60.0, 80.0), (10.0, 30.0))

    def test_optimized_design_touches_a_bound(self):
        # l_3 sits exactly on its lower bound and must not be flagged
        assert OPTIMIZED_DESIGN.l_3 == BOUNDS_MM["l_3"][0]


class TestDesignVectorArray:
    def test_array_round_trip(self):
        array = OPTIMIZED_DESIGN.as_array()
        assert DesignVector(*array.tolist()) == OPTIMIZED_DESIGN

    def test_positional_construction_rejects_wrong_length(self):
        with pytest.raises(TypeError):
            DesignVector(1.0, 2.0)

    def test_design_fields_follow_the_dataclass_order(self):
        # anneal builds its best DesignVector positionally from BOUNDS_MM order
        assert tuple(BOUNDS_MM) == tuple(f.name for f in dataclasses.fields(DesignVector))


class TestReach:
    def test_each_field_at_the_lesser_or_greater_of_value_and_box_edge(self):
        # the baseline sits above the box in l_1 and below it in l_1p
        narrowest, widest = ThreeChamberStructure(BASELINE_DESIGN, DEFAULT_MPPS).reach()
        for name, (low, high) in BOUNDS_MM.items():
            value = getattr(BASELINE_DESIGN, name)
            assert getattr(narrowest.design, name) == min(value, low)
            assert getattr(widest.design, name) == max(value, high)
        assert (narrowest.design.l_1, widest.design.l_1) == (60.0, 98.0)
        assert (narrowest.design.l_1p, widest.design.l_1p) == (2.0, 30.0)
        assert narrowest.mpps == widest.mpps == DEFAULT_MPPS

    def test_a_design_inside_the_box_reaches_its_corners(self):
        narrowest, widest = ThreeChamberStructure(OPTIMIZED_DESIGN, DEFAULT_MPPS).reach()
        assert narrowest.design == DesignVector(*(low for low, _ in BOUNDS_MM.values()))
        assert widest.design == DesignVector(*(high for _, high in BOUNDS_MM.values()))

    def test_hole_the_narrowest_duct_cannot_hold_is_refused(self):
        # a 4.9 mm hole fits the 5 mm duct; a 5 mm hole does not
        mpps = dataclasses.replace(DEFAULT_MPPS, mpp3=MppSpec(0.8, 4.9, 0.025))
        ThreeChamberStructure(BASELINE_DESIGN, mpps).reach()
        mpps = dataclasses.replace(DEFAULT_MPPS, mpp3=MppSpec(0.8, 5.0, 0.025))
        refusal = (
            "the search reaches d_m = 5 mm: ThreeChamberStructure.mpps[2].aperture must lie in"
            " (0.001, 5), got 5.0"
        )
        with pytest.raises(ValueError) as excinfo:
            ThreeChamberStructure(BASELINE_DESIGN, mpps).reach()
        assert str(excinfo.value) == refusal

    def test_a_design_below_the_box_reaches_its_own_duct(self):
        # d_m = 4 mm lies below the box: the narrowest duct is the design's
        design = dataclasses.replace(BASELINE_DESIGN, d_m=4.0)
        mpps = dataclasses.replace(DEFAULT_MPPS, mpp1=MppSpec(0.6, 3.9, 0.025))
        narrowest, widest = ThreeChamberStructure(design, mpps).reach()
        assert (narrowest.design.d_m, widest.design.d_m) == (4.0, 11.0)
