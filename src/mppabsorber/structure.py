"""Geometry of the multi-chamber MPP absorber family, and the optimizer's
search box.

Maps the named geometric parameters of the three-chamber structure (all in
millimetres, the unit of the engineering drawings and config files) to the
canonical 16-element acoustic chain, and, for the optimizer, an array of
them to that chain's template. Each DesignVector field declares its
inclusive box, gathered in BOUNDS_MM, which the optimizer searches; a
ThreeChamberStructure answers which structures a search from its design
reaches. The degenerate single-chamber structure (one MPP, one chamber) is
provided as well. Both structures refuse a panel whose hole is not narrower
than the main duct `d_m`, as an aperture interval in millimetres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .acoustics import AreaChange, ElementChain, Medium, MppPanel, StraightPipe, circle_area
from .spectrum import check_fields, ranged, refuse

__all__ = [
    "BASELINE_DESIGN",
    "BOUNDS_MM",
    "DEFAULT_MPPS",
    "DesignVector",
    "MppSet",
    "MppSpec",
    "SingleChamberStructure",
    "ThreeChamberStructure",
    "build_chain",
    "OPTIMIZED_DESIGN",
    "single_chamber_chain",
]

MM = 1e-3
# Open range of every length in mm: from 1 um, about 15 mean free paths of
# air, where the continuum formulas still hold, to 1 km. Hole and duct areas
# stay far from 0.0 and from overflow.
MM_RANGE = (1e-3, 1e6)


@dataclass(frozen=True)
class DesignVector:
    """The 12 geometric variables of the three-chamber structure (mm).
    Each is a length in MM_RANGE, and the optimizer searches it over its
    inclusive `box`.

    d_m is the main-duct diameter; d_2/d_4/d_6 the chamber diameters;
    l_1 and l_1p split the first main-pipe section at MPP 2; l_2/l_4/l_6
    are the chamber thicknesses; l_3 and l_3p split the second main-pipe
    section at MPP 3; l_5 is the third main-pipe section.
    """

    d_m: float = ranged(*MM_RANGE, box=(5.0, 11.0))
    d_2: float = ranged(*MM_RANGE, box=(40.0, 70.0))
    d_4: float = ranged(*MM_RANGE, box=(50.0, 80.0))
    d_6: float = ranged(*MM_RANGE, box=(50.0, 100.0))
    l_1: float = ranged(*MM_RANGE, box=(60.0, 80.0))
    l_1p: float = ranged(*MM_RANGE, box=(10.0, 30.0))
    l_2: float = ranged(*MM_RANGE, box=(4.0, 12.0))
    l_3: float = ranged(*MM_RANGE, box=(4.0, 10.0))
    l_3p: float = ranged(*MM_RANGE, box=(4.0, 10.0))
    l_4: float = ranged(*MM_RANGE, box=(10.0, 30.0))
    l_5: float = ranged(*MM_RANGE, box=(10.0, 30.0))
    l_6: float = ranged(*MM_RANGE, box=(20.0, 40.0))

    __post_init__ = check_fields

    def as_array(self) -> np.ndarray:
        """Values in field order, the order of BOUNDS_MM."""
        return np.array([getattr(self, name) for name in BOUNDS_MM], dtype=float)

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in BOUNDS_MM}


# The box of the 12 design variables (mm), inclusive at both ends, in field
# order: the order of a positional DesignVector.
BOUNDS_MM: dict[str, tuple[float, float]] = {
    item.name: item.metadata["box"] for item in fields(DesignVector)
}


@dataclass(frozen=True)
class MppSpec:
    """One panel's parameter triple: thickness and aperture in mm, porosity
    as an open-area fraction."""

    thickness: float = ranged(*MM_RANGE)
    aperture: float = ranged(*MM_RANGE)
    porosity: float = ranged(0.0, 1.0)

    __post_init__ = check_fields

    def panel(self, duct_diameter_mm: float) -> MppPanel:
        """SI panel embedded in a duct of the given diameter (mm)."""
        return MppPanel(
            thickness=self.thickness * MM,
            aperture=self.aperture * MM,
            porosity=self.porosity,
            duct_diameter=duct_diameter_mm * MM,
        )


@dataclass(frozen=True)
class MppSet:
    """The three panels of the three-chamber structure, source to wall."""

    mpp1: MppSpec
    mpp2: MppSpec
    mpp3: MppSpec

    def __iter__(self):
        return iter((self.mpp1, self.mpp2, self.mpp3))


# Pre-optimization geometry and its panel set; OPTIMIZED_DESIGN is the
# published optimum of the bandwidth maximization over BOUNDS_MM.
BASELINE_DESIGN = DesignVector(
    d_m=10.0, d_2=60.0, d_4=60.0, d_6=60.0,
    l_1=98.0, l_1p=2.0, l_2=10.0, l_3=10.0, l_3p=10.0,
    l_4=20.0, l_5=20.0, l_6=30.0,
)
OPTIMIZED_DESIGN = DesignVector(
    d_m=5.6, d_2=41.0, d_4=57.0, d_6=97.8,
    l_1=69.6, l_1p=10.4, l_2=8.9, l_3=4.0, l_3p=9.3,
    l_4=18.0, l_5=21.2, l_6=36.9,
)
DEFAULT_MPPS = MppSet(
    mpp1=MppSpec(thickness=0.6, aperture=0.2, porosity=0.025),
    mpp2=MppSpec(thickness=0.6, aperture=0.2, porosity=0.025),
    mpp3=MppSpec(thickness=0.8, aperture=0.4, porosity=0.025),
)


def build_chain(design: DesignVector, mpps: MppSet) -> ElementChain:
    """The canonical 16-element chain of the three-chamber structure.

    Source to rigid wall: MPP1, main pipe l_1, MPP2, main pipe l_1p,
    expansion, chamber pipe l_2 at d_2, contraction, main pipe l_3, MPP3,
    main pipe l_3p, expansion, chamber pipe l_4 at d_4, contraction, main
    pipe l_5, expansion, chamber pipe l_6 at d_6. Chambers are modelled as
    wide straight-pipe segments; the area changes at their faces carry
    identity matrices. Bounds are not enforced here.
    """
    d = design
    elements: tuple = (
        mpps.mpp1.panel(d.d_m),
        StraightPipe(d.l_1 * MM, d.d_m * MM),
        mpps.mpp2.panel(d.d_m),
        StraightPipe(d.l_1p * MM, d.d_m * MM),
        AreaChange(),
        StraightPipe(d.l_2 * MM, d.d_2 * MM),
        AreaChange(),
        StraightPipe(d.l_3 * MM, d.d_m * MM),
        mpps.mpp3.panel(d.d_m),
        StraightPipe(d.l_3p * MM, d.d_m * MM),
        AreaChange(),
        StraightPipe(d.l_4 * MM, d.d_4 * MM),
        AreaChange(),
        StraightPipe(d.l_5 * MM, d.d_m * MM),
        AreaChange(),
        StraightPipe(d.l_6 * MM, d.d_6 * MM),
    )
    return ElementChain(elements=elements, main_duct_diameter=d.d_m * MM)


# the DesignVector field of the diameter of each of build_chain's pipes,
# source first: d_m, d_m, d_2, d_m, d_m, d_4, d_m, d_6; their lengths are
# fields l_1 to l_6, in order, and every panel sits in d_m
_PIPE_DIAMETERS = np.array([0, 0, 1, 0, 0, 2, 0, 3])


def design_template(template, designs: np.ndarray, medium: Medium):
    """build_chain's ElementChain.template, bit for bit, of a design given
    as an array in field order (mm), or of each row of a (K, 12) array as a
    batch, each number then a row of K: `template`'s layout and panels, a
    template of build_chain's, and the design's lengths and areas, each
    area by circle_area's own arithmetic. Nothing is checked."""
    columns = designs.T
    diameters = columns[:4] * MM
    areas = np.array(list(map(circle_area, diameters.ravel().tolist()))).reshape(diameters.shape)
    z = medium.characteristic_impedance / areas
    lengths, z_c, factors = columns[4:] * MM, z[_PIPE_DIAMETERS], z[[0, 0, 0]]
    return template._replace(lengths=lengths, z_c=z_c, factors=factors, z0=z[0])


def single_chamber_chain(
    mpp: MppSpec, main_diameter_mm: float, main_length_mm: float,
    chamber_diameter_mm: float, chamber_thickness_mm: float,
) -> ElementChain:
    """Single-chamber structure: MPP at the mouth of a main pipe feeding one
    expansion chamber against the rigid wall. configs/single_chamber.json
    holds the reference single-chamber absorber."""
    elements: tuple = (
        mpp.panel(main_diameter_mm),
        StraightPipe(main_length_mm * MM, main_diameter_mm * MM),
        AreaChange(),
        StraightPipe(chamber_thickness_mm * MM, chamber_diameter_mm * MM),
    )
    return ElementChain(elements=elements, main_duct_diameter=main_diameter_mm * MM)


def _check_hole(mpp: MppSpec, duct_mm: float, label: str) -> None:
    """MppPanel's refusal of a hole not narrower than its duct, stated as
    the interval of `label`.aperture in the config's millimetres. Its edge
    is the least aperture refused, which lies a few ulps below the duct
    where the two round onto one double in metres."""
    try:
        mpp.panel(duct_mm)
    except ValueError:
        edge = duct_mm
        while math.nextafter(edge, 0.0) * MM >= duct_mm * MM:
            edge = math.nextafter(edge, 0.0)
        refuse(f"{label}.aperture", MM_RANGE[0], edge, False, mpp.aperture)


@dataclass(frozen=True)
class ThreeChamberStructure:
    """A design and its three panels, each hole narrower than d_m."""

    design: DesignVector
    mpps: MppSet

    def __post_init__(self):
        for index, mpp in enumerate(self.mpps):
            _check_hole(mpp, self.design.d_m, f"ThreeChamberStructure.mpps[{index}]")

    def chain(self) -> ElementChain:
        return build_chain(self.design, self.mpps)

    def reach(self) -> tuple[ThreeChamberStructure, ThreeChamberStructure]:
        """The narrowest and widest structures a search from this design
        visits: each field at the lesser, or the greater, of its value and
        its box edge. Refuses a hole the narrowest main duct cannot hold."""
        values = self.design.as_dict().values()
        lows, highs = zip(*BOUNDS_MM.values())
        lesser = DesignVector(*map(min, values, lows))
        greater = DesignVector(*map(max, values, highs))
        try:
            narrowest = ThreeChamberStructure(lesser, self.mpps)
        except ValueError as exc:
            raise ValueError(f"the search reaches d_m = {lesser.d_m:g} mm: {exc}") from None
        return narrowest, ThreeChamberStructure(greater, self.mpps)


@dataclass(frozen=True)
class SingleChamberStructure:
    """One panel at the mouth of a main pipe (d_m, l_m) feeding one chamber
    (d_e, t_e), all in mm: single_chamber_chain's arguments."""

    d_m: float = ranged(*MM_RANGE)
    l_m: float = ranged(*MM_RANGE)
    d_e: float = ranged(*MM_RANGE)
    t_e: float = ranged(*MM_RANGE)
    mpp: MppSpec

    def __post_init__(self):
        check_fields(self)
        _check_hole(self.mpp, self.d_m, "SingleChamberStructure.mpp")

    def chain(self) -> ElementChain:
        return single_chamber_chain(self.mpp, self.d_m, self.l_m, self.d_e, self.t_e)
