"""Geometry of the multi-chamber MPP absorber family.

Maps the named geometric parameters of the three-chamber structure (all in
millimetres, the unit of the engineering drawings and config files) to the
canonical 16-element acoustic chain, and validates the box bounds used by
the optimizer. The degenerate single-chamber structure (one MPP, one
chamber) is provided as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acoustics import AreaChange, ElementChain, Mpp, MppPanel, StraightPipe
from .spectrum import require_positive

__all__ = [
    "BASELINE_DESIGN",
    "BOUNDS_MM",
    "DEFAULT_MPPS",
    "DESIGN_FIELDS",
    "BoundViolation",
    "DesignVector",
    "MppSet",
    "MppSpec",
    "build_chain",
    "OPTIMIZED_DESIGN",
    "single_chamber_chain",
    "validate_bounds",
]

MM = 1e-3

# Box bounds of the 12 design variables (mm), inclusive at both ends.
BOUNDS_MM: dict[str, tuple[float, float]] = {
    "d_m": (5.0, 11.0),
    "d_2": (40.0, 70.0),
    "d_4": (50.0, 80.0),
    "d_6": (50.0, 100.0),
    "l_1": (60.0, 80.0),
    "l_1p": (10.0, 30.0),
    "l_2": (4.0, 12.0),
    "l_3": (4.0, 10.0),
    "l_3p": (4.0, 10.0),
    "l_4": (10.0, 30.0),
    "l_5": (10.0, 30.0),
    "l_6": (20.0, 40.0),
}

DESIGN_FIELDS = tuple(BOUNDS_MM)


@dataclass(frozen=True)
class DesignVector:
    """The 12 geometric variables of the three-chamber structure (mm).

    d_m is the main-duct diameter; d_2/d_4/d_6 the chamber diameters;
    l_1 and l_1p split the first main-pipe section at MPP 2; l_2/l_4/l_6
    are the chamber thicknesses; l_3 and l_3p split the second main-pipe
    section at MPP 3; l_5 is the third main-pipe section.
    """

    d_m: float
    d_2: float
    d_4: float
    d_6: float
    l_1: float
    l_1p: float
    l_2: float
    l_3: float
    l_3p: float
    l_4: float
    l_5: float
    l_6: float

    def __post_init__(self):
        require_positive(self, *DESIGN_FIELDS)

    def as_array(self) -> np.ndarray:
        """Values in the canonical DESIGN_FIELDS order."""
        return np.array([getattr(self, name) for name in DESIGN_FIELDS], dtype=float)

    @classmethod
    def from_array(cls, values) -> "DesignVector":
        values = np.asarray(values, dtype=float)
        if values.shape != (len(DESIGN_FIELDS),):
            raise ValueError(
                f"expected {len(DESIGN_FIELDS)} values, got shape {values.shape}"
            )
        return cls(**{name: float(v) for name, v in zip(DESIGN_FIELDS, values)})

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in DESIGN_FIELDS}


@dataclass(frozen=True)
class MppSpec:
    """One panel's parameter triple: thickness and aperture in mm, porosity
    as an open-area fraction."""

    thickness: float
    aperture: float
    porosity: float

    def __post_init__(self):
        # checked here so an error names the value in mm; MppPanel keeps the
        # porosity rule
        require_positive(self, "thickness", "aperture")
        self.panel(1.0)

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
        Mpp(mpps.mpp1.panel(d.d_m)),
        StraightPipe(d.l_1 * MM, d.d_m * MM),
        Mpp(mpps.mpp2.panel(d.d_m)),
        StraightPipe(d.l_1p * MM, d.d_m * MM),
        AreaChange(),
        StraightPipe(d.l_2 * MM, d.d_2 * MM),
        AreaChange(),
        StraightPipe(d.l_3 * MM, d.d_m * MM),
        Mpp(mpps.mpp3.panel(d.d_m)),
        StraightPipe(d.l_3p * MM, d.d_m * MM),
        AreaChange(),
        StraightPipe(d.l_4 * MM, d.d_4 * MM),
        AreaChange(),
        StraightPipe(d.l_5 * MM, d.d_m * MM),
        AreaChange(),
        StraightPipe(d.l_6 * MM, d.d_6 * MM),
    )
    return ElementChain(elements=elements, main_duct_diameter=d.d_m * MM)


def single_chamber_chain(
    mpp: MppSpec,
    main_diameter_mm: float = 10.0,
    main_length_mm: float = 100.0,
    chamber_diameter_mm: float = 60.0,
    chamber_thickness_mm: float = 10.0,
) -> ElementChain:
    """Single-chamber structure: MPP at the mouth of a main pipe feeding one
    expansion chamber against the rigid wall. Defaults match the reference
    single-chamber absorber."""
    elements: tuple = (
        Mpp(mpp.panel(main_diameter_mm)),
        StraightPipe(main_length_mm * MM, main_diameter_mm * MM),
        AreaChange(),
        StraightPipe(chamber_thickness_mm * MM, chamber_diameter_mm * MM),
    )
    return ElementChain(elements=elements, main_duct_diameter=main_diameter_mm * MM)


@dataclass(frozen=True)
class BoundViolation:
    """A design value outside its box bound."""

    field: str
    value: float
    lower: float
    upper: float

    def __str__(self) -> str:
        return f"{self.field} = {self.value} outside [{self.lower}, {self.upper}]"


def validate_bounds(design: DesignVector) -> list[BoundViolation]:
    """All box-bound violations of a design; empty iff fully inside.

    Bound endpoints are inclusive (published optima sit exactly on them).
    """
    violations = []
    for name, (lower, upper) in BOUNDS_MM.items():
        value = getattr(design, name)
        if not lower <= value <= upper:
            violations.append(BoundViolation(name, value, lower, upper))
    return violations
