"""Plane-wave four-pole acoustics for MPP / expansion-chamber absorbers.

A sound structure is modelled as a series chain of lumped elements (straight
pipes, area changes, micro-perforated panels), each with a 2x2 four-pole
matrix relating (pressure, volume velocity) at its input to its output. The
chain is terminated by a rigid wall, which fixes u = 0 there. Absorption
carries the wall state (p, u) = (1, 0) to the mouth element by element
(`_mouth_state`); the mouth state is the first column (a11, a21) of the
chain matrix and gives the reflection coefficient, hence the
normal-incidence absorption coefficient. The full matrix product is built
only by `chain_matrix`, in extended precision, for its determinant.

The absorption solver takes its frequencies as an arithmetic progression
(start, step, count): a grid's f_min, step and point count, or one
frequency with count 1. The pipes' cos/sin tables then come from angle
addition (`_phase_trig`), about 2*sqrt(count) trig calls per pipe instead
of count. The solver takes a long progression in blocks of whole table rows
of about _BLOCK_POINTS points, bit for bit as in one piece, so that its
temporaries stay small and are reused instead of faulted in afresh.

MPP hole impedance follows Maa's classic micro-perforated panel model
(viscous resistance plus mass reactance with end corrections). Pipes are
lossless: all dissipation is attributed to the panels.

All quantities are SI. Frequency arguments of the impedance and element
formulas accept either a scalar (Hz) or a numpy array for vectorised
evaluation; matrix entries then carry the same shape.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .spectrum import AbsorptionSpectrum, FrequencyGrid, check_positive, require_positive

__all__ = [
    "AIR",
    "AreaChange",
    "ElementChain",
    "Medium",
    "Mpp",
    "MppPanel",
    "SingularConfigurationError",
    "SoundElement",
    "StraightPipe",
    "TransferMatrix",
    "absorption_at",
    "absorption_coefficients",
    "absorption_spectrum",
    "chain_matrix",
    "circle_area",
    "cut_on_frequency",
    "element_matrix",
    "mpp_normalized_impedance",
    "perforate_constant",
]


class SingularConfigurationError(ArithmeticError):
    """Raised when p + Z0*u at the mouth (a11 + Z0*a21) vanishes exactly
    and the reflection coefficient is undefined at that frequency."""

    def __init__(self, frequency: float):
        self.frequency = frequency
        super().__init__(
            f"singular configuration: p + Z0*u = 0 at {frequency} Hz"
        )


@dataclass(frozen=True)
class Medium:
    """Ambient fluid properties entering every impedance formula.

    Defaults are air at 20 degC. `temperature` is informational only; it is
    never used in a formula.
    """

    sound_speed: float = 343.0        # m/s
    density: float = 1.204            # kg/m^3
    dynamic_viscosity: float = 1.81e-5  # Pa*s
    temperature: float = 20.0         # degC, informational

    def __post_init__(self):
        require_positive(self, "sound_speed", "density", "dynamic_viscosity")

    @property
    def characteristic_impedance(self) -> float:
        """rho0*c0, the specific impedance of a free plane wave (Pa*s/m)."""
        return self.density * self.sound_speed


AIR = Medium()


def circle_area(diameter: float) -> float:
    """Cross-sectional area of a circular duct (m^2)."""
    return math.pi * (diameter / 2.0) ** 2


@dataclass(frozen=True)
class MppPanel:
    """Micro-perforated panel embedded in a duct.

    thickness, aperture (hole diameter) and duct_diameter in metres;
    porosity is the open-area fraction of the panel.
    """

    thickness: float
    aperture: float
    porosity: float
    duct_diameter: float

    def __post_init__(self):
        require_positive(self, "thickness", "aperture", "duct_diameter")
        if not 0 < self.porosity < 1:
            raise ValueError(f"porosity must be in (0, 1), got {self.porosity}")

    @property
    def duct_area(self) -> float:
        return circle_area(self.duct_diameter)


@dataclass(frozen=True)
class StraightPipe:
    """Uniform circular duct segment (length and diameter in metres)."""

    length: float
    diameter: float

    def __post_init__(self):
        require_positive(self, "length", "diameter")

    @property
    def area(self) -> float:
        return circle_area(self.diameter)


@dataclass(frozen=True)
class AreaChange:
    """Abrupt expansion or contraction between duct sections.

    Under the plane-wave lumped model both transitions carry the identity
    matrix; the variant exists so chains read like the physical layout.
    """


@dataclass(frozen=True)
class Mpp:
    """A micro-perforated panel element."""

    panel: MppPanel


SoundElement = StraightPipe | AreaChange | Mpp


@dataclass(frozen=True)
class TransferMatrix:
    """Four-pole matrix: (P, U)_in = A @ (P, U)_out.

    a11 and a22 are dimensionless, a12 is in Pa*s/m^3 and a21 in
    m^3/(Pa*s). Entries may be complex scalars or complex numpy arrays of
    a common shape (one matrix per frequency).
    """

    a11: complex | np.ndarray
    a12: complex | np.ndarray
    a21: complex | np.ndarray
    a22: complex | np.ndarray

    @classmethod
    def identity(cls) -> "TransferMatrix":
        return cls(1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        return TransferMatrix(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def det(self) -> complex | np.ndarray:
        return self.a11 * self.a22 - self.a12 * self.a21


@dataclass(frozen=True)
class ElementChain:
    """Ordered series of elements, sound source first, rigid wall last.

    main_duct_diameter (m) is the diameter of the main pipe at the mouth; it
    sets the characteristic impedance the reflection coefficient is referred
    to.
    """

    elements: tuple[SoundElement, ...]
    main_duct_diameter: float

    def __post_init__(self):
        if len(self.elements) == 0:
            raise ValueError("element chain must not be empty")
        require_positive(self, "main_duct_diameter")

    @property
    def main_duct_area(self) -> float:
        return circle_area(self.main_duct_diameter)

    def characteristic_impedance(self, medium: Medium = AIR) -> float:
        """Z0 = rho0*c0 / S_m of the main duct (Pa*s/m^3)."""
        return medium.characteristic_impedance / self.main_duct_area


def cut_on_frequency(chain: ElementChain, medium: Medium = AIR) -> float:
    """First cross-mode cut-on of the chain's widest duct (Hz),
    1.8412*c0/(pi*D_max), where 1.8412 is the first zero of J1'. Above it
    the (1,1) mode propagates and the plane-wave model no longer holds."""
    widest = max(
        [chain.main_duct_diameter]
        + [e.diameter for e in chain.elements if isinstance(e, StraightPipe)]
    )
    return 1.8412 * medium.sound_speed / (math.pi * widest)


def _check_frequency(frequency):
    if not np.all(np.asarray(frequency) > 0):
        raise ValueError(f"frequency must be positive, got {frequency}")


def perforate_constant(frequency, aperture: float, medium: Medium = AIR):
    """Perforate constant K = d * sqrt(omega * rho0 / (4 * eta)).

    K is the ratio of hole radius to viscous boundary-layer thickness; it
    governs the transition between Poiseuille and Helmholtz regimes of the
    hole impedance. Dimensionless, increasing in both frequency and
    aperture.
    """
    _check_frequency(frequency)
    omega = 2.0 * np.pi * frequency
    return aperture * np.sqrt(omega * medium.density / (4.0 * medium.dynamic_viscosity))


def mpp_normalized_impedance(panel: MppPanel, frequency, medium: Medium = AIR):
    """Maa impedance of an MPP, normalised by rho0*c0 (dimensionless).

    Resistance: viscous losses in the holes plus a surface correction
    proportional to K*d/t. Reactance: the air-plug mass with the classic
    0.85*d/t end correction. The mass-term factor uses (9 + K^2/2)^(-1/2),
    which decays with K as the boundary layer thins. perforate_constant
    checks the frequency.
    """
    t, d, sigma = panel.thickness, panel.aperture, panel.porosity
    omega = 2.0 * np.pi * frequency
    k_perf = perforate_constant(frequency, d, medium)
    resistance = (
        32.0 * medium.dynamic_viscosity * t
        / (sigma * medium.characteristic_impedance * d * d)
        * (np.sqrt(1.0 + k_perf**2 / 32.0) + (math.sqrt(2.0) / 32.0) * k_perf * (d / t))
    )
    reactance = (
        omega * t / (sigma * medium.sound_speed)
        * (1.0 + (9.0 + k_perf**2 / 2.0) ** -0.5 + 0.85 * (d / t))
    )
    return resistance + 1j * reactance


def element_matrix(element: SoundElement, frequency, medium: Medium = AIR) -> TransferMatrix:
    """Four-pole matrix of a single element at the given frequency.

    Straight pipe: [[cos(kl), j*Zc*sin(kl)], [j*sin(kl)/Zc, cos(kl)]] with
    k = omega/c0 (lossless) and Zc = rho0*c0/S. Area change: identity.
    MPP: series impedance (rho0*c0/S') * Z_mpp in the upper-right slot.
    All three have unit determinant.
    """
    _check_frequency(frequency)
    if isinstance(element, AreaChange):
        return TransferMatrix.identity()
    if isinstance(element, StraightPipe):
        k = 2.0 * np.pi * np.asarray(frequency, dtype=float) / medium.sound_speed
        z_c = medium.characteristic_impedance / element.area
        kl = k * element.length
        cos_kl = np.cos(kl)
        sin_kl = np.sin(kl)
        return TransferMatrix(
            cos_kl + 0.0j,
            1j * z_c * sin_kl,
            1j * sin_kl / z_c,
            cos_kl + 0.0j,
        )
    if isinstance(element, Mpp):
        panel = element.panel
        z = mpp_normalized_impedance(panel, frequency, medium) * (
            medium.characteristic_impedance / panel.duct_area
        )
        zero = np.zeros_like(z)
        one = zero + 1.0
        return TransferMatrix(one, z, zero, one)
    raise TypeError(f"unknown sound element {element!r}")


def chain_matrix(chain: ElementChain, frequency, medium: Medium = AIR) -> TransferMatrix:
    """Product of element matrices, element nearest the source leftmost.

    Entries of wide-chamber chains reach ~1e6, so the unit-determinant
    property cancels catastrophically in double precision; the returned
    matrix is accumulated in extended precision (x86 long double) to keep
    |det - 1| < 1e-9 across the band. Absorption does not use this product:
    it propagates the wall state to the mouth in doubles (`_mouth_state`),
    and the reflection ratio it feeds is well-conditioned, unlike the
    determinant. Area changes carry exact identity matrices and are not
    multiplied in.
    """
    _check_frequency(frequency)
    factors = [
        element_matrix(element, frequency, medium)
        for element in chain.elements
        if not isinstance(element, AreaChange)
    ]
    if not factors:
        return TransferMatrix.identity()
    first = factors[0]
    matrix = TransferMatrix(
        *(np.asarray(entry, dtype=np.clongdouble)
          for entry in (first.a11, first.a12, first.a21, first.a22))
    )
    for factor in factors[1:]:
        matrix = matrix @ factor
    return matrix


# Most points one solver block evaluates (up to a table row more). Whole-grid
# temporaries of a 0.01 Hz grid (~2e5 points, 3.2 MB as complex) are mapped
# and unmapped per call and fault in fresh pages every time; a block's are
# reused from the heap. 8192 measured fastest; 16k-point blocks fault again.
_BLOCK_POINTS = 8192


def _table_shape(count: int) -> tuple[int, int]:
    """(block, rows) of the phase table of `count` points: point
    n = q*block + r has row q < rows and column r < block = isqrt(count)."""
    block = math.isqrt(count)
    return block, -(-count // block)


def _phase_trig(
    lengths, start: float, step: float, count: int, sound_speed: float, rows=None
):
    """cos and sin of the pipe phases l*k at the frequencies start + n*step,
    n < count, as two (len(lengths), points) arrays over the table rows in
    `rows` (a range; all of them when None), the points
    rows.start*block <= n < min(rows.stop*block, count).

    Two-level angle addition: with block = isqrt(count) and n = q*block + r,
    only the fine angles l*k(start + r*step) and the coarse angles
    l*k(q*block*step) go through cos/sin. Batched over pipes,
    [cos_c, -sin_c] @ [cos_f; sin_f] and [sin_c, cos_c] @ [cos_f; sin_f]
    form the tables. absorption_coefficients asks for at most about
    _BLOCK_POINTS points at a time, whole rows, so the tables stay
    block-sized. Each entry depends only on its row's coarse and its
    column's fine angle, so a row range equals those rows of the full table
    bit for bit; numpy takes a one-row product through gemv, whose rounding
    differs from gemm's, so a lone row of a longer table is computed along
    with a neighbour. The q = 0 coarse angle is exactly 0, so the first row
    (the whole table when count == 1) is direct cos/sin bit for bit;
    elsewhere the error is a few ulp of the angle.
    """
    n_pipes = len(lengths)
    block, n_rows = _table_shape(count)
    rows = range(n_rows) if rows is None else rows
    first, stop = rows.start, rows.stop
    if stop - first == 1 < n_rows:
        first = min(first, n_rows - 2)
        stop = first + 2
    n = stop - first
    fine = np.multiply.outer(
        lengths, 2.0 * np.pi * (start + step * np.arange(block)) / sound_speed
    )
    coarse = np.multiply.outer(
        lengths, 2.0 * np.pi * (step * (block * np.arange(first, stop))) / sound_speed
    )
    rotation = np.empty((n_pipes, 2 * n, 2))
    cos_c, sin_c = rotation[:, :n, 0], rotation[:, n:, 0]
    np.cos(coarse, out=cos_c)
    np.sin(coarse, out=sin_c)
    np.negative(sin_c, out=rotation[:, :n, 1])
    rotation[:, n:, 1] = cos_c
    fine_trig = np.empty((n_pipes, 2, block))
    np.cos(fine, out=fine_trig[:, 0])
    np.sin(fine, out=fine_trig[:, 1])
    lo = (rows.start - first) * block
    hi = min(rows.stop * block, count) - first * block
    cos = (rotation[:, :n] @ fine_trig).reshape(n_pipes, n * block)[:, lo:hi]
    sin = (rotation[:, n:] @ fine_trig).reshape(n_pipes, n * block)[:, lo:hi]
    return cos, sin


def _mouth_state(
    chain: ElementChain, start, step, count, medium: Medium, panel_impedances, rows
):
    """(p, u) at the mouth for (1, 0) at the rigid wall: the first column
    (a11, a21) of the chain matrix, at the frequencies start + n*step of the
    phase-table rows `rows` of a `count`-point progression (see _phase_trig).

    The wall state is carried to the mouth element by element, the
    impedance-translation form of the four-pole method (Munjal, Acoustics of
    Ducts and Mufflers, 2nd ed., Wiley 2014, ch. 2-3): a pipe costs four
    multiply-adds, an MPP adds Z*u to p, an area change does nothing. The
    pipes' cos/sin come from angle-addition tables (`_phase_trig`). Up to the
    first MPP from the wall the chain is lossless: p stays real and u = j*v,
    so that segment runs in real arithmetic. absorption_coefficients calls
    this once per block of at most about _BLOCK_POINTS points, whole table
    rows each, so its temporaries stay small enough to be reused from the
    heap. `panel_impedances` are the normalised Maa impedances of the
    chain's panels in chain order at the same frequencies.
    """
    pipes = [e for e in chain.elements if isinstance(e, StraightPipe)]
    cos_kl, sin_kl = _phase_trig(
        [pipe.length for pipe in pipes], start, step, count, medium.sound_speed, rows
    )
    rho_c = medium.characteristic_impedance
    points = cos_kl.shape[1]
    p, v, u = np.ones(points), np.zeros(points), None
    pipe_index, panel_index = len(pipes), len(panel_impedances)
    for element in reversed(chain.elements):
        if isinstance(element, StraightPipe):
            pipe_index -= 1
            z_c = rho_c / element.area
            c, s = cos_kl[pipe_index], sin_kl[pipe_index]
            if u is None:
                p, v = c * p - (z_c * s) * v, ((1.0 / z_c) * s) * p + c * v
            else:
                p, u = c * p + (1j * z_c) * s * u, (1j / z_c) * s * p + c * u
        elif isinstance(element, Mpp):
            if u is None:
                u = 1j * v
            panel_index -= 1
            z = panel_impedances[panel_index] * (rho_c / element.panel.duct_area)
            p = p + z * u
    return p, (1j * v if u is None else u)


def absorption_coefficients(
    chain: ElementChain, start, step, count, medium: Medium = AIR, panel_impedances=None
) -> np.ndarray:
    """alpha = 1 - |Gamma|^2, clamped to [0, 1], at the `count` frequencies
    start + n*step (a grid's f_min, step and point count), with
    Gamma = (p - Z0*u) / (p + Z0*u) from the mouth state. A count that is not
    an integer >= 1, a start that is not finite and positive, or (for more
    than one point) such a step raises ValueError naming the argument.

    The progression is solved in blocks of ceil(_BLOCK_POINTS / isqrt(count))
    whole phase-table rows, one block when count <= _BLOCK_POINTS; tables,
    panel impedances and alphas are bit for bit those of one block. Callers
    evaluating many chains with the same panels on the same frequencies may
    pass the panels' normalised impedances at all `count` frequencies, in
    chain order, as `panel_impedances` instead of having them recomputed.
    """
    if not isinstance(count, numbers.Integral) or count < 1:
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    check_positive(start, "start")
    if count > 1:
        check_positive(step, "step")
    block, n_rows = _table_shape(count)
    rows_per_block = -(-_BLOCK_POINTS // block)
    z0 = chain.characteristic_impedance(medium)
    # The blocks' alphas are joined at the end, and one block's are returned
    # as they are: an output array allocated before the temporaries took
    # annealing's 2000-point evaluations from 16 to 81 page faults each.
    alphas = []
    for first in range(0, n_rows, rows_per_block):
        rows = range(first, min(first + rows_per_block, n_rows))
        lo, hi = first * block, min(rows.stop * block, count)
        if panel_impedances is None:
            frequencies = start + step * np.arange(lo, hi)
            impedances = [
                mpp_normalized_impedance(e.panel, frequencies, medium)
                for e in chain.elements
                if isinstance(e, Mpp)
            ]
        else:
            impedances = [z[lo:hi] for z in panel_impedances]
        p, u = _mouth_state(chain, start, step, count, medium, impedances, rows)
        z0_u = z0 * u
        denominator = p + z0_u
        bad = denominator == 0
        if np.any(bad):
            raise SingularConfigurationError(
                float(start + step * (lo + np.flatnonzero(bad)[0]))
            )
        gamma = (p - z0_u) / denominator
        alphas.append(np.clip(1.0 - np.abs(gamma) ** 2, 0.0, 1.0))
    return alphas[0] if len(alphas) == 1 else np.concatenate(alphas)


def absorption_at(chain: ElementChain, frequency: float, medium: Medium = AIR) -> float:
    """Normal-incidence absorption coefficient of the rigidly terminated
    chain at one frequency: the one-point case of absorption_coefficients,
    whose phase table is then direct cos/sin. Chains without an MPP are
    lossless and return essentially zero.
    """
    return float(absorption_coefficients(chain, frequency, 1.0, 1, medium)[0])


def absorption_spectrum(
    chain: ElementChain, grid: FrequencyGrid, medium: Medium = AIR
) -> AbsorptionSpectrum:
    """Absorption coefficient sampled on a frequency grid.

    Each grid point is independent; values match absorption_at frequency by
    frequency.
    """
    frequencies = grid.frequencies()
    return AbsorptionSpectrum(
        frequencies=frequencies,
        alphas=absorption_coefficients(
            chain, grid.f_min, grid.step, frequencies.size, medium
        ),
    )
