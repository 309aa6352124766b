"""Plane-wave four-pole acoustics for MPP / expansion-chamber absorbers.

A sound structure is modelled as a series chain of lumped elements (straight
pipes, area changes, micro-perforated panels), each with a 2x2 four-pole
matrix relating (pressure, volume velocity) at its input to its output. The
chain is terminated by a rigid wall. One walk (`_walk`) carries wall states
(p, u) from the wall to the mouth element by element, in the precision of
the buffers it is given. Absorption carries (1, 0) in doubles: its mouth
state is the first column (a11, a21) of the chain matrix and gives the
reflection coefficient, hence the normal-incidence absorption coefficient.
`chain_matrix` carries (0, 1) as well, for the whole matrix and its
determinant, in extended precision.

The absorption solver takes its frequencies as an arithmetic progression
(start, step, count): a grid's f_min, step and point count, or one
frequency with count 1. The pipes' cos/sin tables then come from angle
addition (`_phase_trig`), about 2*sqrt(count) trig calls per pipe instead
of count. The solver takes a long progression in blocks of whole table rows
of about _BLOCK_POINTS points, bit for bit as in one piece. Each thread
solves its blocks in one workspace of buffers sized to a block
(`_Workspace`), kept while the block shape repeats, with the last chain's
panel impedances, so that a repeated solve allocates no block-sized array
but the alphas it returns.

MPP hole impedance follows Maa's classic micro-perforated panel model
(viscous resistance plus mass reactance with end corrections). Pipes are
lossless: all dissipation is attributed to the panels.

All quantities are SI. Frequency arguments of the impedance formulas and
chain_matrix accept either a scalar (Hz) or a numpy array for vectorised
evaluation; matrix entries then carry the same shape.
"""

from __future__ import annotations

import math
import numbers
import threading
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


def perforate_constant(frequency, aperture: float, medium: Medium = AIR):
    """Perforate constant K = d * sqrt(omega * rho0 / (4 * eta)).

    K is the ratio of hole radius to viscous boundary-layer thickness; it
    governs the transition between Poiseuille and Helmholtz regimes of the
    hole impedance. Dimensionless, increasing in both frequency and
    aperture.
    """
    check_positive(frequency, "frequency")
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


class _Walk:
    """Buffers of a walk of `columns` wall states at `points` frequencies,
    in the real floating type `dtype` and its complex type. The walk writes
    every buffer before it reads it, except the zero halves of `factors`."""

    def __init__(self, columns: int, points: int, dtype):
        self.key = (columns, points, dtype)
        self.real = np.empty((columns, 4, points), dtype)  # per column p, v = u/j, two products
        self.complex = np.empty((columns, 4, points), np.result_type(dtype, 1j))
        # a pipe's c + 0j, 0 + j*(Zc*s) and 0 + j*(s/Zc), and a product; the zero halves stay zero
        self.factors = np.zeros((4, points), self.complex.dtype)
        # per column: real p, v and two products; complex p, u, next p and next u
        self.real_columns = [tuple(column) for column in self.real]
        self.complex_columns = [tuple(column) for column in self.complex]

    def complex_states(self, at_wall: bool) -> list[list]:
        """Per column [p, u, next p, next u] from the real p and v, or from the
        wall states when `at_wall`: where the walk leaves real arithmetic.
        The first column's state is (p, j*v), the second's (-j*p, v)."""
        if at_wall:
            self.real[:, :2] = np.eye(2)[: len(self.real), :, None]  # (1, 0), (0, 1)
        (p, v, _, _), (p_complex, u, _, _) = self.real_columns[0], self.complex_columns[0]
        p_complex.real, p_complex.imag, u.real, u.imag = p, 0.0, 0.0, v
        for (p, v, _, _), (p_complex, u, _, _) in zip(
            self.real_columns[1:], self.complex_columns[1:]
        ):
            p_complex.real, p_complex.imag, u.real, u.imag = 0.0, -p, v, 0.0
        return [list(column) for column in self.complex_columns]


_local = threading.local()


def _kept(name: str, kind, *key):
    """This thread's buffers `name`, a `kind(*key)` kept while the key
    repeats."""
    buffers = getattr(_local, name, None)
    if buffers is None or buffers.key != key:
        buffers = kind(*key)
        setattr(_local, name, buffers)
    return buffers


def _walk(chain: ElementChain, cos_kl, sin_kl, panel_impedances, medium: Medium, walk: _Walk):
    """Mouth states [p, u] of the wall states (p, u) = (1, 0) and, in a
    two-column `walk`, (0, 1), at the frequencies where the chain's pipes
    have phases of cos `cos_kl` and sin `sin_kl` and its panels the
    normalised Maa impedances `panel_impedances` (a row each, in chain
    order, in doubles). The walk computes in the precision of `walk`'s
    buffers; products of doubles widen when they are written there. The
    mouth states are buffers of `walk`, valid until its next walk.

    The wall states are carried to the mouth element by element, the
    impedance-translation form of the four-pole method (Munjal, Acoustics of
    Ducts and Mufflers, 2nd ed., Wiley 2014, ch. 2-3): a pipe costs four
    multiply-adds per column, an MPP adds Z*u to p, an area change does
    nothing. Up to the first MPP from the wall the chain is lossless and
    each column keeps a fixed phase, so that segment runs in real
    arithmetic on (p, v) = (p, u/j) for the first column and (j*p, u) for
    the second, from (1, 0) and (0, 1).

    Every step works in place and rounds as the plain expressions
    c*p - (Zc*s)*v and ((1/Zc)*s)*p + c*v (real segment), and
    c*p + ((j*Zc)*s)*u and ((j/Zc)*s)*p + c*u (complex segment) do. The real
    c and imaginary (j*Zc)*s and (j/Zc)*s are written into one half of
    complex buffers whose other half stays zero, which can change the sign
    of a zero but no value. Each column's state is 1-D, and a complex
    product never writes into one of its own operands: numpy takes other
    inner loops for either, which can round differently.
    """
    rho_c = medium.characteristic_impedance
    # looked up once for the ~70 calls of a three-chamber walk; out positional
    multiply, add, subtract = np.multiply, np.add, np.subtract
    c_complex, zs, sz, product = walk.factors
    cos_kl = np.asarray(cos_kl, walk.real.dtype)  # exact; the real segment mixes no precisions
    at_wall = True  # the real states (p, v) = (1, 0) and (0, 1), not yet written
    states = None  # from the first MPP on: complex_states
    pipe_index, panel_index = len(cos_kl), len(panel_impedances)
    for element in reversed(chain.elements):
        if isinstance(element, StraightPipe):
            pipe_index -= 1
            z_c = rho_c / element.area
            c, s = cos_kl[pipe_index], sin_kl[pipe_index]
            if states is not None:
                np.copyto(c_complex.real, c)
                multiply(z_c, s, zs.imag)
                multiply(1.0 / z_c, s, sz.imag)
                for state in states:
                    p, u, p_next, u_next = state
                    multiply(c_complex, p, p_next)
                    multiply(zs, u, u_next)
                    add(p_next, u_next, p_next)  # c*p + (1j*z_c)*s*u
                    multiply(sz, p, u_next)
                    multiply(c_complex, u, product)
                    add(u_next, product, u_next)  # (1j/z_c)*s*p + c*u
                    state[:] = p_next, u_next, p, u
            elif at_wall:
                # the pipe's columns: (c, (1/z_c)*s) and (-z_c*s, c)
                p, v, _, _ = walk.real_columns[0]
                np.copyto(p, c)
                multiply(1.0 / z_c, s, v)
                for p, v, _, _ in walk.real_columns[1:]:
                    multiply(-z_c, s, p)
                    np.copyto(v, c)
                at_wall = False
            else:
                # Zc*s and s/Zc, in the last column's products, which it forms last
                zs_real, sz_real = walk.real_columns[-1][2:]
                multiply(z_c, s, zs_real)
                multiply(1.0 / z_c, s, sz_real)
                for p, v, t, w in walk.real_columns:
                    multiply(zs_real, v, t)
                    multiply(sz_real, p, w)
                    multiply(p, c, p)
                    subtract(p, t, p)  # c*p - (z_c*s)*v
                    multiply(v, c, v)
                    add(v, w, v)  # ((1/z_c)*s)*p + c*v
        elif isinstance(element, Mpp):
            if states is None:
                states = walk.complex_states(at_wall)
            panel_index -= 1
            multiply(panel_impedances[panel_index], rho_c / element.panel.duct_area, product)
            for p, u, _, u_next in states:
                multiply(product, u, u_next)
                add(p, u_next, p)  # p + z*u
    return [state[:2] for state in states or walk.complex_states(at_wall)]


def chain_matrix(chain: ElementChain, frequency, medium: Medium = AIR) -> TransferMatrix:
    """Four-pole matrix of the chain, element nearest the source leftmost,
    with entries in extended precision (np.clongdouble).

    Its columns (a11, a21) and (a12, a22) are the mouth states of the wall
    states (p, u) = (1, 0) and (0, 1), carried from the rigid wall to the
    mouth by the walk absorption uses (`_walk`), here in np.longdouble
    buffers kept per thread. The pipes' cos and sin are direct, and each
    element's terms are computed in doubles and widen exactly when written.
    Entries of wide-chamber chains reach ~1e6, so the unit determinant
    cancels catastrophically in doubles; on x86, where long double has a
    64-bit mantissa, the walk keeps |det - 1| < 1e-9 across the band. The
    entries are arrays of their own (scalars for a scalar frequency).
    """
    check_positive(frequency, "frequency")
    shape = np.shape(frequency)
    frequency = np.reshape(frequency, -1)  # a scalar's states are columns too
    lengths = [e.length for e in chain.elements if isinstance(e, StraightPipe)]
    kl = np.multiply.outer(lengths, 2.0 * np.pi * frequency / medium.sound_speed)
    impedances = [
        mpp_normalized_impedance(e.panel, frequency, medium)
        for e in chain.elements
        if isinstance(e, Mpp)
    ]
    walk = _kept("chain_walk", _Walk, 2, frequency.size, np.longdouble)
    (a11, a21), (a12, a22) = _walk(chain, np.cos(kl), np.sin(kl), impedances, medium, walk)
    # copies, not views of the walk's buffers; [()] turns a scalar
    # frequency's 0-d entries into scalars
    return TransferMatrix(*(e.reshape(shape).copy()[()] for e in (a11, a12, a21, a22)))


# Most points one solver block evaluates (up to a table row more), which
# sizes a thread's workspace: about 360 bytes per point for a three-chamber
# chain. On 0.01 Hz grids 8192 solved as fast as 16384, with half the memory.
_BLOCK_POINTS = 8192


def _table_shape(count: int) -> tuple[int, int]:
    """(block, rows) of the phase table of `count` points: point
    n = q*block + r has row q < rows and column r < block = isqrt(count)."""
    block = math.isqrt(count)
    return block, -(-count // block)


def _table_rows(count: int, rows) -> tuple[int, range, int]:
    """(block, rows, points): the table block of a `count`-point
    progression, the table rows `rows` (a range; all of them when None) and
    the number of points in those rows."""
    block, n_rows = _table_shape(count)
    rows = range(n_rows) if rows is None else rows
    return block, rows, min(rows.stop * block, count) - rows.start * block


class _Workspace(_Walk):
    """Buffers of one solver block: `n_pipes` pipes, `rows` phase-table rows
    of `block` columns and `points` frequencies, with those of its
    one-column walk in doubles. The solver writes every buffer before it
    reads it, except the zero halves of `factors`. Between calls it keeps
    the wavenumbers and panel impedances of its last block (`progression`)."""

    def __init__(self, n_pipes: int, rows: int, block: int, points: int):
        super().__init__(1, points, np.float64)
        self.key = (n_pipes, rows, block, points)
        self.fine = np.empty((n_pipes, block))
        self.coarse = np.empty((n_pipes, rows))
        self.rotation = np.empty((n_pipes, 2 * rows, 2))
        self.fine_trig = np.empty((n_pipes, 2, block))
        self.progression = None  # (start, step, first row, medium) of fine_k, coarse_k, impedances
        self.impedances = {}  # (thickness, aperture, porosity) -> normalised impedance
        self.fine_k = np.empty(block)
        self.coarse_k = np.empty(rows)
        self.table = np.empty((n_pipes, 2 * rows, block))  # per pipe: cos rows, sin rows
        self.reflection = np.empty((3, points), complex)  # Z0*u, p + Z0*u, Gamma
        self.magnitude = np.empty(points)


def _workspace(n_pipes: int, count: int, rows) -> _Workspace:
    """This thread's workspace for the block of table rows `rows` of a
    `count`-point progression on a chain of `n_pipes` pipes, kept while the
    shape repeats."""
    block, rows, points = _table_rows(count, rows)
    return _kept("workspace", _Workspace, n_pipes, len(rows), block, points)


def _phase_trig(
    lengths, start: float, step: float, count: int, medium: Medium, rows, ws: _Workspace
):
    """cos and sin of the pipe phases l*k at the frequencies start + n*step,
    n < count, as two (len(lengths), points) arrays over the table rows in
    `rows` (a range; all of them when None), the points
    rows.start*block <= n < min(rows.stop*block, count). They are views into
    the workspace `ws`, sized to those rows (_workspace).

    Two-level angle addition: with block = isqrt(count) and n = q*block + r,
    only the fine angles l*k(start + r*step) and the coarse angles
    l*k(q*block*step) go through cos/sin. Batched over pipes, one product
    [[cos_c, -sin_c], [sin_c, cos_c]] @ [cos_f; sin_f] forms both tables.
    Each entry depends only on its row's coarse and its column's fine angle,
    so a row range equals those rows of the full table bit for bit; even one
    row is a two-row product (its cos and sin), never a one-row one, which
    numpy takes through gemv and rounds differently. The q = 0 coarse angle is exactly 0, so the first row
    (the whole table when count == 1) is direct cos/sin bit for bit;
    elsewhere the error is a few ulp of the angle. The workspace keeps the
    wavenumbers k, which do not depend on the pipes, while its
    `progression` (start, step, first row, medium) repeats; a new one also
    empties the panel impedances kept for the old one.
    """
    lengths = np.asarray(lengths, dtype=float)
    n_pipes = len(lengths)
    block, rows, points = _table_rows(count, rows)
    n, first, stop = len(rows), rows.start, rows.stop
    if ws.progression != (start, step, first, medium):
        ws.fine_k[:] = 2.0 * np.pi * (start + step * np.arange(block)) / medium.sound_speed
        ws.coarse_k[:] = 2.0 * np.pi * (step * (block * np.arange(first, stop))) / medium.sound_speed
        ws.impedances = {}
        ws.progression = (start, step, first, medium)
    np.multiply.outer(lengths, ws.fine_k, out=ws.fine)
    np.multiply.outer(lengths, ws.coarse_k, out=ws.coarse)
    rotation = ws.rotation
    cos_c, sin_c = rotation[:, :n, 0], rotation[:, n:, 0]
    np.cos(ws.coarse, out=cos_c)
    np.sin(ws.coarse, out=sin_c)
    np.negative(sin_c, out=rotation[:, :n, 1])
    rotation[:, n:, 1] = cos_c
    np.cos(ws.fine, out=ws.fine_trig[:, 0])
    np.sin(ws.fine, out=ws.fine_trig[:, 1])
    np.matmul(rotation, ws.fine_trig, out=ws.table)
    cos, sin = ws.table[:, :n], ws.table[:, n:]
    return (
        cos.reshape(n_pipes, n * block)[:, :points], sin.reshape(n_pipes, n * block)[:, :points]
    )


def absorption_coefficients(
    chain: ElementChain, start, step, count, medium: Medium = AIR
) -> np.ndarray:
    """alpha = 1 - |Gamma|^2, clamped to [0, 1], at the `count` frequencies
    start + n*step (a grid's f_min, step and point count), with
    Gamma = (p - Z0*u) / (p + Z0*u) from the mouth state. A count that is not
    an integer >= 1, a start that is not finite and positive, or (for more
    than one point) such a step raises ValueError naming the argument.

    The progression is solved in blocks of ceil(_BLOCK_POINTS / isqrt(count))
    whole phase-table rows, one block when count <= _BLOCK_POINTS; tables,
    panel impedances and alphas are bit for bit those of one block. Each
    block is solved in the calling thread's workspace (_Workspace), reused by
    every block and call of the same shape, so the solver holds one block
    per thread. The workspace also keeps the normalised impedances of the
    last chain's panels, by (thickness, aperture, porosity), for its last
    block and medium; a call on the same ones, such as each evaluation of an
    annealing run, computes only the panels it has not seen. The Maa
    impedance reads no duct, so kept and recomputed values are equal. The
    alphas are a fresh array the caller owns; apart from them, a repeated
    solve of the same panels allocates no block-sized array.
    """
    if not isinstance(count, numbers.Integral) or count < 1:
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    check_positive(start, "start")
    if count > 1:
        check_positive(step, "step")
    block, n_rows = _table_shape(count)
    rows_per_block = -(-_BLOCK_POINTS // block)
    z0 = chain.characteristic_impedance(medium)
    lengths = [e.length for e in chain.elements if isinstance(e, StraightPipe)]
    panels = [e.panel for e in chain.elements if isinstance(e, Mpp)]
    keys = [(panel.thickness, panel.aperture, panel.porosity) for panel in panels]
    alphas = np.empty(count)
    for first in range(0, n_rows, rows_per_block):
        rows = range(first, min(first + rows_per_block, n_rows))
        lo, hi = first * block, min(rows.stop * block, count)
        ws = _workspace(len(lengths), count, rows)
        cos_kl, sin_kl = _phase_trig(lengths, start, step, count, medium, rows, ws)
        kept = ws.impedances  # emptied by _phase_trig on a new block or medium
        ws.impedances = {
            key: kept[key] if key in kept
            else mpp_normalized_impedance(panel, start + step * np.arange(lo, hi), medium)
            for key, panel in dict(zip(keys, panels)).items()
        }
        impedances = [ws.impedances[key] for key in keys]
        [(p, u)] = _walk(chain, cos_kl, sin_kl, impedances, medium, ws)
        z0_u, denominator, gamma = ws.reflection
        magnitude = ws.magnitude
        np.multiply(z0, u, out=z0_u)
        np.add(p, z0_u, out=denominator)
        if not denominator.all():
            bad = np.flatnonzero(denominator == 0)[0]
            raise SingularConfigurationError(float(start + step * (lo + bad)))
        np.subtract(p, z0_u, out=z0_u)
        np.divide(z0_u, denominator, out=gamma)
        np.abs(gamma, out=magnitude)
        np.square(magnitude, out=magnitude)  # what |gamma| ** 2 computes
        np.subtract(1.0, magnitude, out=magnitude)
        np.clip(magnitude, 0.0, 1.0, out=alphas[lo:hi])
    return alphas


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

    Each grid point is independent; values agree with absorption_at within
    a few ulp, as the phase tables are not direct cos/sin.
    """
    frequencies = grid.frequencies()
    return AbsorptionSpectrum(
        frequencies=frequencies,
        alphas=absorption_coefficients(
            chain, grid.f_min, grid.step, frequencies.size, medium
        ),
    )
