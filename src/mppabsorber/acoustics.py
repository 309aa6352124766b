"""Plane-wave four-pole acoustics for MPP / expansion-chamber absorbers.

A sound structure is modelled as a series chain of lumped elements (straight
pipes, area changes, micro-perforated panels), each with a 2x2 four-pole
matrix relating (pressure, volume velocity) at its input to its output. The
chain is terminated by a rigid wall, which fixes u = 0 there. Absorption
carries the wall state (p, u) = (1, 0) to the mouth element by element
(`_mouth_state`); the mouth state is the first column (a11, a21) of the
chain matrix and gives the reflection coefficient, hence the
normal-incidence absorption coefficient. `chain_matrix` builds the whole
matrix for its determinant by the same walk, carrying both wall states
(1, 0) and (0, 1), its two columns, in extended precision.

The absorption solver takes its frequencies as an arithmetic progression
(start, step, count): a grid's f_min, step and point count, or one
frequency with count 1. The pipes' cos/sin tables then come from angle
addition (`_phase_trig`), about 2*sqrt(count) trig calls per pipe instead
of count. The solver takes a long progression in blocks of whole table rows
of about _BLOCK_POINTS points, bit for bit as in one piece. Each thread
solves its blocks in one workspace of buffers sized to a block
(`_Workspace`), kept while the block shape repeats, so that the solve
itself allocates no block-sized array but the alphas it returns.

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
    values = np.asarray(frequency, dtype=float)
    if not np.all((values > 0) & (values < math.inf)):
        raise ValueError(f"frequency must be finite and positive, got {frequency}")


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


def _pipe_terms(pipe: StraightPipe, frequency, medium: Medium):
    """cos(kl), Zc*sin(kl) and sin(kl)/Zc of a lossless pipe in doubles, with
    k = omega/c0 and Zc = rho0*c0/S: the real parts of its four-pole
    entries."""
    kl = 2.0 * np.pi * np.asarray(frequency, dtype=float) / medium.sound_speed * pipe.length
    z_c = medium.characteristic_impedance / pipe.area
    sin_kl = np.sin(kl)
    return np.cos(kl), z_c * sin_kl, sin_kl * (1.0 / z_c)


def _panel_impedance(panel: MppPanel, frequency, medium: Medium):
    """Series impedance (rho0*c0/S') * Z_mpp of a panel (Pa*s/m^3)."""
    return mpp_normalized_impedance(panel, frequency, medium) * (
        medium.characteristic_impedance / panel.duct_area
    )


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
        cos_kl, zc_sin, sin_zc = _pipe_terms(element, frequency, medium)
        return TransferMatrix(cos_kl + 0.0j, 1j * zc_sin, 1j * sin_zc, cos_kl + 0.0j)
    if isinstance(element, Mpp):
        z = _panel_impedance(element.panel, frequency, medium)
        zero = np.zeros_like(z)
        one = zero + 1.0
        return TransferMatrix(one, z, zero, one)
    raise TypeError(f"unknown sound element {element!r}")


def _imaginary(values):
    """j*values as np.clongdouble for real doubles `values`: written into a
    zeroed array, about twice as fast as casting j*values."""
    out = np.zeros(np.shape(values), np.clongdouble)
    out.imag = values
    return out


def _rotate(a, b, c, s_ab, s_ba) -> None:
    """(a, b) <- (c*a + s_ab*b, c*b + s_ba*a) in place, column by column: a
    pipe's update of chain_matrix's states. In place and per column, the
    temporaries stay a column long and are reused from the heap instead of
    growing it."""
    for a, b in zip(a, b):
        t = s_ab * b
        b *= c
        b += s_ba * a
        a *= c
        a += t


def _complex_columns(x, y, points: int):
    """(p1, p2) and (u1, u2) of chain_matrix's wall segment, whose real parts
    are x = (p1, p2/j) and y = (-u1/j, u2), with x = y = None at the wall."""
    p, u = np.zeros((2, 2, points), np.clongdouble)
    if x is None:
        p[0] = u[1] = 1.0
    else:
        p.real[0], p.imag[1] = x
        u.imag[0], u.real[1] = -y[0], y[1]
    return p, u


def chain_matrix(chain: ElementChain, frequency, medium: Medium = AIR) -> TransferMatrix:
    """Four-pole matrix of the chain, element nearest the source leftmost,
    with entries in extended precision (np.clongdouble).

    Its columns (a11, a21) and (a12, a22) are the mouth states of the wall
    states (p, u) = (1, 0) and (0, 1), carried from the rigid wall to the
    mouth element by element as in `_mouth_state`: a pipe updates both
    columns, an MPP adds z*u to p, an area change does nothing. Up to the
    first MPP from the wall the chain is lossless and each column keeps a
    fixed phase, with p1, u1/j, p2/j and u2 real, so that segment runs in
    real np.longdouble. Each element's cos, Zc*sin, sin/Zc and z are
    computed in doubles and cast to extended precision once, and no product
    mixes precisions. Entries of wide-chamber chains reach ~1e6, so the unit
    determinant cancels catastrophically in doubles; on x86, where long
    double has a 64-bit mantissa, the walk keeps |det - 1| < 1e-9 across
    the band. Absorption does not use this matrix.
    """
    _check_frequency(frequency)
    shape = np.shape(frequency)
    frequency = np.reshape(frequency, -1)  # a scalar's states are columns too
    # wall segment: x = (p1, p2/j) and y = (-u1/j, u2); None is the wall itself
    x = y = None
    p = u = None  # from the first MPP on: (p1, p2) and (u1, u2)
    for element in reversed(chain.elements):
        if isinstance(element, StraightPipe):
            c, zs, sz = _pipe_terms(element, frequency, medium)
            if p is not None:
                _rotate(p, u, c.astype(np.clongdouble), _imaginary(zs), _imaginary(sz))
                continue
            c, zs, sz = (t.astype(np.longdouble) for t in (c, zs, -sz))
            if x is None:
                x, y = np.stack((c, zs)), np.stack((sz, c))
            else:
                _rotate(x, y, c, zs, sz)
        elif isinstance(element, Mpp):
            if p is None:
                p, u = _complex_columns(x, y, frequency.size)
            z = _panel_impedance(element.panel, frequency, medium).astype(np.clongdouble)
            for p_column, u_column in zip(p, u):
                p_column += z * u_column
    if p is None:
        p, u = _complex_columns(x, y, frequency.size)
    # [()] turns a scalar frequency's 0-d entries into scalars
    return TransferMatrix(*(entry.reshape(shape)[()] for entry in (p[0], p[1], u[0], u[1])))


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


class _Workspace:
    """Buffers of one solver block: `n_pipes` pipes, `rows` phase-table rows
    of `block` columns and `points` frequencies. The solver writes every
    buffer before it reads it, except the zero halves of `factors`."""

    def __init__(self, n_pipes: int, rows: int, block: int, points: int):
        self.key = (n_pipes, rows, block, points)
        self.fine = np.empty((n_pipes, block))
        self.coarse = np.empty((n_pipes, rows))
        self.rotation = np.empty((n_pipes, 2 * rows, 2))
        self.fine_trig = np.empty((n_pipes, 2, block))
        self.angles = None  # (start, step, first row, c0) of fine_k and coarse_k
        self.fine_k = np.empty(block)
        self.coarse_k = np.empty(rows)
        self.table = np.empty((n_pipes, 2 * rows, block))  # per pipe: cos rows, sin rows
        self.real = np.empty((4, points))  # wall segment: p, v, two products
        self.complex = np.empty((5, points), complex)  # p, u, next p, next u, a product
        # a pipe's c + 0j, 0 + j*(Zc*s) and 0 + j*(s/Zc); the zero halves stay zero
        self.factors = np.zeros((3, points), complex)
        self.reflection = np.empty((3, points), complex)  # Z0*u, p + Z0*u, Gamma
        self.magnitude = np.empty(points)

    def complex_state(self, at_wall: bool):
        """(p + 0j, j*v) in the first two complex rows, from the wall
        segment's real p and v, or (1, 0) at the wall: where the walk leaves
        real arithmetic."""
        p, v = self.real[:2]
        p_complex, u, scratch = self.complex[:3]
        if at_wall:
            p_complex.fill(1.0)
            u.fill(0.0)
            return p_complex, u
        np.copyto(p_complex, p)
        np.copyto(scratch, v)
        return p_complex, np.multiply(1j, scratch, out=u)


_local = threading.local()


def _workspace(n_pipes: int, count: int, rows) -> _Workspace:
    """This thread's workspace for the block of table rows `rows` of a
    `count`-point progression on a chain of `n_pipes` pipes, kept while the
    shape repeats."""
    block, rows, points = _table_rows(count, rows)
    key = (n_pipes, len(rows), block, points)
    workspace = getattr(_local, "workspace", None)
    if workspace is None or workspace.key != key:
        workspace = _local.workspace = _Workspace(*key)
    return workspace


def _phase_trig(
    lengths, start: float, step: float, count: int, sound_speed: float, rows=None,
    workspace=None,
):
    """cos and sin of the pipe phases l*k at the frequencies start + n*step,
    n < count, as two (len(lengths), points) arrays over the table rows in
    `rows` (a range; all of them when None), the points
    rows.start*block <= n < min(rows.stop*block, count). They are views into
    `workspace` (the thread's, from _workspace); without one, into buffers
    of their own.

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
    wavenumbers k of the last progression, which do not depend on the pipes.
    """
    lengths = np.asarray(lengths, dtype=float)
    n_pipes = len(lengths)
    block, rows, points = _table_rows(count, rows)
    n, first, stop = len(rows), rows.start, rows.stop
    ws = _Workspace(n_pipes, n, block, points) if workspace is None else workspace
    if ws.angles != (start, step, first, sound_speed):
        ws.fine_k[:] = 2.0 * np.pi * (start + step * np.arange(block)) / sound_speed
        ws.coarse_k[:] = 2.0 * np.pi * (step * (block * np.arange(first, stop))) / sound_speed
        ws.angles = (start, step, first, sound_speed)
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


def _mouth_state(
    chain: ElementChain, start, step, count, medium: Medium, panel_impedances, rows
):
    """(p, u) at the mouth for (1, 0) at the rigid wall: the first column
    (a11, a21) of the chain matrix, at the frequencies start + n*step of the
    phase-table rows `rows` of a `count`-point progression (see _phase_trig).
    Both are buffers of the thread's workspace, valid until its next solve.

    The wall state is carried to the mouth element by element, the
    impedance-translation form of the four-pole method (Munjal, Acoustics of
    Ducts and Mufflers, 2nd ed., Wiley 2014, ch. 2-3): a pipe costs four
    multiply-adds, an MPP adds Z*u to p, an area change does nothing. The
    pipes' cos/sin come from angle-addition tables (`_phase_trig`). Up to the
    first MPP from the wall the chain is lossless: p stays real and u = j*v,
    so that segment runs in real arithmetic. `panel_impedances` are the
    normalised Maa impedances of the chain's panels in chain order at the
    same frequencies.

    Every step works in place in the workspace and rounds as the plain
    expressions c*p - (Zc*s)*v and ((1/Zc)*s)*p + c*v (real segment), and
    c*p + ((j*Zc)*s)*u and ((j/Zc)*s)*p + c*u (complex segment) do, so the
    alphas are bit for bit theirs. Two shortcuts drop only exact zero terms,
    which can change the sign of a zero but no value: the first pipe from
    the wall takes (1, 0) to (c, (1/Zc)*s), and the real c and imaginary
    (j*Zc)*s and (j/Zc)*s are written into one half of complex buffers whose
    other half stays zero. A complex product never writes into one of its
    own operands: numpy takes another inner loop for that, which can round
    differently.
    """
    pipes = [e for e in chain.elements if isinstance(e, StraightPipe)]
    ws = _workspace(len(pipes), count, rows)
    cos_kl, sin_kl = _phase_trig(
        [pipe.length for pipe in pipes], start, step, count, medium.sound_speed, rows, ws
    )
    rho_c = medium.characteristic_impedance
    # looked up once for the ~70 calls of a three-chamber walk; out positional
    multiply, add, subtract = np.multiply, np.add, np.subtract
    p, v, t, w = ws.real  # the wall segment's p and v = u/j, two products
    at_wall = True  # (p, v) = (1, 0), not yet written
    _, _, p_next, u_next, product = ws.complex
    c_complex, zs, sz = ws.factors
    u = None
    pipe_index, panel_index = len(pipes), len(panel_impedances)
    for element in reversed(chain.elements):
        if isinstance(element, StraightPipe):
            pipe_index -= 1
            z_c = rho_c / element.area
            c, s = cos_kl[pipe_index], sin_kl[pipe_index]
            if at_wall:
                # c*1 - (z_c*s)*0 and ((1/z_c)*s)*1 + c*0
                np.copyto(p, c)
                multiply(1.0 / z_c, s, v)
                at_wall = False
            elif u is None:
                multiply(z_c, s, t)
                multiply(t, v, t)
                multiply(1.0 / z_c, s, w)
                multiply(w, p, w)
                multiply(p, c, p)
                subtract(p, t, p)  # c*p - (z_c*s)*v
                multiply(v, c, v)
                add(v, w, v)  # ((1/z_c)*s)*p + c*v
            else:
                # (1j*z_c)*s and (1j/z_c)*s have a zero real part
                np.copyto(c_complex.real, c)
                multiply(z_c, s, zs.imag)
                multiply(1.0 / z_c, s, sz.imag)
                multiply(c_complex, p, p_next)
                multiply(zs, u, u_next)
                add(p_next, u_next, p_next)  # c*p + (1j*z_c)*s*u
                multiply(sz, p, u_next)
                multiply(c_complex, u, product)
                add(u_next, product, u_next)  # (1j/z_c)*s*p + c*u
                p, u, p_next, u_next = p_next, u_next, p, u
        elif isinstance(element, Mpp):
            if u is None:
                p, u = ws.complex_state(at_wall)
                at_wall = False
            panel_index -= 1
            multiply(panel_impedances[panel_index], rho_c / element.panel.duct_area, product)
            multiply(product, u, u_next)
            add(p, u_next, p)  # p + z*u
    return ws.complex_state(at_wall) if u is None else (p, u)


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
    panel impedances and alphas are bit for bit those of one block. Each
    block is solved in the calling thread's workspace (_Workspace), reused by
    every block and call of the same shape, so the solver holds one block
    per thread. The alphas are a fresh array the caller owns; apart from
    them, a repeated solve given `panel_impedances` allocates no block-sized
    array. Callers evaluating many chains with the same panels on the same
    frequencies may pass the panels' normalised impedances at all `count`
    frequencies, in chain order, as `panel_impedances` instead of having
    them recomputed.
    """
    if not isinstance(count, numbers.Integral) or count < 1:
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    check_positive(start, "start")
    if count > 1:
        check_positive(step, "step")
    block, n_rows = _table_shape(count)
    rows_per_block = -(-_BLOCK_POINTS // block)
    z0 = chain.characteristic_impedance(medium)
    n_pipes = sum(isinstance(e, StraightPipe) for e in chain.elements)
    alphas = np.empty(count)
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
        ws = _workspace(n_pipes, count, rows)
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
