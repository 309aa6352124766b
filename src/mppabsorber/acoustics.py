"""Plane-wave four-pole acoustics for MPP / expansion-chamber absorbers.

A structure is a series chain of pipes, area changes and micro-perforated
panels, sound source first, ended by a rigid wall. One walk (`_walk`)
carries wall states (p, u) to the mouth, reading the chain's template
(`ElementChain.template`; the annealer fills the same template from an
array): (1, 0) in doubles for absorption, and (0, j) as well in extended
precision for `chain_matrix`. The absorption solver takes a FrequencyGrid
and forms the pipes' cos/sin by angle addition (`_phase_trig`), in blocks
of table rows. A grid of one block is solved in a workspace (`_Workspace`)
the thread keeps while grid and medium repeat; a longer one in one that
lives for the call. `absorption_at` and the annealer's probes solve a few
grid points with direct cos/sin in a `PointSolver`, which keeps no thread
state but may read the kept grid's panel impedances; a probe solves a
batch of designs in one walk. `chain_matrix` at the kept grid's points
shares its phase tables and panel impedances; at any other frequencies it
takes direct cos/sin.
MPP impedance follows Maa's model; pipes are lossless. Quantities are
SI; the impedance formulas and chain_matrix take a frequency (Hz) as a
scalar or an array, each in (0, 1e11) as a FrequencyGrid's fields are.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spectrum import AbsorptionSpectrum, FrequencyGrid, check_fields, check_frequency, ranged
from .spectrum import require

__all__ = [
    "AIR",
    "AreaChange",
    "ElementChain",
    "Medium",
    "MppPanel",
    "StraightPipe",
    "TransferMatrix",
    "absorption_at",
    "absorption_spectrum",
    "chain_matrix",
    "cut_on_frequency",
    "mpp_normalized_impedance",
    "perforate_constant",
]


# Longest length (m) an element takes, the edge included: 1 km, far below area overflow.
_MAX_LENGTH = 1e3


@dataclass(frozen=True)
class Medium:
    """Ambient fluid of every impedance formula; the defaults are air at
    20 degC. A temperature enters only through these three values."""

    # open ranges far around air's values; at their edges the bundled
    # absorbers still solve without overflow
    sound_speed: float = ranged(1.0, 1e5, default=343.0)  # m/s
    density: float = ranged(1e-3, 1e5, default=1.204)  # kg/m^3
    dynamic_viscosity: float = ranged(1e-8, 1e3, default=1.81e-5)  # Pa*s

    __post_init__ = check_fields

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
    """Micro-perforated panel in a duct, a chain element: thickness, aperture
    (hole diameter) and duct_diameter in metres, porosity the open-area fraction."""

    thickness: float = ranged(0.0, _MAX_LENGTH, closed="high")
    aperture: float = ranged(0.0, _MAX_LENGTH, closed="high")
    porosity: float = ranged(0.0, 1.0)
    duct_diameter: float = ranged("aperture", _MAX_LENGTH, closed="high")

    __post_init__ = check_fields

    @property
    def duct_area(self) -> float:
        return circle_area(self.duct_diameter)


@dataclass(frozen=True)
class StraightPipe:
    """Uniform circular duct segment (length and diameter in metres)."""

    length: float = ranged(0.0, _MAX_LENGTH, closed="high")
    diameter: float = ranged(0.0, _MAX_LENGTH, closed="high")

    __post_init__ = check_fields

    @property
    def area(self) -> float:
        return circle_area(self.diameter)


@dataclass(frozen=True)
class AreaChange:
    """Abrupt expansion or contraction between ducts: the identity under the
    plane-wave lumped model, kept so chains read like the physical layout."""


SoundElement = StraightPipe | AreaChange | MppPanel


@dataclass(frozen=True)
class TransferMatrix:
    """Four-pole matrix, (P, U)_in = A @ (P, U)_out: a11 and a22
    dimensionless, a12 in Pa*s/m^3, a21 in m^3/(Pa*s). Entries are complex
    scalars or arrays of a common shape, one matrix per frequency."""

    a11: complex | np.ndarray
    a12: complex | np.ndarray
    a21: complex | np.ndarray
    a22: complex | np.ndarray

    def det(self) -> complex | np.ndarray:
        return self.a11 * self.a22 - self.a12 * self.a21


@dataclass(frozen=True)
class ElementChain:
    """Elements in series, sound source first, rigid wall last. The main
    duct at the mouth (main_duct_diameter, m) sets the characteristic
    impedance of the reflection coefficient."""

    elements: tuple[SoundElement, ...]
    main_duct_diameter: float = ranged(0.0, _MAX_LENGTH, closed="high")

    def __post_init__(self):
        if len(self.elements) == 0:
            raise ValueError("element chain must not be empty")
        for index, element in enumerate(self.elements):
            if not isinstance(element, SoundElement):
                *kinds, last = (kind.__name__ for kind in SoundElement.__args__)
                raise ValueError(
                    f"elements[{index}] must be a {', '.join(kinds)} or {last},"
                    f" got {type(element).__name__}"
                )
        check_fields(self)

    def characteristic_impedance(self, medium: Medium = AIR) -> float:
        """Z0 = rho0*c0 / S_m of the main duct (Pa*s/m^3)."""
        return medium.characteristic_impedance / circle_area(self.main_duct_diameter)

    def template(self, medium: Medium = AIR) -> _Template:
        """The chain as the walk reads it in `medium`."""
        rho_c = medium.characteristic_impedance
        pipes = [e for e in self.elements if isinstance(e, StraightPipe)]
        panels = tuple(e for e in self.elements if isinstance(e, MppPanel))
        kept = [e for e in self.elements if not isinstance(e, AreaChange)]  # identities
        kinds = tuple(isinstance(e, StraightPipe) for e in kept)
        lengths = np.array([e.length for e in pipes], float)
        z_c = np.array([rho_c / e.area for e in pipes])
        factors = np.array([rho_c / e.duct_area for e in panels])
        z0 = self.characteristic_impedance(medium)
        return _Template(kinds, lengths, z_c, panels, factors, z0)


class _Template(NamedTuple):
    """A chain in a medium as the walk reads it, sound source first, area
    changes (identities) left out: `kinds`, True for a pipe and False for a
    panel; per pipe its length (m) and z_c = rho0*c0 / S; per panel the
    MppPanel, whose impedance alone is read from it, and rho0*c0 / S of its
    duct; and Z0 at the mouth. A number is one value, or one per point of a
    walk or per design of a batch along a trailing axis."""

    kinds: tuple[bool, ...]
    lengths: np.ndarray
    z_c: np.ndarray
    panels: tuple[MppPanel, ...]
    factors: np.ndarray
    z0: float | np.ndarray


def cut_on_frequency(chain: ElementChain, medium: Medium = AIR) -> float:
    """First cross-mode cut-on of the chain's widest duct (Hz),
    1.8412*c0/(pi*D_max), where 1.8412 is the first zero of J1'. Above it
    the (1,1) mode propagates and the plane-wave model no longer holds. The
    ducts are the main duct, every pipe and every panel's duct."""
    widest = max(
        [chain.main_duct_diameter]
        + [e.diameter for e in chain.elements if isinstance(e, StraightPipe)]
        + [e.duct_diameter for e in chain.elements if isinstance(e, MppPanel)]
    )
    return 1.8412 * medium.sound_speed / (math.pi * widest)


def perforate_constant(frequency, aperture: float, medium: Medium = AIR):
    """Perforate constant K = d * sqrt(omega * rho0 / (4 * eta)), the ratio
    of hole radius to viscous boundary-layer thickness: it sets where the
    hole impedance turns from Poiseuille to Helmholtz behaviour. A zero
    aperture is its limit, K = 0, and a K past the largest double is inf."""
    check_frequency(frequency)
    require("aperture", aperture, 0, math.inf, closed=True)
    omega = 2.0 * np.pi * frequency
    with np.errstate(over="ignore"):
        return aperture * np.sqrt(omega * medium.density / (4.0 * medium.dynamic_viscosity))


def mpp_normalized_impedance(panel: MppPanel, frequency, medium: Medium = AIR):
    """Maa impedance of an MPP, normalised by rho0*c0. Resistance: viscous
    losses in the holes plus a surface correction in K*d/t. Reactance: the
    air plug's mass, with the 0.85*d/t end correction and the factor
    (9 + K^2/2)^(-1/2). perforate_constant checks the frequency.
    """
    t, d, sigma = panel.thickness, panel.aperture, panel.porosity
    k_perf = perforate_constant(frequency, d, medium)  # first: it checks the frequency
    omega = 2.0 * np.pi * frequency
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
        self.real = np.empty((columns, 4, points), dtype)  # per column p, v = u/j, two products
        self.complex = np.empty((columns, 4, points), np.result_type(dtype, 1j))
        # a pipe's c + 0j, 0 + j*(Zc*s) and 0 + j*(s/Zc), and a product; the zero halves stay zero
        self.factors = np.zeros((4, points), self.complex.dtype)
        self.set_points(points)

    def set_points(self, points: int) -> None:
        """Walk the first `points` frequencies of the buffers from now on."""
        self.points = points
        # per column: real p, v and two products; complex p, u, next p and next u
        self.real_columns = [tuple(column[:, :points]) for column in self.real]
        self.complex_columns = [tuple(column[:, :points]) for column in self.complex]
        self.factor_rows = tuple(self.factors[:, :points])

    def complex_states(self, at_wall: bool) -> list[list]:
        """Per column [p, u, next p, next u]: the state (p, j*v) of the real p
        and v, or of the wall's (1, 0) and (0, 1) when `at_wall`. This is where
        the walk leaves real arithmetic."""
        if at_wall:
            self.real[:, :2] = np.eye(2)[: len(self.real), :, None]  # (1, 0), (0, 1)
        for (p, v, _, _), (p_complex, u, _, _) in zip(self.real_columns, self.complex_columns):
            p_complex.real, p_complex.imag, u.real, u.imag = p, 0.0, 0.0, v
        return [list(column) for column in self.complex_columns]


_local = threading.local()  # this thread's chain_walk and workspace


def _walk(template: _Template, cos_kl, sin_kl, panel_impedances, walk: _Walk):
    """Mouth states [p, u] of the wall states (1, 0) and, in a two-column
    `walk`, (0, j), given the template's pipes' phase cos `cos_kl` and sin
    `sin_kl` and its panels' normalised impedances (rows in chain order, in
    doubles): views of `walk`'s buffers, in their precision, until its next
    walk.

    A pipe costs four multiply-adds per column and an MPP adds Z*u to p
    (Munjal, Acoustics of Ducts and Mufflers, 2nd ed., ch. 2-3). Up to the
    first MPP p is real and u imaginary, so the walk is real, on (p, u/j).
    Each step works in place and rounds as c*p - (Zc*s)*v, ((1/Zc)*s)*p +
    c*v, c*p + ((j*Zc)*s)*u and ((j/Zc)*s)*p + c*u do: a complex factor has
    one half written and the other zero, states are 1-D, and no complex
    product writes into its own operand, as numpy's loops for those round
    otherwise.
    """
    # looked up once for the ~70 calls of a three-chamber walk; out positional
    multiply, add, subtract = np.multiply, np.add, np.subtract
    c_complex, zs, sz, product = walk.factor_rows
    cos_kl = np.asarray(cos_kl, walk.real.dtype)  # exact; the real segment mixes no precisions
    at_wall = True  # the real states (p, v) = (1, 0) and (0, 1), not yet written
    states = None  # from the first MPP on: complex_states
    pipe_index, panel_index = len(template.lengths), len(template.factors)
    for is_pipe in reversed(template.kinds):
        if is_pipe:
            pipe_index -= 1
            z_c = template.z_c[pipe_index]
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
        else:
            if states is None:
                states = walk.complex_states(at_wall)
            panel_index -= 1
            multiply(panel_impedances[panel_index], template.factors[panel_index], product)
            for p, u, _, u_next in states:
                multiply(product, u, u_next)
                add(p, u_next, p)  # p + z*u
    return [state[:2] for state in states or walk.complex_states(at_wall)]


def chain_matrix(chain: ElementChain, frequency, medium: Medium = AIR) -> TransferMatrix:
    """Four-pole matrix of the chain, source side leftmost, in extended
    precision (np.clongdouble): the mouth states of the wall states (1, 0)
    and (0, j), j times the second column, walked in np.longdouble buffers
    kept per thread. Entries reach ~1e6, so the unit determinant cancels in
    doubles; on x86, whose long double has a 64-bit mantissa, |det - 1|
    stays below 1e-9. The entries are arrays of their own (scalars for a
    scalar frequency).

    At the points, flattened and bit for bit, of the grid the thread's
    workspace keeps, for its medium, it takes that grid's phase tables and
    kept panel impedances: the entries agree with direct cos/sin within a
    few ulp, as absorption_spectrum's alphas do with absorption_at's. Any
    other frequencies take direct cos/sin.
    """
    check_frequency(frequency)
    shape = np.shape(frequency)
    frequency = np.reshape(frequency, -1)  # a scalar's states are columns too
    template = chain.template(medium)
    lengths = template.lengths
    ws = getattr(_local, "workspace", None)  # kept only for a grid of one block
    fits = ws is not None and ws.key[1] == medium and len(ws.rotation) >= len(lengths)
    if fits and np.array_equal(ws.frequencies, frequency):  # the kept grid's points
        frequency = ws.frequencies  # the array the kept impedances are evaluated on
        cos_kl, sin_kl = _phase_trig(lengths, ws, 0)
    else:
        ws = None
        kl = np.multiply.outer(lengths, 2.0 * np.pi * frequency / medium.sound_speed)
        cos_kl, sin_kl = np.cos(kl), np.sin(kl)
    impedances = _panel_impedances(template.panels, frequency, medium, ws)
    walk = getattr(_local, "chain_walk", None)
    if walk is None or walk.points != frequency.size:
        walk = _local.chain_walk = _Walk(2, frequency.size, np.longdouble)
    (a11, a21), (a12, a22) = _walk(template, cos_kl, sin_kl, impedances, walk)
    for entry in (a12, a22):
        # times -j, exactly: the parts swapped, where a complex product's
        # 0*inf would turn an overflowed part into NaN; 0 - x leaves a zero +0
        entry.real, entry.imag = entry.imag, 0.0 - entry.real
    # copies, not views of the walk's buffers; [()] turns a scalar
    # frequency's 0-d entries into scalars
    return TransferMatrix(*(e.reshape(shape).copy()[()] for e in (a11, a12, a21, a22)))


# Most points one solver block evaluates (up to a table row more), which
# sizes a workspace: about 360 bytes per point for a three-chamber chain. On
# 0.01 Hz grids 8192 solved as fast as 16384, with half the memory.
_BLOCK_POINTS = 8192


class _Workspace(_Walk):
    """Buffers of the solver for one `grid` and `medium`, and of its walk in
    doubles: the grid's block plan, its wavenumbers and a phase table of
    `n_pipes` pipes by `rows` table rows of `block` columns, one solver block
    of `points` frequencies. A chain of fewer pipes uses the leading pipe
    rows. It keeps block 0's `frequencies`, and the panel impedances of
    block 0's `panels` (_panel_impedances)."""

    def __init__(self, grid: FrequencyGrid, medium: Medium, n_pipes: int):
        self.key = (grid, medium)
        self.block = block = math.isqrt(grid.size)
        self.n_rows = -(-grid.size // block)
        self.rows = rows = min(self.n_rows, -(-_BLOCK_POINTS // block))
        super().__init__(1, min(rows * block, grid.size), np.float64)
        self.frequencies = grid.frequency(np.arange(self.points))  # block 0's
        self.fine_k = 2.0 * np.pi * self.frequencies[:block] / medium.sound_speed
        coarse = block * np.arange(-(-self.n_rows // rows) * rows)  # the first point of each row
        self.coarse_k = 2.0 * np.pi * (grid.step * coarse) / medium.sound_speed
        self.panels, self.impedances = None, []  # block 0's panel triples and impedances
        self.rotation = np.empty((n_pipes, 2 * rows, 2))
        self.fine_trig = np.empty((n_pipes, 2, block))
        self.table = np.empty((n_pipes, 2 * rows, block))  # per pipe: cos rows, sin rows
        self.reflection = np.empty((3, self.points), complex)  # Z0*u, p + Z0*u, Gamma
        self.magnitude = np.empty(self.points)


def _phase_trig(lengths, ws: _Workspace, first: int):
    """cos and sin of the pipe phases l*k over the block of `ws` whose table
    rows start at `first`, as two (len(lengths), ws.points) views into `ws`'s
    leading pipe rows. The fine cos/sin are taken in block 0 only; a later
    block of the same grid and pipes reuses them.

    Point n = q*block + r has the angle l*k(f_min + r*step) +
    l*k(q*block*step). Only these fine and coarse angles go through cos/sin,
    and one batched product [[cos_c, -sin_c], [sin_c, cos_c]] @ [cos_f; sin_f]
    forms both tables. An entry depends only on its row's and its column's
    angles, so a block equals those rows of the whole table bit for bit. Even
    one row is a two-row product, never gemv, which rounds differently. Row
    0's coarse angle is 0, so that row is direct cos/sin bit for bit.
    """
    lengths = np.asarray(lengths, dtype=float)
    n_pipes, n = len(lengths), ws.rows
    rotation, fine_trig, table = ws.rotation[:n_pipes], ws.fine_trig[:n_pipes], ws.table[:n_pipes]
    cos_c, sin_c = rotation[:, :n, 0], rotation[:, n:, 0]
    coarse = (cos_c, sin_c, ws.coarse_k[first : first + n])
    fine = (fine_trig[:, 0], fine_trig[:, 1], ws.fine_k)
    for cos, sin, k in [coarse, fine] if first == 0 else [coarse]:
        np.multiply.outer(lengths, k, out=sin)  # the angles, until their cos is taken
        np.cos(sin, out=cos)
        np.sin(sin, out=sin)
    np.negative(sin_c, out=rotation[:, :n, 1])
    rotation[:, n:, 1] = cos_c
    np.matmul(rotation, fine_trig, out=table)
    table = table.reshape(n_pipes, 2, n * ws.block)  # a view: cos rows, then sin rows
    return table[:, 0, : ws.points], table[:, 1, : ws.points]


def _triples(panels) -> list:
    """The (thickness, aperture, porosity) of each panel, all its impedance reads."""
    return [(panel.thickness, panel.aperture, panel.porosity) for panel in panels]


def _panel_impedances(panels, frequencies, medium: Medium, ws=None) -> list:
    """Normalised Maa impedances of the `panels` at `frequencies`, rows in
    chain order, one evaluation per distinct (thickness, aperture,
    porosity) triple, all the impedance reads: MPPs 1 and 2 share one. Given
    the workspace `ws` whose block 0 points `frequencies` are, the list is
    kept in it and reused while the triples repeat."""
    keys = _triples(panels)
    if ws is not None and ws.panels == keys:
        return ws.impedances
    distinct = dict(zip(keys, panels))
    for key, panel in distinct.items():
        distinct[key] = mpp_normalized_impedance(panel, frequencies, medium)
    impedances = [distinct[key] for key in keys]
    if ws is not None:
        ws.panels, ws.impedances = keys, impedances
    return impedances


def absorption_spectrum(
    chain: ElementChain, grid: FrequencyGrid, medium: Medium = AIR
) -> AbsorptionSpectrum:
    """alpha = 1 - |Gamma|^2, clamped to [0, 1], at the points of `grid`,
    with Gamma = (p - Z0*u) / (p + Z0*u) from the mouth state. The chain is
    passive, Re(p * conj(u)) >= 0, and (p, u) is a column of a matrix of unit
    determinant, so |p + Z0*u| >= max(|p|, Z0*|u|) > 0. Values agree
    with absorption_at within a few ulp, as the phase tables are not direct
    cos/sin.

    A grid of n points is solved in blocks of ceil(_BLOCK_POINTS / isqrt(n))
    whole table rows, bit for bit as in one block. A grid of one block is
    solved in the calling thread's workspace, reused while grid and medium
    repeat and it has a row for each pipe, else replaced. It keeps the
    panel impedances while the chain's triples repeat (_panel_impedances),
    so a repeated solve, such as each annealing evaluation, computes no
    impedance and allocates no block-sized array but the alphas, and a
    chain_matrix on the grid's points computes none. A longer grid is
    solved in a workspace of its own, which the call drops on return.
    """
    return template_spectrum(chain.template(medium), grid, medium)


def template_spectrum(template: _Template, grid: FrequencyGrid, medium: Medium = AIR):
    """absorption_spectrum (an AbsorptionSpectrum) of the chain whose
    template in `medium` this is, one design's: the solve itself."""
    lengths, panels, z0 = template.lengths, template.panels, template.z0
    ws = getattr(_local, "workspace", None)
    if ws is None or ws.key != (grid, medium) or len(ws.rotation) < len(lengths):
        ws = _Workspace(grid, medium, len(lengths))
        if ws.rows == ws.n_rows:
            _local.workspace = ws
    alphas = np.empty(grid.size)
    for first in range(0, ws.n_rows, ws.rows):
        lo, hi = first * ws.block, min((first + ws.rows) * ws.block, grid.size)
        if hi - lo < ws.points:
            ws.set_points(hi - lo)  # the last block: leading views of the same buffers
        cos_kl, sin_kl = _phase_trig(lengths, ws, first)
        frequencies = ws.frequencies if first == 0 else grid.frequency(np.arange(lo, hi))
        impedances = _panel_impedances(panels, frequencies, medium, ws if first == 0 else None)
        [(p, u)] = _walk(template, cos_kl, sin_kl, impedances, ws)
        _alphas(p, u, z0, ws.reflection[:, : hi - lo], ws.magnitude[: hi - lo], alphas[lo:hi])
    return AbsorptionSpectrum(grid, alphas)


def _alphas(p, u, z0: float, reflection, magnitude, out) -> None:
    """alpha = 1 - |Gamma|^2 of the mouth states p and u, clamped to [0, 1],
    into `out`, with Gamma = (p - Z0*u) / (p + Z0*u) formed in the three
    complex rows `reflection` and 1 - |Gamma|^2 in `magnitude`, which may be
    `out`: the Gamma-to-alpha steps of every solve."""
    z0_u, denominator, gamma = reflection
    np.multiply(z0, u, out=z0_u)
    np.add(p, z0_u, out=denominator)
    np.subtract(p, z0_u, out=z0_u)
    np.divide(z0_u, denominator, out=gamma)
    np.abs(gamma, out=magnitude)
    np.square(magnitude, out=magnitude)  # what |gamma| ** 2 computes
    np.subtract(1.0, magnitude, out=magnitude)
    np.clip(magnitude, 0.0, 1.0, out=out)


class PointSolver:
    """Alpha at a few `points` (an index array) of `grid` for templates
    whose panels are those of `template`, whose impedances there it keeps:
    gathered from the thread's workspace where it holds the grid, the
    medium and the panels' triples (a kept workspace is one block's, the
    whole grid's), else computed. The walk is in doubles with direct
    cos/sin, as chain_matrix takes away from the kept grid, and the steps
    of absorption_spectrum, with which it agrees at the same points within
    a few ulp of the phase tables. A batch of K designs is solved in one
    walk over K copies of the points, each number of a design repeated over
    its copy, so that every point is solved as alone."""

    def __init__(self, template: _Template, grid: FrequencyGrid, points, medium: Medium):
        frequencies = grid.frequency(points)
        self.k = 2.0 * np.pi * frequencies / medium.sound_speed
        ws = getattr(_local, "workspace", None)
        if ws is not None and ws.key == (grid, medium) and ws.panels == _triples(template.panels):
            self.impedances = [impedance[points] for impedance in ws.impedances]
        else:
            self.impedances = _panel_impedances(template.panels, frequencies, medium)
        self.copies = {}  # per batch size: the walk, and k and impedances over its copies

    def alphas(self, template: _Template) -> np.ndarray:
        """The template's alphas at the points, a row per design of a batch."""
        batch = np.shape(template.z0)
        copies, n = math.prod(batch), self.k.size
        if copies not in self.copies:
            tiled = [np.tile(values, copies) for values in (self.k, *self.impedances)]
            self.copies[copies] = _Walk(1, copies * n, np.float64), tiled[0], tiled[1:]
        walk, k, impedances = self.copies[copies]
        lengths, z_c, factors, z0 = (
            np.repeat(np.reshape(v, (-1, copies)), n, axis=1)
            for v in (template.lengths, template.z_c, template.factors, template.z0)
        )
        kl = lengths * k
        rows = template._replace(z_c=z_c, factors=factors)
        [(p, u)] = _walk(rows, np.cos(kl), np.sin(kl), impedances, walk)
        alphas = np.empty(walk.points)
        _alphas(p, u, z0[0], np.empty((3, walk.points), complex), alphas, alphas)
        return alphas.reshape(*batch, n)


def absorption_at(chain: ElementChain, frequency: float, medium: Medium = AIR) -> float:
    """Normal-incidence absorption coefficient of the chain at one
    frequency: the point of the one-point grid FrequencyGrid(f, f, f),
    which takes only a number, solved by a PointSolver that lives for the
    call. Its direct cos/sin are the grid's one phase-table row, so the
    alpha is that grid's absorption_spectrum bit for bit. Chains without an
    MPP return essentially zero. A NaN alpha fails the spectrum's check
    with a ValueError.
    """
    check_frequency(frequency)
    grid = FrequencyGrid(frequency, frequency, frequency)
    template = chain.template(medium)
    alphas = PointSolver(template, grid, np.arange(1), medium).alphas(template)
    return float(AbsorptionSpectrum(grid, alphas).alphas[0])
