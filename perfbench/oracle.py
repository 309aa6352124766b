"""Scalar reference model, independent of the mppabsorber package.

Pure-Python complex arithmetic, one frequency at a time: Maa's MPP
impedance, lossless pipe four-poles and a plain 2x2 product from the mouth
to the rigid wall. The workloads compare the package's alpha against it at
sampled frequencies.

Elements are ("mpp", thickness, aperture, porosity, duct_diameter) or
("pipe", length, diameter), all in metres.
"""

import math

SOUND_SPEED = 343.0
DENSITY = 1.204
VISCOSITY = 1.81e-5
MM = 1e-3
TOLERANCE = 1e-9  # on alpha, which is well-conditioned in double precision


def _area(diameter):
    return math.pi * diameter * diameter / 4.0


def _mpp_impedance(thickness, aperture, porosity, frequency):
    """Maa impedance normalised by rho0*c0."""
    omega = 2.0 * math.pi * frequency
    k = aperture * math.sqrt(omega * DENSITY / (4.0 * VISCOSITY))
    r = (32.0 * VISCOSITY * thickness / (porosity * DENSITY * SOUND_SPEED * aperture**2)
         * (math.sqrt(1.0 + k * k / 32.0) + math.sqrt(2.0) / 32.0 * k * aperture / thickness))
    x = (omega * thickness / (porosity * SOUND_SPEED)
         * (1.0 + (9.0 + k * k / 2.0) ** -0.5 + 0.85 * aperture / thickness))
    return complex(r, x)


def _four_pole(element, frequency):
    rho_c = DENSITY * SOUND_SPEED
    if element[0] == "mpp":
        _, thickness, aperture, porosity, duct = element
        z = _mpp_impedance(thickness, aperture, porosity, frequency) * rho_c / _area(duct)
        return (1.0, z, 0.0, 1.0)
    _, length, diameter = element
    kl = 2.0 * math.pi * frequency / SOUND_SPEED * length
    z_c = rho_c / _area(diameter)
    c, s = math.cos(kl), math.sin(kl)
    return (c, 1j * z_c * s, 1j * s / z_c, c)


def alpha(elements, main_diameter, frequency):
    """Absorption coefficient of the rigidly terminated chain at one frequency."""
    a11, a12, a21, a22 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    for element in elements:
        b11, b12, b21, b22 = _four_pole(element, frequency)
        a11, a12, a21, a22 = (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
                              a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)
    z0 = DENSITY * SOUND_SPEED / _area(main_diameter)
    gamma = (a11 - z0 * a21) / (a11 + z0 * a21)
    return min(1.0, max(0.0, 1.0 - abs(gamma) ** 2))


def _mpp(panel, duct_mm):
    thickness, aperture, porosity = panel
    return ("mpp", thickness * MM, aperture * MM, porosity, duct_mm * MM)


def _pipe(length_mm, diameter_mm):
    return ("pipe", length_mm * MM, diameter_mm * MM)


def three_chamber(design, panels):
    """Chain of the three-chamber absorber from a {field: mm} design and
    three (thickness mm, aperture mm, porosity) panels, source first.
    Area changes carry identity matrices and are left out."""
    d = design
    dm = d["d_m"]
    p1, p2, p3 = panels
    return [
        _mpp(p1, dm), _pipe(d["l_1"], dm), _mpp(p2, dm), _pipe(d["l_1p"], dm),
        _pipe(d["l_2"], d["d_2"]), _pipe(d["l_3"], dm), _mpp(p3, dm),
        _pipe(d["l_3p"], dm), _pipe(d["l_4"], d["d_4"]), _pipe(d["l_5"], dm),
        _pipe(d["l_6"], d["d_6"]),
    ], dm * MM


def single_chamber(d_m, l_m, d_e, t_e, panel):
    """Chain of the single-chamber absorber (lengths in mm)."""
    return [_mpp(panel, d_m), _pipe(l_m, d_m), _pipe(t_e, d_e)], d_m * MM


def mismatches(chain, frequencies, alphas, tol=TOLERANCE):
    """Sampled points where the package's alpha differs from the oracle by
    more than tol, as (frequency, package alpha, oracle alpha)."""
    elements, main_diameter = chain
    out = []
    for f, a in zip(frequencies, alphas):
        ref = alpha(elements, main_diameter, float(f))
        if not abs(float(a) - ref) <= tol:
            out.append((float(f), float(a), ref))
    return out
