"""Reference four-pole product for the tests: the chain's element matrices,
from the textbook formulas, multiplied as 2x2 matrices, element nearest the
source leftmost, in the precision asked for. `chain_matrix` and the
absorption solver walk the chain instead; this is the product they are
checked against, and it shares no code with the walk."""

import numpy as np

from mppabsorber import AIR, AreaChange, StraightPipe, mpp_normalized_impedance


def element_entries(element, frequency, medium=AIR):
    """(a11, a12, a21, a22) of one element's four-pole matrix at
    `frequency`. Straight pipe: [[cos(kl), j*Zc*sin(kl)], [j*sin(kl)/Zc,
    cos(kl)]] with k = omega/c0 (lossless) and Zc = rho0*c0/S. Area change:
    identity. MPP: series impedance (rho0*c0/S') * Z_mpp in the upper-right
    slot. All three have unit determinant."""
    one = np.ones(np.shape(frequency), complex)
    zero = np.zeros(np.shape(frequency), complex)
    if isinstance(element, AreaChange):
        return one, zero, zero, one
    if isinstance(element, StraightPipe):
        kl = 2.0 * np.pi * np.asarray(frequency, dtype=float) / medium.sound_speed * element.length
        z_c = medium.characteristic_impedance / element.area
        cos_kl, sin_kl = np.cos(kl), np.sin(kl)
        return cos_kl + 0.0j, 1j * (z_c * sin_kl), 1j * (sin_kl * (1.0 / z_c)), cos_kl + 0.0j
    z = mpp_normalized_impedance(element, frequency, medium) * (
        medium.characteristic_impedance / element.duct_area
    )
    return one, z, zero, one


def matrix_product(a, b):
    """a @ b for 2x2 matrices given as (a11, a12, a21, a22) tuples."""
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def four_pole_product(chain, frequency, dtype=complex):
    """(a11, a12, a21, a22) of the product of the chain's element matrices
    at `frequency`, each factor's entries cast to `dtype`; area changes are
    identities and left out, and a chain of area changes only is the
    identity."""
    product = None
    for element in chain.elements:
        if isinstance(element, AreaChange):
            continue
        factor = tuple(np.asarray(entry, dtype) for entry in element_entries(element, frequency))
        product = factor if product is None else matrix_product(product, factor)
    if product is None:
        one, zero = np.ones(np.shape(frequency), dtype), np.zeros(np.shape(frequency), dtype)
        product = (one, zero, zero, one)
    return product
