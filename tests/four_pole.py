"""Reference four-pole product for the tests: the chain's element matrices
multiplied as 2x2 matrices, element nearest the source leftmost, in the
precision asked for. `chain_matrix` and the absorption solver walk the
chain instead; this is the textbook product they are checked against."""

import numpy as np

from mppabsorber import AreaChange, element_matrix


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
        m = element_matrix(element, frequency)
        factor = tuple(np.asarray(entry, dtype) for entry in (m.a11, m.a12, m.a21, m.a22))
        product = factor if product is None else matrix_product(product, factor)
    if product is None:
        one, zero = np.ones(np.shape(frequency), dtype), np.zeros(np.shape(frequency), dtype)
        product = (one, zero, zero, one)
    return product
