"""Canonical small instances used by the demos and golden tests.

Each returns `(params, V)`, the row order of the example inside `params`.
"""

from __future__ import annotations

from typing import Tuple

from .field import Matrix, vandermonde
from .params import RANDOMNESS_FIRST, SchemeParams


def example1(m: int = 2) -> Tuple[SchemeParams, Matrix]:
    """(3,2,1) over GF(5) with the lower-triangular encoding matrix.

    Its params put randomness above payload in every block, which is what
    makes queries to server 1 pure randomness under this matrix; with the
    payload first, server 1 would see file selectors in the clear.
    """
    params = SchemeParams(n=3, k=2, t=1, m=m, q=5, row_order=RANDOMNESS_FIRST)
    V = Matrix(params.field, [[1, 0, 0], [1, 1, 0], [1, 2, 1]])
    return params, V


def example2(m: int = 2) -> Tuple[SchemeParams, Matrix]:
    """(4,2,1) over GF(5) with the 4x4 power Vandermonde on points 1..4, in
    the default payload-first row order."""
    params = SchemeParams(n=4, k=2, t=1, m=m, q=5)
    V = vandermonde(params.field, [1, 2, 3, 4], 4)
    return params, V


def format_coeffs(params: SchemeParams, coeffs) -> str:
    """Render a symbolic coefficient vector, e.g. "e'1 + 2e'2 + 3r1"."""
    terms = []
    ap = params.alpha_prime
    for c in range(ap):
        coef = coeffs[c]
        if coef:
            terms.append(f"{'' if coef == 1 else coef}e'{c + 1}")
    for u in range(params.randomness_count):
        coef = coeffs[ap + u]
        if coef:
            terms.append(f"{'' if coef == 1 else coef}r{u + 1}")
    return " + ".join(terms) if terms else "0"
